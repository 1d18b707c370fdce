"""Calendar decomposition and weather joins."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcast.data import (
    BASE_COLUMNS,
    WEATHER_COLUMNS,
    WeatherRecord,
    WeatherTable,
    build_design_matrix,
    clean_readings,
)
from data_helpers import design_row
from data_oracle import calendar_fields, lookup
from fedcast.data.cleaning import RawReading
from fedcast.errors import DataError, ValidationError


def unix_hour(*args):
    return int(datetime(*args, tzinfo=timezone.utc).timestamp() // 3600)


def test_new_years_day_2013():
    # 2013-01-01 was a Tuesday
    assert calendar_fields(unix_hour(2013, 1, 1, 0)) == (2013, 0, 1, 0)
    assert calendar_fields(unix_hour(2013, 1, 1, 23)) == (2013, 0, 1, 23)


def test_week_increments_every_seven_days():
    assert calendar_fields(unix_hour(2013, 1, 7))[1] == 0
    assert calendar_fields(unix_hour(2013, 1, 8))[1] == 1
    assert calendar_fields(unix_hour(2013, 1, 7))[2] == 0  # a Monday


def test_year_end_days_fold_into_week_51():
    assert calendar_fields(unix_hour(2013, 12, 30))[1] == 51
    assert calendar_fields(unix_hour(2013, 12, 31))[1] == 51
    assert calendar_fields(unix_hour(2014, 1, 1))[1] == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(unix_hour(2011, 1, 1), unix_hour(2015, 12, 31)))
def test_calendar_fields_agree_with_datetime(hour):
    year, week, dow, hod = calendar_fields(hour)
    dt = datetime.fromtimestamp(hour * 3600, tz=timezone.utc)
    assert year == dt.year
    assert dow == dt.weekday()
    assert hod == dt.hour
    assert week == min((dt.timetuple().tm_yday - 1) // 7, 51)
    assert 0 <= week <= 51


def hourly_series(n_hours, start=datetime(2013, 1, 1, tzinfo=timezone.utc)):
    readings = [RawReading(start + timedelta(minutes=30 * i), 0.25)
                for i in range(2 * n_hours)]
    return clean_readings(readings, "h0")


def weather_covering(series):
    records = []
    for hour in series.hours:
        ts = datetime.fromtimestamp(int(hour) * 3600, tz=timezone.utc)
        records.append(WeatherRecord(ts, 10.0 + (hour % 5), 60.0))
    return WeatherTable.from_records(records)


def test_base_matrix_layout():
    series = hourly_series(30)
    matrix = build_design_matrix(series)
    assert matrix.columns == BASE_COLUMNS
    assert matrix.values.shape == (30, 5)
    assert np.array_equal(matrix.hours, series.hours)
    assert np.all(matrix.values[:, 0] == 0.5)
    assert matrix.values[0, 1] == 2013
    row = design_row(matrix, 0)
    assert row.air_temp_c is None


def test_weather_join_on_exact_hour():
    series = hourly_series(10)
    matrix = build_design_matrix(series, weather_covering(series))
    assert matrix.columns == WEATHER_COLUMNS
    assert matrix.values.shape == (10, 7)
    assert design_row(matrix, 3).rel_humidity_pct == 60.0


def test_missing_weather_hour_names_the_timestamp():
    series = hourly_series(10)
    records = [WeatherRecord(
        datetime.fromtimestamp(int(h) * 3600, tz=timezone.utc), 10.0, 60.0)
        for h in series.hours[:-1]]  # drop the final hour
    with pytest.raises(DataError, match="2013-01-01T09:00"):
        build_design_matrix(series, WeatherTable.from_records(records))


def test_weather_duplicate_hours_keep_the_first():
    ts = datetime(2013, 1, 1, tzinfo=timezone.utc)
    table = WeatherTable.from_records([
        WeatherRecord(ts, 5.0, 50.0),
        WeatherRecord(ts, 99.0, 10.0),
    ])
    assert len(table) == 1
    assert lookup(table, int(ts.timestamp() // 3600)) == (5.0, 50.0)


def test_weather_record_validation():
    ts = datetime(2013, 1, 1, tzinfo=timezone.utc)
    with pytest.raises(ValidationError):
        WeatherRecord(ts, 5.0, 101.0)
    with pytest.raises(ValidationError):
        WeatherRecord(ts, float("nan"), 50.0)
