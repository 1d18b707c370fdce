"""Calendar decomposition and weather joins."""

from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcast.data.cleaning import MeterReadings, clean_readings, epoch_minutes
from fedcast.data.features import (
    BASE_COLUMNS,
    WEATHER_COLUMNS,
    WeatherTable,
    build_design_matrix,
)
from data_helpers import design_row
from data_oracle import calendar_fields
from fedcast.errors import DataError


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
    minutes = epoch_minutes(start) + 30 * np.arange(2 * n_hours)
    return clean_readings(MeterReadings(minutes, np.full(2 * n_hours, 0.25)), "h0")


def weather_covering(series):
    hours = series.hours
    return WeatherTable(hours, 10.0 + (hours % 5), np.full(len(hours), 60.0))


def test_base_matrix_layout():
    series = hourly_series(30)
    matrix = build_design_matrix(series)
    assert matrix.shape == (30, len(BASE_COLUMNS)) == (30, 5)
    assert np.all(matrix[:, 0] == 0.5)
    assert matrix[0, 1] == 2013
    row = design_row(matrix, 0)
    assert row.air_temp_c is None


def test_weather_join_on_exact_hour():
    series = hourly_series(10)
    matrix = build_design_matrix(series, weather_covering(series))
    assert matrix.shape == (10, len(WEATHER_COLUMNS)) == (10, 7)
    assert design_row(matrix, 3).rel_humidity_pct == 60.0


def test_missing_weather_hour_names_the_timestamp():
    series = hourly_series(10)
    hours = series.hours[:-1]  # drop the final hour
    weather = WeatherTable(hours, np.full(len(hours), 10.0), np.full(len(hours), 60.0))
    with pytest.raises(DataError, match="2013-01-01T09:00"):
        build_design_matrix(series, weather)

