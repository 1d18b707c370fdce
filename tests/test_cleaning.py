"""Cleaning pipeline: duplicates, forward fill, hourly aggregation."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

import data_oracle
from data_helpers import Reading, series_to_readings, to_columns
from fedcast.data.cleaning import clean_readings
from fedcast.errors import DataError

T0 = datetime(2013, 1, 1, tzinfo=timezone.utc)


def half_hourly(values):
    return [Reading(T0 + timedelta(minutes=30 * i), v)
            for i, v in enumerate(values)]


def clean(readings, household_id):
    return clean_readings(to_columns(readings), household_id)


def test_half_hourly_pairs_sum_into_hours():
    series = clean(half_hourly([0.2, 0.3, 0.1, 0.4]), "h0")
    assert len(series) == 2
    assert series.values == pytest.approx([0.5, 0.5])
    assert series.hours[0] == int(T0.timestamp() // 3600)
    assert series.filled_fraction == 0.0


def test_duplicates_keep_the_first_occurrence():
    readings = half_hourly([0.2, 0.3, 0.1, 0.4])
    readings.insert(1, Reading(T0, 9.9))  # duplicate of slot 0, later value
    series = clean(readings, "h0")
    assert series.values[0] == pytest.approx(0.5)


def test_interior_gap_is_forward_filled():
    readings = half_hourly([0.2, 0.3, 0.1, 0.4])
    del readings[2]  # 01:00 slot missing; carried value is 0.3
    series = clean(readings, "h0")
    assert series.values == pytest.approx([0.5, 0.7])
    assert series.filled_fraction == pytest.approx(1 / 4)


def test_trailing_partial_hour_is_dropped():
    series = clean(half_hourly([0.2, 0.3, 0.1]), "h0")
    assert len(series) == 1
    assert series.values == pytest.approx([0.5])


def test_cleaning_hourly_data_is_idempotent():
    first = clean(half_hourly(list(np.linspace(0.1, 1.0, 12))), "h0")
    second = clean_readings(series_to_readings(first), "h0")
    assert np.array_equal(first.hours, second.hours)
    assert np.array_equal(first.values, second.values)
    assert second.filled_fraction == 0.0


def test_columnar_and_record_inputs_clean_alike():
    # the record-at-a-time oracle on records, the package on their columns
    readings = half_hourly([0.2, 0.3, 0.1, 0.4, 0.6, 0.5])
    del readings[3]
    columns = to_columns(readings)
    assert len(columns) == 5
    a, b = data_oracle.clean_readings(readings, "h0"), clean_readings(columns, "h0")
    assert a.values.tobytes() == b.values.tobytes()
    assert a.hours.tobytes() == b.hours.tobytes()
    assert a.filled_fraction == b.filled_fraction


def test_negative_reading_is_rejected():
    readings = half_hourly([0.2, -0.1, 0.1, 0.4])
    with pytest.raises(DataError, match="negative or non-finite"):
        clean(readings, "h0")


def test_off_grid_reading_is_rejected():
    # stray mid-slot readings among enough regular ones that the grid
    # step is still inferred as 30 minutes; named in input order
    readings = half_hourly([0.2, 0.3, 0.1, 0.4] * 5)
    minute = int(T0.timestamp() // 60)
    for offset in (165, 45, 105, 15):
        readings.append(Reading(T0 + timedelta(minutes=offset), 0.2))
    off = ", ".join(str(minute + offset) for offset in (165, 45, 105))
    with pytest.raises(DataError, match=rf"off the 30-minute grid: \[{off}\]"):
        clean(readings, "h0")


def test_single_reading_is_rejected():
    with pytest.raises(DataError, match="two distinct"):
        clean([Reading(T0, 0.5)], "h0")


def test_unsupported_interval_is_rejected():
    readings = [Reading(T0 + timedelta(minutes=15 * i), 0.1)
                for i in range(8)]
    with pytest.raises(DataError, match="unsupported reading interval"):
        clean(readings, "h0")


def test_naive_timestamps_are_taken_as_utc():
    naive = [Reading(datetime(2013, 1, 1) + timedelta(minutes=30 * i), v)
             for i, v in enumerate([0.2, 0.3, 0.1, 0.4])]
    aware = clean(half_hourly([0.2, 0.3, 0.1, 0.4]), "h0")
    assert np.array_equal(clean(naive, "h0").hours, aware.hours)
