"""Cleaning pipeline: duplicates, forward fill, hourly aggregation."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from data_helpers import series_to_readings
from fedcast.data import RawReading, clean_readings
from fedcast.errors import DataError

T0 = datetime(2013, 1, 1, tzinfo=timezone.utc)


def half_hourly(values, start=T0):
    return [RawReading(start + timedelta(minutes=30 * i), v)
            for i, v in enumerate(values)]


def test_half_hourly_pairs_sum_into_hours():
    series = clean_readings(half_hourly([0.2, 0.3, 0.1, 0.4]), "h0")
    assert len(series) == 2
    assert series.values == pytest.approx([0.5, 0.5])
    assert series.hours[0] == int(T0.timestamp() // 3600)
    assert series.filled_fraction == 0.0


def test_duplicates_keep_the_first_occurrence():
    readings = half_hourly([0.2, 0.3, 0.1, 0.4])
    readings.insert(1, RawReading(T0, 9.9))  # duplicate of slot 0, later value
    series = clean_readings(readings, "h0")
    assert series.values[0] == pytest.approx(0.5)


def test_interior_gap_is_forward_filled():
    readings = half_hourly([0.2, 0.3, 0.1, 0.4])
    del readings[2]  # 01:00 slot missing; carried value is 0.3
    series = clean_readings(readings, "h0")
    assert series.values == pytest.approx([0.5, 0.7])
    assert series.filled_fraction == pytest.approx(1 / 4)


def test_trailing_partial_hour_is_dropped():
    series = clean_readings(half_hourly([0.2, 0.3, 0.1]), "h0")
    assert len(series) == 1
    assert series.values == pytest.approx([0.5])


def test_cleaning_hourly_data_is_idempotent():
    first = clean_readings(half_hourly(list(np.linspace(0.1, 1.0, 12))), "h0")
    second = clean_readings(series_to_readings(first), "h0")
    assert np.array_equal(first.hours, second.hours)
    assert np.array_equal(first.values, second.values)
    assert second.filled_fraction == 0.0


def test_leading_gap_with_window_is_rejected():
    readings = half_hourly([0.2, 0.3, 0.1, 0.4], start=T0 + timedelta(hours=2))
    with pytest.raises(DataError, match="leading gap"):
        clean_readings(readings, "h0", window=(T0, T0 + timedelta(hours=4)))


def test_window_extends_the_tail_by_filling():
    readings = half_hourly([0.2, 0.3, 0.1, 0.4])
    series = clean_readings(readings, "h0",
                            window=(T0, T0 + timedelta(hours=3)))
    # two real hours plus one fully forward-filled hour (2 slots of 0.4)
    assert len(series) == 3
    assert series.values[2] == pytest.approx(0.8)
    assert series.filled_fraction > 0.0


def test_negative_reading_is_rejected():
    readings = half_hourly([0.2, -0.1, 0.1, 0.4])
    with pytest.raises(DataError, match="negative or non-finite"):
        clean_readings(readings, "h0")


def test_off_grid_reading_is_rejected():
    # one stray mid-slot reading among enough regular ones that the grid
    # step is still inferred as 30 minutes
    readings = half_hourly([0.2, 0.3, 0.1, 0.4, 0.2, 0.3, 0.1, 0.4])
    readings.append(RawReading(T0 + timedelta(minutes=45), 0.2))
    with pytest.raises(DataError, match="off the 30-minute grid"):
        clean_readings(readings, "h0")


def test_single_reading_is_rejected():
    with pytest.raises(DataError, match="two distinct"):
        clean_readings([RawReading(T0, 0.5)], "h0")


def test_unsupported_interval_is_rejected():
    readings = [RawReading(T0 + timedelta(minutes=15 * i), 0.1)
                for i in range(8)]
    with pytest.raises(DataError, match="unsupported reading interval"):
        clean_readings(readings, "h0")


def test_naive_timestamps_are_taken_as_utc():
    naive = [RawReading(datetime(2013, 1, 1) + timedelta(minutes=30 * i), v)
             for i, v in enumerate([0.2, 0.3, 0.1, 0.4])]
    aware = clean_readings(half_hourly([0.2, 0.3, 0.1, 0.4]), "h0")
    assert np.array_equal(clean_readings(naive, "h0").hours, aware.hours)
