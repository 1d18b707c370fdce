"""The columnar data path against the record-at-a-time oracle, byte for byte."""

from datetime import datetime, timedelta, timezone

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import data_oracle
from data_helpers import Reading, to_columns
from fedcast.data.cleaning import HourlySeries, clean_readings
from fedcast.data.features import WeatherTable, build_design_matrix
from fedcast.errors import DataError


def unix_hour(*args):
    return int(datetime(*args, tzinfo=timezone.utc).timestamp() // 3600)


def prepared(clean, build, readings, weather):
    """Hours, values, filled_fraction and matrices as bytes, or the error."""
    try:
        series = clean(readings, "h7")
        matrices = [build(series)]
        if weather is not None:
            matrices.append(build(series, weather))
    except DataError as err:
        return "error", str(err)
    return (series.hours.tobytes(), series.values.tobytes(),
            float(series.filled_fraction).hex(),
            [(m.shape, m.dtype.str, m.tobytes()) for m in matrices])


@st.composite
def meter_inputs(draw):
    step = draw(st.sampled_from([30, 60]))
    year = draw(st.sampled_from([2012, 2013, 2015, 2016]))
    # one draw in two starts in late December, so spans cross a year end
    day = draw(st.one_of(st.integers(340, 365), st.integers(0, 365)))
    start = (datetime(year, 1, 1, tzinfo=timezone.utc)
             + timedelta(days=day, minutes=step * draw(st.integers(0, 1440 // step))))
    n = draw(st.integers(2, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    slots = np.arange(n)
    gap_rate = draw(st.sampled_from([0.0, 0.05, 0.2]))
    interior = rng.random(n) < gap_rate
    interior[[0, -1]] = False
    slots = slots[~interior]
    values = rng.gamma(2.0, 0.2, size=len(slots)).round(draw(st.sampled_from([3, 17])))
    readings = [Reading(start + timedelta(minutes=step * int(s)), float(v))
                for s, v in zip(slots, values)]
    for i in rng.integers(0, len(readings), size=draw(st.integers(0, 5))):
        readings.insert(int(rng.integers(0, len(readings) + 1)),
                        Reading(readings[i].timestamp, float(rng.random())))
    if draw(st.integers(0, 9)) == 0:  # one bad value: the first one is named
        i = int(rng.integers(0, len(readings)))
        readings[i] = Reading(readings[i].timestamp,
                              draw(st.sampled_from([-0.5, np.nan, np.inf])))
    if draw(st.booleans()):
        readings = [readings[i] for i in rng.permutation(len(readings))]

    weather = None
    if draw(st.booleans()):
        lo = int(start.timestamp() // 3600) - 2
        hours = np.arange(lo, lo + 2 * n + 4, dtype=np.int64)
        if draw(st.booleans()):  # one missing observation inside the span
            hours = np.delete(hours, int(rng.integers(2, len(hours))))
        weather = WeatherTable(hours, rng.normal(8.0, 5.0, len(hours)).round(1),
                               rng.uniform(30.0, 100.0, len(hours)).round(1))
    return readings, weather


@settings(max_examples=150, deadline=None)
@given(meter_inputs())
@example((  # a leap year's end: day 365 of 2016 folds into week 51
    [Reading(datetime(2016, 12, 29, tzinfo=timezone.utc) + timedelta(minutes=30 * i),
             0.1 + i / 1000) for i in range(400)],
    WeatherTable(np.arange(unix_hour(2016, 12, 28), unix_hour(2017, 1, 9)),
                 np.linspace(-3.0, 9.0, 288), np.full(288, 80.0))))
def test_cleaning_and_features_match_the_oracle(case):
    readings, weather = case
    expected = prepared(data_oracle.clean_readings, data_oracle.build_design_matrix,
                        readings, weather)
    assert prepared(clean_readings, build_design_matrix,
                    to_columns(readings), weather) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(unix_hour(1990, 1, 1), unix_hour(2030, 12, 31)),
       st.integers(1, 24 * 40))
def test_calendar_columns_match_the_oracle(first_hour, n):
    hours = np.arange(first_hour, first_hour + n, dtype=np.int64)
    series = HourlySeries("h0", hours, np.linspace(0.0, 1.0, n), 0.0)
    assert build_design_matrix(series).tobytes() == \
        data_oracle.build_design_matrix(series).tobytes()
