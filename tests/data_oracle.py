"""Record-at-a-time oracle for the data path, for tests.

The package cleans and featurises meter data as whole arrays.  These are the
plain per-reading and per-hour versions of the same steps: `clean_readings`
walks the readings through a dict and forward-fills slot by slot,
`build_design_matrix` decomposes one hour at a time with `calendar_fields`
and joins weather with `lookup`.  Tests compare the array path with them
byte for byte.
"""

from __future__ import annotations

from collections import Counter
from datetime import datetime, timezone

import numpy as np

from fedcast.data import BASE_COLUMNS, WEATHER_COLUMNS, DesignMatrix, HourlySeries
from fedcast.data.cleaning import epoch_minutes
from fedcast.errors import DataError

_SUPPORTED_STEPS_MIN = (30, 60)


def clean_readings(readings, household_id: str) -> HourlySeries:
    """Turn raw interval readings into a gap-free hourly series."""
    readings = list(readings)
    if not readings:
        raise DataError(f"{household_id}: no readings")

    seen = {}
    for r in readings:
        value = float(r.energy_kwh)
        if not np.isfinite(value) or value < 0.0:
            raise DataError(
                f"{household_id}: negative or non-finite reading at {r.timestamp}")
        minute = epoch_minutes(r.timestamp)
        if minute not in seen:  # duplicates keep the first occurrence
            seen[minute] = value
    minutes = sorted(seen)
    if len(minutes) < 2:
        raise DataError(f"{household_id}: need at least two distinct reading timestamps")

    gaps = Counter(b - a for a, b in zip(minutes, minutes[1:]))
    step = min(gaps, key=lambda g: (-gaps[g], g))  # modal gap, ties to smaller
    if step not in _SUPPORTED_STEPS_MIN:
        raise DataError(f"{household_id}: unsupported reading interval of {step} minutes")

    start_minute, end_minute = minutes[0], minutes[-1]

    grid = np.arange(start_minute, end_minute + 1, step, dtype=np.int64)
    values = np.empty(len(grid), dtype=np.float64)
    filled = 0
    last = None
    for i, minute in enumerate(grid):
        if int(minute) in seen:
            last = seen[int(minute)]
        else:
            filled += 1
        values[i] = last
    off_grid = [m for m in seen if (m - start_minute) % step != 0]
    if off_grid:
        raise DataError(
            f"{household_id}: readings off the {step}-minute grid: {off_grid[:3]}")

    per_hour = 60 // step
    hour_idx = grid // 60
    first_hour = int(hour_idx[0])
    counts = np.bincount(hour_idx - first_hour)
    sums = np.bincount(hour_idx - first_hour, weights=values)
    complete = counts == per_hour
    if not complete.any():
        raise DataError(f"{household_id}: no fully covered hour in the reading range")
    hours = (np.flatnonzero(complete) + first_hour).astype(np.int64)
    return HourlySeries(
        household_id=household_id,
        hours=hours,
        values=sums[complete],
        filled_fraction=filled / len(grid),
    )


def calendar_fields(hour: int) -> tuple[int, int, int, int]:
    """(year, week_of_year, day_of_week, hour_of_day) for a unix hour index.

    Weeks count in whole 7-day blocks from January 1st, clamped to 51 so the
    trailing 1-2 days of a year fold into the last week.  Monday is day 0.
    """
    dt = datetime.fromtimestamp(int(hour) * 3600, tz=timezone.utc)
    day_of_year = dt.timetuple().tm_yday
    week = min((day_of_year - 1) // 7, 51)
    return dt.year, week, dt.weekday(), dt.hour


def lookup(weather, hour: int, pos: dict | None = None):
    """(air_temp_c, rel_humidity_pct) of a WeatherTable at one hour, or None.

    `pos` maps hour to row; pass it to look up many hours in one table.
    """
    if pos is None:
        pos = {int(h): i for i, h in enumerate(weather.hours)}
    i = pos.get(int(hour))
    if i is None:
        return None
    return float(weather.air_temp_c[i]), float(weather.rel_humidity_pct[i])


def build_design_matrix(hourly: HourlySeries, weather=None) -> DesignMatrix:
    """Assemble the per-hour feature rows, joining weather on the exact hour."""
    if len(hourly) == 0:
        raise DataError("empty hourly series")
    with_weather = weather is not None
    columns = WEATHER_COLUMNS if with_weather else BASE_COLUMNS
    out = np.empty((len(hourly), len(columns)), dtype=np.float64)
    if with_weather:
        pos = {int(h): i for i, h in enumerate(weather.hours)}
    for i, hour in enumerate(hourly.hours):
        year, week, dow, hod = calendar_fields(int(hour))
        out[i, 0] = hourly.values[i]
        out[i, 1] = year
        out[i, 2] = week
        out[i, 3] = dow
        out[i, 4] = hod
        if with_weather:
            obs = lookup(weather, int(hour), pos)
            if obs is None:
                stamp = datetime.fromtimestamp(int(hour) * 3600, tz=timezone.utc)
                raise DataError(
                    f"weather has no observation for {stamp.isoformat()} "
                    f"(household {hourly.household_id})")
            out[i, 5], out[i, 6] = obs
    return DesignMatrix(columns=columns, values=out, hours=hourly.hours.copy())
