"""Feature rows: hourly energy plus calendar and optional weather context.

A design matrix is an (N, D) float64 array, one row per hour: the energy
total, the calendar decomposition of the hour's timestamp, and, when
requested, air temperature and relative humidity joined on the exact hour,
in `BASE_COLUMNS` or `WEATHER_COLUMNS` order.  Column 0 is always the energy
value, which doubles as the forecasting target.

The matrix is built a column at a time: the calendar fields come from
`datetime64` arithmetic on the whole hour array, and weather is joined by
a binary search of the hours into the table's sorted hour column.
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np

from ..errors import DataError, ValidationError
from .cleaning import HourlySeries

BASE_COLUMNS = ("energy_kwh", "year", "week_of_year", "day_of_week", "hour_of_day")
WEATHER_COLUMNS = BASE_COLUMNS + ("air_temp_c", "rel_humidity_pct")


class WeatherTable:
    """Hourly weather observations as columns, one row per unix hour."""

    def __init__(self, hours: np.ndarray, air_temp_c: np.ndarray,
                 rel_humidity_pct: np.ndarray):
        self.hours = np.asarray(hours, dtype=np.int64)
        self.air_temp_c = np.asarray(air_temp_c, dtype=np.float64)
        self.rel_humidity_pct = np.asarray(rel_humidity_pct, dtype=np.float64)
        if not (len(self.hours) == len(self.air_temp_c) == len(self.rel_humidity_pct)):
            raise ValidationError("weather columns must have equal length")
        if len(self.hours) and np.any(np.diff(self.hours) <= 0):
            raise ValidationError("weather hours must be strictly increasing")

    def __len__(self) -> int:
        return len(self.hours)


def build_design_matrix(hourly: HourlySeries,
                        weather: WeatherTable | None = None) -> np.ndarray:
    """Assemble the per-hour feature rows in chronological order, joining
    weather on the exact hour.

    Calendar columns: year, week of year (whole 7-day blocks from January
    1st, clamped to 51 so a year's trailing 1-2 days fold into the last
    week), day of week (Monday is 0) and hour of day, all in UTC.
    """
    if len(hourly) == 0:
        raise DataError("empty hourly series")
    columns = WEATHER_COLUMNS if weather is not None else BASE_COLUMNS
    hours = hourly.hours
    days = hours.astype("datetime64[h]").astype("datetime64[D]")
    years = days.astype("datetime64[Y]")
    day_of_year = (days - years.astype("datetime64[D]")).astype(np.int64)
    out = np.empty((len(hourly), len(columns)), dtype=np.float64)
    out[:, 0] = hourly.values
    out[:, 1] = years.astype(np.int64) + 1970
    out[:, 2] = np.minimum(day_of_year // 7, 51)
    out[:, 3] = (days.astype(np.int64) + 3) % 7  # 1970-01-01 was a Thursday
    out[:, 4] = hours % 24
    if weather is not None:
        pos = np.searchsorted(weather.hours, hours)
        found = pos < len(weather.hours)
        found[found] = weather.hours[pos[found]] == hours[found]
        if not found.all():
            missing = int(hours[np.argmin(found)])
            stamp = datetime.fromtimestamp(missing * 3600, tz=timezone.utc)
            raise DataError(
                f"weather has no observation for {stamp.isoformat()} "
                f"(household {hourly.household_id})")
        out[:, 5] = weather.air_temp_c[pos]
        out[:, 6] = weather.rel_humidity_pct[pos]
    return out
