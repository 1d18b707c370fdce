"""Feature rows: hourly energy plus calendar and optional weather context.

Each design-matrix row describes one hour: the energy total, the calendar
decomposition of the hour's timestamp, and, when requested, air temperature
and relative humidity joined on the exact hour.  Column 0 is always the
energy value, which doubles as the forecasting target.

The matrix is built a column at a time: the calendar fields come from
`datetime64` arithmetic on the whole hour array, and weather is joined by
a binary search of the hours into the table's sorted hour column.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from ..errors import DataError, ValidationError
from .cleaning import HourlySeries

BASE_COLUMNS = ("energy_kwh", "year", "week_of_year", "day_of_week", "hour_of_day")
WEATHER_COLUMNS = BASE_COLUMNS + ("air_temp_c", "rel_humidity_pct")


@dataclass(frozen=True)
class WeatherRecord:
    """Hourly weather observation (UTC)."""

    timestamp: datetime
    air_temp_c: float
    rel_humidity_pct: float

    def __post_init__(self):
        if not (np.isfinite(self.air_temp_c) and np.isfinite(self.rel_humidity_pct)):
            raise ValidationError("weather values must be finite")
        if not 0.0 <= self.rel_humidity_pct <= 100.0:
            raise ValidationError("relative humidity must lie in [0, 100]")


class WeatherTable:
    """Hour-indexed weather lookup."""

    def __init__(self, hours: np.ndarray, air_temp_c: np.ndarray,
                 rel_humidity_pct: np.ndarray):
        self.hours = np.asarray(hours, dtype=np.int64)
        self.air_temp_c = np.asarray(air_temp_c, dtype=np.float64)
        self.rel_humidity_pct = np.asarray(rel_humidity_pct, dtype=np.float64)
        if not (len(self.hours) == len(self.air_temp_c) == len(self.rel_humidity_pct)):
            raise ValidationError("weather columns must have equal length")
        if len(self.hours) and np.any(np.diff(self.hours) <= 0):
            raise ValidationError("weather hours must be strictly increasing")

    @classmethod
    def from_records(cls, records) -> "WeatherTable":
        recs = sorted(records, key=lambda r: r.timestamp)
        hours, temps, hums = [], [], []
        for r in recs:
            ts = r.timestamp if r.timestamp.tzinfo else r.timestamp.replace(tzinfo=timezone.utc)
            hour = int(ts.timestamp() // 3600)
            if hours and hour == hours[-1]:
                continue  # duplicate hour, keep the first
            hours.append(hour)
            temps.append(r.air_temp_c)
            hums.append(r.rel_humidity_pct)
        return cls(np.asarray(hours, dtype=np.int64), np.asarray(temps), np.asarray(hums))

    def __len__(self) -> int:
        return len(self.hours)


@dataclass(frozen=True)
class DesignMatrix:
    """Feature rows for one household in chronological order."""

    columns: tuple
    values: np.ndarray  # (N, len(columns)) float64
    hours: np.ndarray   # (N,) int64 unix hour of each row

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != len(self.columns):
            raise ValidationError("values must be (N, len(columns))")
        if len(self.hours) != len(self.values):
            raise ValidationError("hours must align with rows")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def feature_dim(self) -> int:
        return self.values.shape[1]


def build_design_matrix(hourly: HourlySeries,
                        weather: WeatherTable | None = None) -> DesignMatrix:
    """Assemble the per-hour feature rows, joining weather on the exact hour.

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
    return DesignMatrix(columns=columns, values=out, hours=hours.copy())
