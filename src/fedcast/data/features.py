"""Feature rows: hourly energy plus calendar and optional weather context.

Each design-matrix row describes one hour: the energy total, the calendar
decomposition of the hour's timestamp, and, when requested, air temperature
and relative humidity joined on the exact hour.  Column 0 is always the
energy value, which doubles as the forecasting target.
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
        self._pos = {int(h): i for i, h in enumerate(self.hours)}

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

    def lookup(self, hour: int):
        i = self._pos.get(int(hour))
        if i is None:
            return None
        return float(self.air_temp_c[i]), float(self.rel_humidity_pct[i])


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


def calendar_fields(hour: int) -> tuple[int, int, int, int]:
    """(year, week_of_year, day_of_week, hour_of_day) for a unix hour index.

    Weeks count in whole 7-day blocks from January 1st, clamped to 51 so the
    trailing 1-2 days of a year fold into the last week.  Monday is day 0.
    """
    dt = datetime.fromtimestamp(int(hour) * 3600, tz=timezone.utc)
    day_of_year = dt.timetuple().tm_yday
    week = min((day_of_year - 1) // 7, 51)
    return dt.year, week, dt.weekday(), dt.hour


def build_design_matrix(hourly: HourlySeries,
                        weather: WeatherTable | None = None) -> DesignMatrix:
    """Assemble the per-hour feature rows, joining weather on the exact hour."""
    if len(hourly) == 0:
        raise DataError("empty hourly series")
    with_weather = weather is not None
    columns = WEATHER_COLUMNS if with_weather else BASE_COLUMNS
    out = np.empty((len(hourly), len(columns)), dtype=np.float64)
    for i, hour in enumerate(hourly.hours):
        year, week, dow, hod = calendar_fields(int(hour))
        out[i, 0] = hourly.values[i]
        out[i, 1] = year
        out[i, 2] = week
        out[i, 3] = dow
        out[i, 4] = hod
        if with_weather:
            obs = weather.lookup(int(hour))
            if obs is None:
                stamp = datetime.fromtimestamp(int(hour) * 3600, tz=timezone.utc)
                raise DataError(
                    f"weather has no observation for {stamp.isoformat()} "
                    f"(household {hourly.household_id})")
            out[i, 5], out[i, 6] = obs
    return DesignMatrix(columns=columns, values=out, hours=hourly.hours.copy())
