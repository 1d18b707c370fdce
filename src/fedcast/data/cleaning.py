"""Meter-reading cleanup: de-duplicate, forward-fill, resample to hourly totals.

Readings are interval energy totals on a regular grid (ordinarily one
reading per 30 minutes).  Cleaning drops duplicate timestamps keeping the
first occurrence, forward-fills interior gaps by carrying the previous
reading's value, and sums the readings inside each fully covered hour into
one hourly total.  Feeding the hourly output back in is a no-op: the grid
step is inferred from the data, and an hourly series resamples to itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from ..errors import DataError

_SUPPORTED_STEPS_MIN = (30, 60)


@dataclass(frozen=True)
class RawReading:
    """One interval energy total, timestamped at the interval start (UTC)."""

    timestamp: datetime
    energy_kwh: float


@dataclass(frozen=True)
class HourlySeries:
    """Gap-free hourly energy totals for one household."""

    household_id: str | None
    hours: np.ndarray         # int64 unix hour indices, consecutive
    values: np.ndarray        # float64 kWh per hour
    filled_fraction: float    # share of grid slots that were forward-filled

    def __len__(self) -> int:
        return len(self.hours)


def epoch_minutes(ts: datetime) -> int:
    """Unix minutes for a timestamp; naive datetimes are taken as UTC."""
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return int(ts.timestamp() // 60)


def clean_readings(readings, household_id: str | None = None,
                   window: tuple[datetime, datetime] | None = None) -> HourlySeries:
    """Turn raw interval readings into a gap-free hourly series.

    `window`, when given, is the required (start, end) coverage; a first
    reading after the window start is a leading gap and is rejected, because
    there is nothing to forward-fill from.
    """
    who = household_id or "<unknown household>"
    readings = list(readings)
    if not readings:
        raise DataError(f"{who}: no readings")

    seen = {}
    for r in readings:
        value = float(r.energy_kwh)
        if not np.isfinite(value) or value < 0.0:
            raise DataError(f"{who}: negative or non-finite reading at {r.timestamp}")
        minute = epoch_minutes(r.timestamp)
        if minute not in seen:  # duplicates keep the first occurrence
            seen[minute] = value
    minutes = sorted(seen)
    if len(minutes) < 2:
        raise DataError(f"{who}: need at least two distinct reading timestamps")

    gaps = Counter(b - a for a, b in zip(minutes, minutes[1:]))
    step = min(gaps, key=lambda g: (-gaps[g], g))  # modal gap, ties to smaller
    if step not in _SUPPORTED_STEPS_MIN:
        raise DataError(f"{who}: unsupported reading interval of {step} minutes")

    start_minute, end_minute = minutes[0], minutes[-1]
    if window is not None:
        win_start, win_end = (epoch_minutes(t) for t in window)
        if start_minute > win_start:
            raise DataError(
                f"{who}: leading gap, first reading {start_minute - win_start} "
                "minutes after the window start has nothing to forward-fill from")
        start_minute, end_minute = win_start, max(end_minute, win_end)
        seen = {m: v for m, v in seen.items() if win_start <= m <= end_minute}

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
        raise DataError(f"{who}: readings off the {step}-minute grid: {off_grid[:3]}")

    per_hour = 60 // step
    hour_idx = grid // 60
    first_hour = int(hour_idx[0])
    counts = np.bincount(hour_idx - first_hour)
    sums = np.bincount(hour_idx - first_hour, weights=values)
    complete = counts == per_hour
    if not complete.any():
        raise DataError(f"{who}: no fully covered hour in the reading range")
    hours = (np.flatnonzero(complete) + first_hour).astype(np.int64)
    return HourlySeries(
        household_id=household_id,
        hours=hours,
        values=sums[complete],
        filled_fraction=filled / len(grid),
    )
