"""Meter-reading cleanup: de-duplicate, forward-fill, resample to hourly totals.

Readings are interval energy totals on a regular grid (ordinarily one
reading per 30 minutes).  Cleaning drops duplicate timestamps keeping the
first occurrence, forward-fills interior gaps by carrying the previous
reading's value, and sums the readings inside each fully covered hour into
one hourly total.  Feeding the hourly output back in is a no-op: the grid
step is inferred from the data, and an hourly series resamples to itself.

A household's readings are one `MeterReadings`, two columns (epoch
minutes and kWh), which is the form both the CSV ingest and the synthetic
generator produce.  Every step runs on whole arrays: a sort for the
duplicates, a count of each gap for the step, a running maximum of source
indices for the forward fill, and a bincount for the hourly sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from ..errors import DataError, ValidationError

_SUPPORTED_STEPS_MIN = (30, 60)


@dataclass(frozen=True)
class MeterReadings:
    """One household's interval readings as columns, in input order."""

    minutes: np.ndarray       # int64 epoch minutes of each interval start (UTC)
    kwh: np.ndarray           # float64 energy of each interval

    def __post_init__(self):
        if len(self.minutes) != len(self.kwh):
            raise ValidationError("minutes and kwh must have equal length")

    def __len__(self) -> int:
        return len(self.minutes)


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


def clean_readings(readings: MeterReadings, household_id: str | None = None,
                   window: tuple[datetime, datetime] | None = None) -> HourlySeries:
    """Turn one household's interval readings into a gap-free hourly series.

    `window`, when given, is the required (start, end) coverage; a first
    reading after the window start is a leading gap and is rejected, because
    there is nothing to forward-fill from.  A window start that falls on a
    missing slot is filled from the last reading before it.
    """
    who = household_id or "<unknown household>"
    if len(readings) == 0:
        raise DataError(f"{who}: no readings")

    bad = ~np.isfinite(readings.kwh) | (readings.kwh < 0.0)
    if bad.any():
        stamp = datetime.fromtimestamp(int(readings.minutes[np.argmax(bad)]) * 60,
                                       tz=timezone.utc)
        raise DataError(f"{who}: negative or non-finite reading at {stamp}")
    # unique() keeps the first occurrence's index: duplicates keep the first
    minutes, first = np.unique(readings.minutes, return_index=True)
    if len(minutes) < 2:
        raise DataError(f"{who}: need at least two distinct reading timestamps")
    values = readings.kwh[first]

    gaps, gap_counts = np.unique(np.diff(minutes), return_counts=True)
    step = int(gaps[np.argmax(gap_counts)])  # modal gap, ties to the smaller
    if step not in _SUPPORTED_STEPS_MIN:
        raise DataError(f"{who}: unsupported reading interval of {step} minutes")

    lo = 0
    start_minute, end_minute = int(minutes[0]), int(minutes[-1])
    if window is not None:
        win_start, win_end = (epoch_minutes(t) for t in window)
        if start_minute > win_start:
            raise DataError(
                f"{who}: leading gap, first reading {start_minute - win_start} "
                "minutes after the window start has nothing to forward-fill from")
        lo = int(np.searchsorted(minutes, win_start))  # first reading in the window
        start_minute, end_minute = win_start, max(end_minute, win_end)
    offsets = minutes[lo:] - start_minute
    off_grid = offsets % step != 0
    if off_grid.any():
        stray = readings.minutes[np.sort(first[lo:][off_grid])[:3]].tolist()
        raise DataError(f"{who}: readings off the {step}-minute grid: {stray}")

    grid = np.arange(start_minute, end_minute + 1, step, dtype=np.int64)
    source = np.full(len(grid), -1, dtype=np.int64)
    source[offsets // step] = np.arange(lo, len(minutes))
    if source[0] < 0:
        source[0] = lo - 1  # the window starts on a missing slot
    np.maximum.accumulate(source, out=source)
    filled = len(grid) - (len(minutes) - lo)

    per_hour = 60 // step
    hour_idx = grid // 60
    first_hour = int(hour_idx[0])
    counts = np.bincount(hour_idx - first_hour)
    sums = np.bincount(hour_idx - first_hour, weights=values[source])
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
