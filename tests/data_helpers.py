"""Record-at-a-time views of the data pipeline's arrays, for tests.

The package keeps readings, hourly series, design matrices and windows as
arrays and never reads them one record at a time.  The tests do, to check a
single row, window or reading by name, and to write readings as records;
these helpers do that reading and convert records to the package's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import NamedTuple

import numpy as np

from fedcast.data.cleaning import MeterReadings, epoch_minutes
from fedcast.data.features import WEATHER_COLUMNS
from fedcast.errors import ValidationError


class Reading(NamedTuple):
    """One interval energy total, timestamped at the interval start."""

    timestamp: datetime
    energy_kwh: float


def to_columns(readings) -> MeterReadings:
    """Reading records as the package's columnar MeterReadings, in order."""
    readings = list(readings)
    return MeterReadings(
        np.array([epoch_minutes(r.timestamp) for r in readings], dtype=np.int64),
        np.array([float(r.energy_kwh) for r in readings], dtype=np.float64))


@dataclass(frozen=True)
class SequenceSample:
    """One training example: K feature rows and the next hour's energy."""

    window: np.ndarray  # (K, D)
    label: float


def sample_at(seq_set, i: int) -> SequenceSample:
    """The i-th window of a SequenceSet with its label."""
    return SequenceSample(seq_set.windows[i], float(seq_set.labels[i]))


@dataclass(frozen=True)
class FeatureVector:
    """One design-matrix row."""

    energy_kwh: float
    year: float
    week_of_year: float
    day_of_week: float
    hour_of_day: float
    air_temp_c: float | None = None
    rel_humidity_pct: float | None = None


def design_row(matrix, i: int) -> FeatureVector:
    """Row i of a design matrix by column name."""
    vals = matrix[i]
    extra = {}
    if matrix.shape[1] == len(WEATHER_COLUMNS):
        extra = {"air_temp_c": float(vals[5]), "rel_humidity_pct": float(vals[6])}
    return FeatureVector(float(vals[0]), float(vals[1]), float(vals[2]),
                         float(vals[3]), float(vals[4]), **extra)


def series_to_readings(series) -> MeterReadings:
    """An hourly series as interval readings, to feed back into cleaning."""
    if len(series) == 0:
        raise ValidationError("empty hourly series")
    return MeterReadings(series.hours * 60, series.values.copy())


def denormalize_column(values, params, column: str):
    """Inverse min-max map for one column; constant columns return their min."""
    if column not in params.columns:
        raise ValidationError(f"unknown column {column!r}")
    i = params.columns.index(column)
    span = params.maxs[i] - params.mins[i]
    return np.asarray(values, dtype=np.float64) * span + params.mins[i]


def degenerate(params) -> tuple:
    """Names of a NormalizationParams' constant columns, which normalize to 0.0."""
    return tuple(c for c, lo, hi in zip(params.columns, params.mins, params.maxs)
                 if lo == hi)
