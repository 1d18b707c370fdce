"""Min-max normalization fitted on training rows only.

One set of per-column (min, max) pairs is fitted over the training rows of
every household together, so in particular the energy column is scaled
identically for all households and model parameters remain comparable and
averageable across clients.  Constant columns (min == max) are mapped to
0.0 and reported, since they carry no information.  Matrices are (N, D)
arrays; only `NormalizationParams.columns` names their columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError


@dataclass(frozen=True)
class NormalizationParams:
    columns: tuple
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        if len(self.mins) != len(self.columns) or len(self.maxs) != len(self.columns):
            raise ValidationError("mins/maxs must align with columns")
        if np.any(self.maxs < self.mins):
            raise ValidationError("max must be >= min per column")

    @property
    def scales(self) -> np.ndarray:
        """1/(max-min) per column, 0.0 where the column is constant."""
        span = self.maxs - self.mins
        out = np.zeros_like(span)
        nonzero = span > 0
        out[nonzero] = 1.0 / span[nonzero]
        return out

    @property
    def energy_range(self) -> float:
        """max - min of the energy column; multiplies normalised errors back to kWh."""
        return float(self.maxs[0] - self.mins[0])

    def to_dict(self) -> dict:
        return {"columns": list(self.columns),
                "mins": [float(v) for v in self.mins],
                "maxs": [float(v) for v in self.maxs]}

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationParams":
        return cls(tuple(d["columns"]),
                   np.asarray(d["mins"], dtype=np.float64),
                   np.asarray(d["maxs"], dtype=np.float64))


def _check_width(matrix: np.ndarray, columns: tuple):
    if matrix.shape[1:] != (len(columns),):
        raise ValidationError(f"a {matrix.shape} matrix lacks the columns {columns}")


def fit_normalizer(matrices, train_ends, columns) -> NormalizationParams:
    """Fit per-column (min, max) over the training rows of all households.

    Every matrix is an (N, len(columns)) array.  `train_ends[i]` is the
    exclusive end of the training split in `matrices[i]`; later rows are
    left out so nothing leaks from validation or test data into the scaling.
    """
    matrices = list(matrices)
    train_ends = list(train_ends)
    if not matrices or len(matrices) != len(train_ends):
        raise ValidationError("need one train_end per matrix")
    segments = []
    for m, end in zip(matrices, train_ends):
        _check_width(m, columns)
        if not 0 < end <= len(m):
            raise ValidationError("train_end out of range")
        segments.append(m[:end])
    stacked = np.concatenate(segments, axis=0)
    return NormalizationParams(tuple(columns), stacked.min(axis=0), stacked.max(axis=0))


def normalize(matrix: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """Map each column through (v - min) / (max - min); constants go to 0."""
    _check_width(matrix, params.columns)
    return (matrix - params.mins) * params.scales
