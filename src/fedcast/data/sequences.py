"""Chronological splitting and rolling-window sequence construction.

Rows are split 70/20/10 into train/validation/test by floor division with
the remainder going to training, and K-row windows are cut inside each split
only, so no window straddles a boundary.  A window's label is the energy
value (column 0) of the row immediately after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from .features import DesignMatrix

SPLIT_FRACTIONS = (0.7, 0.2, 0.1)


class SequenceSet:
    """Windows, labels, and label hours for one split."""

    def __init__(self, windows: np.ndarray, labels: np.ndarray, time_index: np.ndarray):
        if windows.ndim != 3 or not (len(windows) == len(labels) == len(time_index)):
            raise ValidationError("windows, labels, and time_index must align")
        self.windows = windows
        self.labels = labels
        self.time_index = time_index

    def __len__(self) -> int:
        return len(self.labels)


def split_chronological(n_rows: int, k: int) -> tuple[int, int]:
    """(train_end, val_end) for a chronological 70/20/10 split.

    Each split size is the floor of its fraction; leftover rows join the
    training split.  Fewer than 3*(K+1) rows cannot give every split a
    usable window and are rejected.
    """
    if k < 1:
        raise ValidationError("window length must be >= 1")
    if n_rows < 3 * (k + 1):
        raise ValidationError(
            f"{n_rows} rows cannot be split for K={k}; need at least {3 * (k + 1)}")
    n_train = int(n_rows * SPLIT_FRACTIONS[0] // 1)
    n_val = int(n_rows * SPLIT_FRACTIONS[1] // 1)
    n_test = int(n_rows * SPLIT_FRACTIONS[2] // 1)
    n_train += n_rows - (n_train + n_val + n_test)
    return n_train, n_train + n_val


def make_sequences(values: np.ndarray, hours: np.ndarray, k: int) -> SequenceSet:
    """All K-row windows of a split; exactly len(values) - k of them."""
    values = np.array(values, dtype=np.float64)  # owned: windows view into it
    hours = np.asarray(hours, dtype=np.int64)
    if values.ndim != 2 or len(values) != len(hours):
        raise ValidationError("values must be (N, D) aligned with hours")
    n = len(values)
    if n <= k:
        raise ValidationError(f"split of {n} rows yields no window of length {k}")
    # A read-only view of the set's own copy of the rows: consecutive
    # windows share K-1 rows, so the windows cost no more than the rows.
    windows = np.lib.stride_tricks.sliding_window_view(values, (k, values.shape[1]))
    windows = windows[:-1, 0]
    labels = values[k:, 0].copy()
    return SequenceSet(windows, labels, hours[k:].copy())


@dataclass(frozen=True)
class HouseholdDataset:
    """Normalised, windowed data of one household for one (K, weather) variant."""

    household_id: str
    k: int
    with_weather: bool
    energy_range: float
    train: SequenceSet
    val: SequenceSet
    test: SequenceSet

    @property
    def n_train(self) -> int:
        return len(self.train)

    @property
    def feature_dim(self) -> int:
        return self.train.windows.shape[2]


def build_household_dataset(household_id: str, matrix: DesignMatrix, k: int,
                            energy_range: float,
                            splits: tuple[int, int]) -> HouseholdDataset:
    """Cut one household's normalised matrix at `splits` (train end, val end)
    into per-split sequence sets."""
    train_end, val_end = splits
    if not 0 < train_end < val_end < len(matrix):
        raise ValidationError("split boundaries out of order")
    parts = []
    for lo, hi in ((0, train_end), (train_end, val_end), (val_end, len(matrix))):
        parts.append(make_sequences(matrix.values[lo:hi], matrix.hours[lo:hi], k))
    with_weather = len(matrix.columns) > 5
    return HouseholdDataset(household_id, k, with_weather, energy_range, *parts)
