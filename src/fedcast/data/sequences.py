"""Chronological splitting and rolling-window sequence construction.

Rows are split 70/20/10 into train/validation/test by floor division with
the remainder going to training, and K-row windows are cut inside each split
only, so no window straddles a boundary.  Rows are those of an (N, D) design
matrix in `BASE_COLUMNS` or `WEATHER_COLUMNS` order, and a window's label is
the energy value (column 0) of the row immediately after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, ValidationError

SPLIT_FRACTIONS = (0.7, 0.2, 0.1)


class SequenceSet:
    """Windows and their labels for one split."""

    def __init__(self, windows: np.ndarray, labels: np.ndarray):
        if windows.ndim != 3 or len(windows) != len(labels):
            raise ValidationError("windows and labels must align")
        self.windows = windows
        self.labels = labels

    def __len__(self) -> int:
        return len(self.labels)


def split_chronological(n_rows: int) -> tuple[int, int]:
    """(train_end, val_end) of a chronological 70/20/10 split of n_rows: each
    split size is the floor of its fraction, and leftover rows join training."""
    n_train = int(n_rows * SPLIT_FRACTIONS[0] // 1)
    n_val = int(n_rows * SPLIT_FRACTIONS[1] // 1)
    n_test = int(n_rows * SPLIT_FRACTIONS[2] // 1)
    n_train += n_rows - (n_train + n_val + n_test)
    return n_train, n_train + n_val


def check_splits(household_id: str, n_rows: int, train_end: int, val_end: int,
                 k: int) -> None:
    """Refuse a household's split boundaries unless each split holds more
    than K rows, and so yields a window."""
    sizes = (train_end, val_end - train_end, n_rows - val_end)
    if min(sizes) <= k:
        raise DataError(f"{household_id}: the train/val/test splits hold "
                        f"{'/'.join(map(str, sizes))} rows; each needs more than K={k}")


def make_sequences(values: np.ndarray, k: int) -> SequenceSet:
    """All K-row windows of a split; exactly len(values) - k of them."""
    values = np.array(values, dtype=np.float64)  # owned: windows view into it
    if values.ndim != 2:
        raise ValidationError("values must be (N, D)")
    n = len(values)
    if n <= k:
        raise ValidationError(f"split of {n} rows yields no window of length {k}")
    # A read-only view of the set's own copy of the rows: consecutive
    # windows share K-1 rows, so the windows cost no more than the rows.
    windows = np.lib.stride_tricks.sliding_window_view(values, (k, values.shape[1]))
    windows = windows[:-1, 0]
    labels = values[k:, 0].copy()
    return SequenceSet(windows, labels)


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


def build_household_dataset(household_id: str, matrix: np.ndarray, k: int,
                            with_weather: bool, energy_range: float,
                            splits: tuple[int, int]) -> HouseholdDataset:
    """Cut one household's normalised (N, D) matrix at `splits` (train end,
    val end; see `check_splits`) into the (K, weather) variant's sequence sets."""
    parts = [make_sequences(rows, k) for rows in np.split(matrix, splits)]
    return HouseholdDataset(household_id, k, with_weather, energy_range, *parts)
