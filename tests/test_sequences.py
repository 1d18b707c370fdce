"""Split arithmetic and window construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from data_helpers import sample_at
from fedcast.data.normalize import normalize
from fedcast.data.sequences import check_splits, make_sequences, split_chronological
from fedcast.errors import DataError, ValidationError


@pytest.mark.parametrize("n,expected", [
    (100, (70, 20, 10)),
    (101, (71, 20, 10)),   # remainder row joins training
    (102, (72, 20, 10)),
    (103, (73, 20, 10)),
    (4320, (3024, 864, 432)),  # 180 days of hours
])
def test_split_sizes(n, expected):
    train_end, val_end = split_chronological(n)
    sizes = (train_end, val_end - train_end, n - val_end)
    assert sizes == expected


@settings(max_examples=80, deadline=None)
@given(st.integers(21, 5000), st.integers(1, 24))
def test_split_properties(n, k):
    train_end, val_end = split_chronological(n)
    n_train, n_val, n_test = train_end, val_end - train_end, n - val_end
    assert n_train + n_val + n_test == n
    assert n_train >= n_val >= n_test > 0
    # floor fractions: training absorbs the remainder, never loses rows
    assert n_train >= int(n * 0.7)
    assert n_val == int(n * 0.2)
    assert n_test == int(n * 0.1)
    # the check passes exactly the splits that each hold more than K rows
    if min(n_train, n_val, n_test) <= k:
        with pytest.raises(DataError, match=f"^h7: the train/val/test splits hold "
                           f"{n_train}/{n_val}/{n_test} rows; each needs more than K={k}$"):
            check_splits("h7", n, train_end, val_end, k)
    else:
        check_splits("h7", n, train_end, val_end, k)


def test_too_short_series_is_rejected():
    # 30 rows split 21/6/3: at K=6 the val and test splits hold no window
    train_end, val_end = split_chronological(30)
    with pytest.raises(DataError, match="^h7: the train/val/test splits hold "
                       "21/6/3 rows; each needs more than K=6$"):
        check_splits("h7", 30, train_end, val_end, 6)


@pytest.mark.parametrize("train_end,val_end,sizes", [
    (0, 20, "0/20/10"),
    (20, 20, "20/0/10"),
    (20, 15, "20/-5/15"),
    (20, 30, "20/10/0"),
    (20, 35, "20/15/-5"),
])
def test_boundaries_out_of_order_are_rejected(train_end, val_end, sizes):
    with pytest.raises(DataError, match=f"^h7: the train/val/test splits hold {sizes} "):
        check_splits("h7", 30, train_end, val_end, 1)


def test_window_count_and_labels():
    n, k, d = 30, 6, 3
    values = np.arange(n * d, dtype=np.float64).reshape(n, d)
    seqs = make_sequences(values, k)
    assert len(seqs) == n - k
    assert seqs.windows.shape == (n - k, k, d)
    # window i is rows i..i+k-1 and its label is row i+k's first column
    assert np.array_equal(seqs.windows[0], values[:k])
    assert np.array_equal(seqs.windows[5], values[5:5 + k])
    assert np.array_equal(seqs.labels, values[k:, 0])


def test_windows_own_their_memory():
    values = np.ones((10, 2))
    seqs = make_sequences(values, 3)
    values[:] = 0.0
    assert np.all(seqs.windows == 1.0)


def test_splits_label_consecutive_hours_in_order(tiny_prepared, tiny_datasets):
    params = tiny_prepared.normalizers["base"]
    for ds in tiny_datasets:
        house = tiny_prepared.households[ds.household_id]
        energy = normalize(house.matrices["base"], params)[:, 0]
        assert np.all(np.diff(house.hours) > 0)
        # each split labels the rows after its first K, and splits do not
        # overlap in time
        bounds = (0, house.train_end, house.val_end, house.n_rows)
        for split, lo, hi in zip((ds.train, ds.val, ds.test), bounds, bounds[1:]):
            assert np.array_equal(split.labels, energy[lo + ds.k:hi])


def test_per_split_window_counts(tiny_prepared, tiny_datasets):
    for ds in tiny_datasets:
        house = tiny_prepared.households[ds.household_id]
        n = house.n_rows
        train_rows = house.train_end
        val_rows = house.val_end - house.train_end
        test_rows = n - house.val_end
        assert len(ds.train) == train_rows - ds.k
        assert len(ds.val) == val_rows - ds.k
        assert len(ds.test) == test_rows - ds.k


def test_sample_addressing(tiny_datasets):
    ds = tiny_datasets[0]
    sample = sample_at(ds.train, 3)
    assert sample.window.shape == (ds.k, ds.feature_dim)
    assert sample.label == ds.train.labels[3]
    assert np.array_equal(sample.window, ds.train.windows[3])


def test_window_shorter_than_split_is_required():
    values = np.ones((4, 2))
    with pytest.raises(ValidationError):
        make_sequences(values, 4)
