"""Shared min-max scaling across households."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from data_helpers import degenerate, denormalize_column
from fedcast.data.normalize import NormalizationParams, fit_normalizer, normalize
from fedcast.errors import ValidationError

COLS = ("energy_kwh", "a", "b")


def matrix(values):
    return np.asarray(values, dtype=np.float64)


def test_fit_uses_training_rows_of_every_household():
    m1 = matrix([[1.0, 0.0, 5.0], [2.0, 1.0, 5.0], [9.0, 9.0, 9.0]])
    m2 = matrix([[4.0, -1.0, 5.0], [0.5, 2.0, 5.0], [-9.0, -9.0, -9.0]])
    params = fit_normalizer([m1, m2], [2, 2], COLS)  # third rows are held out
    assert np.array_equal(params.mins, [0.5, -1.0, 5.0])
    assert np.array_equal(params.maxs, [4.0, 2.0, 5.0])
    assert params.energy_range == 3.5


def test_training_values_land_in_unit_range():
    m = matrix([[1.0, 0.0, 5.0], [2.0, 3.0, 5.0], [3.0, 6.0, 5.0]])
    params = fit_normalizer([m], [3], COLS)
    normed = normalize(m, params)
    assert normed.min() >= 0.0
    assert normed.max() <= 1.0


def test_heldout_values_may_leave_unit_range():
    m = matrix([[1.0, 0.0, 5.0], [2.0, 1.0, 5.0], [10.0, -3.0, 5.0]])
    params = fit_normalizer([m], [2], COLS)
    normed = normalize(m, params)
    assert normed[2, 0] > 1.0
    assert normed[2, 1] < 0.0


def test_degenerate_column_maps_to_zero():
    m = matrix([[1.0, 0.0, 5.0], [2.0, 1.0, 5.0]])
    params = fit_normalizer([m], [2], COLS)
    assert degenerate(params) == ("b",)
    assert np.all(normalize(m, params)[:, 2] == 0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_round_trip_on_non_degenerate_columns(seed):
    gen = np.random.default_rng(seed)
    values = gen.uniform(-100.0, 100.0, size=(12, 3))
    values[:, 0] = np.abs(values[:, 0])
    m = matrix(values)
    params = fit_normalizer([m], [12], COLS)
    normed = normalize(m, params)
    back = denormalize_column(normed[:, 0], params, "energy_kwh")
    assert back == pytest.approx(values[:, 0], abs=1e-9)


def test_params_survive_a_dict_round_trip():
    m = matrix([[1.0, 0.0, 5.0], [2.0, 1.0, 5.0]])
    params = fit_normalizer([m], [2], COLS)
    again = NormalizationParams.from_dict(params.to_dict())
    assert again.columns == params.columns
    assert np.array_equal(again.mins, params.mins)
    assert np.array_equal(again.maxs, params.maxs)


def test_shared_energy_scale_across_households(tiny_prepared):
    params = tiny_prepared.normalizers["base"]
    mins = [h.matrices["base"][:h.train_end, 0].min()
            for h in tiny_prepared.households.values()]
    maxs = [h.matrices["base"][:h.train_end, 0].max()
            for h in tiny_prepared.households.values()]
    assert params.mins[0] == min(mins)
    assert params.maxs[0] == max(maxs)


def test_mismatched_columns_are_rejected():
    m = matrix([[1.0, 0.0, 5.0], [2.0, 1.0, 5.0]])
    params = fit_normalizer([m], [2], COLS)
    other = np.zeros((2, 2))
    with pytest.raises(ValidationError):
        normalize(other, params)
    with pytest.raises(ValidationError):
        fit_normalizer([m], [0], COLS)
