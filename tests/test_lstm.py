"""Forward-pass and parameter-layout checks against a hand-computed oracle.

The frozen numbers come from an independent scalar implementation of the
cell equations written with the plain math module (no numpy), evaluated in
float64 and copied here verbatim.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcast.errors import ValidationError
from fedcast.nn import compute_gradients, forward_batch, init_model
from fedcast.nn.lstm import HIDDEN_SIZE, param_count
from fedcast.seeding import INIT, stream
from nn_oracle import (
    ForecastModel,
    LSTMLayerParams,
    LSTMState,
    flatten,
    lstm_cell_forward,
    model_forward,
    mse_loss,
    reset_arena,
    unflatten,
)


def scalar_layer(wx, wh, b):
    return LSTMLayerParams(
        w_x=np.array(wx, dtype=np.float64).reshape(4, 1),
        w_h=np.array(wh, dtype=np.float64).reshape(4, 1),
        b=np.array(b, dtype=np.float64),
    )


LAYER1 = scalar_layer([0.5, -0.3, 0.8, 1.0], [0.2, 0.4, -0.5, 0.1],
                      [0.05, -0.05, 0.0, 0.3])
LAYER2 = scalar_layer([-0.6, 0.9, 0.3, -0.2], [0.15, -0.25, 0.45, 0.05],
                      [-0.1, 0.2, 0.1, 0.0])


def test_cell_single_step_matches_scalar_oracle():
    prev = LSTMState(np.array([0.1]), np.array([-0.2]))
    state = lstm_cell_forward(np.array([0.7]), prev, LAYER1)
    assert state.hidden[0] == pytest.approx(0.13542271976599607, abs=1e-15)
    assert state.cell[0] == pytest.approx(0.22023650151746765, abs=1e-15)


def test_cell_zero_params_halves_the_cell():
    # All-zero weights: every sigmoid gate is 1/2 and the candidate is 0,
    # so c = c_prev/2 and h = tanh(c)/2.
    zeros = scalar_layer([0.0] * 4, [0.0] * 4, [0.0] * 4)
    prev = LSTMState(np.array([0.3]), np.array([-0.4]))
    state = lstm_cell_forward(np.array([0.9]), prev, zeros)
    assert state.cell[0] == pytest.approx(-0.2, abs=1e-16)
    assert state.hidden[0] == pytest.approx(-0.098687660112452003, abs=1e-16)


def test_two_layer_prediction_matches_scalar_oracle():
    model = ForecastModel(LAYER1, LAYER2, head_w=np.array([1.2]), head_b=-0.1)
    window = np.array([[0.7], [-0.4]])
    assert model_forward(window, model) == pytest.approx(
        -0.11057654652717348, abs=1e-15)
    # and the batched path agrees with the single-window path bitwise
    batched = forward_batch(window[None, :, :], flatten(model))
    assert batched[0] == model_forward(window, model)


def test_hidden_state_is_bounded(rng):
    model = unflatten(init_model(3, rng, hidden=8), 3, 8)
    windows = rng.uniform(-5.0, 5.0, size=(16, 7, 3))
    state = LSTMState.zeros(8)
    for t in range(7):
        state = lstm_cell_forward(windows[0, t], state, model.layer1)
        assert np.all(np.abs(state.hidden) < 1.0)


def test_param_count_at_production_widths():
    # 5 input features, hidden width 20: 4*(100+400+20) + 4*(400+400+20) + 21
    assert param_count(5, 20) == 5381
    assert param_count(5) == 5381
    assert HIDDEN_SIZE == 20


@settings(max_examples=25, deadline=None)
@given(feature_dim=st.integers(1, 6), hidden=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_flatten_unflatten_round_trip(feature_dim, hidden, seed):
    # the oracle's block-by-block layout is the one the package computes in
    gen = np.random.default_rng(seed)
    vec = init_model(feature_dim, gen, hidden=hidden)
    assert vec.shape == (param_count(feature_dim, hidden),)
    model = unflatten(vec, feature_dim, hidden)
    assert np.array_equal(flatten(model), vec)
    windows = gen.uniform(-1.0, 1.0, size=(2, 3, feature_dim))
    state1 = state2 = LSTMState.zeros(hidden)
    for t in range(3):
        state1 = lstm_cell_forward(windows[1, t], state1, model.layer1)
        state2 = lstm_cell_forward(state1.hidden, state2, model.layer2)
    expected = state2.hidden @ model.head_w + model.head_b
    assert forward_batch(windows, vec)[1] == pytest.approx(expected, abs=1e-12)


def test_unflatten_rejects_wrong_length():
    with pytest.raises(ValidationError):
        unflatten(np.zeros(7), 5, 20)
    # a vector no model of that input width has
    with pytest.raises(ValidationError):
        forward_batch(np.zeros((1, 2, 5)), np.zeros(param_count(5, 20) + 1))


def test_init_is_a_pure_function_of_the_stream():
    a = init_model(5, stream(42, INIT), hidden=4)
    b = init_model(5, stream(42, INIT), hidden=4)
    assert np.array_equal(a, b)
    c = init_model(5, stream(43, INIT), hidden=4)
    assert not np.array_equal(a, c)


def test_init_respects_the_uniform_bound(rng):
    vec = init_model(4, rng, hidden=16)
    bound = 1.0 / np.sqrt(16)
    assert np.all(np.abs(vec) <= bound)
    # the draw should actually use the range, not collapse to zero
    assert np.std(vec) > bound / 10


def test_forward_batch_validates_feature_width(rng):
    vec = init_model(3, rng, hidden=4)
    with pytest.raises(ValidationError):
        forward_batch(np.zeros((2, 5, 4)), vec)
    with pytest.raises(ValidationError):
        forward_batch(np.zeros((2, 5)), vec)


def test_mse_loss_basics():
    assert mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert mse_loss(np.array([0.0, 0.0]), np.array([1.0, 1.0])) == 1.0
    assert mse_loss(np.array([0.0, 2.0]), np.array([1.0, 1.0])) == 1.0


def test_predictions_do_not_depend_on_what_the_arena_held(tiny_datasets):
    # growing and shrinking calls, on arrays and on the sliding-window views
    # training reads, with gradient calls between them: each prediction is
    # the one a fresh arena gives, and later calls leave it alone
    gen = np.random.default_rng(9)
    cases = [(gen.normal(size=(n, k, d)), init_model(d, gen, hidden=hidden))
             for n, k, d, hidden in [(5, 6, 3, 4), (40, 12, 5, 20), (1, 1, 1, 1),
                                     (17, 24, 7, 6), (3, 2, 2, 2)]]
    train = tiny_datasets[0].train
    vec = init_model(train.windows.shape[2], gen, hidden=5)
    cases += [(train.windows, vec), (train.windows[2:9], vec)]
    fresh = []
    for windows, params in cases:
        reset_arena()
        fresh.append(forward_batch(windows, params))
    reset_arena()
    kept = []
    for j in [*range(len(cases)), *reversed(range(len(cases)))]:
        windows, params = cases[j]
        compute_gradients(windows, np.zeros(len(windows)), params[None])
        preds = forward_batch(windows, params)
        assert preds.tobytes() == fresh[j].tobytes()
        kept.append((preds, preds.copy()))
    assert all(np.array_equal(p, c) for p, c in kept)
