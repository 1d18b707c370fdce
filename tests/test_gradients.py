"""Backpropagation checked coordinate-by-coordinate against central
finite differences of the loss.  The differencing code below only uses the
forward pass, so the two routes share no derivative code."""

import itertools

import numpy as np
import pytest

from fedcast.data.sequences import make_sequences
from fedcast.errors import NumericalError, ValidationError
from fedcast.nn import compute_gradients, forward_batch, init_model, lstm
from fedcast.nn.lstm import HIDDEN_SIZE, param_count
from data_helpers import sample_at
from nn_oracle import (
    gradient,
    layerwise_forward,
    layerwise_gradients,
    mse_loss,
    reset_arena,
    stack_samples,
)

STEP = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-8


def loss_at(vec, windows, targets, feature_dim, hidden):
    return mse_loss(forward_batch(windows, vec), targets)


def finite_difference(vec, windows, targets, feature_dim, hidden):
    grad = np.empty_like(vec)
    for j in range(len(vec)):
        bumped = vec.copy()
        bumped[j] = vec[j] + STEP
        up = loss_at(bumped, windows, targets, feature_dim, hidden)
        bumped[j] = vec[j] - STEP
        down = loss_at(bumped, windows, targets, feature_dim, hidden)
        grad[j] = (up - down) / (2 * STEP)
    return grad


def assert_grad_close(analytic, numeric):
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric)
    bad = err > np.maximum(REL_TOL * scale, ABS_FLOOR)
    assert not bad.any(), (
        f"{bad.sum()} coordinates disagree; worst at "
        f"{int(np.argmax(err))}: {err.max():.3e}")


@pytest.mark.parametrize("feature_dim,hidden,k,batch", [
    (2, 3, 4, 3),
    (3, 2, 6, 5),
    (1, 1, 2, 1),
])
def test_gradient_matches_finite_differences(feature_dim, hidden, k, batch):
    gen = np.random.default_rng(100 + feature_dim + hidden)
    vec = init_model(feature_dim, gen, hidden=hidden)
    windows = gen.uniform(0.0, 1.0, size=(batch, k, feature_dim))
    targets = gen.uniform(0.0, 1.0, size=batch)
    grad, loss = gradient(windows, targets, vec)
    assert loss == pytest.approx(
        loss_at(vec, windows, targets, feature_dim, hidden))
    numeric = finite_difference(vec, windows, targets, feature_dim, hidden)
    assert_grad_close(grad, numeric)


def test_zero_model_on_zero_targets_has_zero_gradient():
    vec = np.zeros(param_count(2, 3))
    windows = np.random.default_rng(7).uniform(size=(4, 5, 2))
    grad, loss = gradient(windows, np.zeros(4), vec)
    # the prediction is exactly head_b = 0, so loss and gradient vanish
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(grad))


def test_head_bias_gradient_is_analytic(rng):
    vec = init_model(2, rng, hidden=3)
    windows = rng.uniform(size=(8, 4, 2))
    targets = rng.uniform(size=8)
    grad, _ = gradient(windows, targets, vec)
    preds = forward_batch(windows, vec)
    # d/db of mean (pred - target)^2 is 2 * mean(pred - target); the head
    # bias is the last flat coordinate
    assert grad[-1] == pytest.approx(2.0 * np.mean(preds - targets), rel=1e-12)


def test_gradient_of_sample_list_matches_array_form(tiny_datasets):
    ds = tiny_datasets[0]
    gen = np.random.default_rng(3)
    vec = init_model(ds.feature_dim, gen, hidden=4)
    samples = [sample_at(ds.train, i) for i in range(6)]
    g_list, l_list = gradient(*stack_samples(samples), vec)
    g_arr, l_arr = gradient(ds.train.windows[:6], ds.train.labels[:6], vec)
    assert l_list == l_arr
    assert np.array_equal(g_list, g_arr)


def test_non_finite_input_is_rejected(rng):
    vec = init_model(2, rng, hidden=3)
    windows = rng.uniform(size=(2, 3, 2))
    windows[1, 1, 0] = np.nan
    with pytest.raises(ValidationError):
        gradient(windows, np.zeros(2), vec)


def test_overflowing_loss_is_a_numerical_error(rng):
    # A huge head weight sends the squared residual past float64 range;
    # that must surface as a numerical failure, not silent inf.
    vec = init_model(2, rng, hidden=3)
    vec[-4:-1] = 1e200  # head weights
    windows = rng.uniform(0.5, 1.0, size=(2, 3, 2))
    with pytest.raises(NumericalError):
        gradient(windows, np.zeros(2), vec)


def test_stacked_models_get_their_lone_gradients(rng):
    # C models in one call, each with its own batch, return bitwise what
    # each model gets alone; a bad model is named by its row
    vecs = np.stack([init_model(3, rng, hidden=4) for _ in range(5)])
    windows = rng.normal(size=(5 * 7, 6, 3))
    targets = rng.normal(size=5 * 7)
    grads, losses = compute_gradients(windows, targets, vecs)
    assert grads.shape == vecs.shape and losses.shape == (5,)
    for c in range(5):
        grad, loss = gradient(windows[7 * c:7 * (c + 1)],
                              targets[7 * c:7 * (c + 1)], vecs[c])
        assert np.array_equal(grads[c], grad) and losses[c] == loss
    vecs[3, -4:-1] = 1e200  # head weights of model 3
    with pytest.raises(NumericalError) as err:
        compute_gradients(windows, targets, vecs)
    assert err.value.session == 3
    with pytest.raises(ValidationError):
        compute_gradients(windows[:-1], targets[:-1], vecs)


# ------------------------------------------------------------- scratch arena

# (C, B, K, d, hidden) of a call sequence that grows and shrinks the arena
ARENA_CALLS = [(1, 8, 6, 3, 4), (3, 16, 12, 5, 6), (2, 4, 3, 2, 2),
               (5, 32, 24, 7, 5), (1, 1, 1, 1, 1), (4, 8, 6, 5, 3),
               (1, 64, 12, 5, 20)]


def arena_inputs(i):
    c, n, k, d, hidden = ARENA_CALLS[i]
    gen = np.random.default_rng(500 + i)
    params = np.stack([init_model(d, gen, hidden=hidden) for _ in range(c)])
    return gen.normal(size=(c * n, k, d)), gen.normal(size=c * n), params


def fresh_arena_gradients(i):
    reset_arena()
    return compute_gradients(*arena_inputs(i))


def assert_same_result(a, b):
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_a_reused_arena_gives_fresh_arena_gradients():
    fresh = [fresh_arena_gradients(i) for i in range(len(ARENA_CALLS))]
    reset_arena()
    kept, copies = [], []
    for i in [*range(len(ARENA_CALLS)), *reversed(range(len(ARENA_CALLS)))]:
        windows, targets, params = arena_inputs(i)
        forward_batch(windows[:3], params[-1])  # a carve of another shape
        result = compute_gradients(windows, targets, params)
        assert_same_result(result, fresh[i])
        kept.append(result)
        copies.append(tuple(x.copy() for x in result))
    # nothing returned aliases the arena: later calls left it unchanged
    for result, copy in zip(kept, copies):
        assert_same_result(result, copy)


def test_a_call_that_raises_mid_pass_leaves_the_next_call_exact():
    expected = [fresh_arena_gradients(i) for i in (1, 3)]
    reset_arena()
    windows, targets, params = arena_inputs(3)
    params[1, 7] = np.nan  # poisons every forward buffer of model 1
    with pytest.raises(NumericalError) as err:
        compute_gradients(windows, targets, params)
    assert err.value.session == 1
    assert_same_result(compute_gradients(*arena_inputs(1)), expected[0])
    assert_same_result(compute_gradients(*arena_inputs(3)), expected[1])


def test_no_call_reads_what_an_earlier_call_left_in_the_arena():
    # every carved buffer is written before it is read, so stale contents,
    # NaN here, cannot reach a result
    expected = fresh_arena_gradients(3)
    lstm._arena.fill(np.nan)
    assert_same_result(compute_gradients(*arena_inputs(3)), expected)
    lstm._arena.fill(np.nan)
    assert_same_result(compute_gradients(*arena_inputs(1)),
                       fresh_arena_gradients(1))


# ---------------------------------- the wavefront kernel against the oracle

# (C, B, d, hidden) for every K
ORACLE_GRID = list(itertools.product((1, 3), (1, 7, 32), (1, 5, 7), (1, 4, 20)))


def oracle_case(k, c, n, d, hidden):
    gen = np.random.default_rng([k, c, n, d, hidden])
    params = np.stack([init_model(d, gen, hidden=hidden) for _ in range(c)])
    # four times the initial scale saturates some gates to exactly 0 or 1
    params *= gen.choice([1.0, 4.0])
    return gen.normal(size=(c * n, k, d)), gen.normal(size=c * n), params


def assert_matches_oracle(windows, targets, params, poison=False):
    if poison:
        lstm._arena.fill(np.nan)
    result = compute_gradients(windows, targets, params)
    if poison:
        lstm._arena.fill(np.nan)
    pred = forward_batch(windows, params[0])
    assert_same_result(result, layerwise_gradients(windows, targets, params))
    assert pred.tobytes() == layerwise_forward(windows, params[0]).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 12])
def test_the_wavefront_kernel_matches_the_layerwise_oracle(k):
    # K=1 and K=2 are all edge ticks, where one layer runs alone
    for case in ORACLE_GRID:
        assert_matches_oracle(*oracle_case(k, *case))


def test_the_wavefront_kernel_matches_the_oracle_over_a_nan_arena():
    # the zero state, the carries and the paired gradient sums are written
    # by every call, so stale contents cannot reach a result
    compute_gradients(*oracle_case(12, 3, 32, 7, 20))  # the largest carve
    for case in ORACLE_GRID:
        assert_matches_oracle(*oracle_case(12, *case), poison=True)


# (C, B) of the wider sweep: one model at the desk batch size, the stacks
# the engine builds at B=128, 32 and 8, and uneven shapes
WIDE_SHAPES = [(1, 256), (2, 128), (8, 32), (32, 8), (3, 7), (20, 1)]


@pytest.mark.slow
@pytest.mark.parametrize("d", [5, 6, 7, 8, 20])
def test_the_kernel_matches_the_oracle_at_the_production_width(d):
    for k in (6, 12, 24):
        for c, n in WIDE_SHAPES:
            assert_matches_oracle(*oracle_case(k, c, n, d, HIDDEN_SIZE))


@pytest.mark.slow
@pytest.mark.parametrize("d", [5, 6, 7, 8, 20])
def test_sliding_window_forwards_match_the_oracle(d):
    # the overlapping read-only windows of `make_sequences`, as validation
    # and test sets hold them
    for k in (6, 12, 24):
        for n in (1, 37, 420, 1024):
            gen = np.random.default_rng([d, k, n])
            seq = make_sequences(gen.normal(size=(n + k, d)), k)
            params = init_model(d, gen) * gen.choice([1.0, 4.0])
            assert len(seq.windows) == n
            assert forward_batch(seq.windows, params).tobytes() == \
                layerwise_forward(seq.windows, params).tobytes()
