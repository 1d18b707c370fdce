"""Adam update semantics.  The three-step trajectory below was computed by
hand with the textbook recurrences (math module only) and frozen."""

import numpy as np
import pytest

from fedcast.errors import ValidationError
from fedcast.nn.adam import adam_step
from nn_oracle import adam_update


class State:
    """Moments and step counts of `rows` fresh models of `n` parameters."""

    def __init__(self, rows, n, learning_rate=0.001):
        self.first_moment = np.zeros((rows, n))
        self.second_moment = np.zeros((rows, n))
        self.step_count = np.zeros(rows, dtype=np.int64)
        self.learning_rate = learning_rate


def step(values, grad, state):
    """adam_step on copies: returns the new values, state stepped in place."""
    values = np.array(values, dtype=np.float64)
    adam_step(values, np.array(grad, dtype=np.float64), state.first_moment,
              state.second_moment, state.step_count, state.learning_rate)
    return values


def test_first_step_is_minus_lr_times_sign():
    state = State(1, 4, learning_rate=0.001)
    grad = np.array([[0.5, -0.25, 3.0, -1e-3]])
    new_values = step(np.zeros((1, 4)), grad, state)
    # bias correction makes m-hat = g and v-hat = g*g, so the first delta is
    # -lr * g / (|g| + eps) = -lr * sign(g) up to eps/|g| rounding
    assert new_values == pytest.approx(-0.001 * np.sign(grad), rel=2e-5)
    assert state.step_count.tolist() == [1]


def test_zero_gradient_with_fresh_moments_is_identity():
    state = State(1, 3)
    values = np.array([[0.4, -1.0, 2.5]])
    new_values = step(values, np.zeros((1, 3)), state)
    assert np.array_equal(new_values, values)
    assert state.step_count.tolist() == [1]


def test_three_step_scalar_trajectory_matches_hand_computation():
    state = State(1, 1, learning_rate=0.001)
    theta = np.array([[0.2]])
    expected = [
        (0.19900000002000001, 0.049999999999999989, 0.00025000000000000022),
        (0.19873366298707848, 0.019999999999999997, 0.0003122500000000003),
        (0.19841841943025718, 0.027999999999999997, 0.00032193775000000031),
    ]
    for grad, (e_theta, e_m, e_v) in zip([0.5, -0.25, 0.1], expected):
        theta = step(theta, [[grad]], state)
        assert theta[0, 0] == pytest.approx(e_theta, abs=1e-16)
        assert state.first_moment[0, 0] == pytest.approx(e_m, abs=1e-16)
        assert state.second_moment[0, 0] == pytest.approx(e_v, abs=1e-16)


def test_stale_moments_keep_moving_parameters():
    # zero gradient after a real step: the decayed first moment still pushes
    state = State(1, 1)
    theta = step([[0.0]], [[1.0]], state)
    moved = step(theta, [[0.0]], state)
    assert moved[0, 0] != theta[0, 0]


def test_mismatched_lengths_are_rejected():
    state = State(1, 3)
    with pytest.raises(ValidationError):
        step(np.zeros((1, 4)), np.zeros((1, 4)), state)
    with pytest.raises(ValidationError):
        step(np.zeros((1, 3)), np.zeros((1, 2)), state)
    with pytest.raises(ValidationError):
        adam_step(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)),
                  np.zeros((2, 3)), np.zeros(3, dtype=int), 0.001)


def test_adam_step_round_trips_the_model(rng):
    # every row steps bitwise as the textbook recurrence on that row alone,
    # with the bias correction of its own step count
    values = rng.normal(size=(3, 6))
    state = State(3, 6)
    lone = [(values[r].copy(), np.zeros(6), np.zeros(6), 0) for r in range(3)]
    for _ in range(4):
        grad = rng.normal(size=(3, 6))
        values = step(values, grad, state)
        lone = [adam_update(lone[r][0], grad[r], *lone[r][1:]) for r in range(3)]
    for r in range(3):
        assert np.array_equal(values[r], lone[r][0])
        assert np.array_equal(state.first_moment[r], lone[r][1])
        assert np.array_equal(state.second_moment[r], lone[r][2])
        assert state.step_count[r] == lone[r][3]
    # a stack of rows whose step counts differ
    sub = State(2, 6)
    sub.first_moment[:] = state.first_moment[:2]
    sub.second_moment[:] = state.second_moment[:2]
    sub.step_count[:] = [7, 2]
    grad = rng.normal(size=(2, 6))
    stepped = step(values[:2], grad, sub)
    for r, t in enumerate((7, 2)):
        expected, *_ = adam_update(values[r], grad[r], state.first_moment[r],
                                   state.second_moment[r], t)
        assert np.array_equal(stepped[r], expected)
    assert sub.step_count.tolist() == [8, 3]
