"""Adam optimizer on a (C, P) matrix of independent parameter vectors.

Each row is one model with its own moments and its own step count, so the
bias correction of every row is the one that model would get alone.  The
state owns its moment and step-count buffers, which `adam_step` updates in
place together with the parameters, so stepping allocates no new matrices.
A client that adopts externally supplied parameters (a freshly aggregated
global model, a cluster model, or a fine-tuning base) must start from
`AdamState.fresh` so stale moments from a different trajectory never leak in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError


@dataclass(frozen=True)
class AdamState:
    first_moment: np.ndarray   # (C, P)
    second_moment: np.ndarray  # (C, P)
    step_count: np.ndarray     # (C,) steps taken by each row
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.first_moment.ndim != 2 or self.first_moment.shape != self.second_moment.shape:
            raise ValidationError("moments must be two (C, P) matrices of equal shape")
        if self.step_count.shape != self.first_moment.shape[:1]:
            raise ValidationError("step_count needs one entry per row")
        if np.any(self.step_count < 0):
            raise ValidationError("step_count must be non-negative")
        if not (0.0 < self.learning_rate and 0.0 <= self.beta1 < 1.0
                and 0.0 <= self.beta2 < 1.0 and self.epsilon > 0.0):
            raise ValidationError("optimizer hyperparameters out of range")

    @classmethod
    def fresh(cls, rows: int, n_params: int, learning_rate: float = 0.001) -> "AdamState":
        zeros = np.zeros((rows, n_params), dtype=np.float64)
        return cls(zeros, zeros.copy(), np.zeros(rows, dtype=np.int64), learning_rate)


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam step on every row, in place.

    Updates `params`, the moments and the step counts; `grad` is used as
    scratch and left overwritten.  With zero gradient and zero moments the
    update is exactly the identity; with zero gradient but stale moments the
    parameters still move, which is intended.
    """
    if not (params.shape == grad.shape == state.first_moment.shape):
        raise ValidationError("parameter, gradient, and moment shapes must agree")
    b1, b2 = state.beta1, state.beta2
    m, v = state.first_moment, state.second_moment
    state.step_count[:] += 1
    # Python float powers, row by row: the same bits as a lone model's.
    steps = state.step_count.tolist()
    fix1 = np.array([[1.0 - b1 ** t] for t in steps])
    fix2 = np.array([[1.0 - b2 ** t] for t in steps])
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    grad *= grad
    grad *= 1.0 - b2
    v += grad
    step = np.divide(m, fix1)
    step *= state.learning_rate
    np.divide(v, fix2, out=grad)
    np.sqrt(grad, out=grad)
    grad += state.epsilon
    step /= grad
    params -= step
