"""Adam optimizer on a (C, P) matrix of independent parameter vectors.

Each row is one model with its own moments and its own step count, so the
bias correction of every row is the one that model would get alone.  The
caller owns the moment and step-count arrays, which `adam_step` updates in
place together with the parameters, so stepping allocates no new matrices.
A client that adopts externally supplied parameters (a freshly aggregated
global model, a cluster model, or a fine-tuning base) must start from zero
moments and zero step counts so stale moments from a different trajectory
never leak in.  β1, β2 and ε are Adam's defaults (Kingma & Ba, 2014).
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


def adam_step(params: np.ndarray, grad: np.ndarray, first_moment: np.ndarray,
              second_moment: np.ndarray, steps: np.ndarray,
              learning_rate: float) -> None:
    """One bias-corrected Adam step on every row, in place.

    Updates `params`, both (C, P) moments and the (C,) step counts; `grad`
    is used as scratch and left overwritten.  With zero gradient and zero
    moments the update is exactly the identity; with zero gradient but stale
    moments the parameters still move, which is intended.
    """
    if not (params.ndim == 2
            and params.shape == grad.shape == first_moment.shape
            == second_moment.shape and steps.shape == params.shape[:1]):
        raise ValidationError("parameter, gradient, moment and step-count "
                              "shapes must agree")
    m, v = first_moment, second_moment
    steps += 1
    # Python float powers, row by row: the same bits as a lone model's.
    counts = steps.tolist()
    fix1 = np.array([[1.0 - BETA1 ** t] for t in counts])
    fix2 = np.array([[1.0 - BETA2 ** t] for t in counts])
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    grad *= grad
    grad *= 1.0 - BETA2
    v += grad
    step = np.divide(m, fix1)
    step *= learning_rate
    np.divide(v, fix2, out=grad)
    np.sqrt(grad, out=grad)
    grad += EPSILON
    step /= grad
    params -= step
