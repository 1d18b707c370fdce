"""Reference implementations the tests check the package against.

The package trains flat parameter vectors, many models at a time.  Here
the same model is spelled out one model and one step at a time: per-layer
weight records, a single LSTM cell step, the flat layout written out as a
concatenation, the textbook Adam recurrence on one vector, and the plain
one-session-after-another training loop that `fit_epochs` must reproduce
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedcast.errors import ValidationError
from fedcast.nn import HIDDEN_SIZE, compute_gradients, forward_batch, param_count


def sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class LSTMLayerParams:
    """Weights of one LSTM layer, gates stacked (forget, input, output, cell)."""

    w_x: np.ndarray  # (4*hidden, input_size)
    w_h: np.ndarray  # (4*hidden, hidden)
    b: np.ndarray    # (4*hidden,)

    @property
    def hidden(self) -> int:
        return self.w_x.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.w_x.shape[1]


@dataclass(frozen=True)
class LSTMState:
    """Hidden and cell activations of one layer after some time step."""

    hidden: np.ndarray
    cell: np.ndarray

    @classmethod
    def zeros(cls, hidden: int) -> "LSTMState":
        return cls(np.zeros(hidden), np.zeros(hidden))


@dataclass(frozen=True)
class ForecastModel:
    """Stacked two-layer LSTM plus a scalar linear head on the final hidden state."""

    layer1: LSTMLayerParams
    layer2: LSTMLayerParams
    head_w: np.ndarray  # (hidden,)
    head_b: float


def lstm_cell_forward(x_t, prev: LSTMState, params: LSTMLayerParams) -> LSTMState:
    """One LSTM step: c_t = f*c_{t-1} + i*g and h_t = o*tanh(c_t)."""
    h = params.hidden
    z = params.w_x @ np.asarray(x_t, dtype=np.float64) + params.w_h @ prev.hidden + params.b
    f = sigmoid(z[:h])
    i = sigmoid(z[h:2 * h])
    o = sigmoid(z[2 * h:3 * h])
    g = np.tanh(z[3 * h:])
    c_t = prev.cell * f + i * g
    return LSTMState(o * np.tanh(c_t), c_t)


def flatten(model: ForecastModel) -> np.ndarray:
    """The flat layout of the `fedcast.nn.lstm` docstring, block by block."""
    return np.concatenate([
        model.layer1.w_x.ravel(), model.layer1.w_h.ravel(), model.layer1.b,
        model.layer2.w_x.ravel(), model.layer2.w_h.ravel(), model.layer2.b,
        model.head_w, np.array([model.head_b], dtype=np.float64),
    ])


def unflatten(vec, feature_dim: int, hidden: int = HIDDEN_SIZE) -> ForecastModel:
    """Inverse of flatten."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (param_count(feature_dim, hidden),):
        raise ValidationError(f"parameter vector has length {vec.shape}")
    offset = 0

    def take(shape):
        nonlocal offset
        n = int(np.prod(shape))
        block = vec[offset:offset + n].reshape(shape).copy()
        offset += n
        return block

    layers = [LSTMLayerParams(take((4 * hidden, d)), take((4 * hidden, hidden)),
                              take((4 * hidden,)))
              for d in (feature_dim, hidden)]
    head_w = take((hidden,))
    return ForecastModel(layers[0], layers[1], head_w, float(vec[offset]))


def model_forward(window, model: ForecastModel) -> float:
    """Scalar forecast for one (K, feature_dim) window."""
    w = np.asarray(window, dtype=np.float64)
    return float(forward_batch(w[None, :, :], flatten(model))[0])


def mse_loss(predictions, targets) -> float:
    diff = np.ravel(predictions) - np.ravel(targets)
    return float(np.mean(diff * diff))


def stack_samples(samples):
    """(windows, labels) arrays from a list of objects with .window/.label."""
    return (np.stack([np.asarray(s.window, dtype=np.float64) for s in samples]),
            np.array([s.label for s in samples]))


def gradient(windows, targets, vec):
    """compute_gradients for one model: (P,) gradient and float loss."""
    grads, losses = compute_gradients(windows, targets, np.asarray(vec)[None])
    return grads[0], float(losses[0])


def adam_update(values, grad, m, v, t, learning_rate=0.001,
                beta1=0.9, beta2=0.999, epsilon=1e-8):
    """Textbook Adam on one vector; returns (values, m, v, t)."""
    t += 1
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * (grad * grad)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return values - learning_rate * m_hat / (np.sqrt(v_hat) + epsilon), m, v, t


def rmse(vec, seq_set) -> float:
    diff = forward_batch(seq_set.windows, vec) - seq_set.labels
    return float(np.sqrt(np.mean(diff * diff)))


def train_serially(session, epochs, batch_size, learning_rate, patience=None):
    """One session trained alone, one minibatch at a time.

    Returns (params, records) with the records `fit_epochs` keeps, and the
    best snapshot in place of the final parameters for validated sessions.
    Raises the NumericalError the session's first bad step raises.
    """
    params = np.array(session.params, dtype=np.float64)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    t = 0
    n = len(session.labels)
    records = []
    best, best_metric, stale = params.copy(), None, 0
    if session.val is not None:
        best_metric = rmse(params, session.val)
    for epoch in range(1, epochs + 1):
        perm = session.gen.permutation(n)
        losses = []
        for lo in range(0, n, batch_size):
            idx = perm[lo:lo + batch_size]
            grad, loss = gradient(session.windows[idx], session.labels[idx], params)
            params, m, v, t = adam_update(params, grad, m, v, t, learning_rate)
            losses.append(loss)
        metric = None
        if session.val is not None:
            metric = rmse(params, session.val)
            if metric < best_metric:
                best, best_metric, stale = params.copy(), metric, 0
            else:
                stale += 1
        records.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                        "val_rmse": metric, "samples": n})
        if session.val is not None and stale >= patience:
            break
    return (params if session.val is None else best), records

