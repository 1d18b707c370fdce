"""Reference implementations the tests check the package against.

The package trains flat parameter vectors, many models at a time.  Here
the same model is spelled out one model and one step at a time: per-layer
weight records, a single LSTM cell step, the flat layout written out as a
concatenation, the textbook Adam recurrence on one vector, and the plain
one-session-after-another training loop that `fit_epochs` must reproduce
bit for bit.

`layerwise_gradients` and `layerwise_forward` are the package's previous
kernel: each layer runs its K steps over the whole batch before the next
layer starts, on plain `np.empty` buffers.  The wavefront kernel in
`fedcast.nn.lstm` must reproduce them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedcast.errors import ValidationError
from fedcast.nn import compute_gradients, forward_batch, lstm
from fedcast.nn.lstm import HIDDEN_SIZE, _blocks, param_count


def reset_arena() -> None:
    """Drop the kernel's scratch arena, so the next call carves a fresh one."""
    lstm._arena = np.empty(0)


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



def _step_shapes(c: int, n: int, h: int) -> list:
    """Shapes of the per-step scratch both layer passes take as `step`.

    Two (C, B, 4h) buffers, one (C, B, 3h) and seven (C, B, h); the last
    is the zero state.
    """
    return [(c, n, 4 * h)] * 2 + [(c, n, 3 * h)] + [(c, n, h)] * 7


def _layer_forward(x, w_x, w_h, b, out, step, acts=None, cells=None):
    """Run one layer of C models over (C, K, B, d) inputs from a zero state.

    Writes the (C, K, B, h) hidden outputs into `out`, using the buffers in
    `step` (shapes from `_step_shapes`) as scratch.  When `acts` and `cells`
    are given, the gate activations (C, K, B, 4h) and cell states
    (C, K, B, h) are written into them for backpropagation.
    """
    k = x.shape[1]
    h = w_h.shape[2]
    z, zh, gates, g, tmp, c_even, c_odd, *_, zeros = step
    zeros.fill(0.0)
    h_t = c_t = zeros
    wx_t = w_x.transpose(0, 2, 1)
    wh_t = w_h.transpose(0, 2, 1)
    bias = b[:, None, :]
    f = gates[:, :, :h]
    i = gates[:, :, h:2 * h]
    o = gates[:, :, 2 * h:]
    for t in range(k):
        np.matmul(x[:, t], wx_t, out=z)
        z += np.matmul(h_t, wh_t, out=zh)
        z += bias
        # forget, input and output gates: one sigmoid over the [:3h] block,
        # kept contiguous; large |z| saturates to exactly 0.0 or 1.0.
        np.negative(z[:, :, :3 * h], out=gates)
        np.exp(gates, out=gates)
        gates += 1.0
        np.divide(1.0, gates, out=gates)
        np.tanh(z[:, :, 3 * h:], out=g)
        # c_t = c_t * f + i * g, then h_t = o * tanh(c_t)
        if cells is not None:
            c_next = cells[:, t]
        else:
            c_next = c_odd if t % 2 else c_even
        np.multiply(c_t, f, out=c_next)
        c_next += np.multiply(i, g, out=tmp)
        c_t = c_next
        h_t = np.multiply(o, np.tanh(c_t, out=tmp), out=out[:, t])
        if acts is not None:
            acts[:, t, :, :3 * h] = gates
            acts[:, t, :, 3 * h:] = g


def _layer_backward(x, hidden_seq, acts, cells, d_hidden, w_x, w_h,
                    g_wx, g_wh, g_b, step, d_x=None):
    """Backpropagate through one layer of C models, all sequences (C, K, B, .).

    `d_hidden` holds the gradients from above of the layer's last
    d_hidden.shape[1] outputs; earlier outputs get none.  Adds the weight
    gradients into the views g_wx, g_wh and g_b, using the buffers in
    `step` as scratch; writes the gradient with respect to the inputs into
    `d_x` when given.
    """
    k = x.shape[1]
    h = w_h.shape[2]
    first_above = k - d_hidden.shape[1]
    dz, _, d_sig, dh, dc, dh_carry, tc, tmp, tmp2, zeros = step
    for buf in (dc, dh_carry, zeros):
        buf.fill(0.0)
    dz_t = dz.transpose(0, 2, 1)
    for t in range(k - 1, -1, -1):
        above = d_hidden[:, t - first_above] if t >= first_above else zeros
        np.add(above, dh_carry, out=dh)
        c_prev = cells[:, t - 1] if t > 0 else zeros
        h_prev = hidden_seq[:, t - 1] if t > 0 else zeros
        sig = acts[:, t, :, :3 * h]
        i = acts[:, t, :, h:2 * h]
        o = acts[:, t, :, 2 * h:3 * h]
        g = acts[:, t, :, 3 * h:]
        np.tanh(cells[:, t], out=tc)
        # dc += dh * o * (1 - tc^2)
        np.multiply(tc, tc, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(dh, o, out=tmp2)
        tmp2 *= tmp
        dc += tmp2
        np.multiply(dc, c_prev, out=dz[:, :, :h])
        np.multiply(dc, g, out=dz[:, :, h:2 * h])
        np.multiply(dh, tc, out=dz[:, :, 2 * h:3 * h])
        np.multiply(dc, i, out=dz[:, :, 3 * h:])
        dz[:, :, :3 * h] *= sig
        dz[:, :, :3 * h] *= np.subtract(1.0, sig, out=d_sig)
        np.multiply(g, g, out=tmp)
        dz[:, :, 3 * h:] *= np.subtract(1.0, tmp, out=tmp)
        g_wx += dz_t @ x[:, t]
        g_wh += dz_t @ h_prev
        g_b += dz.sum(axis=1)
        if d_x is not None:
            np.matmul(dz, w_x, out=d_x[:, t])
        np.matmul(dz, w_h, out=dh_carry)
        dc *= acts[:, t, :, :h]


def _empty(*shapes) -> list:
    return [np.empty(shape) for shape in shapes]


def layerwise_forward(windows, params) -> np.ndarray:
    """`forward_batch` computed one layer at a time: (B,) predictions."""
    params = np.asarray(params, dtype=np.float64)
    x = np.asarray(windows, dtype=np.float64)
    n, k, d = x.shape
    wx1, wh1, b1, wx2, wh2, b2, head_w, head_b = _blocks(params[None], d)
    h = wh1.shape[2]
    h1, h2, *step = _empty((1, k, n, h), (1, k, n, h), *_step_shapes(1, n, h))
    with np.errstate(over="ignore"):
        _layer_forward(x.transpose(1, 0, 2)[None], wx1, wh1, b1, h1, step)
        _layer_forward(h1, wx2, wh2, b2, h2, step)
    return h2[0, -1] @ head_w[0] + head_b[0]


def layerwise_gradients(windows, targets, params):
    """`compute_gradients` computed one layer at a time: (C, P) and (C,)."""
    params = np.asarray(params, dtype=np.float64)
    x = np.asarray(windows, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).ravel()
    c = params.shape[0]
    rows, k, d = x.shape
    n = rows // c
    wx1, wh1, b1, wx2, wh2, b2, head_w, head_b = _blocks(params, d)
    h = wh1.shape[2]
    seq, gates = (c, k, n, h), (c, k, n, 4 * h)
    xs, h1, acts1, cells1, h2, acts2, cells2, d_h2, d_h1, *step = _empty(
        (c, k, n, d), seq, gates, seq, seq, gates, seq, (c, 1, n, h), seq,
        *_step_shapes(c, n, h))
    xs[:] = x.reshape(c, n, k, d).transpose(0, 2, 1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        _layer_forward(xs, wx1, wh1, b1, h1, step, acts1, cells1)
        _layer_forward(h1, wx2, wh2, b2, h2, step, acts2, cells2)
        last = h2[:, -1]
        pred = (last @ head_w[:, :, None])[:, :, 0] + head_b[:, None]
        resid = pred - y.reshape(c, n)
        losses = np.mean(resid * resid, axis=1)

        grads = np.zeros_like(params)
        g_wx1, g_wh1, g_b1, g_wx2, g_wh2, g_b2, g_head_w, g_head_b = _blocks(grads, d)
        dpred = (2.0 / n) * resid
        g_head_w[:] = (last.transpose(0, 2, 1) @ dpred[:, :, None])[:, :, 0]
        g_head_b[:] = dpred.sum(axis=1)
        # only the last step of layer 2 feeds the head
        d_h2[:, 0] = dpred[:, :, None] * head_w[:, None, :]
        _layer_backward(h1, h2, acts2, cells2, d_h2, wx2, wh2,
                        g_wx2, g_wh2, g_b2, step, d_x=d_h1)
        _layer_backward(xs, h1, acts1, cells1, d_h1, wx1, wh1,
                        g_wx1, g_wh1, g_b1, step)
    return grads, losses
