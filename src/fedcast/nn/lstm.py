"""Two-layer LSTM forecaster with a linear head, in float64 numpy.

The model reads a window of K feature rows and predicts the next hour's
normalised consumption from the second layer's final hidden state.  Forward,
loss, and backpropagation through time are written out directly so that the
gradient can be checked against finite differences.

A model is one flat float64 vector.  Gate blocks are stacked in a fixed
order (forget, input, output, cell candidate), giving a fixed layout that
the rest of the package treats as the unit of averaging and clustering:

    layer 1: input weights (4*hidden, d) row-major,
             recurrent weights (4*hidden, hidden) row-major,
             biases (4*hidden,)
    layer 2: same three blocks with input size = hidden
    head weight (hidden,)
    head bias (1,)

The hidden width is implied by the vector's length and the input width.

Training works on C independent models at once: a (C, P) matrix whose rows
are models, with a (C*B, K, d) batch holding B windows per model in row
order.  Every block is a view into that matrix, and every product is a
stacked `np.matmul` whose per-model operands have the same shapes and
strides a single model's would, so each model gets the BLAS call it would
get alone and its gradient is bitwise the same whatever C is.  The
lockstep engine, `federation.training.fit_epochs`, builds such stacks from
independent training sessions whose batches are equally long, at most
max(1, STACK_ROWS // batch_size) models per call: small batches stack,
and at batch size 256 each model still gets a call of its own.

Inside a call every sequence buffer is time-major: the input copy, gate
activations, cell states, layer outputs and their gradients are
(C, K, B, .), so what one time step reads or writes is one contiguous
block per model.  `compute_gradients` copies its (C*B, K, d) windows into
that layout once; `forward_batch` reads its (B, K, d) windows through a
transposed view, which on the sliding-window views of `data.sequences` is
contiguous rows at every step.  These buffers and the per-step scratch are
carved (`_carve`) from one module-level float64 arena that grows to the
largest call's total and is reused after that, so repeated calls map no
fresh pages.  A carved view holds its data only until the next carve, by
this call or any other, so nothing carved is returned: gradients, losses
and predictions are fresh arrays, and the arena is not for concurrent use
by threads.  `federation.run_scenario` frees it (`release_arena`) when an
entry ends, so one entry's largest buffers do not stay mapped through the
next entry's data phase.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..errors import NumericalError, ValidationError

# Fixed architecture width.  Tests may build narrower models through the
# `hidden` arguments below; the CLI does not expose it.
HIDDEN_SIZE = 20

GATE_ORDER = ("forget", "input", "output", "cell")


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def param_count(feature_dim: int, hidden: int = HIDDEN_SIZE) -> int:
    """Length of the flat parameter vector for the given input width."""
    layer1 = 4 * (hidden * feature_dim + hidden * hidden + hidden)
    layer2 = 4 * (hidden * hidden + hidden * hidden + hidden)
    return layer1 + layer2 + hidden + 1


@functools.lru_cache(maxsize=None)
def _layout(n_params: int, feature_dim: int) -> tuple:
    """(hidden, blocks): the width and each block's (start, stop, shape)."""
    # param_count is 12h^2 + (4d + 9)h + 1, increasing in h.
    b = 4 * feature_dim + 9
    hidden = round((math.sqrt(b * b + 48 * (n_params - 1)) - b) / 24)
    if hidden < 1 or param_count(feature_dim, hidden) != n_params:
        raise ValidationError(
            f"{n_params} parameters fit no model with {feature_dim} input features")
    shapes = []
    for d in (feature_dim, hidden):
        shapes += [(4 * hidden, d), (4 * hidden, hidden), (4 * hidden,)]
    shapes += [(hidden,), ()]
    blocks, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        blocks.append((start, stop, shape))
        start = stop
    return hidden, tuple(blocks)


def _blocks(matrix: np.ndarray, feature_dim: int) -> list:
    """Views of every parameter block of a (C, P) matrix, each (C, *shape)."""
    c = matrix.shape[0]
    _, blocks = _layout(matrix.shape[1], feature_dim)
    return [matrix[:, start:stop].reshape((c,) + shape)
            for start, stop, shape in blocks]


def init_model(feature_dim: int, rng: np.random.Generator,
               hidden: int = HIDDEN_SIZE) -> np.ndarray:
    """Fresh parameter vector, every coordinate uniform in ±1/sqrt(hidden).

    The whole vector is drawn in one call so the initialisation is a
    deterministic function of the generator state alone.
    """
    if feature_dim < 1 or hidden < 1:
        raise ValidationError("feature_dim and hidden must be positive")
    bound = 1.0 / np.sqrt(hidden)
    return rng.uniform(-bound, bound, size=param_count(feature_dim, hidden))


# Scratch memory for the sequence buffers of one call, grown to the largest
# call's total and reused after that (see the module docstring).
_arena = np.empty(0)
_ALIGN = 8  # doubles: carved views start at multiples of 64 bytes into the arena


def _carve(*shapes) -> list:
    """Views into the scratch arena, one per shape, back to back.

    Every view is overwritten by the next carve, by this or any other call.
    """
    global _arena
    sizes = [math.prod(shape) for shape in shapes]
    starts = np.cumsum([0] + [-(-size // _ALIGN) * _ALIGN for size in sizes])
    if _arena.size < starts[-1]:
        _arena = np.empty(starts[-1])
    return [_arena[start:start + size].reshape(shape)
            for start, size, shape in zip(starts, sizes, shapes)]


def release_arena() -> None:
    """Free the scratch arena; the next call allocates it afresh."""
    global _arena
    _arena = np.empty(0)


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


def _check_windows(windows) -> np.ndarray:
    x = _as_float_array(windows, "windows")
    if x.ndim != 3 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValidationError("windows must be a nonempty (B, K, d) array")
    return x


def forward_batch(windows, params) -> np.ndarray:
    """Predictions of one model, a (P,) vector, for a (B, K, d) batch."""
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1:
        raise ValidationError("params must be one flat parameter vector")
    x = _check_windows(windows)
    n, k, d = x.shape
    wx1, wh1, b1, wx2, wh2, b2, head_w, head_b = _blocks(params[None], d)
    h = wh1.shape[2]
    h1, h2, *step = _carve((1, k, n, h), (1, k, n, h), *_step_shapes(1, n, h))
    with np.errstate(over="ignore"):
        _layer_forward(x.transpose(1, 0, 2)[None], wx1, wh1, b1, h1, step)
        _layer_forward(h1, wx2, wh2, b2, h2, step)
    return h2[0, -1] @ head_w[0] + head_b[0]


def compute_gradients(windows, targets, params):
    """Gradients and losses of C models, each on its own batch.

    `params` is (C, P); `windows` is (C*B, K, d) and `targets` (C*B,), the
    first B rows belonging to model 0, the next B to model 1, and so on.
    Returns the (C, P) gradients of each model's batch mean squared error
    and the (C,) losses.  A non-finite loss or gradient raises
    NumericalError naming the model (`session`), with the flat index of the
    first bad coordinate in that model's vector (`param_index`).
    """
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 2 or params.shape[0] < 1:
        raise ValidationError("params must be a (C, P) matrix")
    x = _check_windows(windows)
    y = _as_float_array(targets, "targets").ravel()
    c = params.shape[0]
    rows, k, d = x.shape
    if rows != y.size or rows % c:
        raise ValidationError(
            "batch windows and targets must align and split evenly across models")
    n = rows // c
    wx1, wh1, b1, wx2, wh2, b2, head_w, head_b = _blocks(params, d)
    h = wh1.shape[2]
    seq, gates = (c, k, n, h), (c, k, n, 4 * h)
    xs, h1, acts1, cells1, h2, acts2, cells2, d_h2, d_h1, *step = _carve(
        (c, k, n, d), seq, gates, seq, seq, gates, seq, (c, 1, n, h), seq,
        *_step_shapes(c, n, h))
    xs[:] = x.reshape(c, n, k, d).transpose(0, 2, 1, 3)
    # Overflow shows up as a non-finite loss or gradient, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        _layer_forward(xs, wx1, wh1, b1, h1, step, acts1, cells1)
        _layer_forward(h1, wx2, wh2, b2, h2, step, acts2, cells2)
        last = h2[:, -1]
        pred = (last @ head_w[:, :, None])[:, :, 0] + head_b[:, None]
        resid = pred - y.reshape(c, n)
        losses = np.mean(resid * resid, axis=1)
        bad = np.flatnonzero(~np.isfinite(losses))
        if bad.size:
            raise NumericalError("loss is not finite", session=int(bad[0]))

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
    finite = np.isfinite(grads)
    if not finite.all():
        session = int(np.flatnonzero(~finite.all(axis=1))[0])
        index = int(np.flatnonzero(~finite[session])[0])
        raise NumericalError(f"non-finite gradient at parameter index {index}",
                             param_index=index, session=session)
    return grads, losses
