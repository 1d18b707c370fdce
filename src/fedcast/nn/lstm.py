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
order.  The lockstep engine, `federation.training.fit_epochs`, stacks
independent sessions whose batches are equally long, at most
max(1, STACK_ROWS // batch_size) models per call.

Inside a call the two layers advance as a wavefront: tick s runs layer 1's
step s beside layer 2's step s-1 (tick 0 runs layer 1 alone, tick K layer
2 alone), so each gate and cell operation is one numpy call over a
(2, C, B, .) pair of layers, and both recurrent products are one product
against a (2, C, 4h, h) view of both layers' weights; only the input
products, of widths d and h, stay apart.  The backward pass runs the same
pairs from tick K down.  Cells are (K+2, 2, C, B, h) slots: tick s reads
slot s and writes slot s+1; slot 0 and layer 2's half of slot 1 hold the
zero state.  Outputs roll in two (2, C, B, h) slots, s mod 2 and s+1 mod 2,
with the same zero state.  The backward pass rebuilds tick s's input
outputs as o * tanh(c) of tick s-1, by the forward's own multiply on the
same stored gate and tanh(c) slots, so they are bitwise the ones the
forward pass read and need no slots of their own (recompute for storage,
as in Chen et al., arXiv 1604.06174).

The products stay row-major, (2, C, B, 4h) per tick; the activations are
gate-major.  Tick s's forget, input and output gates are slot s of a
(K+1, 3, 2, C, B, h) buffer, written by the negation that starts the
sigmoid, which copies them out of the product anyway; its cell candidates
and tanh(c) are slot s of (K+1, 2, C, B, h) buffers (`forward_batch` keeps
one slot of each).  Every gate and cell operation thus reads contiguous
(., C, B, h) blocks, not h-wide slices strided by 4h.  The backward pass
reads tanh(c) from its slots instead of recomputing it, computes the four
gate gradients in a contiguous gate-major scratch, and writes them into
the row-major dz its products read with one strided copy per tick.

No result depends on C, on the pairing or on the gate layout, bit for bit.
Elementwise operations give the same bits wherever an element sits; every
product gives each layer of each model a slice with a lone model's shapes
and strides, so BLAS gets the call it would get alone; step 0's recurrent
product is still one against zeros, so signed zeros agree; and each weight
gradient sums its steps in descending order from zero, in a contiguous
buffer copied into the gradient matrix at the end.  Tests compare the
kernel byte for byte with the layer-at-a-time one in tests/nn_oracle.py.

`compute_gradients` copies its windows into a time-major (K, C, B, d)
buffer; `forward_batch` reads its (B, K, d) windows through a transposed
view, contiguous rows at every step on `data.sequences`' sliding windows.
These buffers, the per-tick scratch, which the backward pass reuses, and
the weight-gradient sums and products (`np.matmul(..., out=)`, not a fresh
array per tick) are carved (`_carve`) from one module-level float64 arena
that grows to the largest call's total and is reused, so repeated calls
map no fresh pages.  The arena lives as long as the process, bounded by
the largest call, which the peak already pays.  A carved view holds its
data only until the next carve, by any call, so nothing carved is
returned, and the arena is not for use by threads.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import NumericalError, ValidationError

# Fixed architecture width.  Tests may build narrower models through the
# `hidden` arguments below; the CLI does not expose it.
HIDDEN_SIZE = 20


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


def _pairs(blocks: list) -> list:
    """Both layers' recurrent weights (2, C, 4h, h) and biases (2, C, 4h)."""
    # views of one C-contiguous matrix's `_blocks`: in every row, layer 2's
    # blocks sit past layer 1's by the sizes of wh1, b1 and wx2
    gap = sum(block[0].nbytes for block in blocks[1:4])
    return [as_strided(b, (2,) + b.shape, (gap,) + b.strides) for b in blocks[1:3]]


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


def _gate_major(z: np.ndarray) -> np.ndarray:
    """A (4, 2, C, B, h) gate-major view of a row-major (2, C, B, 4h) buffer."""
    *lead, width = z.shape
    return z.reshape(*lead, 4, width // 4).transpose(3, 0, 1, 2, 4)


def _forward(xs, w_x1, w_x2, pairs, hs, cs, sig, g, tc, step):
    """Run both layers of C models over (K, C, B, d) inputs from a zero state.

    Slots of the outputs `hs`, cells `cs`, gates `sig` and `g` and cell
    activations `tc` (tanh(c)) are each taken modulo that buffer's own
    count, so two output or cell slots and one slot of the others can roll.
    """
    k = len(xs)
    z, zh = step[:2]
    z_gates = _gate_major(z)
    wx1_t, wx2_t = w_x1.transpose(0, 2, 1), w_x2.transpose(0, 2, 1)
    wh_t, bias = pairs[0].transpose(0, 1, 3, 2), pairs[1][:, :, None]
    hs[0] = cs[0] = hs[1, 1] = cs[1, 1] = 0.0  # the zero state
    for s in range(k + 1):
        pair = slice(int(s == k), 1 + (s > 0))  # the layers running at tick s
        h_prev, h_next = hs[s % len(hs)], hs[(s + 1) % len(hs), pair]
        c_prev, c_next = cs[s % len(cs)], cs[(s + 1) % len(cs), pair]
        if s < k:
            np.matmul(xs[s], wx1_t, out=z[0])
        if s > 0:
            np.matmul(h_prev[0], wx2_t, out=z[1])
        zs = z[pair]
        zs += np.matmul(h_prev[pair], wh_t[pair], out=zh[pair])
        zs += bias[pair]
        # forget, input and output gates: one sigmoid over a gate-major
        # (3, ., C, B, h) block, which the negation copies out of the
        # row-major products; large |z| saturates to exactly 0.0 or 1.0.
        gates = sig[s % len(sig)][:, pair]
        cand, t_c = g[s % len(g), pair], tc[s % len(tc), pair]
        np.negative(z_gates[:3, pair], out=gates)
        np.exp(gates, out=gates)
        gates += 1.0
        np.divide(1.0, gates, out=gates)
        np.tanh(z_gates[3, pair], out=cand)
        # c = c_prev * f + i * g, then h = o * tanh(c)
        np.multiply(c_prev[pair], gates[0], out=c_next)
        c_next += np.multiply(gates[1], cand, out=t_c)
        np.multiply(gates[2], np.tanh(c_next, out=t_c), out=h_next)


def _backward(xs, w_x2, w_h, grads, sums, hs, cs, sig, g, tc, d_last, step):
    """Backpropagate through `_forward`'s ticks, from tick K down to 0.

    `d_last` is the gradient of layer 2's last output.  Each tick's weight
    products land in the scratch `p_x` and `p_h` and are added to contiguous
    sums, where adds run faster than on views; the sums are copied into
    `grads`, the gradient matrix's `_blocks`, at the end.  Layer 2's input
    gradient reaches layer 1 one tick later via `above`.

    The cells, gates and tanh(c) of every tick are read from their slots,
    but `_forward` rolled the outputs in two: each tick rebuilds its input
    outputs into slot s mod 2 with the multiply that made them, on the same
    operands, so the products read bitwise the forward pass's inputs.
    """
    k = len(xs)
    s_wx1, s_wx2, s_wh, s_b, p_x, p_h = sums
    dz, zh, dh, dc, tmp, tmp2, above = step
    for buf in (dh, dc, above, s_wx1, s_wx2, s_wh, s_b):
        buf.fill(0.0)
    dh[1] += d_last  # a zero carry plus the gradient from the head
    # The gate gradients are computed gate-major in zh's memory, then copied
    # into the row-major dz that the products read.  Until that copy, dz's
    # memory holds the 1 - gates scratch.
    dz_gates, dz_t = _gate_major(dz), dz.transpose(0, 1, 3, 2)
    dzg, comp = zh.reshape((4,) + dh.shape), dz.reshape((4,) + dh.shape)[:3]
    for s in range(k, -1, -1):
        pair = slice(int(s == k), 1 + (s > 0))
        h_in = hs[s % 2]  # tick s's input outputs
        if s < 2:
            h_in[...] = 0.0  # the zero state; tick 1 rebuilds layer 1's half
        if s > 0:
            ran = slice(0, 1 + (s > 1))  # the layers that ran at tick s-1
            np.multiply(sig[s - 1, 2, ran], tc[s - 1, ran], out=h_in[ran])
        d, d_h, d_c, t, t2 = dzg[:, pair], dh[pair], dc[pair], tmp[pair], tmp2[pair]
        gates, cand, t_c = sig[s][:, pair], g[s, pair], tc[s, pair]
        # dh holds the carry from the tick after; add the gradient from above
        np.add(above[pair], d_h, out=d_h)
        # dc += dh * o * (1 - tanh(c)^2)
        np.multiply(t_c, t_c, out=t)
        np.subtract(1.0, t, out=t)
        np.multiply(d_h, gates[2], out=t2)
        t2 *= t
        d_c += t2
        np.multiply(d_c, cs[s, pair], out=d[0])
        np.multiply(d_c, cand, out=d[1])
        np.multiply(d_h, t_c, out=d[2])
        np.multiply(d_c, gates[1], out=d[3])
        d[:3] *= gates
        d[:3] *= np.subtract(1.0, gates, out=comp[:, pair])
        np.multiply(cand, cand, out=t)
        d[3] *= np.subtract(1.0, t, out=t)
        dz_gates[:, pair] = d
        if s < k:
            s_wx1 += np.matmul(dz_t[0], xs[s], out=p_x)
        if s > 0:
            s_wx2 += np.matmul(dz_t[1], h_in[0], out=p_h[0])
            np.matmul(dz[1], w_x2, out=above[0])
        s_wh[pair] += np.matmul(dz_t[pair], h_in[pair], out=p_h[pair])
        s_b[pair] += dz[pair].sum(axis=2)
        np.matmul(dz[pair], w_h[pair], out=d_h)
        d_c *= gates[0]
    grads[0][...], grads[3][...] = s_wx1, s_wx2
    for view, total in zip(_pairs(grads), (s_wh, s_b)):
        view[...] = total


def _check_windows(windows) -> np.ndarray:
    x = _as_float_array(windows, "windows")
    if x.ndim != 3 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValidationError("windows must be a nonempty (B, K, d) array")
    return x


def forward_batch(windows, params) -> np.ndarray:
    """Predictions of one model, a (P,) vector, for a (B, K, d) batch."""
    params = np.ascontiguousarray(params, dtype=np.float64)
    if params.ndim != 1:
        raise ValidationError("params must be one flat parameter vector")
    x = _check_windows(windows)
    n, k, d = x.shape
    wx1, _, _, wx2, _, _, head_w, head_b = blocks = _blocks(params[None], d)
    h = head_w.shape[1]
    hs, cs, sig, g, tc, *step = _carve(
        (2, 2, 1, n, h), (2, 2, 1, n, h), (1, 3, 2, 1, n, h), (1, 2, 1, n, h),
        (1, 2, 1, n, h), (2, 1, n, 4 * h), (2, 1, n, 4 * h))
    with np.errstate(over="ignore"):
        _forward(x.transpose(1, 0, 2)[:, None], wx1, wx2, _pairs(blocks),
                 hs, cs, sig, g, tc, step)
    return hs[(k + 1) % 2, 1, 0] @ head_w[0] + head_b[0]


def compute_gradients(windows, targets, params):
    """Gradients and losses of C models, each on its own batch.

    `params` is (C, P); `windows` is (C*B, K, d) and `targets` (C*B,), the
    first B rows belonging to model 0, the next B to model 1, and so on.
    Returns the (C, P) gradients of each model's batch mean squared error
    and the (C,) losses.  A non-finite loss or gradient raises
    NumericalError naming the model (`session`), with the flat index of the
    first bad coordinate in that model's vector (`param_index`).
    """
    params = np.ascontiguousarray(params, dtype=np.float64)
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
    wx1, _, _, wx2, _, _, head_w, head_b = blocks = _blocks(params, d)
    pairs, h = _pairs(blocks), head_w.shape[1]
    ticks, pair = (k + 1, 2, c, n, h), (2, c, n)
    xs, hs, cs, sig, g, tc, *rest = _carve(
        (k, c, n, d), (2, 2, c, n, h), (k + 2, 2, c, n, h),
        (k + 1, 3, 2, c, n, h), ticks, ticks,
        # sums of the wx1, wx2, wh-pair and bias-pair gradients, then the
        # scratch of the input-width and hidden-width weight products
        (c, 4 * h, d), (c, 4 * h, h), (2, c, 4 * h, h), (2, c, 4 * h),
        (c, 4 * h, d), (2, c, 4 * h, h),
        *[pair + (4 * h,)] * 2, *[pair + (h,)] * 5)
    sums, step = rest[:6], rest[6:]
    xs[:] = x.reshape(c, n, k, d).transpose(2, 0, 1, 3)
    # Overflow shows up as a non-finite loss or gradient, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        _forward(xs, wx1, wx2, pairs, hs, cs, sig, g, tc, step)
        last = hs[(k + 1) % 2, 1]
        pred = (last @ head_w[:, :, None])[:, :, 0] + head_b[:, None]
        resid = pred - y.reshape(c, n)
        losses = np.mean(resid * resid, axis=1)
        bad = np.flatnonzero(~np.isfinite(losses))
        if bad.size:
            raise NumericalError("loss is not finite", session=int(bad[0]))

        grads = np.zeros_like(params)
        g_blocks = _blocks(grads, d)
        g_head_w, g_head_b = g_blocks[6:]
        dpred = (2.0 / n) * resid
        g_head_w[:] = (last.transpose(0, 2, 1) @ dpred[:, :, None])[:, :, 0]
        g_head_b[:] = dpred.sum(axis=1)
        # only the last step of layer 2 feeds the head
        _backward(xs, wx2, pairs[0], g_blocks, sums, hs, cs, sig, g, tc,
                  dpred[:, :, None] * head_w[:, None, :], step)
    finite = np.isfinite(grads)
    if not finite.all():
        session = int(np.flatnonzero(~finite.all(axis=1))[0])
        index = int(np.flatnonzero(~finite[session])[0])
        raise NumericalError(f"non-finite gradient at parameter index {index}",
                             param_index=index, session=session)
    return grads, losses
