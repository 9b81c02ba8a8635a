"""Ground-truth layer math for the forward and backward passes.

These routines define the numerical behaviour every other component is
checked against. Convolutions contract through BLAS, so their summation
order is the library's, not a fixed one. What holds instead: a result keeps
the dtype of its inputs, the 32-bit path agrees with the simulator within
verify.REFERENCE_BOUND, and verification oracles run the same code in 64-bit.

Windows are read-only strided views from specs.window_view, the simulator's
helper too, over a zero-filled pad for the convs. Each conv contraction runs
the transpose, reshape and np.dot steps np.tensordot runs, in its operand
order, windows on the left, in row blocks written through out= into one
preallocated result, so no whole-layer window matrix exists. Those steps'
copies, that order and the kernel operand's strides fix the reference's
bits, so a change made for speed must keep them. A block holds at most
CHUNK_BYTES of windows, unless the BLAS would run so small a block another
way than the whole product (_blocks); then blocks are larger, or the
product runs whole. A kernel bank already laid out as the contraction reads
it is not copied and gives the operand a copy would; with a single input
map the operand is a view of the bank, whose bits follow the bank's order.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import GradcheckError, ShapeError
from .specs import (
    CHUNK_BYTES,
    ConvSpec,
    NetworkSpec,
    PoolSpec,
    SuperLayerSpec,
    check_kernels,
    check_maps,
    window_view,
)
from .traffic import transpose_conv

# Bits of a row block of a product equal the whole product's only where
# OpenBLAS takes the same path for both: it runs a product of at most 100**3
# multiply-adds through its small-matrix kernels, and one of at most 16 rows
# and few columns on one thread even when more are free; numpy runs a product
# of one row or one column through gemv. Each path rounds its own way.
SMALL_PRODUCT = 100**3
MIN_ROWS = 17


def _padded_windows(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """window_view over a zero-filled pad of x in np.pad's memory order, even
    for pad 0: the contraction reshapes from that layout, so it fixes the bits."""
    maps, h, w = x.shape
    xpad = np.zeros((maps, h + 2 * pad, w + 2 * pad), x.dtype, "F" if x.flags.fnc else "C")
    xpad[:, pad : pad + h, pad : pad + w] = x
    return window_view(xpad, k, stride)


def _blocks(count: int, rows: int, width: int, m: int, itemsize: int) -> list[slice]:
    """`count` units of `rows` rows each of a (count * rows, width) window
    matrix that multiplies a (width, m) one, in the fewest blocks of at most
    CHUNK_BYTES of windows that each do more than SMALL_PRODUCT multiply-adds
    in at least MIN_ROWS rows, their sizes as even as can be; one block where
    there is no such split, or the product has one column."""
    most = max(1, CHUNK_BYTES // (rows * width * itemsize))
    least = max(SMALL_PRODUCT // (rows * width * m) + 1, -(-MIN_ROWS // rows))
    parts = max(1, min(-(-count // most), count // least)) if m > 1 else 1
    return [slice(i * count // parts, (i + 1) * count // parts) for i in range(parts)]


def conv_forward(x: np.ndarray, ker: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """y[j,r,c] = sum_i sum_uv x[i, r*s+u-pad, c*s+v-pad] * ker[i,j,u,v]."""
    check_kernels(ker, spec)
    if x.ndim != 3 or x.shape[0] != spec.n:
        got = x.shape[0] if x.ndim == 3 else None
        raise ShapeError(f"input: maps axis is {got}, expected {spec.n}")
    common = np.result_type(x.dtype, ker.dtype)
    win = _padded_windows(x.astype(common, copy=False), spec.k, spec.stride, spec.pad)
    n, ho, wo, k, _ = win.shape
    # tensordot(win, ker, axes=([0, 3, 4], [0, 2, 3])) step by step, in blocks
    # of output rows; windows as the left operand: on small random nets this
    # orientation lands closer to a 64-bit evaluation than kernels on the left
    rhs = ker.astype(common, copy=False).transpose(0, 2, 3, 1).reshape(n * k * k, spec.m)
    out = np.empty((ho * wo, spec.m), common)
    for rows in _blocks(ho, wo, n * k * k, spec.m, out.itemsize):
        lhs = win[:, rows].transpose(1, 2, 0, 3, 4).reshape(-1, n * k * k)
        np.dot(lhs, rhs, out=out[rows.start * wo : rows.stop * wo])
    return out.reshape(ho, wo, spec.m).transpose(2, 0, 1)


def act_forward(x: np.ndarray) -> np.ndarray:
    """Rectifier: elementwise max(0, x)."""
    return np.maximum(x, np.asarray(0, dtype=x.dtype))


def pool_forward(x: np.ndarray, pool: PoolSpec) -> np.ndarray:
    """Average over p x p windows, per map, windows stepping by the pool stride."""
    if x.shape[1] < pool.p or x.shape[2] < pool.p:
        raise ShapeError(
            f"pooling window {pool.p} overruns map extent {x.shape[1]}x{x.shape[2]}"
        )
    # no copy here: np.sum's order over the window follows x's layout
    win = window_view(x, pool.p, pool.stride)
    inv = np.asarray(1.0 / (pool.p * pool.p), dtype=x.dtype)
    return win.sum(axis=(3, 4)) * inv


def super_forward(
    x: np.ndarray, ker: np.ndarray, layer: SuperLayerSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Full cascade. Returns (output, pre_activation conv result)."""
    check_maps(x, layer.conv.n, layer.input_h, layer.input_w, "input")
    pre = conv_forward(x, ker, layer.conv)
    out = act_forward(pre) if layer.has_act else pre
    if layer.pool is not None:
        out = pool_forward(out, layer.pool)
    return out, pre


def conv_backward_delta(delta_y: np.ndarray, ker: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Propagate deltas through a stride-1 conv: full correlation with
    180-degree-rotated kernels, input/output map roles swapped, and an
    effective zero padding of k-1-pad. Exact linear transpose of conv_forward.
    """
    check_kernels(ker, spec)
    swapped = ker[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    if spec.m == 1:
        # conv_forward's operand is a view of this copy, in its order
        swapped = np.ascontiguousarray(swapped)
    else:
        # at most one copy, in the (m, k, k, n) order conv_forward reads: the
        # operand its own reshape of a C-ordered copy would give
        swapped = np.ascontiguousarray(swapped.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    return conv_forward(delta_y, swapped, transpose_conv(spec))


def act_backward(delta: np.ndarray, pre_act: np.ndarray) -> np.ndarray:
    """Mask deltas by the rectifier derivative; zero where pre_act <= 0."""
    if delta.shape != pre_act.shape:
        raise ShapeError(
            f"delta shape {delta.shape} does not match pre-activation {pre_act.shape}"
        )
    return delta * (pre_act > 0).astype(delta.dtype)


def pool_backward(delta: np.ndarray, pool: PoolSpec, in_h: int, in_w: int) -> np.ndarray:
    """Exact transpose of pool_forward: each input position accumulates
    delta/p^2 over every window containing it (overlapping windows sum).
    """
    ph, pw = pool.out_dims(in_h, in_w)
    if delta.shape[1:] != (ph, pw):
        raise ShapeError(
            f"delta dims {delta.shape[1]}x{delta.shape[2]} do not match "
            f"pooled dims {ph}x{pw} for input {in_h}x{in_w}"
        )
    scaled = delta * np.asarray(1.0 / (pool.p * pool.p), dtype=delta.dtype)
    out = np.zeros((delta.shape[0], in_h, in_w), dtype=delta.dtype)
    s, p = pool.stride, pool.p
    # tap (u, v) of window (r, c) is input (r*s + u, c*s + v); with u and v
    # descending, every input adds its windows in ascending (r, c) order
    for u in reversed(range(p)):
        for v in reversed(range(p)):
            out[:, u : u + (ph - 1) * s + 1 : s, v : v + (pw - 1) * s + 1 : s] += scaled
    return out


def super_backward_delta(
    delta_next: np.ndarray,
    ker_next: np.ndarray,
    conv_next: ConvSpec,
    layer: SuperLayerSpec,
    pre_act: np.ndarray,
) -> np.ndarray:
    """Delta at this layer's conv output from the delta at the next conv's
    output: next conv transposed, then this layer's pool transpose, then the
    activation mask. Stages absent from the layer are skipped.
    """
    d = conv_backward_delta(delta_next, ker_next, conv_next)
    h, w = layer.conv_out_dims()
    if layer.pool is not None:
        d = pool_backward(d, layer.pool, h, w)
    if d.shape[1:] != (h, w):
        raise ShapeError(
            f"propagated delta dims {d.shape[1]}x{d.shape[2]} do not match "
            f"conv output dims {h}x{w}"
        )
    if layer.has_act:
        check_maps(pre_act, d.shape[0], h, w, "pre-activation")
        d = act_backward(d, pre_act)
    return d


def kernel_gradient(x: np.ndarray, delta: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """grad[i,j,u,v] = sum_rc delta[j,r,c] * x[i, r*s+u-pad, c*s+v-pad]."""
    ho, wo = spec.out_dims(x.shape[1], x.shape[2])
    check_maps(delta, spec.m, ho, wo, "delta")
    if x.shape[0] != spec.n:
        raise ShapeError(f"input: maps axis is {x.shape[0]}, expected {spec.n}")
    common = np.result_type(x.dtype, delta.dtype)
    win = _padded_windows(x.astype(common, copy=False), spec.k, spec.stride, spec.pad)
    n, k = spec.n, spec.k
    # tensordot(win, delta, axes=([1, 2], [1, 2])) step by step, in blocks of
    # input maps; the delta operand goes through the same transpose and
    # reshape, which copies an F-ordered delta into the layout tensordot
    # hands to BLAS
    rhs = delta.astype(common, copy=False).transpose(1, 2, 0).reshape(ho * wo, spec.m)
    out = np.empty((n * k * k, spec.m), common)
    for maps in _blocks(n, k * k, ho * wo, spec.m, out.itemsize):
        lhs = win[maps].transpose(0, 3, 4, 1, 2).reshape(-1, ho * wo)
        np.dot(lhs, rhs, out=out[maps.start * k * k : maps.stop * k * k])
    return out.reshape(n, k, k, spec.m).transpose(0, 3, 1, 2)


RE_PROBES = 3  # times a weight is probed again, at a tenth of the step, across a kink


def _loss_and_regime(value) -> tuple[float, object]:
    return (float(value[0]), value[1]) if isinstance(value, tuple) else (float(value), None)


def finite_diff_gradient(
    loss: Callable[[np.ndarray], float | tuple], ker: np.ndarray, epsilon: float
) -> np.ndarray:
    """Central-difference gradient of a scalar loss w.r.t. every kernel weight,
    evaluated in 64-bit arithmetic. loss returns the loss, or a (loss, regime)
    pair whose regime is the same wherever the loss is smooth, as chain_loss's
    rectifier masks are. A weight whose probes meet another regime than the
    bank's is probed again at a tenth of the step, at most RE_PROBES times."""
    if not 0 < epsilon < np.inf:
        raise GradcheckError(f"epsilon must be positive and finite, got {epsilon}")
    base = ker.astype(np.float64)
    regime = _loss_and_regime(loss(base))[1]
    grad = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        probe = base.copy()
        for attempt in range(RE_PROBES + 1):
            step = epsilon / 10**attempt
            probe[idx] = base[idx] + step
            j_plus, plus = _loss_and_regime(loss(probe))
            probe[idx] = base[idx] - step
            j_minus, minus = _loss_and_regime(loss(probe))
            if plus == minus == regime:
                break
        if not (np.isfinite(j_plus) and np.isfinite(j_minus)):
            raise GradcheckError(f"non-finite loss while probing weight {idx}")
        grad[idx] = (j_plus - j_minus) / (2.0 * step)
    return grad


def _forward_chain(net: NetworkSpec, banks: list[np.ndarray], x0: np.ndarray):
    """Single-group functional run through every layer; keeps per-layer
    inputs and pre-activations for the backward pass."""
    inputs, pre_acts = [], []
    x = x0
    for layer, bank in zip(net.layers, banks):
        inputs.append(x)
        x, pre = super_forward(x, bank, layer)
        pre_acts.append(pre)
    return x, inputs, pre_acts


def chain_loss(net: NetworkSpec, banks: list[np.ndarray], x0: np.ndarray) -> tuple:
    """Quadratic loss 0.5*sum(out^2) of the chain's output, summed in 64-bit,
    and the chain's rectifier masks, between whose changes the loss is smooth."""
    out, _, pre_acts = _forward_chain(net, banks, x0)
    masks = [(pre > 0).tobytes() for pre, layer in zip(pre_acts, net.layers) if layer.has_act]
    return 0.5 * float(np.sum(out.astype(np.float64) ** 2)), masks


def analytic_kernel_gradients(
    net: NetworkSpec, banks: list[np.ndarray], x0: np.ndarray
) -> list[np.ndarray]:
    """Backward pass of the quadratic loss 0.5*sum(out^2) over the chain."""
    out, inputs, pre_acts = _forward_chain(net, banks, x0)
    last = len(net.layers) - 1
    d = out.copy()  # dJ/d(out) for the quadratic loss
    layer = net.layers[last]
    ho, wo = layer.conv_out_dims()
    if layer.pool is not None:
        d = pool_backward(d, layer.pool, ho, wo)
    if layer.has_act:
        d = act_backward(d, pre_acts[last])
    grads: list[np.ndarray | None] = [None] * len(net.layers)
    for index in range(last, -1, -1):
        layer = net.layers[index]
        grads[index] = kernel_gradient(inputs[index], d, layer.conv)
        if index > 0:
            d = super_backward_delta(
                d, banks[index], layer.conv, net.layers[index - 1], pre_acts[index - 1]
            )
    return grads
