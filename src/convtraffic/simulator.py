"""Transaction-level model of the streaming conv engine.

Executes the hardware schedule directly: k-row line buffers whose slice
per input map is a modular k x k bank grid, a shared window register,
computational units sweeping co-located windows into an m-wide accumulator
bank, and a fused rectifier/pooling engine. Produces functional outputs
plus exact external word and cycle counters that must agree with the
closed-form traffic model to the byte. One walker serves FP, DP and KU:
every prefix evaluates one contiguous block of each output row's windows,
from the line buffer or straight from the maps, so strategies change
counters, never bits. Each sweep views its windows once, over a zero-filled
pad of the maps or over the line buffer's bank rows. The walker admits,
checks and counts one output row at a time but computes in chunks of whole
rows sized for a core's L2 cache: a row's block is one C-contiguous copy out
of the view into its slot of the chunk, which for the line buffer also
undoes its row rotation, so no memory order reaches the bits. FP and DP run
one stacked matmul per CU wave over the chunk and give the same bits as the
schedule run position by position and CU wave by CU wave in 32-bit
arithmetic: a faster evaluation that reorders a float32 sum is a behaviour
change, not a speed-up. KU updates the store in row blocks sized to stay in
L2, taking the chunk's positions in order within each block; every store
element belongs to one block, so it still adds its products in position
order. A small block forms all its products in one elementwise multiply and
adds them with a scan. A large one adds each position's product into the
store with one K = 1 GEMM call of numpy's own BLAS (alpha = beta = 1, no
product buffer): its accumulator holds the rounded product, which beta = 1
adds to the store with one more rounding. A one-time probe checks that the
routine does not fuse the two; where it does, or is missing, a K = 1 np.dot
into a buffer and an in-place add do the same. Each product is one rounded
multiply on every route and no sum is formed, so only a zero product's sign
can differ, and the kernel store, which starts at +0.0, absorbs it (adding a
zero of either sign never leaves -0.0 there).
The pooling engine works on whole maps, the pooling-transpose gather on
blocks of elements that lie in the same windows relative to their position;
like a pooling unit, both add each element's taps one at a time, in order,
into a register cleared to +0.0.

One run covers one image of one group and scales its counters to the
group count. Over a batch, streamed words and cycles add up image by image,
while the one-time kernel preload is charged once per run, as in the model.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .archmodel import BudgetReport, HwConfig, sram_budget
from .errors import ShapeError
from .specs import (CHUNK_BYTES, NetworkSpec, PoolSpec, SuperLayerSpec, check_kernels, check_maps,
                    window_view)
from .traffic import (Phase, StrategySet, TrafficReport, op_count, phase_geometry, phase_layer,
                      used_extent)

# Kernel update adds every position's product into the kernel store one row
# block at a time: a block of max(1, KU_BLOCK_BYTES // (8 * m)) float32 rows
# takes at most half a MiB. The BLAS route adds into the block directly; with
# the product buffer of the numpy pair it falls back to, the two take at most
# 1 MiB, half of a core's 2 MiB L2.
# At AlexNet layer 3 the whole (2304, 384) store and its buffer take 7 MB, so
# each position streamed both through the shared L3; in 7 blocks, that layer's
# kernel update fell from 193 to 108 ms per checked pass (median of 3 traced
# runs, 2-core Xeon with 2 MiB L2 per core, 1 BLAS thread), bits unchanged.
KU_BLOCK_BYTES = 2**20


class LineBuffer:
    """The k most recent rows of every input map, fed one row at a time.

    All maps share one (n_maps, k, padded_width) array: map i's k x k bank
    grid is rows[i]. Row y sits in bank row y % k; the column coordinate maps
    to bank column x % k by addressing alone, so a window fetch only has to
    undo the row rotation to restore window order, and any k x k window over
    resident rows touches every bank exactly once. The maps advance through
    the rows in lockstep, so one row id per bank row serves them all.
    Padding columns and rows are synthesized on chip and never charged as
    external reads. Built for one conv stride, the buffer views its windows
    at that stride once; rows refill in place, so the view stays valid.
    """

    def __init__(self, n_maps: int, k: int, width: int, stride: int, pad: int = 0):
        self.n_maps = n_maps
        self.k = k
        self.pad = pad
        self.rows = np.zeros((n_maps, k, width + 2 * pad), dtype=np.float32)
        self.view = window_view(self.rows, k, stride)[:, 0].transpose(1, 0, 2, 3)
        self.row_ids = [-1] * k  # padded row held by each bank row, -1 when empty
        self.external_reads = 0

    def fill_row(self, y_padded: int, values: np.ndarray | None) -> None:
        """Install padded row y in every map, evicting what its bank row held.

        values has shape (n_maps, padded_width), or is None for an all-zero
        row (synthesized padding, or only the accounting matters).
        """
        phys = y_padded % self.k
        if values is None:
            self.rows[:, phys] = 0.0
        else:
            if values.shape != self.rows[:, phys].shape:
                raise ShapeError(
                    f"row block {values.shape} does not match the line buffer's "
                    f"{self.rows[:, phys].shape}"
                )
            self.rows[:, phys] = values
        self.row_ids[phys] = y_padded

    def admit_row(self, y_real: int, values: np.ndarray | None, used_cols: int) -> None:
        """Admit one real row across all maps, one external read per used column."""
        self.fill_row(y_real + self.pad, values)
        self.external_reads += self.n_maps * used_cols

    def windows(self, r: int, out: np.ndarray | None = None) -> np.ndarray:
        """Every k x k window over padded rows r .. r+k-1 of all maps, in window
        order, as one contiguous (windows, n_maps, k, k) block, written into out
        when given. One copy out of the buffer's window view: the bank rows
        rotate by r % k, so the block takes the rotated tail first, then the head."""
        for y in range(r, r + self.k):
            if self.row_ids[y % self.k] != y:
                raise RuntimeError(f"window row {y} is not resident in the line buffer")
        turn = r % self.k
        if out is None:
            out = np.empty(self.view.shape, dtype=self.view.dtype)
        out[:, :, : self.k - turn] = self.view[:, :, turn:]
        out[:, :, self.k - turn :] = self.view[:, :, :turn]
        return out


def kernel_matrix(kers: np.ndarray) -> np.ndarray:
    """Kernels (n, m, k, k) laid out once per sweep as an (n*k*k, m) matrix
    whose rows follow the (map, tap) order of a flattened window stack."""
    n, m, k, _ = kers.shape
    laid_out = np.ascontiguousarray(kers.transpose(0, 2, 3, 1), dtype=np.float32)
    return laid_out.reshape(n * k * k, m)


def accumulate_row(block: np.ndarray, kmat: np.ndarray, num_cu: int) -> np.ndarray:
    """Sweep a (positions, n, k, k) window block in CU-sized waves against the
    (n*k*k, m) kernel_matrix; returns each position's m outputs, (positions, m).

    Every position owns a cleared 32-bit accumulator bank and each wave of up
    to num_cu maps adds one dot into it. The stacked matmul runs the same dot
    per position as a lone window would, so every sum keeps its order.
    """
    positions, n = block.shape[:2]
    taps = block.reshape(positions, 1, -1)
    per_map = taps.shape[2] // n
    acc = np.zeros((positions, kmat.shape[1]), dtype=np.float32)
    for start in range(0, n, num_cu):
        wave = slice(start * per_map, min(start + num_cu, n) * per_map)
        acc += (taps[:, :, wave] @ kmat[wave])[:, 0]
    return acc


@dataclass
class SimResult:
    """Functional outputs plus the exact transaction totals of one run."""

    outputs: np.ndarray | None
    pre_act: np.ndarray | None
    grad: np.ndarray | None
    traffic: TrafficReport
    cycles: int
    sram_bytes: int
    register_bits: int
    read_trace: Counter | None = None
    write_trace: Counter | None = None


@dataclass(frozen=True)
class PhasePlan:
    """What every image of one (layer, phase) check reads, derived once, as
    the paper's level-1 reconfiguration writes a layer's parameters into
    control registers once. Built by plan_phase.

    kernel_layout is the memory order the kernel bank is drawn in, as
    (shape, turn, axes): the bank is np.empty(shape)[turn].transpose(axes),
    indexed (n, m, k, k). It is the order of the operand the engine conv
    contracts with, (input map, tap, output map), so neither kernel_matrix
    nor the reference copies the bank: (n, k, k, m) for FP; (m, k, k, n)
    with the taps rotated for DP, the transposed conv's. An engine conv with
    one input map keeps C order: the reference's bits follow its kernel
    operand's strides, and that operand is then a view of the bank in the
    order it is given. KU has no kernel operand, so it has no layout."""

    layer: SuperLayerSpec
    prev_layer: SuperLayerSpec | None
    groups: int
    phase: Phase
    hw: HwConfig
    engine: SuperLayerSpec  # the geometry the engine runs: the transposed conv for DP
    budget: BudgetReport  # on-chip storage, sized on the engine geometry
    draws: dict[str, tuple[int, int, int]]  # maps drawn after the kernels, in draw order
    kernel_layout: tuple | None


def plan_phase(net: NetworkSpec, index: int, phase: Phase, hw: HwConfig) -> PhasePlan:
    """The plan of super layer `index` of net in `phase` on hw. ConfigError
    when the phase is undefined there, the layer has no transposed conv, or
    the engine geometry exceeds a budget of hw."""
    layer = phase_layer(net, index, phase)
    prev_layer = net.layers[index - 1] if index > 0 else None
    engine = phase_geometry(layer, phase)
    n, m, k = layer.conv.n, layer.conv.m, layer.conv.k
    draws = {"x": (engine.conv.n, engine.input_h, engine.input_w)}
    if phase is Phase.KU:
        draws["delta"] = (m, *layer.conv_out_dims())
        layout = None
    elif engine.conv.n == 1:
        layout = ((n, m, k, k), (), (0, 1, 2, 3))
    elif phase is Phase.FP:
        layout = ((n, k, k, m), (), (0, 3, 1, 2))
    else:
        layout = ((m, k, k, n), np.s_[:, ::-1, ::-1], (3, 0, 1, 2))
    if phase is Phase.DP and prev_layer.has_act:
        draws["prev_pre_act"] = (n, *prev_layer.conv_out_dims())
    return PhasePlan(layer, prev_layer, net.groups[index], phase, hw, engine,
                     sram_budget(engine, hw), draws, layout)


class _Counters:
    def __init__(self, trace: bool):
        self.input_words = 0
        self.output_words = 0
        self.kernel_words = 0
        self.cycles = 0
        self.reads: Counter | None = Counter() if trace else None
        self.writes: Counter | None = Counter() if trace else None


def _position_operand_words(strategies: StrategySet, n: int, m: int, k: int) -> int:
    """External operand words one co-located sweep consumes.

    Without the line buffer each window tap streams in, re-fetched per
    filter unless the window register is reused; without the on-chip
    kernel store every multiply also streams its kernel operand.
    """
    words = 0
    if not strategies.line_buffer:
        words += n * k * k * (1 if strategies.window_reuse else m)
    if not strategies.kernels_on_chip:
        words += n * m * k * k
    return words


def _add_products(store: np.ndarray, taps: np.ndarray, deltas: np.ndarray,
                  block_rows: int) -> None:
    """Add each position's outer product taps[p] x deltas[p] into the (rows, m)
    kernel store, in position order within each block of block_rows rows. A
    block whose stack of the store and its products fits in CHUNK_BYTES forms
    the products in one multiply and adds them with a scan, in position order
    (np.add.reduce would sum pairwise where the reduced axis is the inner
    loop). A larger block adds each position's product into the store in one
    K = 1 BLAS call with no product buffer (_gemm_add), or, where numpy's BLAS
    fails the probe, forms it with a K = 1 np.dot and adds it."""
    for top in range(0, len(store), block_rows):
        store_block = store[top : top + block_rows]
        block_taps = taps[:, top : top + block_rows, None]
        if 4 * (len(taps) + 1) * store_block.size <= CHUNK_BYTES:
            stack = np.empty((len(taps) + 1, *store_block.shape), dtype=np.float32)
            stack[0] = store_block
            np.multiply(block_taps, deltas[:, None, :], out=stack[1:])
            np.add.accumulate(stack, axis=0, out=stack)
            store_block[...] = stack[-1]
        elif (sgemm := _blas_sgemm()) is not None:
            _gemm_add(sgemm, store, taps, deltas, top, block_rows)
        else:
            product = np.empty_like(store_block)
            for tap, d in zip(block_taps, deltas[:, None, :]):
                np.dot(tap, d, out=product)
                store_block += product


def _gemm_add(sgemm, store: np.ndarray, taps: np.ndarray, deltas: np.ndarray,
              top: int, block_rows: int) -> None:
    """Add taps[p, top : top+block_rows] x deltas[p] into the same rows of the
    (rows, m) store for each position p in order: per position one row-major
    cblas_sgemm with M = block rows, N = m, K = 1 and alpha = beta = 1, C being
    the store block. Its accumulator holds the rounded product and beta = 1
    adds that to C with one more rounding, as np.dot and += do, provided the
    routine passed _blas_sgemm's probe. The pointers are plain offsets into
    the arrays, so those must be C-contiguous float32 of matching shapes."""
    for a in (store, taps, deltas):
        if a.dtype != np.float32 or not a.flags.c_contiguous:
            raise ValueError("the BLAS kernel update reads C-contiguous float32 arrays only")
    if taps.shape != (len(deltas), len(store)) or deltas.shape[1:] != store.shape[1:]:
        raise ShapeError(f"products {taps.shape} x {deltas.shape} do not match the kernel "
                         f"store {store.shape}")
    rows, m = store.shape
    order, no_trans = ctypes.c_int(101), ctypes.c_int(111)  # CblasRowMajor, CblasNoTrans
    gemm_m = ctypes.c_int64(len(store[top : top + block_rows]))  # the rows the block has
    gemm_n, gemm_k, one = ctypes.c_int64(m), ctypes.c_int64(1), ctypes.c_float(1.0)
    c = ctypes.c_void_p(store.ctypes.data + 4 * m * top)
    a0, b0 = taps.ctypes.data + 4 * top, deltas.ctypes.data
    for a, b in zip(range(a0, a0 + 4 * rows * len(taps), 4 * rows),
                    range(b0, b0 + 4 * m * len(deltas), 4 * m)):
        # A: the position's taps, (block rows, 1), lda = 1; B: its deltas,
        # (1, m), ldb = m; C: the store block, ldc = m
        sgemm(order, no_trans, no_trans, gemm_m, gemm_n, gemm_k, one, ctypes.c_void_p(a),
              gemm_k, ctypes.c_void_p(b), gemm_n, one, c, gemm_n)


@functools.cache
def _blas_sgemm(symbol: str = "scipy_cblas_sgemm64_"):
    """numpy's own BLAS cblas_sgemm (ILP64 OpenBLAS, so 64-bit integer
    arguments), looked up once; None when the symbol is missing or the
    routine fails the probe. The probe adds (1 + 2**-12)**2 into a 64 x 64
    store of -1: rounding the product first leaves 2**-11 exactly, a fused
    multiply-add 2**-11 + 2**-24."""
    try:
        sgemm = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__), symbol)
    except (AttributeError, OSError):
        return None
    # _gemm_add passes every argument as a ctypes object of its C type;
    # declared argtypes would convert them again on each call (7.4 -> 8.2 us
    # per AlexNet layer 1 call, 1 BLAS thread)
    sgemm.argtypes = None
    sgemm.restype = None
    return _probed(sgemm)


def _probed(sgemm):
    """sgemm when its K = 1 update rounds the product before adding it, else None."""
    store = np.full((64, 64), -1.0, dtype=np.float32)
    taps = np.full((1, 64), 1 + 2.0**-12, dtype=np.float32)
    _gemm_add(sgemm, store, taps, taps, 0, 64)
    return sgemm if np.all(store == np.float32(2.0**-11)) else None


def _conv_sweep(
    plan: PhasePlan,
    x: np.ndarray | None,
    kers: np.ndarray | None,
    strategies: StrategySet,
    counters: _Counters,
    delta: np.ndarray | None,
) -> np.ndarray | None:
    """Walk the engine's conv-stage schedule row by row, for every phase and strategy set.

    Each output row copies its windows into its slot of a contiguous chunk of
    rows, from the line buffer when it is on and straight from the maps when
    it is off, so the strategies change what is counted, never what is
    computed. Per chunk, FP and DP sweep the windows against the kernels into
    the conv result; KU adds each position's window x delta outer product to
    the kernel store, in position order, and returns the gradient. x None
    counts only.
    """
    conv, in_h, in_w = plan.engine.conv, plan.engine.input_h, plan.engine.input_w
    n, m, k, s, pad = conv.n, conv.m, conv.k, conv.stride, conv.pad
    ho, wo = conv.out_dims(in_h, in_w)
    used_rows = used_extent(in_h, k, s, pad)
    used_cols = used_extent(in_w, k, s, pad)
    fused = strategies.fused_super_layer
    kernel_update = plan.phase is Phase.KU
    trace_tag = "d" if plan.phase is Phase.DP else "x"  # the map streaming through the line buffer
    lb = LineBuffer(n, k, in_w, s, pad=pad) if strategies.line_buffer else None

    if x is not None:
        xpad = np.zeros((n, in_h + 2 * pad, in_w + 2 * pad), dtype=np.float32)
        xpad[:, pad : pad + in_h, pad : pad + in_w] = x
        view = window_view(xpad, k, s).transpose(1, 2, 0, 3, 4) if lb is None else None
        rows = n * k * k
        chunk_rows = max(1, CHUNK_BYTES // (4 * wo * rows))
        chunk = np.empty((min(chunk_rows, ho), wo, n, k, k), dtype=np.float32)
        if kernel_update:
            # the kernel store in (map, tap) x output order, updated in row
            # blocks (KU_BLOCK_BYTES), and contiguous (ho, wo, m) deltas
            store = np.zeros((rows, m), dtype=np.float32)
            block_rows = max(1, KU_BLOCK_BYTES // (8 * m))
            d_at = np.ascontiguousarray(delta.transpose(1, 2, 0), dtype=np.float32)
        else:
            kmat = kernel_matrix(kers)
            y = np.zeros((m, ho, wo), dtype=np.float32)

    # per position: streamed operands, plus one delta word per output map in a
    # fused kernel update; partial sums leave the chip unless fused
    in_per_position = _position_operand_words(strategies, n, m, k)
    if kernel_update and fused:
        in_per_position += m
    out_per_position = 0 if fused else (m if strategies.on_chip_accumulate else n * m)
    admitted_until = 0  # first padded row index not yet installed

    for r in range(ho):
        band_top = r * s
        if lb is not None:
            for yp in range(max(admitted_until, band_top), band_top + k):
                y_real = yp - pad
                if 0 <= y_real < used_rows:
                    lb.admit_row(y_real, xpad[:, yp, :] if x is not None else None, used_cols)
                    if counters.reads is not None:
                        counters.reads.update(
                            (trace_tag, i, y_real, col) for i in range(n) for col in range(used_cols)
                        )
                else:
                    lb.fill_row(yp, None)
            admitted_until = band_top + k
        if x is not None:
            if lb is not None:
                lb.windows(band_top, out=chunk[r % chunk_rows])
            if (r + 1) % chunk_rows == 0 or r + 1 == ho:
                r0 = r - r % chunk_rows
                block = chunk[: r + 1 - r0]
                if lb is None:
                    block[...] = view[r0 : r + 1]
                if kernel_update:
                    _add_products(store, block.reshape(-1, rows), d_at[r0 : r + 1].reshape(-1, m),
                                  block_rows)
                else:
                    acc = accumulate_row(block.reshape(-1, n, k, k), kmat, plan.hw.num_cu)
                    y[:, r0 : r + 1] = acc.T.reshape(m, -1, wo)
        counters.input_words += wo * in_per_position
        counters.output_words += wo * out_per_position
        counters.cycles += wo * m * math.ceil(n / plan.hw.num_cu)
        if kernel_update and fused and counters.reads is not None:
            counters.reads.update(("d", j, r, c) for c in range(wo) for j in range(m))
    if lb is not None:
        counters.input_words += lb.external_reads
    if strategies.kernels_on_chip and not fused:
        # one-time preload charged only in the non-fused accounting
        counters.kernel_words += n * m * k * k
    if x is None:
        return None
    return store.reshape(n, k, k, m).transpose(0, 3, 1, 2) if kernel_update else y


def _act_pool_engine(pre: np.ndarray, layer: SuperLayerSpec) -> np.ndarray:
    """Fused rectifier + pooling stage over whole maps: every pooled element
    adds its window's taps one at a time, in row-major order, into a cleared
    (+0.0) register, then takes the 1/p^2 weight."""
    out = np.maximum(pre, np.float32(0.0)) if layer.has_act else pre
    if layer.pool is not None:
        p, s = layer.pool.p, layer.pool.stride
        ph, pw = layer.pool.out_dims(out.shape[1], out.shape[2])
        maps, out = out, np.zeros((out.shape[0], ph, pw), dtype=np.float32)
        for u, v in itertools.product(range(p), repeat=2):
            out += maps[:, u : u + (ph - 1) * s + 1 : s, v : v + (pw - 1) * s + 1 : s]
        out *= np.float32(1.0 / (p * p))
    return out


def _stream_out(counters: _Counters, maps: int, h: int, w: int) -> None:
    """Fused write-out: every element of the final maps streams out once."""
    counters.output_words += maps * h * w
    if counters.writes is not None:
        counters.writes.update(("out", j, a, b) for j in range(maps) for a in range(h) for b in range(w))


def _covering_runs(size: int, pooled: int, p: int, s: int):
    """Split one axis of a pooling input into runs of every s-th position
    that lie in the same number of windows, the first of which moves on by
    one window per position. Yields (positions, first, count): a slice of the
    axis, the first window covering the run's first position, and how many
    windows cover each position. Positions no window covers are left out."""
    for q in range(s):
        e = (p - 1 - q) // s  # position q + s*t lies in windows t-e .. t, when they exist
        spans = [(max(0, t - e) - t, min(pooled - 1, t) - max(0, t - e) + 1)
                 for t in range(len(range(q, size, s)))]
        for (shift, count), run in itertools.groupby(enumerate(spans), key=lambda ts: ts[1]):
            ts = [t for t, _ in run]
            if count > 0:
                yield slice(q + s * ts[0], q + s * ts[-1] + 1, s), ts[0] + shift, count


def _pool_transpose_gather(
    d: np.ndarray, pool: PoolSpec, out_h: int, out_w: int
) -> np.ndarray:
    """Upsample deltas through the pooling transpose, gathering per output
    element the 1/p^2-weighted deltas of every window that contains it.

    Output elements are taken in blocks that lie in the same windows relative
    to their own position; each block adds the deltas of its windows as
    whole-block views, one window at a time in ascending (row-major) order,
    into a cleared (+0.0) register, then takes the 1/p^2 weight.
    """
    p, s = pool.p, pool.stride
    ph, pw = pool.out_dims(out_h, out_w)
    if d.shape[1:] != (ph, pw):
        raise ShapeError(
            f"delta dims {d.shape[1]}x{d.shape[2]} do not match pooled dims {ph}x{pw}"
        )
    out = np.zeros((d.shape[0], out_h, out_w), dtype=np.float32)
    col_runs = list(_covering_runs(out_w, pw, p, s))
    for rows, r0, nr in _covering_runs(out_h, ph, p, s):
        for cols, c0, nc in col_runs:
            block = out[:, rows, cols]
            bh, bw = block.shape[1:]
            for a, b in itertools.product(range(nr), range(nc)):
                block += d[:, r0 + a : r0 + a + bh, c0 + b : c0 + b + bw]
    out *= np.float32(1.0 / (p * p))
    return out


def run_super_layer(
    plan: PhasePlan,
    strategies: StrategySet,
    x: np.ndarray | None,
    kers: np.ndarray | None = None,
    *,
    delta: np.ndarray | None = None,
    prev_pre_act: np.ndarray | None = None,
    trace: bool = False,
) -> SimResult:
    """Run the plan's super layer for one image of one group and scale the
    counters to the plan's group count.

    x is the conv input (FP, KU) or the incoming delta at this layer's conv
    output grid (DP), shaped as plan.draws["x"]. FP and DP take the
    (n, m, k, k) kernels, read in any memory order; KU takes the delta
    instead and no kernels. DP also takes, when the previous layer has an
    activation stage, its pre-activation maps for the derivative mask. x
    None counts only.
    """
    layer, phase, groups = plan.layer, plan.phase, plan.groups
    conv = layer.conv
    fused = strategies.fused_super_layer
    counters = _Counters(trace)
    if x is not None:
        check_maps(x, *plan.draws["x"], "delta" if phase is Phase.DP else "input")
        if phase is Phase.KU:
            check_maps(delta, *plan.draws["delta"], "delta")
        else:
            check_kernels(kers, conv)
        if phase is Phase.DP:
            kers = kers[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    swept = _conv_sweep(plan, x, kers, strategies, counters, delta)

    outputs = pre_act = grad = None
    if phase is Phase.FP:
        pre_act = swept
        if x is not None:
            outputs = _act_pool_engine(pre_act, layer)
        if fused:
            _stream_out(counters, conv.m, *layer.out_dims())
    elif phase is Phase.DP:
        prev_layer = plan.prev_layer
        prev_h, prev_w = prev_layer.conv_out_dims()
        if x is not None:
            outputs = swept
            if prev_layer.pool is not None:
                outputs = _pool_transpose_gather(outputs, prev_layer.pool, prev_h, prev_w)
            if prev_layer.has_act:
                check_maps(prev_pre_act, *plan.draws["prev_pre_act"], "previous pre-activation")
                # mask operand stays on chip, it is not charged as traffic
                outputs = outputs * (prev_pre_act > 0).astype(np.float32)
        if fused:
            _stream_out(counters, conv.n, prev_h, prev_w)
    else:
        grad = swept  # gradients accumulate in the kernel store and never stream out

    word = plan.hw.word_bytes
    conv_ops, act_ops, pool_ops = op_count(layer, 1, groups, phase)
    traffic = TrafficReport(
        input_bytes=counters.input_words * word * groups,
        output_bytes=counters.output_words * word * groups,
        kernel_bytes=counters.kernel_words * word * groups,
        conv_ops=conv_ops,
        act_ops=act_ops,
        pool_ops=pool_ops,
    )
    return SimResult(
        outputs=outputs,
        pre_act=pre_act,
        grad=grad,
        traffic=traffic,
        cycles=counters.cycles * groups,
        sram_bytes=plan.budget.kernel_sram_bytes + plan.budget.line_buffer_bytes,
        register_bits=plan.budget.window_register_bits + plan.budget.accumulator_bits,
        read_trace=counters.reads,
        write_trace=counters.writes,
    )
