"""Transaction-level model of the streaming conv engine.

Executes the hardware schedule directly: k-row line buffers whose slice
per input map is a modular k x k bank grid, a shared window register,
computational units sweeping co-located windows into an m-wide accumulator
bank, and a fused rectifier/pooling engine. Produces functional outputs
plus exact external word and cycle counters that must agree with the
closed-form traffic model to the byte. With the line buffer (prefixes 1-4
and all) every output row is evaluated at once, one stacked matmul per CU
wave; without it (prefixes none to 1-3) each window is evaluated alone. Both
give the same bits as the schedule run position by position and CU wave by
CU wave in 32-bit arithmetic: a faster evaluation that reorders a float32
sum is a behaviour change, not a speed-up.

One run covers one image of one group and scales its counters to the
group count. Over a batch, streamed words and cycles add up image by image,
while the one-time kernel preload is charged once per run, as in the model.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .archmodel import HwConfig, sram_budget
from .errors import ConfigError, ShapeError
from .specs import ConvSpec, PoolSpec, SuperLayerSpec, check_kernels, check_maps
from .traffic import (
    Phase,
    StrategySet,
    TrafficReport,
    op_count,
    transpose_geometry,
    used_extent,
)


class LineBuffer:
    """The k most recent rows of every input map, fed one row at a time.

    All maps share one (n_maps, k, padded_width) array: map i's k x k bank
    grid is rows[i]. Row y sits in bank row y % k; the column coordinate maps
    to bank column x % k by addressing alone, so a window fetch only has to
    undo the row rotation to restore window order, and any k x k window over
    resident rows touches every bank exactly once. The maps advance through
    the rows in lockstep, so one row id per bank row serves them all.
    Padding columns and rows are synthesized on chip and never charged as
    external reads.
    """

    def __init__(self, n_maps: int, k: int, width: int, pad: int = 0, dtype=np.float32):
        self.n_maps = n_maps
        self.k = k
        self.pad = pad
        self.rows = np.zeros((n_maps, k, width + 2 * pad), dtype=dtype)
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

    def band(self, r: int) -> np.ndarray:
        """Padded rows r .. r+k-1 of all maps in window order: (n_maps, k, padded W)."""
        rows = range(r, r + self.k)
        for y in rows:
            if self.row_ids[y % self.k] != y:
                raise RuntimeError(f"window row {y} is not resident in the line buffer")
        return self.rows[:, [y % self.k for y in rows]]

    def windows(self, r: int, c: int) -> np.ndarray:
        """The k x k windows of all maps anchored at padded (r, c), rows
        de-rotated to window order: shape (n_maps, k, k), one read per bank."""
        if c < 0 or c + self.k > self.rows.shape[2]:
            raise RuntimeError(f"window columns [{c}, {c + self.k}) fall outside the bank grid")
        return self.band(r)[:, :, c : c + self.k]

    def row_windows(self, r: int, stride: int) -> np.ndarray:
        """All windows of the output row whose band starts at padded row r, at
        column stride `stride`, as one contiguous (windows, n_maps, k, k) block."""
        view = sliding_window_view(self.band(r), self.k, axis=2)[:, :, ::stride]
        return np.ascontiguousarray(view.transpose(2, 0, 1, 3))


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


def pool_engine_schedule(
    m: int,
    conv_cycles_budget: int,
    pool: PoolSpec,
    relu_pool_units: int,
    conv_out_h: int,
    conv_out_w: int,
) -> tuple[bool, int]:
    """Whether R parallel rectifier/pooling units keep up with the conv engine.

    One output-position batch delivers m conv results; the pooling work
    attributable to it is the average window-tap count per conv position,
    m * p^2 * pooled_elems / conv_positions taps, split across R units.
    Returns (feasible, required_cycles).
    """
    if relu_pool_units < 1:
        raise ConfigError(f"need at least one rectifier/pooling unit, got {relu_pool_units}")
    ph, pw = pool.out_dims(conv_out_h, conv_out_w)
    work = m * pool.p * pool.p * ph * pw / (conv_out_h * conv_out_w)
    required = math.ceil(work / relu_pool_units)
    return required <= conv_cycles_budget, required


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


class _Counters:
    def __init__(self, trace: bool):
        self.input_words = 0
        self.output_words = 0
        self.kernel_words = 0
        self.cycles = 0
        self.reads: Counter | None = Counter() if trace else None
        self.writes: Counter | None = Counter() if trace else None


def _check_capacity(conv: ConvSpec, hw: HwConfig, strategies: StrategySet) -> None:
    if conv.k > hw.max_k:
        raise ConfigError(
            f"kernel side {conv.k} exceeds the window-register budget (max_k={hw.max_k})"
        )
    if conv.n > hw.max_n:
        raise ConfigError(
            f"{conv.n} input maps exceed the index-range budget (max_n={hw.max_n})"
        )
    if conv.m > hw.max_m:
        raise ConfigError(
            f"{conv.m} output maps exceed the accumulator budget (max_m={hw.max_m})"
        )
    if strategies.kernels_on_chip:
        need = conv.n * conv.m * conv.k**2 * hw.word_bytes
        cap = hw.max_n * hw.max_m * hw.max_k**2 * hw.word_bytes
        if need > cap:
            raise ConfigError(
                f"kernel set of {need} B exceeds the kernel-store budget ({cap} B)"
            )


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


def _conv_sweep(
    x: np.ndarray | None,
    kers: np.ndarray | None,
    conv: ConvSpec,
    in_h: int,
    in_w: int,
    hw: HwConfig,
    strategies: StrategySet,
    counters: _Counters,
    compute: bool,
    count_outputs: bool,
    trace_tag: str | None,
) -> np.ndarray | None:
    """Walk the conv-stage schedule; returns the conv result when computing."""
    n, m, k, s, pad = conv.n, conv.m, conv.k, conv.stride, conv.pad
    ho, wo = conv.out_dims(in_h, in_w)
    used_rows = used_extent(in_h, k, s, pad)
    used_cols = used_extent(in_w, k, s, pad)
    waves = math.ceil(n / hw.num_cu)
    use_lb = strategies.line_buffer

    xpad = kmat = None
    if compute:
        xpad = np.pad(x.astype(np.float32, copy=False), ((0, 0), (pad, pad), (pad, pad)))
        kmat = kernel_matrix(kers)
    lb = LineBuffer(n, k, in_w, pad=pad) if use_lb else None
    y = np.zeros((m, ho, wo), dtype=np.float32) if compute else None

    admitted_until = 0  # first padded row index not yet installed
    per_position = _position_operand_words(strategies, n, m, k)
    out_words_per_position = (m if strategies.on_chip_accumulate else n * m) if count_outputs else 0

    for r in range(ho):
        if use_lb:
            band_top = r * s
            for yp in range(max(admitted_until, band_top), band_top + k):
                y_real = yp - pad
                if 0 <= y_real < used_rows:
                    lb.admit_row(y_real, xpad[:, yp, :] if compute else None, used_cols)
                    if counters.reads is not None:
                        for i in range(n):
                            for col in range(used_cols):
                                counters.reads[(trace_tag, i, y_real, col)] += 1
                else:
                    lb.fill_row(yp, None)
            admitted_until = band_top + k
            if compute:
                # the line buffer holds the whole row's windows: one sweep per row
                y[:, r, :] = accumulate_row(lb.row_windows(band_top, s), kmat, hw.num_cu).T
        for c in range(wo):
            counters.input_words += per_position
            counters.cycles += m * waves
            counters.output_words += out_words_per_position
            if compute and not use_lb:
                # without it, each window streams in alone, straight from the maps
                win = xpad[None, :, r * s : r * s + k, c * s : c * s + k]
                y[:, r, c] = accumulate_row(win, kmat, hw.num_cu)[0]
    if use_lb:
        counters.input_words += lb.external_reads
    if strategies.kernels_on_chip and count_outputs:
        # one-time preload charged only in the non-fused accounting
        counters.kernel_words += n * m * k * k
    return y


def _act_pool_engine(
    pre: np.ndarray, layer: SuperLayerSpec, counters: _Counters, fused: bool, trace: bool
) -> np.ndarray:
    """Fused rectifier + pooling stage; final maps stream out once when fused."""
    out = np.maximum(pre, np.float32(0.0)) if layer.has_act else pre
    if layer.pool is not None:
        p, s = layer.pool.p, layer.pool.stride
        ho, wo = out.shape[1], out.shape[2]
        ph, pw = layer.pool.out_dims(ho, wo)
        inv = np.float32(1.0 / (p * p))
        pooled = np.zeros((out.shape[0], ph, pw), dtype=np.float32)
        for r in range(ph):
            for c in range(pw):
                pooled[:, r, c] = out[:, r * s : r * s + p, c * s : c * s + p].sum(axis=(1, 2)) * inv
        out = pooled
    if fused:
        counters.output_words += out.shape[0] * out.shape[1] * out.shape[2]
        if counters.writes is not None:
            for j in range(out.shape[0]):
                for r in range(out.shape[1]):
                    for c in range(out.shape[2]):
                        counters.writes[("out", j, r, c)] += 1
    return out


def _pool_transpose_gather(
    d: np.ndarray, pool: PoolSpec, out_h: int, out_w: int
) -> np.ndarray:
    """Upsample deltas through the pooling transpose, gathering per output
    element the 1/p^2-weighted deltas of every window that contains it."""
    p, s = pool.p, pool.stride
    ph, pw = pool.out_dims(out_h, out_w)
    if d.shape[1:] != (ph, pw):
        raise ShapeError(
            f"delta dims {d.shape[1]}x{d.shape[2]} do not match pooled dims {ph}x{pw}"
        )
    inv = np.float32(1.0 / (p * p))
    out = np.zeros((d.shape[0], out_h, out_w), dtype=np.float32)
    for a in range(out_h):
        r_lo = max(0, math.ceil((a - p + 1) / s))
        r_hi = min(ph - 1, a // s)
        if r_hi < r_lo:
            continue
        for b in range(out_w):
            c_lo = max(0, math.ceil((b - p + 1) / s))
            c_hi = min(pw - 1, b // s)
            if c_hi < c_lo:
                continue
            out[:, a, b] = d[:, r_lo : r_hi + 1, c_lo : c_hi + 1].sum(axis=(1, 2)) * inv
    return out


def run_super_layer(
    x: np.ndarray | None,
    kers: np.ndarray | None,
    layer: SuperLayerSpec,
    hw: HwConfig,
    strategies: StrategySet,
    phase: Phase,
    *,
    delta: np.ndarray | None = None,
    prev_layer: SuperLayerSpec | None = None,
    prev_pre_act: np.ndarray | None = None,
    groups: int = 1,
    compute: bool = True,
    trace: bool = False,
) -> SimResult:
    """Run one super layer for one image of one group and scale the counters
    to the full group count.

    Per phase, x is the conv input (FP, KU) or the incoming delta at this
    layer's conv output grid (DP). KU additionally takes the delta; DP takes
    the previous layer's spec and, when it has an activation stage, its
    pre-activation maps for the derivative mask.
    """
    conv = layer.conv
    geometry = layer  # the conv geometry the engine runs, and is sized for
    fused = strategies.fused_super_layer
    counters = _Counters(trace)
    ho, wo = layer.conv_out_dims()

    outputs = pre_act = grad = None

    if phase is Phase.FP:
        _check_capacity(conv, hw, strategies)
        if compute:
            check_maps(x, conv.n, layer.input_h, layer.input_w, "input")
            check_kernels(kers, conv)
        pre_act = _conv_sweep(
            x, kers, conv, layer.input_h, layer.input_w, hw, strategies,
            counters, compute, count_outputs=not fused, trace_tag="x" if trace else None,
        )
        if fused:
            if compute:
                outputs = _act_pool_engine(pre_act, layer, counters, fused=True, trace=trace)
            else:
                oh, ow = layer.out_dims()
                counters.output_words += conv.m * oh * ow
        elif compute:
            outputs = _act_pool_engine(pre_act, layer, counters, fused=False, trace=trace)

    elif phase is Phase.DP:
        if prev_layer is None:
            raise ConfigError("delta propagation needs the previous super layer")
        geometry = transpose_geometry(layer)
        tconv = geometry.conv
        _check_capacity(tconv, hw, strategies)
        tkers = None
        if compute:
            check_maps(x, conv.m, ho, wo, "delta")
            check_kernels(kers, conv)
            tkers = np.transpose(kers[:, :, ::-1, ::-1], (1, 0, 2, 3))
        d = _conv_sweep(
            x, tkers, tconv, geometry.input_h, geometry.input_w, hw, strategies,
            counters, compute, count_outputs=not fused, trace_tag="d" if trace else None,
        )
        prev_h, prev_w = prev_layer.conv_out_dims()
        if compute:
            if prev_layer.pool is not None:
                d = _pool_transpose_gather(d, prev_layer.pool, prev_h, prev_w)
            if prev_layer.has_act:
                check_maps(prev_pre_act, conv.n, prev_h, prev_w, "previous pre-activation")
                # mask operand stays on chip, it is not charged as traffic
                d = d * (prev_pre_act > 0).astype(np.float32)
            outputs = d
        if fused:
            counters.output_words += conv.n * prev_h * prev_w
            if counters.writes is not None:
                for j in range(conv.n):
                    for a in range(prev_h):
                        for b in range(prev_w):
                            counters.writes[("out", j, a, b)] += 1

    elif phase is Phase.KU:
        _check_capacity(conv, hw, strategies)
        n, m, k, s, pad = conv.n, conv.m, conv.k, conv.stride, conv.pad
        used_rows = used_extent(layer.input_h, k, s, pad)
        used_cols = used_extent(layer.input_w, k, s, pad)
        waves = math.ceil(n / hw.num_cu)
        if compute:
            check_maps(x, n, layer.input_h, layer.input_w, "input")
            check_maps(delta, m, ho, wo, "delta")
            check_kernels(kers, conv)
            xpad = np.pad(x.astype(np.float32, copy=False), ((0, 0), (pad, pad), (pad, pad)))
            # the kernel store in (map, tap) x output order, one reused outer-product
            # buffer, and contiguous (ho, wo, m) deltas so each product runs at unit
            # stride (a strided delta operand keeps the multiply off the SIMD loop)
            store = np.zeros((n * k * k, m), dtype=np.float32)
            product = np.empty_like(store)
            d_at = np.ascontiguousarray(np.moveaxis(delta, 0, -1), dtype=np.float32)
        if strategies.line_buffer:
            # input maps stream through the line buffers exactly once
            counters.input_words += n * used_rows * used_cols
            if counters.reads is not None:
                for i in range(n):
                    for y_r in range(used_rows):
                        for col in range(used_cols):
                            counters.reads[("x", i, y_r, col)] += 1
        per_position = 0 if fused else _position_operand_words(strategies, n, m, k)
        out_per_position = 0 if fused else (m if strategies.on_chip_accumulate else n * m)
        for r in range(ho):
            for c in range(wo):
                if fused:
                    counters.input_words += m  # one delta word per output map
                    if counters.reads is not None:
                        for j in range(m):
                            counters.reads[("d", j, r, c)] += 1
                else:
                    counters.input_words += per_position
                    counters.output_words += out_per_position
                counters.cycles += m * waves
                if compute:
                    win = xpad[:, r * s : r * s + k, c * s : c * s + k].reshape(-1, 1)
                    np.multiply(win, d_at[r, c], out=product)
                    store += product
        if compute:
            grad = store.reshape(n, k, k, m).transpose(0, 3, 1, 2)
        if strategies.kernels_on_chip and not fused:
            counters.kernel_words += n * m * k * k
        # gradients accumulate in the kernel store and never stream out

    else:
        raise ConfigError(f"unknown phase {phase!r}")

    word = hw.word_bytes
    conv_ops, act_ops, pool_ops = op_count(layer, 1, groups)
    traffic = TrafficReport(
        input_bytes=counters.input_words * word * groups,
        output_bytes=counters.output_words * word * groups,
        kernel_bytes=counters.kernel_words * word * groups,
        conv_ops=conv_ops,
        act_ops=act_ops if phase is Phase.FP else 0,
        pool_ops=pool_ops if phase is Phase.FP else 0,
    )
    budget = sram_budget(geometry, hw)
    return SimResult(
        outputs=outputs,
        pre_act=pre_act,
        grad=grad,
        traffic=traffic,
        cycles=counters.cycles * groups,
        sram_bytes=budget.kernel_sram_bytes + budget.line_buffer_bytes,
        register_bits=budget.window_register_bits + budget.accumulator_bits,
        read_trace=counters.reads,
        write_trace=counters.writes,
    )
