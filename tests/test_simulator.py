import ctypes
import math
from dataclasses import replace

import numpy as np
import pytest

from convtraffic.archmodel import sram_budget
from convtraffic.errors import ConfigError, ShapeError
from convtraffic.reference import conv_forward, super_forward
from convtraffic import presets, simulator
from convtraffic.simulator import (
    LineBuffer,
    _act_pool_engine,
    _pool_transpose_gather,
    accumulate_row,
    kernel_matrix,
    plan_phase,
    run_super_layer,
)
from convtraffic.specs import (
    ConvSpec,
    NetworkSpec,
    PoolSpec,
    SuperLayerSpec,
    check_kernels,
    check_maps,
)
from convtraffic.traffic import Phase, StrategySet, transpose_geometry
from convtraffic.verify import max_relative_error, simulate_layer

from conftest import layer_plan, random_toy_cases


def _same_bits(a, b):
    """Equal shape and equal bytes: a sign flip of a zero counts as a change."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBankGrid:
    """Each map's k x k bank grid is one (k, padded_width) slice of the
    LineBuffer array; one fetch returns the windows of every map."""

    def test_window_matches_direct_indexing_after_band_fill(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((2, 6, 7)).astype(np.float32)
        lb = LineBuffer(2, 3, 7, 1)
        for y in range(3):
            lb.fill_row(y, data[:, y])
        block = lb.windows(0)
        for c in range(5):
            assert np.array_equal(block[c], data[:, 0:3, c : c + 3])
        # slide the band down one row at a time, recycling the banks, so every
        # rotation r % k is fetched, and re-check
        for r in (1, 2, 3):
            lb.fill_row(r + 2, data[:, r + 2])
            block = lb.windows(r)
            for c in range(5):
                assert np.array_equal(block[c], data[:, r : r + 3, c : c + 3])

    def test_k1_single_element(self):
        lb = LineBuffer(1, 1, 4, 1)
        lb.fill_row(2, np.array([[9.0, 8.0, 7.0, 6.0]], dtype=np.float32))
        assert lb.windows(2)[3, 0] == np.float32(6.0)

    def test_consecutive_fetches_share_columns(self):
        rng = np.random.default_rng(1)
        k = 3
        data = rng.standard_normal((1, 3, 8)).astype(np.float32)
        lb = LineBuffer(1, k, 8, 1)
        for y in range(k):
            lb.fill_row(y, data[:, y])
        block = lb.windows(0)
        a = block[2, 0]
        b = block[3, 0]
        assert np.array_equal(a[:, 1:], b[:, :-1])  # k*(k-1) shared elements

    def test_each_window_read_covers_all_banks_once(self):
        k = 4
        coords = {((2 + i) % k, (5 + j) % k) for i in range(k) for j in range(k)}
        assert len(coords) == k * k

    def test_non_resident_row_trips_invariant(self):
        lb = LineBuffer(1, 2, 4, 1)
        lb.fill_row(0, np.zeros((1, 4), dtype=np.float32))
        lb.fill_row(1, np.zeros((1, 4), dtype=np.float32))
        lb.fill_row(2, np.zeros((1, 4), dtype=np.float32))  # evicts row 0
        with pytest.raises(RuntimeError, match="not resident"):
            lb.windows(0)

    def test_band_matches_direct_slice_after_recycling(self):
        # rows 3 .. 8 recycle the banks of rows 0 .. 5, so the bands at rows
        # 0 .. 6 take every rotation r % k, at strides 1 and 2
        rng = np.random.default_rng(8)
        data = rng.standard_normal((3, 9, 6)).astype(np.float32)
        for stride in (1, 2):
            lb = LineBuffer(3, 3, 6, stride)
            for y in range(2):
                lb.fill_row(y, data[:, y])
            for r in range(7):
                lb.fill_row(r + 2, data[:, r + 2])
                block = lb.windows(r)  # windows at columns 0, stride, ...
                assert block.flags.c_contiguous
                want = np.stack([data[:, r : r + 3, c : c + 3] for c in range(0, 4, stride)])
                assert _same_bits(block, want)
                if r > 0:
                    with pytest.raises(RuntimeError, match="not resident"):
                        lb.windows(r - 1)


class TestLineBuffer:
    def test_warmup_of_first_band_streams_k_rows(self):
        lb = LineBuffer(1, 5, 27, 1)
        for row in range(5):
            lb.admit_row(row, None, 27)
        assert lb.external_reads == 5 * 27

    def test_every_element_read_once_per_map(self):
        h = w = 6
        lb = LineBuffer(2, 3, w, 1, pad=1)
        for row in range(h):
            lb.admit_row(row, np.full((2, w + 2), float(row), np.float32), w)
        assert lb.external_reads == 2 * h * w
        # real rows 3..5 sit at padded rows 4..6, the last band resident
        assert lb.windows(4)[0, :, :, 0].tolist() == [[3.0, 4.0, 5.0]] * 2


class TestAccumulateSweep:
    """accumulate_row: one CU-wave sweep per position of a window block."""

    def test_streams_all_outputs_once(self):
        rng = np.random.default_rng(2)
        n, m, k = 48, 128, 5
        windows = rng.standard_normal((1, n, k, k)).astype(np.float32)
        kers = rng.standard_normal((n, m, k, k)).astype(np.float32)
        out = accumulate_row(windows, kernel_matrix(kers), num_cu=16)
        assert out.shape == (1, m)

    def test_single_filter(self):
        windows = np.full((1, 1, 2, 2), 2.0, dtype=np.float32)
        kers = np.full((1, 1, 2, 2), 3.0, dtype=np.float32)
        out = accumulate_row(windows, kernel_matrix(kers), num_cu=4)
        assert out[0, 0] == pytest.approx(24.0)

    def test_matches_reference_conv_element(self):
        rng = np.random.default_rng(3)
        n, m, k = 7, 5, 3  # 2 CUs: three full waves and a one-map last wave
        x = rng.standard_normal((n, k, k)).astype(np.float32)
        kers = rng.standard_normal((n, m, k, k)).astype(np.float32)
        out = accumulate_row(x[None], kernel_matrix(kers), num_cu=2)[0]
        expected = conv_forward(x, kers, ConvSpec(n, m, k))[:, 0, 0]
        assert max_relative_error(out, expected) < 1e-5

    def test_partial_last_wave_accumulates_in_wave_order(self):
        # 3 maps on 2 CUs: waves {0, 1} then {2}. Each wave's sum is rounded
        # into the 32-bit accumulator before the next wave adds to it.
        kmat = kernel_matrix(np.ones((3, 1, 1, 1), np.float32))
        lost = np.array([1.0, 1e8, -1e8], np.float32).reshape(1, 3, 1, 1)
        kept = np.array([1e8, -1e8, 1.0], np.float32).reshape(1, 3, 1, 1)
        assert accumulate_row(lost, kmat, num_cu=2)[0, 0] == 0.0
        assert accumulate_row(kept, kmat, num_cu=2)[0, 0] == 1.0
        both = accumulate_row(np.concatenate([lost, kept]), kmat, num_cu=2)
        assert both[:, 0].tolist() == [0.0, 1.0]

    @staticmethod
    def _per_position(taps, kmat, num_cu, n):
        """One position's sweep as the schedule states it: a 1-D dot per wave."""
        per_map = taps.shape[0] // n
        acc = np.zeros(kmat.shape[1], np.float32)
        for start in range(0, n, num_cu):
            wave = slice(start * per_map, min(start + num_cu, n) * per_map)
            acc += taps[wave] @ kmat[wave]
        return acc

    def test_block_matches_per_position_sweeps(self):
        # 5 positions of 6 maps on 4 CUs: a full wave, then a partial one
        rng = np.random.default_rng(9)
        n, m, k = 6, 6, 3
        block = rng.standard_normal((5, n, k, k)).astype(np.float32)
        kmat = kernel_matrix(rng.standard_normal((n, m, k, k)).astype(np.float32))
        out = accumulate_row(block, kmat, num_cu=4)
        want = np.stack([self._per_position(w.reshape(-1), kmat, 4, n) for w in block])
        assert _same_bits(out, want)


def _toy_layer():
    return SuperLayerSpec(ConvSpec(2, 3, 3, stride=1, pad=1), 6, 6, True, PoolSpec(2, 2))


def _toy_net():
    return NetworkSpec("toy", 1, (_toy_layer(),), (1,))


@pytest.mark.parametrize("call, error, message", [
    (lambda: check_maps(np.zeros((2, 3)), 2, 3, 3), ShapeError, "expected 3 axes"),
    (lambda: check_maps(np.zeros((1, 3, 3)), 2, 3, 3), ShapeError, "maps axis is 1, expected 2"),
    (lambda: check_maps(np.zeros((2, 3, 4)), 2, 3, 3), ShapeError, "width axis is 4, expected 3"),
    (lambda: check_kernels(np.zeros((2, 3, 3)), ConvSpec(2, 3, 3)), ShapeError,
     "expected 4 axes"),
    (lambda: check_kernels(np.zeros((1, 3, 3, 3)), ConvSpec(2, 3, 3)), ShapeError,
     "input-map axis is 1, expected 2"),
    (lambda: check_kernels(np.zeros((2, 1, 3, 3)), ConvSpec(2, 3, 3)), ShapeError,
     "output-map axis is 1, expected 3"),
    (lambda: plan_phase(_toy_net(), 0, Phase.DP, presets.paper_hw()), ConfigError,
     "undefined for the first super layer"),
    (lambda: max_relative_error(np.zeros((2, 3)), np.zeros((3, 2))), ConfigError,
     "shape mismatch"),
    (lambda: NetworkSpec("x", 1, (_toy_layer(),), (1, 2)), ShapeError,
     "groups list has 2 entries for 1 layers"),
    (lambda: simulate_layer(_toy_net(), 0, Phase.FP, StrategySet.all_on(), presets.paper_hw(),
                            seed=0, compute=False, check_reference=True), ConfigError,
     "check_reference needs compute"),
], ids=["maps-ndim", "maps-count", "maps-width", "kernels-ndim", "kernels-n", "kernels-m",
        "dp-without-prev-layer", "error-shapes", "groups-length", "reference-without-compute"])
def test_library_entry_rejects_a_wrong_axis(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestRunSuperLayer:
    def test_identity_conv_echoes_input(self, paper_hw):
        layer = SuperLayerSpec(ConvSpec(1, 1, 1), 4, 4, has_act=False)
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        kers = np.ones((1, 1, 1, 1), dtype=np.float32)
        result = run_super_layer(layer_plan(layer, Phase.FP, paper_hw), StrategySet.all_on(),
                                 x, kers)
        assert np.array_equal(result.outputs, x)
        assert result.traffic.input_bytes == result.traffic.output_bytes == 16 * 4

    def test_layer2_reads_input_storage_once(self, alexnet, paper_hw):
        rng = np.random.default_rng(0)
        layer = alexnet.layers[1]
        x = rng.standard_normal((48, 27, 27)).astype(np.float32)
        kers = rng.standard_normal((48, 128, 5, 5)).astype(np.float32)
        result = run_super_layer(layer_plan(alexnet.layers[1], Phase.FP, paper_hw),
                                 StrategySet.all_on(), x, kers)
        assert result.traffic.input_bytes == 48 * 27 * 27 * 4  # 139,968

    def test_layer2_cycles_per_output_position(self, alexnet, paper_hw):
        result = run_super_layer(layer_plan(alexnet.layers[1], Phase.FP, paper_hw),
                                 StrategySet.all_on(), None)
        positions = 27 * 27
        assert result.cycles == positions * 384  # 48*128/16 per position

    def test_capacity_errors_name_budget(self, paper_hw):
        too_wide = SuperLayerSpec(ConvSpec(1, 1, 13), 20, 20, has_act=False)
        with pytest.raises(ConfigError, match="window-register"):
            layer_plan(too_wide, Phase.FP, paper_hw)
        too_many = SuperLayerSpec(ConvSpec(500, 1, 3), 8, 8, has_act=False)
        with pytest.raises(ConfigError, match="index-range"):
            layer_plan(too_many, Phase.FP, paper_hw)
        too_fat = SuperLayerSpec(ConvSpec(1, 500, 3), 8, 8, has_act=False)
        with pytest.raises(ConfigError, match="accumulator"):
            layer_plan(too_fat, Phase.FP, paper_hw)

    def test_dp_requires_stride_one(self, paper_hw):
        layer = SuperLayerSpec(ConvSpec(1, 1, 2, stride=2), 6, 6, has_act=False)
        prev = SuperLayerSpec(ConvSpec(1, 1, 1), 6, 6)
        with pytest.raises(ConfigError, match="stride 1"):
            layer_plan(layer, Phase.DP, paper_hw, prev)

    def test_strategy_toggles_preserve_outputs(self, paper_hw):
        rng = np.random.default_rng(4)
        layer = _toy_layer()
        x = rng.standard_normal((2, 6, 6)).astype(np.float32)
        kers = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        outs = []
        for prefix in range(6):
            r = run_super_layer(layer_plan(layer, Phase.FP, paper_hw), StrategySet.first(prefix),
                                x, kers)
            outs.append(r.outputs)
        for other in outs[1:]:
            assert _same_bits(other, outs[0])

    def test_read_write_once_histogram(self, paper_hw):
        rng = np.random.default_rng(5)
        layer = _toy_layer()
        x = rng.standard_normal((2, 6, 6)).astype(np.float32)
        kers = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        r = run_super_layer(layer_plan(layer, Phase.FP, paper_hw), StrategySet.all_on(), x, kers,
                            trace=True)
        reads = {k: v for k, v in r.read_trace.items() if k[0] == "x"}
        assert set(reads.values()) == {1}
        assert set(reads) == {("x", i, y, c) for i in range(2) for y in range(6) for c in range(6)}
        writes = r.write_trace
        assert set(writes.values()) == {1}
        assert set(writes) == {("out", j, a, b) for j in range(3) for a in range(3) for b in range(3)}

    def test_ku_trace_reads_delta_once(self, paper_hw):
        rng = np.random.default_rng(6)
        layer = _toy_layer()
        x = rng.standard_normal((2, 6, 6)).astype(np.float32)
        kers = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        delta = rng.standard_normal((3, 6, 6)).astype(np.float32)
        r = run_super_layer(layer_plan(layer, Phase.KU, paper_hw), StrategySet.all_on(), x, kers,
                            delta=delta, trace=True)
        d_reads = {k: v for k, v in r.read_trace.items() if k[0] == "d"}
        assert set(d_reads.values()) == {1}
        assert len(d_reads) == 3 * 6 * 6
        assert r.traffic.output_bytes == 0

    def test_sweep_result_matches_reference_within_tolerance(self, paper_hw):
        rng = np.random.default_rng(7)
        layer = _toy_layer()
        x = rng.standard_normal((2, 6, 6)).astype(np.float32)
        kers = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        r = run_super_layer(layer_plan(layer, Phase.FP, paper_hw), StrategySet.all_on(), x, kers)
        expected, pre = super_forward(x, kers, layer)
        assert max_relative_error(r.outputs, expected) < 1e-5
        assert max_relative_error(r.pre_act, pre) < 1e-5


class TestSimulatorAgainstModel:
    def test_toy_bytes_match_model_for_all_subsets(self, paper_hw):
        net = _toy_net()
        for phase in (Phase.FP, Phase.KU):
            for prefix in range(6):
                check = simulate_layer(
                    net, 0, phase, StrategySet.first(prefix), paper_hw,
                    seed=0, compute=True, check_model=True,
                )
                assert check.model_match, check.failures

    def test_truncated_stride_layer_matches_model(self, paper_hw):
        # stride 2 with a dangling row/column: read-once counts only touched elements
        layer = SuperLayerSpec(ConvSpec(1, 2, 2, stride=2), 5, 5, has_act=False)
        net = NetworkSpec("trunc", 1, (layer,), (1,))
        for prefix in range(6):
            check = simulate_layer(
                net, 0, Phase.FP, StrategySet.first(prefix), paper_hw,
                seed=1, compute=True, check_model=True,
            )
            assert check.model_match, check.failures

    @pytest.mark.parametrize("batch", [2, 3])
    def test_batch_bytes_match_model_every_phase_and_prefix(self, paper_hw, batch):
        # the kernel preload is charged once per run, not once per image
        first = SuperLayerSpec(ConvSpec(2, 4, 3, stride=1, pad=1), 8, 8, True, PoolSpec(2, 2))
        second = SuperLayerSpec(ConvSpec(2, 3, 3, stride=1, pad=1), 4, 4, True, None)
        net = NetworkSpec("pair", batch, (first, second), (1, 2))
        for index, phases in ((0, (Phase.FP, Phase.KU)), (1, (Phase.FP, Phase.DP, Phase.KU))):
            for phase in phases:
                for prefix in range(6):
                    check = simulate_layer(
                        net, index, phase, StrategySet.first(prefix), paper_hw,
                        seed=prefix, batch=batch, check_model=True, check_reference=True,
                    )
                    assert check.model_match, (index, phase, prefix, check.failures)
                    assert check.reference_error < 1e-5

    def test_alexnet_layer4_preload_charged_once_at_batch2(self, alexnet, paper_hw):
        check = simulate_layer(
            alexnet, 3, Phase.FP, StrategySet.first(4), paper_hw,
            seed=0, batch=2, compute=False, check_model=True,
        )
        assert check.model_match, check.failures
        assert check.sim_traffic.kernel_bytes == 2_654_208

    @pytest.mark.parametrize("batch", [1, 2])
    def test_cycles_match_cycle_count_every_pair(self, alexnet, paper_hw, batch):
        # the model check holds the cycles to archmodel.cycle_count
        pairs = 0
        for index, layer in enumerate(alexnet.layers):
            phases = [Phase.FP, Phase.KU]
            if index > 0 and layer.conv.stride == 1:
                phases.append(Phase.DP)
            for phase in phases:
                check = simulate_layer(
                    alexnet, index, phase, StrategySet.all_on(), paper_hw,
                    seed=0, batch=batch, compute=False, check_model=True,
                )
                assert check.failures == [], (index, phase)
                pairs += 1
        assert pairs == 14

    def test_sram_matches_budget_every_phase(self, alexnet, paper_hw):
        # delta propagation is sized on the transposed geometry
        for index, layer in enumerate(alexnet.layers):
            phases = [Phase.FP, Phase.KU]
            if index > 0 and layer.conv.stride == 1:
                phases.append(Phase.DP)
            for phase in phases:
                r = run_super_layer(plan_phase(alexnet, index, phase, paper_hw),
                                    StrategySet.all_on(), None)
                geom = transpose_geometry(layer) if phase is Phase.DP else layer
                budget = sram_budget(geom, paper_hw)
                assert r.sram_bytes == budget.kernel_sram_bytes + budget.line_buffer_bytes
        dp2 = run_super_layer(plan_phase(alexnet, 1, Phase.DP, paper_hw), StrategySet.all_on(),
                              None)
        assert dp2.sram_bytes == 683_520


def _oracle_conv(x, kers, conv, num_cu):
    """The conv schedule as a plain loop: per position a contiguous copy of
    the window, then one 32-bit dot per CU wave, added wave by wave."""
    n, m, k, s, pad = conv.n, conv.m, conv.k, conv.stride, conv.pad
    xpad = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    kmat = np.ascontiguousarray(kers.transpose(0, 2, 3, 1)).reshape(n * k * k, m)
    ho, wo = conv.out_dims(x.shape[1], x.shape[2])
    y = np.zeros((m, ho, wo), np.float32)
    for r in range(ho):
        for c in range(wo):
            taps = np.ascontiguousarray(xpad[:, r * s : r * s + k, c * s : c * s + k]).reshape(-1)
            acc = np.zeros(m, np.float32)
            for start in range(0, n, num_cu):
                wave = slice(start * k * k, min(start + num_cu, n) * k * k)
                acc += taps[wave] @ kmat[wave]
            y[:, r, c] = acc
    return y


def _oracle_act_pool(pre, layer):
    """The rectifier and pooling stage as a plain loop: one np.sum over each
    pooled element's window, then the 1/p^2 weight."""
    out = np.maximum(pre, np.float32(0.0)) if layer.has_act else pre
    if layer.pool is None:
        return out
    p, s = layer.pool.p, layer.pool.stride
    ph, pw = layer.pool.out_dims(out.shape[1], out.shape[2])
    inv = np.float32(1.0 / (p * p))
    pooled = np.zeros((out.shape[0], ph, pw), dtype=np.float32)
    for r in range(ph):
        for c in range(pw):
            pooled[:, r, c] = out[:, r * s : r * s + p, c * s : c * s + p].sum(axis=(1, 2)) * inv
    return pooled


def _oracle_pool_transpose(d, pool, out_h, out_w):
    """The pooling transpose as a plain gather loop: per output element one
    np.sum over the deltas of every window that contains it."""
    p, s = pool.p, pool.stride
    ph, pw = pool.out_dims(out_h, out_w)
    inv = np.float32(1.0 / (p * p))
    out = np.zeros((d.shape[0], out_h, out_w), dtype=np.float32)
    for a in range(out_h):
        r_lo = max(0, math.ceil((a - p + 1) / s))
        r_hi = min(ph - 1, a // s)
        for b in range(out_w):
            c_lo = max(0, math.ceil((b - p + 1) / s))
            c_hi = min(pw - 1, b // s)
            if r_hi >= r_lo and c_hi >= c_lo:
                out[:, a, b] = d[:, r_lo : r_hi + 1, c_lo : c_hi + 1].sum(axis=(1, 2)) * inv
    return out


def _oracle_ku(x, delta, conv):
    """Kernel update as a plain loop: one outer product per position, added
    to the kernel store position by position."""
    n, m, k, s, pad = conv.n, conv.m, conv.k, conv.stride, conv.pad
    xpad = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    store = np.zeros((n * k * k, m), np.float32)
    for r in range(delta.shape[1]):
        for c in range(delta.shape[2]):
            window = xpad[:, r * s : r * s + k, c * s : c * s + k].reshape(-1, 1)
            store += window * delta[:, r, c]
    return store.reshape(n, k, k, m).transpose(0, 3, 1, 2)


# (name, previous layer or None, layer, CUs): stride 2 with pad 1 on a
# non-square map; k = 1; 6 maps on 4 CUs, so the last wave is partial in FP,
# DP and KU alike; the same at k = 1, where a strided window without the line
# buffer would sum differently; delta propagation behind a pooled, rectified
# layer; 3 x 3 pools at stride 2 (nine taps per pooled element, up to four
# windows per delta) and at stride 1 (four taps, up to nine windows), so both
# of numpy's summation orders, running and pairwise, are pinned.
_SCHEDULE_CASES = [
    ("stride2-pad1", None,
     SuperLayerSpec(ConvSpec(3, 4, 3, stride=2, pad=1), 7, 10, True, None), 16),
    ("k1", SuperLayerSpec(ConvSpec(2, 3, 1), 5, 4, True, None),
     SuperLayerSpec(ConvSpec(3, 2, 1), 5, 4, True, None), 2),
    ("partial-wave", SuperLayerSpec(ConvSpec(2, 6, 3, pad=1), 6, 5, False, None),
     SuperLayerSpec(ConvSpec(6, 6, 3, pad=1), 6, 5, True, None), 4),
    ("k1-partial-wave", SuperLayerSpec(ConvSpec(2, 6, 1), 4, 7, True, None),
     SuperLayerSpec(ConvSpec(6, 3, 1), 4, 7, True, None), 4),
    ("behind-pool", SuperLayerSpec(ConvSpec(2, 3, 3, pad=1), 8, 8, True, PoolSpec(2, 2)),
     SuperLayerSpec(ConvSpec(3, 4, 3, pad=1), 4, 4, True, None), 16),
    ("pool3-stride2", SuperLayerSpec(ConvSpec(2, 3, 3, pad=1), 11, 12, True, PoolSpec(3, 2)),
     SuperLayerSpec(ConvSpec(3, 5, 3, pad=1), 5, 5, True, PoolSpec(3, 2)), 2),
    ("pool-stride1", SuperLayerSpec(ConvSpec(2, 3, 3, pad=1), 8, 9, True, PoolSpec(3, 1)),
     SuperLayerSpec(ConvSpec(3, 4, 3, pad=1), 6, 7, False, PoolSpec(2, 1)), 16),
]


# Kernel update adds into the kernel store one row block at a time. At the
# default budget no case above splits; the last one's (576, 384) store spans
# two blocks, the second partial. A one-element store adds 132 products in one
# scan, where a reduction would sum them pairwise.
_KU_CASES = _SCHEDULE_CASES + [
    ("one-element-store", None, SuperLayerSpec(ConvSpec(1, 1, 1), 11, 12, True, None), 16),
    ("two-store-blocks", None,
     SuperLayerSpec(ConvSpec(64, 384, 3, pad=1), 5, 6, True, None), 16),
]


def _store_blocks(conv):
    """How many row blocks the kernel store of conv splits into."""
    return -(-conv.n * conv.k * conv.k // max(1, simulator.KU_BLOCK_BYTES // (8 * conv.m)))


def _small_store_blocks(monkeypatch, conv):
    """Shrink the block budget so conv's kernel store splits into at least
    three row blocks, the last one partial where the row count allows."""
    rows = conv.n * conv.k * conv.k
    monkeypatch.setattr(simulator, "KU_BLOCK_BYTES", 8 * conv.m * max(1, (rows - 1) // 3))
    assert _store_blocks(conv) >= min(3, rows)


# CHUNK_BYTES at its two extremes: one output row per chunk with one K = 1
# product per position, or the whole sweep in one chunk with every store
# block's products batched into one scan.
_CHUNK_BUDGETS = {"one-row": 1, "whole-sweep": 2**40}


def _spy(monkeypatch, name, record):
    """Wrap simulator.<name>; returns the list of record(*args) per call."""
    inner, calls = getattr(simulator, name), []

    def spy(*args):
        calls.append(record(*args))
        return inner(*args)

    monkeypatch.setattr(simulator, name, spy)
    return calls


def _chunk_positions(budget, sweeps):
    """Positions per chunk over sweeps of (out_h, out_w) at a budget extreme."""
    if budget == "one-row":
        return [w for h, w in sweeps for _ in range(h)]
    return [h * w for h, w in sweeps]


def _stand_in_sgemm(fused):
    """A Python stand-in for cblas_sgemm's row-major K = 1 update with
    alpha = beta = 1, reading the same ctypes arguments. Unfused, it rounds
    each product to float32 before adding it; fused, it adds the exact
    (float64) product to the store and rounds once."""

    def floats(ptr, shape):
        return np.ctypeslib.as_array(ctypes.cast(ptr, ctypes.POINTER(ctypes.c_float)), shape)

    def sgemm(order, trans_a, trans_b, rows, m, k, alpha, a, lda, b, ldb, beta, c, ldc):
        rows, m = rows.value, m.value
        store = floats(c, (rows, ldc.value))[:, :m]
        tap, delta = floats(a, (rows,)), floats(b, (m,))
        if fused:
            store[...] = store + np.outer(tap.astype(np.float64), delta)
        else:
            store += np.outer(tap, delta)

    return sgemm


# Two positions over a 64 x 64 kernel store: the first product leaves -1 in
# every element, the second adds (1 + 2**-12)**2, which rounds to 1 + 2**-11,
# so the store ends at 2**-11; a fused multiply-add ends at 2**-11 + 2**-24.
_FUSED_SENSITIVE = SuperLayerSpec(ConvSpec(64, 64, 1), 1, 2, True, None)


def _fused_sensitive_ku(paper_hw):
    """The two-position kernel update; returns (simulated, oracle) gradients."""
    near_one = np.float32(1 + 2.0**-12)
    x = np.empty((64, 1, 2), dtype=np.float32)
    x[:, 0] = [1.0, near_one]
    delta = np.empty((64, 1, 2), dtype=np.float32)
    delta[:, 0] = [-1.0, near_one]
    r = run_super_layer(layer_plan(_FUSED_SENSITIVE, Phase.KU, paper_hw), StrategySet.all_on(),
                        x, delta=delta)
    return r.grad, _oracle_ku(x, delta, _FUSED_SENSITIVE.conv)


class TestScheduleOrder:
    """The datapath is bit-identical to the per-position, per-wave schedule.

    A faster evaluation that reorders a float32 sum fails here even when it
    stays within the reference bound."""

    @pytest.mark.parametrize("case", _SCHEDULE_CASES, ids=lambda c: c[0])
    @pytest.mark.parametrize("prefix", range(6))
    def test_fp_and_dp_follow_the_schedule(self, paper_hw, case, prefix):
        _, prev, layer, num_cu = case
        hw = replace(paper_hw, num_cu=num_cu)
        conv = layer.conv
        rng = np.random.default_rng(prefix)
        x = rng.standard_normal((conv.n, layer.input_h, layer.input_w)).astype(np.float32)
        kers = rng.standard_normal((conv.n, conv.m, conv.k, conv.k)).astype(np.float32)
        r = run_super_layer(layer_plan(layer, Phase.FP, hw, prev), StrategySet.first(prefix),
                            x, kers)
        want_pre = _oracle_conv(x, kers, conv, num_cu)
        assert _same_bits(r.pre_act, want_pre)
        assert _same_bits(r.outputs, _oracle_act_pool(want_pre, layer))
        if prev is None:
            return
        ho, wo = layer.conv_out_dims()
        d = rng.standard_normal((conv.m, ho, wo)).astype(np.float32)
        prev_h, prev_w = prev.conv_out_dims()
        prev_pre = rng.standard_normal((conv.n, prev_h, prev_w)).astype(np.float32)
        r = run_super_layer(layer_plan(layer, Phase.DP, hw, prev), StrategySet.first(prefix),
                            d, kers, prev_pre_act=prev_pre)
        tkers = np.transpose(kers[:, :, ::-1, ::-1], (1, 0, 2, 3))
        want = _oracle_conv(d, tkers, transpose_geometry(layer).conv, num_cu)
        if prev.pool is not None:
            want = _oracle_pool_transpose(want, prev.pool, prev_h, prev_w)
        if prev.has_act:
            want = want * (prev_pre > 0).astype(np.float32)
        assert _same_bits(r.outputs, want)

    @pytest.mark.parametrize("case", _KU_CASES, ids=lambda c: c[0])
    @pytest.mark.parametrize("prefix", range(6))
    def test_ku_follows_the_schedule(self, paper_hw, case, prefix):
        _, _, layer, num_cu = case
        conv = layer.conv
        rng = np.random.default_rng(prefix)
        x = rng.standard_normal((conv.n, layer.input_h, layer.input_w)).astype(np.float32)
        kers = rng.standard_normal((conv.n, conv.m, conv.k, conv.k)).astype(np.float32)
        delta = rng.standard_normal((conv.m, *layer.conv_out_dims())).astype(np.float32)
        r = run_super_layer(layer_plan(layer, Phase.KU, replace(paper_hw, num_cu=num_cu)),
                            StrategySet.first(prefix), x, kers, delta=delta)
        assert _same_bits(r.grad, _oracle_ku(x, delta, conv))

    @pytest.mark.parametrize("prefix", range(6))
    def test_ku_zero_signs_and_subnormal_products(self, paper_hw, prefix):
        # zeros of both signs, products that are subnormal (1e-20 * 1e-20) or
        # underflow to a signed zero (2e-25 * 2e-25): the kernel store starts
        # at +0, so a zero product's sign never reaches the gradient. Input
        # map 0 and all deltas are tiny, so gradient map 0 sums only subnormal
        # and zero products; delta map 0 holds only signed zeros.
        layer = SuperLayerSpec(ConvSpec(3, 4, 3, pad=1), 6, 5, True, None)
        conv = layer.conv
        rng = np.random.default_rng(prefix)
        tiny = np.array([0.0, -0.0, 1e-20, -3e-20, 2e-25], dtype=np.float32)
        x = rng.choice(np.append(tiny, [1.5, -0.75]), (conv.n, layer.input_h, layer.input_w))
        x[0] = rng.choice(tiny, x[0].shape)
        delta = rng.choice(tiny, (conv.m, *layer.conv_out_dims()))
        delta[0] = rng.choice(tiny[:2], delta[0].shape)
        kers = np.zeros((conv.n, conv.m, conv.k, conv.k), dtype=np.float32)
        r = run_super_layer(layer_plan(layer, Phase.KU, paper_hw), StrategySet.first(prefix),
                            x, kers, delta=delta)
        want = _oracle_ku(x, delta, conv)
        assert np.any((want[0] != 0) & (np.abs(want[0]) < np.finfo(np.float32).tiny))
        assert _same_bits(r.grad, want)

    def test_default_budget_splits_only_the_large_store(self):
        assert [_store_blocks(case[2].conv) for case in _KU_CASES] == [1] * 8 + [2]

    @pytest.mark.parametrize("budget", _CHUNK_BUDGETS)
    @pytest.mark.parametrize("case", _SCHEDULE_CASES, ids=lambda c: c[0])
    @pytest.mark.parametrize("prefix", range(6))
    def test_fp_and_dp_at_chunk_extremes(self, paper_hw, case, prefix, budget, monkeypatch):
        monkeypatch.setattr(simulator, "CHUNK_BYTES", _CHUNK_BUDGETS[budget])
        calls = _spy(monkeypatch, "accumulate_row", lambda block, kmat, num_cu: len(block))
        self.test_fp_and_dp_follow_the_schedule(paper_hw, case, prefix)
        _, prev, layer, _ = case
        # DP sweeps back to this layer's input grid, before any pool transpose
        sweeps = [layer.conv_out_dims()] + ([(layer.input_h, layer.input_w)] if prev else [])
        assert calls == _chunk_positions(budget, sweeps)

    @pytest.mark.parametrize("budget", _CHUNK_BUDGETS)
    @pytest.mark.parametrize("case", _KU_CASES, ids=lambda c: c[0])
    @pytest.mark.parametrize("prefix", range(6))
    def test_ku_at_chunk_extremes(self, paper_hw, case, prefix, budget, monkeypatch):
        monkeypatch.setattr(simulator, "CHUNK_BYTES", _CHUNK_BUDGETS[budget])
        # per call: positions, then the rows of the store's largest and last block
        calls = _spy(monkeypatch, "_add_products", lambda store, taps, deltas, block_rows:
                     (len(taps), min(block_rows, len(store)), (len(store) - 1) % block_rows + 1))
        self.test_ku_follows_the_schedule(paper_hw, case, prefix)
        assert [p for p, _, _ in calls] == _chunk_positions(budget, [case[2].conv_out_dims()])
        # every block's stack of products fits in the whole sweep, none in one row
        m = case[2].conv.m
        fits = {4 * (p + 1) * rows * m <= simulator.CHUNK_BYTES for p, *blocks in calls
                for rows in blocks}
        assert fits == {budget == "whole-sweep"}

    @pytest.mark.parametrize("case", _KU_CASES, ids=lambda c: c[0])
    @pytest.mark.parametrize("prefix", range(6))
    def test_ku_in_small_store_blocks(self, paper_hw, case, prefix, monkeypatch):
        _small_store_blocks(monkeypatch, case[2].conv)
        self.test_ku_follows_the_schedule(paper_hw, case, prefix)

    @pytest.mark.parametrize("prefix", range(6))
    def test_ku_zero_signs_in_small_store_blocks(self, paper_hw, prefix, monkeypatch):
        _small_store_blocks(monkeypatch, ConvSpec(3, 4, 3, pad=1))
        self.test_ku_zero_signs_and_subnormal_products(paper_hw, prefix)

    @pytest.fixture(params=["blas", "numpy-pair"])
    def loop_route(self, request, monkeypatch):
        """Every store block on the per-position loop (one-row chunks), run
        on numpy's BLAS or on the numpy pair (np.dot, then +=), the route
        taken where the BLAS is missing or fails the probe."""
        monkeypatch.setattr(simulator, "CHUNK_BYTES", 1)
        if request.param == "numpy-pair":
            monkeypatch.setattr(simulator, "_blas_sgemm", lambda: None)
        elif simulator._blas_sgemm() is None:
            pytest.skip("numpy's BLAS has no sgemm that passes the probe")

    @pytest.mark.parametrize("case", _KU_CASES, ids=lambda c: c[0])
    @pytest.mark.parametrize("prefix", range(6))
    def test_ku_loop_in_small_store_blocks(self, paper_hw, case, prefix, monkeypatch, loop_route):
        self.test_ku_in_small_store_blocks(paper_hw, case, prefix, monkeypatch)

    @pytest.mark.parametrize("prefix", range(6))
    def test_ku_loop_zero_signs(self, paper_hw, prefix, monkeypatch, loop_route):
        self.test_ku_zero_signs_in_small_store_blocks(paper_hw, prefix, monkeypatch)

    def test_ku_loop_rounds_each_product(self, paper_hw, loop_route):
        grad, want = _fused_sensitive_ku(paper_hw)
        assert _same_bits(grad, want)
        assert np.all(want == np.float32(2.0**-11))

    def test_fused_routine_breaks_the_schedule(self, paper_hw, monkeypatch):
        # the mutation the probe guards against: a routine that fuses the
        # multiply and the add moves the gradient off the schedule's bits
        monkeypatch.setattr(simulator, "CHUNK_BYTES", 1)
        monkeypatch.setattr(simulator, "_blas_sgemm", lambda: _stand_in_sgemm(fused=True))
        grad, want = _fused_sensitive_ku(paper_hw)
        assert np.all(grad == np.float32(2.0**-11 + 2.0**-24))
        assert not _same_bits(grad, want)

    def test_probe_leaves_fused_or_missing_routines_to_numpy(self, paper_hw, monkeypatch):
        fused, unfused = _stand_in_sgemm(fused=True), _stand_in_sgemm(fused=False)
        assert simulator._probed(fused) is None
        assert simulator._probed(unfused) is unfused
        assert simulator._blas_sgemm("no_such_sgemm") is None
        monkeypatch.setattr(simulator, "CHUNK_BYTES", 1)
        monkeypatch.setattr(simulator, "_blas_sgemm", lambda: simulator._probed(fused))
        grad, want = _fused_sensitive_ku(paper_hw)
        assert _same_bits(grad, want)

    def test_blas_route_rejects_views_it_cannot_address(self, monkeypatch):
        monkeypatch.setattr(simulator, "CHUNK_BYTES", 1)
        monkeypatch.setattr(simulator, "_blas_sgemm", lambda: _stand_in_sgemm(fused=False))
        store = np.zeros((4, 3), dtype=np.float32)
        taps, deltas = np.ones((2, 8), dtype=np.float32), np.ones((2, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="C-contiguous float32"):
            simulator._add_products(store, taps[:, ::2], deltas, 4)
        with pytest.raises(ValueError, match="C-contiguous float32"):
            simulator._add_products(store, taps[:, :4].astype(np.float64), deltas, 4)
        with pytest.raises(ShapeError, match="do not match the kernel store"):
            simulator._add_products(store, taps[:, :4].copy(), deltas[:1], 4)
        assert not store.any()

    @pytest.mark.parametrize("p, s", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 3),
                                      (12, 1)])
    def test_pool_engines_follow_the_loop(self, p, s):
        # wide magnitudes, zeros of both signs and a corner of negative zeros,
        # so a change in the order of additions or in a zero's sign shows;
        # p = 12 at stride 1 adds 144 taps per pooled element and up to 144
        # windows per delta, past numpy's 128-element pairwise block
        rng = np.random.default_rng(10 * p + s)
        maps_h, maps_w = p + 12, p + 13
        shape = (3, maps_h, maps_w)
        maps = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)).astype(np.float32)
        maps[rng.random(shape) < 0.2] = 0.0
        maps[rng.random(shape) < 0.2] = -0.0
        maps[1, : p + 2, : p + 2] = -0.0  # windows of negative zeros only
        layer = SuperLayerSpec(ConvSpec(1, 3, 1), maps_h, maps_w, False, PoolSpec(p, s))
        assert _same_bits(_act_pool_engine(maps, layer), _oracle_act_pool(maps, layer))
        ph, pw = layer.pool.out_dims(maps_h, maps_w)
        d = np.ascontiguousarray(maps[:, :ph, :pw])
        assert _same_bits(_pool_transpose_gather(d, layer.pool, maps_h, maps_w),
                          _oracle_pool_transpose(d, layer.pool, maps_h, maps_w))


def test_toy_case_stream_builds_for_every_seed():
    # the second layer pools only where its conv output is at least 2 wide
    for seed in range(40):
        assert len(random_toy_cases(seed, 6)) == 6


# Seeded small nets; this seed draws k = 1 layers whose FP and DP results
# would change if a prefix summed a strided window instead of a contiguous one.
_PREFIX_CASES = [(net, index, Phase(phase)) for net, index, phases in random_toy_cases(23, 6)
                 for phase in phases]


class TestStrategiesKeepBits:
    """The strategies move words, never bits: every prefix computes the same
    outputs, pre-activations and gradients from the same tensors."""

    @staticmethod
    def _assert_prefix_invariant(net, index, phase, hw):
        runs = [simulate_layer(net, index, phase, StrategySet.first(prefix), hw, seed=5).last_run
                for prefix in range(6)]
        for run in runs[1:]:
            for field in ("outputs", "pre_act", "grad"):
                got, want = getattr(run, field), getattr(runs[0], field)
                assert (got is None and want is None) or _same_bits(got, want), field

    @pytest.mark.parametrize("case", _PREFIX_CASES,
                             ids=lambda c: f"k{c[0].layers[c[1]].conv.k}-{c[2].value}")
    def test_seeded_nets(self, paper_hw, case):
        self._assert_prefix_invariant(*case, paper_hw)

    @pytest.mark.parametrize("phase", [Phase.FP, Phase.DP, Phase.KU])
    def test_alexnet_layer4(self, alexnet, paper_hw, phase):
        self._assert_prefix_invariant(alexnet, 3, phase, paper_hw)
