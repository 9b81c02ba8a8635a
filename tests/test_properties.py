"""Seeded property sweeps over the reference math and the models."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from convtraffic import presets
from convtraffic.archmodel import sram_budget
from convtraffic.reference import (
    act_forward,
    conv_backward_delta,
    conv_forward,
    finite_diff_gradient,
    kernel_gradient,
    pool_backward,
    pool_forward,
)
from convtraffic.simulator import plan_phase, run_super_layer
from convtraffic.specs import ConvSpec, NetworkSpec, PoolSpec, SuperLayerSpec
from convtraffic.traffic import Phase, StrategySet, transpose_geometry
from convtraffic.verify import random_phase_tensors, simulate_layer


def random_conv_instance(rng, dtype):
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    k = int(rng.integers(1, 4))
    h = int(rng.integers(k, 10))
    w = int(rng.integers(k, 10))
    pad = int(rng.integers(0, k))
    spec = ConvSpec(n, m, k, stride=1, pad=pad)
    x = rng.standard_normal((n, h, w)).astype(dtype)
    ker = rng.standard_normal((n, m, k, k)).astype(dtype)
    ho, wo = spec.out_dims(h, w)
    d = rng.standard_normal((m, ho, wo)).astype(dtype)
    return spec, x, ker, d


class TestAdjointness:
    def test_conv_adjoint_32bit_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            spec, x, ker, d = random_conv_instance(rng, np.float32)
            lhs = float(np.sum(conv_forward(x, ker, spec).astype(np.float64) * d))
            rhs = float(np.sum(x.astype(np.float64) * conv_backward_delta(d, ker, spec)))
            scale = max(abs(lhs), abs(rhs), 1e-6)
            assert abs(lhs - rhs) / scale <= 1e-5, f"seed {seed}"

    def test_conv_adjoint_64bit_tight(self):
        for seed in range(100, 140):
            rng = np.random.default_rng(seed)
            spec, x, ker, d = random_conv_instance(rng, np.float64)
            lhs = float(np.sum(conv_forward(x, ker, spec) * d))
            rhs = float(np.sum(x * conv_backward_delta(d, ker, spec)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_pool_adjoint_32bit_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            p = int(rng.integers(1, 4))
            s = int(rng.integers(1, p + 1))
            maps = int(rng.integers(1, 4))
            h = int(rng.integers(p, 10))
            w = int(rng.integers(p, 10))
            pool = PoolSpec(p, s)
            x = rng.standard_normal((maps, h, w)).astype(np.float32)
            ph, pw = pool.out_dims(h, w)
            d = rng.standard_normal((maps, ph, pw)).astype(np.float32)
            lhs = float(np.sum(pool_forward(x, pool).astype(np.float64) * d))
            rhs = float(np.sum(x.astype(np.float64) * pool_backward(d, pool, h, w)))
            scale = max(abs(lhs), abs(rhs), 1e-6)
            assert abs(lhs - rhs) / scale <= 1e-5, f"seed {seed}"


class TestGradients:
    def test_kernel_gradient_matches_central_differences(self):
        for seed in range(8):
            rng = np.random.default_rng(2000 + seed)
            spec, x, ker, _ = random_conv_instance(rng, np.float64)
            target = rng.standard_normal(conv_forward(x, ker, spec).shape)

            def loss(bank):
                y = conv_forward(x, bank, spec)
                return 0.5 * float(np.sum((y - target) ** 2))

            d = conv_forward(x, ker, spec) - target
            grad = kernel_gradient(x, d, spec)
            fd = finite_diff_gradient(loss, ker, 1e-3)
            scale = max(np.abs(fd).max(), 1e-9)
            assert np.abs(grad - fd).max() / scale <= 1e-3, f"seed {seed}"


class TestLinearity:
    def test_conv_linear_exact_on_integer_grids(self):
        # integer-valued tensors keep 64-bit arithmetic exact, so
        # linearity holds bitwise
        rng = np.random.default_rng(4)
        spec = ConvSpec(2, 3, 3, stride=1, pad=1)
        x = rng.integers(-3, 4, (2, 6, 6)).astype(np.float64)
        y = rng.integers(-3, 4, (2, 6, 6)).astype(np.float64)
        ker = rng.integers(-3, 4, (2, 3, 3, 3)).astype(np.float64)
        a, b = 2.0, -3.0
        combined = conv_forward(a * x + b * y, ker, spec)
        split = a * conv_forward(x, ker, spec) + b * conv_forward(y, ker, spec)
        assert np.array_equal(combined, split)


class TestDeterminism:
    def test_reference_bit_identical_across_runs(self):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        for rng_pair in [(rng1, rng2)]:
            spec = ConvSpec(3, 3, 3, stride=1, pad=1)
            outs = []
            for rng in rng_pair:
                x = rng.standard_normal((3, 7, 7)).astype(np.float32)
                ker = rng.standard_normal((3, 3, 3, 3)).astype(np.float32)
                outs.append(conv_forward(x, ker, spec).tobytes())
            assert outs[0] == outs[1]

    def test_relu_idempotent_many_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((2, 6, 6)).astype(np.float32)
            once = act_forward(x)
            assert np.array_equal(act_forward(once), once)


# The reference's window code before it moved to one strided view over a
# zero-filled pad; kept as the bit-level oracle for that rewrite.
def _old_windows(x, k, stride, pad):
    xpad = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    return sliding_window_view(xpad, (k, k), axis=(1, 2))[:, ::stride, ::stride]


def _old_conv_forward(x, ker, spec):
    win = _old_windows(x, spec.k, spec.stride, spec.pad)
    return np.moveaxis(np.tensordot(win, ker, axes=([0, 3, 4], [0, 2, 3])), 2, 0)


def _old_kernel_gradient(x, delta, spec):
    win = _old_windows(x, spec.k, spec.stride, spec.pad)
    return np.tensordot(win, delta, axes=([1, 2], [1, 2])).transpose(0, 3, 1, 2)


def _old_conv_backward_delta(delta_y, ker, spec):
    swapped = np.ascontiguousarray(np.transpose(ker[:, :, ::-1, ::-1], (1, 0, 2, 3)))
    transposed = ConvSpec(spec.m, spec.n, spec.k, stride=1, pad=spec.k - 1 - spec.pad)
    return _old_conv_forward(delta_y, swapped, transposed)


def _old_pool_forward(x, pool):
    win = sliding_window_view(x, (pool.p, pool.p), axis=(1, 2))
    win = win[:, :: pool.stride, :: pool.stride]
    return win.sum(axis=(3, 4)) * np.asarray(1.0 / (pool.p * pool.p), dtype=x.dtype)


def _old_pool_backward(delta, pool, in_h, in_w):
    ph, pw = pool.out_dims(in_h, in_w)
    inv = np.asarray(1.0 / (pool.p * pool.p), dtype=delta.dtype)
    out = np.zeros((delta.shape[0], in_h, in_w), dtype=delta.dtype)
    s, p = pool.stride, pool.p
    for r in range(ph):
        for c in range(pw):
            out[:, r * s : r * s + p, c * s : c * s + p] += delta[:, r : r + 1, c : c + 1] * inv
    return out


def _laid_out(a, layout):
    """a in C order, in the (maps last, moved to front) order conv_forward
    returns, or in Fortran order: the sums' order may follow the layout."""
    if layout == "moved":
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, 2)), 2, 0)
    return np.asfortranarray(a) if layout == "F" else a


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def conv_cases(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    stride, pad = draw(st.integers(1, k)), draw(st.integers(0, k - 1))
    # non-square maps, never smaller than one window of the padded input
    h, w = (draw(st.integers(max(1, k - 2 * pad), 9)) for _ in range(2))
    p = draw(st.integers(1, min(5, h, w)))
    pool = PoolSpec(p, draw(st.integers(1, p)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    layout = draw(st.sampled_from(["C", "moved", "F"]))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, m, k, stride, pad, h, w, pool, dtype, layout, seed


class TestWindowsKeepBits:
    """conv_forward, kernel_gradient, conv_backward_delta and pool_forward give,
    byte for byte, what np.pad + sliding_window_view + tensordot gave."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(conv_cases())
    # an F-ordered delta with k = 1: kernel_gradient must copy the delta
    # operand as tensordot does, or the BLAS call and its bits change
    @example((1, 2, 1, 1, 0, 2, 2, PoolSpec(1, 1), np.float32, "F", 1))
    # k = 1 at one output position: conv_backward_delta must copy the swapped
    # bank, or conv_forward's operand is an F-ordered view of the caller's
    # bank and the bits change
    @example((3, 4, 1, 1, 0, 1, 1, PoolSpec(1, 1), np.float32, "C", 1))
    # window matrices of 0.6 to 5.2 MB, so every contraction runs in several
    # CHUNK_BYTES blocks, uneven ones among them
    @example((96, 96, 3, 1, 1, 14, 13, PoolSpec(3, 2), np.float32, "C", 2))
    @example((96, 96, 3, 2, 1, 28, 27, PoolSpec(2, 2), np.float32, "moved", 3))
    @example((96, 96, 3, 1, 0, 17, 14, PoolSpec(3, 1), np.float32, "F", 4))
    @example((96, 96, 3, 1, 1, 14, 13, PoolSpec(3, 2), np.float64, "C", 5))
    @example((96, 96, 3, 2, 1, 28, 27, PoolSpec(2, 2), np.float64, "moved", 6))
    @example((96, 96, 3, 1, 0, 17, 14, PoolSpec(3, 1), np.float64, "F", 7))
    # few maps on one side, so a CHUNK_BYTES block of windows is a product
    # the BLAS runs another way than the whole: through its small-matrix
    # kernels (16 -> 16 at k = 3 on 64 x 64 maps, 8 -> 5, 24 -> 9, 3 -> 12,
    # 24 -> 24), on one thread where the whole runs on several (64 -> 8,
    # 24 -> 24; only a multi-core host shows these), or, with one map, as a
    # matrix-vector product (1 -> 24, 32 -> 1); 8 -> 5, 24 -> 9, 3 -> 12 and
    # 24 -> 24 also fail with a short last block
    @example((16, 16, 3, 1, 1, 64, 64, PoolSpec(2, 2), np.float32, "C", 1))
    @example((16, 16, 3, 1, 1, 64, 64, PoolSpec(2, 2), np.float64, "moved", 2))
    @example((8, 5, 3, 1, 1, 72, 70, PoolSpec(2, 2), np.float32, "C", 4))
    @example((24, 9, 2, 1, 0, 60, 57, PoolSpec(2, 2), np.float64, "F", 5))
    @example((3, 12, 5, 1, 2, 90, 80, PoolSpec(2, 2), np.float32, "moved", 6))
    @example((24, 24, 4, 1, 0, 33, 90, PoolSpec(2, 2), np.float32, "C", 11))
    @example((64, 8, 1, 1, 0, 95, 90, PoolSpec(2, 2), np.float64, "moved", 12))
    @example((1, 24, 5, 1, 2, 70, 60, PoolSpec(2, 2), np.float64, "C", 7))
    @example((32, 1, 4, 1, 1, 68, 115, PoolSpec(2, 2), np.float32, "F", 13))
    def test_same_bits_as_pad_and_sliding_windows(self, case):
        n, m, k, stride, pad, h, w, pool, dtype, layout, seed = case
        rng = np.random.default_rng(seed)
        spec = ConvSpec(n, m, k, stride=stride, pad=pad)
        x = _laid_out(rng.standard_normal((n, h, w)).astype(dtype), layout)
        ker = rng.standard_normal((n, m, k, k)).astype(dtype)
        ho, wo = spec.out_dims(h, w)
        delta = _laid_out(rng.standard_normal((m, ho, wo)).astype(dtype), layout)
        assert _same_bits(conv_forward(x, ker, spec), _old_conv_forward(x, ker, spec))
        assert _same_bits(kernel_gradient(x, delta, spec), _old_kernel_gradient(x, delta, spec))

        unit = ConvSpec(n, m, k, stride=1, pad=pad)
        dy = _laid_out(rng.standard_normal((m, *unit.out_dims(h, w))).astype(dtype), layout)
        assert _same_bits(conv_backward_delta(dy, ker, unit),
                          _old_conv_backward_delta(dy, ker, unit))
        assert _same_bits(pool_forward(x, pool), _old_pool_forward(x, pool))


class TestPoolBackwardKeepsBits:
    """pool_backward adds each input's windows in the order the per-window
    loop did, byte for byte."""

    # overlapping (p > s) pools, abutting ones, and pools whose windows leave
    # the last rows and columns uncovered; p = 4 at stride 1 gives up to 16
    # windows per input
    @pytest.mark.parametrize("p, s, h, w", [(3, 1, 9, 11), (3, 2, 13, 12), (4, 3, 12, 14),
                                            (2, 2, 9, 8), (4, 1, 10, 9), (1, 1, 4, 5)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["C", "moved", "F"])
    def test_same_bits_as_the_window_loop(self, p, s, h, w, dtype, layout):
        pool = PoolSpec(p, s)
        ph, pw = pool.out_dims(h, w)
        rng = np.random.default_rng(100 * p + 10 * s + h)
        shape = (3, ph, pw)
        # wide magnitudes, so a change in the order of additions shows, and
        # zeros of both signs, one map of negative zeros only
        d = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
        d[rng.random(shape) < 0.2] = 0.0
        d[rng.random(shape) < 0.2] = -0.0
        d[1] = -0.0
        d = _laid_out(d.astype(dtype), layout)
        assert _same_bits(pool_backward(d, pool, h, w), _old_pool_backward(d, pool, h, w))


@st.composite
def two_layer_nets(draw):
    """(net, batch): two super layers with non-square maps, stride <= k,
    pad <= k-1, pooling on or off and 1-2 groups each, at batch 1-3."""
    groups = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    share = draw(st.integers(1, 2))  # layer 1 feeds groups[0]*m = groups[1]*n maps
    maps = [draw(st.integers(1, 3)), share * groups[1], share * groups[0], draw(st.integers(1, 3))]
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    layers = []
    for i in range(2):
        k = draw(st.integers(1, 4))
        # the smallest pad that leaves at least one window in the padded maps
        pad = draw(st.integers(max(0, -(-(k - min(h, w)) // 2)), k - 1))
        conv = ConvSpec(maps[2 * i], maps[2 * i + 1], k, stride=draw(st.integers(1, k)), pad=pad)
        ho, wo = conv.out_dims(h, w)
        pool = None
        if draw(st.booleans()):
            p = draw(st.integers(1, min(3, ho, wo)))
            pool = PoolSpec(p, draw(st.integers(1, p)))
        layers.append(SuperLayerSpec(conv, h, w, has_act=draw(st.booleans()), pool=pool))
        h, w = layers[-1].out_dims()
    return NetworkSpec("random", 1, tuple(layers), groups), draw(st.integers(1, 3))


def _defined_phases(index, layer):
    """The phases a layer of a random net runs: delta propagation needs a
    previous layer and runs stride 1 only."""
    if index > 0 and layer.conv.stride == 1:
        return [Phase.FP, Phase.KU, Phase.DP]
    return [Phase.FP, Phase.KU]


STRATEGY_SETS = [StrategySet.first(count) for count in range(6)] + [StrategySet.parse("2,4")]


class TestCountersMatchModels:
    """Counters-only simulator runs equal the traffic model byte for byte,
    and archmodel's cycles and SRAM, on every defined phase of random
    two-layer nets, for every strategy prefix and the non-prefix set 2,4."""

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(two_layer_nets())
    def test_bytes_cycles_and_sram(self, case):
        net, batch = case
        hw = presets.paper_hw()
        for index, layer in enumerate(net.layers):
            for phase in _defined_phases(index, layer):
                geom = transpose_geometry(layer) if phase is Phase.DP else layer
                budget = sram_budget(geom, hw)
                for strategies in STRATEGY_SETS:
                    check = simulate_layer(net, index, phase, strategies, hw, seed=index,
                                           batch=batch, compute=False, check_model=True)
                    assert check.failures == [], (index, phase, strategies.label())
                    assert check.last_run.sram_bytes == (
                        budget.kernel_sram_bytes + budget.line_buffer_bytes
                    )


class TestStrategiesAndLayoutsKeepBits:
    """Compute runs give the same outputs, pre-activations and gradients,
    byte for byte, on every strategy prefix and the set 2,4, whether the
    input tensors come in C order, Fortran order, with moved axes, or as a
    float64 copy of the same float32 values."""

    LAYOUTS = {"C": lambda a: a, "F": np.asfortranarray,
               "moved": lambda a: _laid_out(a, "moved"), "float64": lambda a: a.astype(np.float64)}

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(two_layer_nets())
    def test_same_bits(self, case):
        net, _ = case
        hw = presets.paper_hw()
        for index, layer in enumerate(net.layers):
            for phase in _defined_phases(index, layer):
                plan = plan_phase(net, index, phase, hw)
                tensors = random_phase_tensors(np.random.default_rng(index), plan)
                want = None
                for layout, strategies in itertools.product(self.LAYOUTS, STRATEGY_SETS):
                    laid_out = {name: self.LAYOUTS[layout](a) for name, a in tensors.items()}
                    # KU draws no kernels
                    kers, x = laid_out.pop("kers", None), laid_out.pop("x")
                    run = run_super_layer(plan, strategies, x, kers, **laid_out)
                    got = [(a.shape, a.dtype, a.tobytes()) if a is not None else None
                           for a in (run.outputs, run.pre_act, run.grad)]
                    want = want or got
                    assert got == want, (index, phase, layout, strategies.label())
