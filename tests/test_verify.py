"""The checked path's draws and error check: same bits as whole-tensor calls,
and bounded temporaries on AlexNet-sized tensors."""

import tracemalloc

import numpy as np
import pytest

from convtraffic import verify
from convtraffic.traffic import Phase, StrategySet
from convtraffic.verify import (
    CHUNK_VALUES,
    max_relative_error,
    random_phase_tensors,
    simulate_layer,
)

MiB = 2**20
C = CHUNK_VALUES


def one_call_tensors(rng, names_and_shapes):
    """The draws as one standard_normal call per tensor would make them."""
    return {name: rng.standard_normal(shape).astype(np.float32)
            for name, shape in names_and_shapes}


def one_call_error(a, b):
    """The whole-array formula the blockwise check must reproduce."""
    scale = max(float(np.max(np.abs(b))), 1e-30)
    return float(np.max(np.abs(np.subtract(a, b, dtype=np.float64)))) / scale


def traced_peak(call):
    """(result, bytes by which the traced heap peaked above its start)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def ku_gradients(seed):
    """Two layer-3 KU gradient shaped float32 arrays, as transposed views."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3, 256, 384)).astype(np.float32)
    b = a + rng.standard_normal(a.shape).astype(np.float32) * 1e-6
    return a.transpose(2, 3, 0, 1), b.transpose(2, 3, 0, 1)


class TestDrawStream:
    @pytest.mark.parametrize("shape", [(7, 31, 151), (8, 4096), (9, 11, 331), (37, 2657)],
                             ids=["chunk-1", "chunk", "chunk+1", "3chunk+5"])
    def test_same_bits_and_state_as_one_call(self, shape):
        assert np.prod(shape) in (C - 1, C, C + 1, 3 * C + 5)
        rng, oracle = np.random.default_rng(11), np.random.default_rng(11)
        got = verify._draw(rng, shape)
        want = oracle.standard_normal(shape).astype(np.float32)
        assert got.shape == want.shape and got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        assert rng.standard_normal() == oracle.standard_normal()

    @pytest.mark.parametrize("index, phase, last", [(2, Phase.KU, "delta"),
                                                    (1, Phase.DP, "prev_pre_act")])
    def test_alexnet_tensors_match_one_call_per_tensor(self, alexnet, index, phase, last):
        layer, prev = alexnet.layers[index], alexnet.layers[index - 1]
        got = random_phase_tensors(np.random.default_rng(4), layer, prev, phase)
        assert got["kers"].size > C  # the multi-block path runs
        want = one_call_tensors(np.random.default_rng(4), [(name, got[name].shape)
                                                           for name in ("kers", "x", last)])
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name


class TestBlockwiseError:
    def test_ku_gradient_views_across_blocks(self):
        a, b = ku_gradients(0)
        assert a.size > C and not a.flags.c_contiguous
        assert max_relative_error(a, b) == one_call_error(a, b)

    @pytest.mark.parametrize("shape", [(C + 1,), (3, C + 1), (5, 7, C // 4)],
                             ids=["flat", "row-over-block", "rows-not-dividing"])
    def test_other_multi_block_shapes(self, shape):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(shape).astype(np.float32)
        b = rng.standard_normal(shape).astype(np.float32)
        assert max_relative_error(a, b) == one_call_error(a, b)

    @pytest.mark.parametrize("where", ["a", "b"])
    @pytest.mark.parametrize("at", [0, -1], ids=["first-block", "last-block"])
    def test_nan_in_one_block(self, where, at):
        a, b = ku_gradients(1)
        (a if where == "a" else b)[at, at, at, at] = np.nan
        assert np.isnan(max_relative_error(a, b))
        assert np.isnan(one_call_error(a, b))

    @pytest.mark.parametrize("a_value, b_value", [(np.inf, None), (-np.inf, None),
                                                  (None, np.inf), (None, -np.inf),
                                                  (np.inf, np.inf)])
    def test_infinities_match_the_whole_array_formula(self, a_value, b_value):
        a, b = ku_gradients(2)
        if a_value is not None:
            a[200, 7, 1, 2] = a_value
        if b_value is not None:
            b[200, 7, 1, 2] = b_value
        with np.errstate(invalid="ignore"):
            got, want = max_relative_error(a, b), one_call_error(a, b)
        assert got == want or (np.isnan(got) and np.isnan(want))


class TestTemporaryMemory:
    def test_layer3_ku_draw(self, alexnet):
        layer, prev = alexnet.layers[2], alexnet.layers[1]
        tensors, peak = traced_peak(
            lambda: random_phase_tensors(np.random.default_rng(0), layer, prev, Phase.KU))
        assert peak <= sum(t.nbytes for t in tensors.values()) + MiB // 2

    def test_error_check_on_ku_gradient_views(self):
        a, b = ku_gradients(3)
        _, peak = traced_peak(lambda: max_relative_error(a, b))
        assert peak < MiB

    def test_batch_frees_each_image(self, alexnet, paper_hw):
        layer, prev = alexnet.layers[2], alexnet.layers[1]
        one_image = sum(t.nbytes for t in random_phase_tensors(
            np.random.default_rng(0), layer, prev, Phase.KU).values())
        _, peak = traced_peak(lambda: simulate_layer(
            alexnet, 2, Phase.KU, StrategySet.parse("all"), paper_hw, seed=0, batch=2,
            compute=False))
        assert peak <= one_image + MiB

    def test_batch_keeps_no_earlier_image_result(self, alexnet, paper_hw):
        def peak(batch):
            return traced_peak(lambda: simulate_layer(
                alexnet, 2, Phase.KU, StrategySet.parse("all"), paper_hw, seed=0,
                batch=batch, check_reference=True))[1]

        assert peak(2) <= peak(1) + MiB // 2
