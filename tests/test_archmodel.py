import math
from dataclasses import fields, replace

import pytest

from convtraffic import presets
from convtraffic.archmodel import (
    HwConfig,
    cycle_count,
    logic_efficiency,
    peak_throughput,
    reconfig_overhead,
    roofline_attainable,
    sram_budget,
)
from convtraffic.errors import ConfigError
from convtraffic.specs import ConvSpec, SuperLayerSpec


class TestPeakThroughput:
    def test_paper_configuration(self, paper_hw):
        # 16 CUs * (2*25-1) adds+mults * 137 MHz
        assert peak_throughput(paper_hw, 5) == pytest.approx(107.408e9)

    def test_single_unit_k1(self, paper_hw):
        hw = replace(paper_hw, num_cu=1)
        assert peak_throughput(hw, 1) == hw.clock_hz

    def test_linear_in_units(self, paper_hw):
        assert peak_throughput(replace(paper_hw, num_cu=32), 5) == pytest.approx(
            2 * peak_throughput(paper_hw, 5)
        )

    def test_kernel_side_cap(self, paper_hw):
        with pytest.raises(ConfigError, match="window-register budget"):
            peak_throughput(paper_hw, paper_hw.max_k + 1)
        with pytest.raises(ConfigError, match="kernel side must be positive, got 0"):
            peak_throughput(paper_hw, 0)


class TestCycleCount:
    def test_layer2_positions(self, alexnet, paper_hw):
        layer = alexnet.layers[1]
        cycles = cycle_count(layer, paper_hw, batch=1)
        assert cycles == 27 * 27 * 384  # 48*128/16 per output position

    def test_layer3_wave_count(self, alexnet):
        hw = presets.shared_345_hw()
        layer = alexnet.layers[2]
        assert math.ceil(layer.conv.n / hw.num_cu) == 6
        assert cycle_count(layer, hw, 1) == 13 * 13 * 384 * 6

    def test_single_wave_when_units_cover_maps(self, paper_hw):
        layer = SuperLayerSpec(ConvSpec(8, 10, 3, 1, 1), 6, 6, has_act=False)
        cycles = cycle_count(layer, paper_hw, batch=3)
        assert cycles == 6 * 6 * 10 * 1 * 3

    def test_dims_cap(self, paper_hw):
        layer = SuperLayerSpec(ConvSpec(1, 385, 3, 1, 1), 6, 6, has_act=False)
        with pytest.raises(ConfigError):
            cycle_count(layer, paper_hw, 1)


class TestLogicEfficiency:
    def test_naive_shares_for_layers_4_and_5(self, alexnet):
        hw = presets.shared_345_hw()
        assert logic_efficiency(alexnet.layers[3], hw).naive_efficiency == 0.375
        assert logic_efficiency(alexnet.layers[4], hw).naive_efficiency == 0.25

    def test_controlled_for_layer3(self, alexnet):
        hw = presets.shared_345_hw()
        report = logic_efficiency(alexnet.layers[2], hw)
        assert report.naive_efficiency == 1.0
        assert report.controlled_efficiency == pytest.approx(256 / 288)

    def test_exact_fit_both_full(self):
        hw = replace(presets.shared_345_hw(), max_n=96, max_m=48, num_cu=48)
        layer = SuperLayerSpec(ConvSpec(96, 48, 3, 1, 1), 6, 6, has_act=False)
        report = logic_efficiency(layer, hw)
        assert report.naive_efficiency == 1.0
        assert report.controlled_efficiency == 1.0

    def test_matches_cycle_model(self, alexnet):
        # ideal filter evaluations over issued CU slots equals controlled efficiency
        hw = presets.shared_345_hw()
        for index in (2, 3, 4):
            layer = alexnet.layers[index]
            ho, wo = layer.conv_out_dims()
            ideal = layer.conv.n * layer.conv.m * ho * wo
            slots = cycle_count(layer, hw, 1) * hw.num_cu
            controlled = logic_efficiency(layer, hw).controlled_efficiency
            assert ideal / slots == pytest.approx(controlled)


class TestSramBudget:
    def test_layer2_budgets(self, alexnet, paper_hw):
        report = sram_budget(alexnet.layers[1], paper_hw)
        assert report.kernel_sram_bytes == 614_400
        assert report.accumulator_bits == 4096
        assert report.line_buffer_bytes == 48 * 5 * 27 * 4  # 25,920
        assert report.window_register_bits == 32 * 25 * paper_hw.num_cu

    def test_linear_in_word_bytes(self, alexnet, paper_hw):
        narrow = sram_budget(alexnet.layers[1], paper_hw)
        wide = sram_budget(alexnet.layers[1], replace(paper_hw, word_bytes=8))
        assert wide.kernel_sram_bytes == 2 * narrow.kernel_sram_bytes
        assert wide.line_buffer_bytes == 2 * narrow.line_buffer_bytes

    def test_capacity_exceeded(self, paper_hw):
        layer = SuperLayerSpec(ConvSpec(1, 1, 13), 20, 20, has_act=False)
        with pytest.raises(ConfigError, match="max_k"):
            sram_budget(layer, paper_hw)


class TestReconfig:
    def test_bitstream_transfer_time(self, paper_hw):
        report = reconfig_overhead(paper_hw, 0.7)
        assert report.cfg_seconds == pytest.approx(11.4e6 / (2 * 66e6))
        assert report.cfg_seconds == pytest.approx(0.0864, abs=5e-4)

    def test_overhead_fraction(self, paper_hw):
        report = reconfig_overhead(paper_hw, 0.7)
        assert report.overhead_fraction == pytest.approx(0.11, abs=0.01)

    def test_empty_bitstream_zero_overhead(self, paper_hw):
        report = reconfig_overhead(replace(paper_hw, bitstream_bytes=0), 0.7)
        assert report.cfg_seconds == 0.0
        assert report.overhead_fraction == 0.0

    def test_overhead_stays_in_unit_interval(self, paper_hw):
        for compute in (0.01, 0.1, 1.0, 100.0):
            frac = reconfig_overhead(paper_hw, compute).overhead_fraction
            assert 0 <= frac < 1


class TestRoofline:
    def test_reported_points(self, alexnet):
        assert roofline_attainable(1.94, 19.2e9) == pytest.approx(9.897e12, rel=1e-3)
        assert roofline_attainable(3.57, 19.2e9) == pytest.approx(5.378e12, rel=1e-3)

    def test_peak_caps_memory_bound(self):
        assert roofline_attainable(1.0, 1e12, peak_flops_per_s=5e9) == 5e9

    def test_zero_bandwidth(self):
        assert roofline_attainable(1.94, 0.0) == 0.0

    def test_monotonicity(self):
        base = roofline_attainable(2.0, 10e9)
        assert roofline_attainable(2.0, 20e9) >= base
        assert roofline_attainable(4.0, 10e9) <= base

    def test_requires_positive_bandwidth_requirement(self):
        with pytest.raises(ConfigError):
            roofline_attainable(0.0, 19.2e9)


class TestHwConfig:
    @pytest.mark.parametrize(
        "name", [f.name for f in fields(HwConfig) if f.name != "bitstream_bytes"]
    )
    def test_rejects_non_positive(self, name):
        with pytest.raises(ConfigError, match=f"^{name} must be positive, got 0$"):
            replace(presets.paper_hw(), **{name: 0})

    def test_bitstream_may_be_empty(self):
        assert replace(presets.paper_hw(), bitstream_bytes=0).bitstream_bytes == 0
        with pytest.raises(ConfigError, match="^bitstream_bytes must be non-negative, got -1$"):
            replace(presets.paper_hw(), bitstream_bytes=-1)
