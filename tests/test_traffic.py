from dataclasses import fields

import pytest

from convtraffic.errors import ConfigError, ShapeError
from convtraffic.specs import ConvSpec, NetworkSpec, PoolSpec, SuperLayerSpec
from convtraffic.traffic import (
    Phase,
    StrategySet,
    TrafficReport,
    conv_traffic,
    network_summary,
    op_count,
    phase_layers,
    reduction_factor,
    super_traffic,
    transpose_geometry,
    used_extent,
)

BATCH = 128
WORD = 4


@pytest.fixture(scope="module")
def layer2(alexnet):
    return alexnet.layers[1]


class TestStrategySet:
    def test_fusion_requires_the_rest(self):
        with pytest.raises(ConfigError):
            StrategySet(fused_super_layer=True)

    def test_prefix_and_parse_agree(self):
        assert StrategySet.first(3) == StrategySet.parse("1-3")
        assert StrategySet.parse("1,2,4") == StrategySet(True, True, False, True, False)
        assert StrategySet.parse("none") == StrategySet.none()
        assert StrategySet.parse("all") == StrategySet.all_on()

    def test_labels(self):
        assert StrategySet.none().label() == "none"
        assert StrategySet.first(2).label() == "s1+s2"

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            StrategySet.parse("6")


class TestTrafficReport:
    def test_normalized_bw_recomputable(self):
        r = TrafficReport(2_000_000, 1_000_000, 0, 3_000_000_000, 0, 0)
        assert r.normalized_bw == pytest.approx((3.0 / 1e6) * 1e6 / 3.0)
        assert r.normalized_bw == pytest.approx((r.total_bytes / 1e6) / (r.conv_ops / 1e9))

    def test_negative_counts_rejected(self):
        for field in fields(TrafficReport):
            with pytest.raises(ConfigError, match=f"^{field.name} must be non-negative, got -1$"):
                TrafficReport(**{field.name: -1})

    def test_sum(self):
        a = TrafficReport(1, 2, 3, 4, 5, 6)
        b = TrafficReport(10, 20, 30, 40, 50, 60)
        assert (a + b) == TrafficReport(11, 22, 33, 44, 55, 66)


class TestOpCount:
    def test_layer2_single_group(self, layer2):
        conv_ops, act_ops, pool_ops = op_count(layer2, BATCH, groups=1)
        assert conv_ops == 28_665_446_400  # 28.67G
        assert act_ops == 11_943_936  # 11.9M
        assert pool_ops == 24_920_064  # 24.9M

    def test_layer3_ungrouped(self, alexnet):
        conv_ops, _, _ = op_count(alexnet.layers[2], BATCH, groups=1)
        assert conv_ops == 38_277_218_304  # 38.27G

    def test_trivial_one_mac(self):
        layer = SuperLayerSpec(ConvSpec(1, 1, 1), 1, 1, has_act=False)
        assert op_count(layer, 1) == (2, 0, 0)

    def test_overflow_rejected(self):
        layer = SuperLayerSpec(ConvSpec(10_000, 10_000, 9), 3000, 3000, has_act=False)
        with pytest.raises(ConfigError, match="overflow"):
            op_count(layer, 10_000_000, 10_000)


class TestConvTraffic:
    def test_no_strategy_layer2(self, layer2):
        r = conv_traffic(layer2, StrategySet.none(), BATCH, WORD)
        assert r.input_bytes == 114_661_785_600  # 114.7GB, two operands per multiply
        assert r.output_bytes == 2_293_235_712  # 2.3GB of per-input-map partials
        assert r.kernel_bytes == 0

    def test_s1_halves_input_and_stores_kernels(self, layer2):
        r = conv_traffic(layer2, StrategySet.first(1), BATCH, WORD)
        assert r.input_bytes == 114_661_785_600 // 2
        assert r.kernel_bytes == 614_400

    def test_s2_divides_feature_traffic_by_m(self, layer2):
        r = conv_traffic(layer2, StrategySet.first(2), BATCH, WORD)
        assert r.input_bytes == 114_661_785_600 // 2 // 128

    def test_s3_streams_outputs_once(self, layer2):
        r = conv_traffic(layer2, StrategySet.first(3), BATCH, WORD)
        assert r.output_bytes == 47_775_744

    def test_s4_reads_each_element_once(self, layer2):
        r = conv_traffic(layer2, StrategySet.first(4), BATCH, WORD)
        assert r.input_bytes == 17_915_904  # 48*27*27*4*128

    def test_cascade_normalized_bw(self, layer2):
        values = [
            conv_traffic(layer2, StrategySet.first(k), BATCH, WORD).normalized_bw
            for k in (1, 2, 3)
        ]
        assert values[0] == pytest.approx(2080.02, rel=1e-4)
        assert values[1] == pytest.approx(95.646, rel=1e-4)
        assert values[2] == pytest.approx(17.313, rel=1e-4)

    def test_groups_scale_bytes_not_bw(self, layer2):
        one = conv_traffic(layer2, StrategySet.first(3), BATCH, WORD, groups=1)
        two = conv_traffic(layer2, StrategySet.first(3), BATCH, WORD, groups=2)
        assert two.input_bytes == 2 * one.input_bytes
        assert two.normalized_bw == pytest.approx(one.normalized_bw)

    def test_stride_above_k_rejected_at_spec(self):
        with pytest.raises(ShapeError, match="unsupported"):
            ConvSpec(1, 1, 2, stride=3)


class TestSuperTraffic:
    def test_fp_fused_bytes_frozen(self, alexnet):
        expected = [
            (77_070_336, 35_831_808),
            (35_831_808, 22_151_168),
            (22_151_168, 33_226_752),
            (33_226_752, 33_226_752),
            (33_226_752, 4_718_592),
        ]
        for i, (in_b, out_b) in enumerate(expected):
            r = super_traffic(i, alexnet, Phase.FP, StrategySet.all_on(), WORD)
            assert (r.input_bytes, r.output_bytes, r.kernel_bytes) == (in_b, out_b, 0)

    def test_dp_fused_bytes_frozen(self, alexnet):
        expected = [
            (95_551_488, 148_684_800),
            (33_226_752, 95_551_488),
            (33_226_752, 33_226_752),
            (22_151_168, 33_226_752),
        ]
        for i, (in_b, out_b) in enumerate(expected, start=1):
            r = super_traffic(i, alexnet, Phase.DP, StrategySet.all_on(), WORD)
            assert (r.input_bytes, r.output_bytes) == (in_b, out_b)

    def test_ku_fused_bytes_frozen(self, alexnet):
        expected = [
            225_755_136,
            131_383_296,
            55_377_920,
            66_453_504,
            55_377_920,
        ]
        for i, in_b in enumerate(expected):
            r = super_traffic(i, alexnet, Phase.KU, StrategySet.all_on(), WORD)
            assert r.input_bytes == in_b
            assert r.output_bytes == 0

    def test_dp_first_layer_rejected(self, alexnet):
        with pytest.raises(ConfigError, match="first super layer"):
            super_traffic(0, alexnet, Phase.DP, StrategySet.all_on(), WORD)

    def test_partial_sets_delegate_to_conv_stage(self, alexnet):
        """A set without fusion reports the phase's conv stage as it is; fusion
        overrides only the kernel and output terms, and KU's input term."""
        partial = [StrategySet.first(p) for p in range(5)] + [StrategySet.parse("2,4")]
        for phase in Phase:
            for index in phase_layers(alexnet, phase):
                layer, groups = alexnet.layers[index], alexnet.groups[index]
                for strat in partial:
                    stage = conv_traffic(layer, strat, BATCH, WORD, groups, phase=phase)
                    assert super_traffic(index, alexnet, phase, strat, WORD) == stage
                stage = conv_traffic(layer, StrategySet.all_on(), BATCH, WORD, groups, phase=phase)
                fused = super_traffic(index, alexnet, phase, StrategySet.all_on(), WORD)
                changed = {k for k, v in vars(fused).items() if v != getattr(stage, k)}
                allowed = {"kernel_bytes", "output_bytes"}
                if phase is Phase.KU:
                    allowed.add("input_bytes")
                assert "kernel_bytes" in changed, (index, phase)
                assert changed <= allowed, (index, phase)

    def test_dp_delegation_uses_transposed_geometry(self, alexnet):
        layer = alexnet.layers[1]
        tlayer = transpose_geometry(layer)
        assert (tlayer.conv.n, tlayer.conv.m) == (layer.conv.m, layer.conv.n)
        assert tlayer.conv.pad == layer.conv.k - 1 - layer.conv.pad
        via_super = super_traffic(1, alexnet, Phase.DP, StrategySet.first(4), WORD)
        via_conv = conv_traffic(layer, StrategySet.first(4), BATCH, WORD, groups=2, phase=Phase.DP)
        on_tlayer = conv_traffic(tlayer, StrategySet.first(4), BATCH, WORD, groups=2)
        assert via_super == via_conv
        assert via_conv.input_bytes == on_tlayer.input_bytes
        assert via_conv.output_bytes == on_tlayer.output_bytes


class TestNetworkSummary:
    def test_fp_total(self, alexnet):
        total = network_summary(alexnet, Phase.FP, StrategySet.all_on(), WORD)
        assert total.total_bytes == 330_661_888
        assert total.conv_ops == 170_440_925_184
        assert total.normalized_bw == pytest.approx(1.9400, abs=2e-4)

    def test_dp_total_skips_first_layer(self, alexnet):
        total = network_summary(alexnet, Phase.DP, StrategySet.all_on(), WORD)
        assert total.total_bytes == 494_845_952
        assert total.conv_ops == 143_454_633_984
        assert total.normalized_bw == pytest.approx(3.4495, abs=2e-4)

    def test_ku_total(self, alexnet):
        total = network_summary(alexnet, Phase.KU, StrategySet.all_on(), WORD)
        assert total.total_bytes == 534_347_776
        assert total.normalized_bw == pytest.approx(3.1351, abs=2e-4)

    def test_single_layer_network(self):
        layer = SuperLayerSpec(ConvSpec(2, 3, 3, 1, 1), 8, 8, True, PoolSpec(2, 2))
        net = NetworkSpec("one", 4, (layer,), (1,))
        total = network_summary(net, Phase.FP, StrategySet.all_on(), WORD)
        single = super_traffic(0, net, Phase.FP, StrategySet.all_on(), WORD)
        assert total == single

    def test_empty_network(self):
        net = NetworkSpec("empty", 1)
        total = network_summary(net, Phase.FP, StrategySet.all_on(), WORD)
        assert total.total_bytes == 0 and total.conv_ops == 0
        assert total.normalized_bw == 0.0


class TestReductionFactor:
    def test_no_strategy_components(self, layer2):
        conv = conv_traffic(layer2, StrategySet.none(), BATCH, WORD)
        assert conv.total_bytes == 116_955_021_312  # 117.0GB
        # act: read + write once each; pool: window taps + write once
        assert 2 * 128 * 27 * 27 * WORD * BATCH == 95_551_488
        assert (9 * 13 * 13 + 13 * 13) * 128 * WORD * BATCH == 110_755_840

    def test_fused_total_is_29_6_mb(self, layer2):
        # 17.9MB input + 11.0MB pooled output + 614.4KB kernels
        assert 17_915_904 + 11_075_584 + 614_400 == 29_605_888

    def test_ratio_near_reported(self, layer2):
        ratio = reduction_factor(layer2, WORD, BATCH)
        assert ratio == pytest.approx(3957.37, rel=1e-4)
        assert abs(ratio - 3976) / 3976 < 0.02

    def test_requires_act_and_pool(self):
        bare = SuperLayerSpec(ConvSpec(1, 1, 2), 4, 4, has_act=False)
        with pytest.raises(ConfigError):
            reduction_factor(bare, WORD, 1)


class TestInvariants:
    def test_fp_monotone_over_cumulative_prefixes(self, alexnet):
        for index in range(5):
            totals = []
            for prefix in range(6):
                r = super_traffic(index, alexnet, Phase.FP, StrategySet.first(prefix), WORD)
                totals.append(r.total_bytes)
            assert totals == sorted(totals, reverse=True)

    def test_fp_monotone_over_subset_lattice(self, layer2):
        # adding any single strategy to any subset of 1-4 never adds bytes
        import itertools

        for bits in itertools.product((False, True), repeat=4):
            base = StrategySet(*bits, False)
            base_bytes = conv_traffic(layer2, base, BATCH, WORD).total_bytes
            for i in range(4):
                if bits[i]:
                    continue
                grown = list(bits)
                grown[i] = True
                more = StrategySet(*grown, False)
                assert conv_traffic(layer2, more, BATCH, WORD).total_bytes <= base_bytes

    def test_dp_ku_monotone_within_conv_strategies(self, alexnet):
        for phase in (Phase.DP, Phase.KU):
            for index in range(1, 5):
                totals = [
                    super_traffic(index, alexnet, phase, StrategySet.first(p), WORD).total_bytes
                    for p in range(5)
                ]
                assert totals == sorted(totals, reverse=True)

    def test_fused_normalized_bw_batch_invariant(self, alexnet):
        from dataclasses import replace

        big = replace(alexnet, batch=1024)
        for phase in (Phase.FP, Phase.DP, Phase.KU):
            a = network_summary(alexnet, phase, StrategySet.all_on(), WORD).normalized_bw
            b = network_summary(big, phase, StrategySet.all_on(), WORD).normalized_bw
            assert abs(a - b) / a < 0.01

    def test_kernel_term_shrinks_with_batch(self, layer2):
        small = conv_traffic(layer2, StrategySet.first(4), 128, WORD)
        large = conv_traffic(layer2, StrategySet.first(4), 1024, WORD)
        # the amortized kernel store is the only non-scaling term
        assert large.kernel_bytes == small.kernel_bytes
        assert large.input_bytes == 8 * small.input_bytes
        assert large.normalized_bw < small.normalized_bw

    def test_word_bytes_scale_bytes_linearly(self, alexnet):
        r4 = super_traffic(1, alexnet, Phase.FP, StrategySet.all_on(), 4)
        r8 = super_traffic(1, alexnet, Phase.FP, StrategySet.all_on(), 8)
        assert r8.input_bytes == 2 * r4.input_bytes
        assert r8.output_bytes == 2 * r4.output_bytes
        assert r8.conv_ops == r4.conv_ops
        assert r8.normalized_bw == pytest.approx(2 * r4.normalized_bw)

    def test_fp_fused_equals_storage_lower_bound(self, alexnet):
        for i, layer in enumerate(alexnet.layers):
            r = super_traffic(i, alexnet, Phase.FP, StrategySet.all_on(), WORD)
            groups = alexnet.groups[i]
            oh, ow = layer.out_dims()
            rows = used_extent(layer.input_h, layer.conv.k, layer.conv.stride, layer.conv.pad)
            cols = used_extent(layer.input_w, layer.conv.k, layer.conv.stride, layer.conv.pad)
            assert r.input_bytes == layer.conv.n * rows * cols * WORD * alexnet.batch * groups
            assert r.output_bytes == layer.conv.m * oh * ow * WORD * alexnet.batch * groups


class TestUsedExtent:
    def test_exact_fit(self):
        assert used_extent(27, 5, 1, 2) == 27
        assert used_extent(224, 11, 4, 2) == 224

    def test_truncated_tail(self):
        # 5 rows, k=2, stride 2: positions at 0 and 2, row 4 never read
        assert used_extent(5, 2, 2, 0) == 4
