"""Acceptance suite: every criterion asserted at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s to see them inline).
Analytic reproductions run in milliseconds; simulator checks run at
batch 1 on the real layer shapes or at toy scale.
"""

import math

import numpy as np
import pytest

from convtraffic import presets
from convtraffic.archmodel import (
    cycle_count,
    logic_efficiency,
    peak_throughput,
    reconfig_overhead,
    roofline_attainable,
)
from convtraffic.errors import ConfigError
from convtraffic.reference import (
    conv_backward_delta,
    conv_forward,
    finite_diff_gradient,
    kernel_gradient,
    pool_backward,
    pool_forward,
)
from convtraffic.simulator import plan_phase, run_super_layer
from convtraffic.specs import ConvSpec, PoolSpec, SuperLayerSpec
from convtraffic.traffic import (
    Phase,
    StrategySet,
    conv_traffic,
    network_summary,
    op_count,
    reduction_factor,
    super_traffic,
)
from convtraffic.verify import simulate_layer

from conftest import layer_plan, random_toy_cases

WORD = 4


def _within(computed, expected, rel):
    return abs(computed - expected) / abs(expected) <= rel


def _report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {number}: {status}{suffix}")


def test_criterion_1_table1_reproduction(alexnet):
    layer = alexnet.layers[1]
    batch = alexnet.batch
    conv = layer.conv
    ho, wo = layer.conv_out_dims()
    ph, pw = layer.pool.out_dims(ho, wo)
    none = conv_traffic(layer, StrategySet.none(), batch, WORD)
    checks = [
        (conv.n * 27 * 27 * WORD * batch, 17.9e6),
        (conv.m * 27 * 27 * WORD * batch, 47.8e6),
        (conv.m * ph * pw * WORD * batch, 11.0e6),
        (conv.n * conv.m * conv.k**2 * WORD, 614.4e3),
        (none.input_bytes, 114.7e9),
        (none.output_bytes, 2.3e9),
        (2 * conv.m * ho * wo * WORD * batch, 95.6e6),
        ((layer.pool.p**2 + 1) * ph * pw * conv.m * WORD * batch, 110.7e6),
    ]
    ok = all(_within(c, e, 0.01) for c, e in checks)
    _report(1, ok, "storage and stage traffic of the second super layer within 1%")
    for computed, expected in checks:
        assert _within(computed, expected, 0.01), (computed, expected)


def test_criterion_2_strategy_cascade(alexnet):
    layer = alexnet.layers[1]
    expected = (2085.0, 96.1, 17.3, 1.01)
    computed = [
        conv_traffic(layer, StrategySet.first(k), alexnet.batch, WORD).normalized_bw
        for k in (1, 2, 3)
    ]
    computed.append(
        super_traffic(1, alexnet, Phase.FP, StrategySet.all_on(), WORD).normalized_bw
    )
    ok = all(_within(c, e, 0.03) for c, e in zip(computed, expected))
    _report(2, ok, "cascade " + " -> ".join(f"{c:.4g}" for c in computed))
    for c, e in zip(computed, expected):
        assert _within(c, e, 0.03), (c, e)


def test_criterion_3_total_reduction_factor(alexnet):
    ratio = reduction_factor(alexnet.layers[1], WORD, alexnet.batch)
    ok = _within(ratio, 3976.0, 0.02)
    _report(3, ok, f"reduction factor {ratio:.1f} vs 3976 within 2%")
    assert ok, ratio


def test_criterion_4_table3_matrix(alexnet):
    strategies = StrategySet.all_on()
    failures = []

    def check(computed, expected, label):
        if not _within(computed, expected, 0.03):
            failures.append((label, computed, expected))

    for i, expected in enumerate((4.18, 1.01, 1.45, 2.31, 1.98)):
        check(
            super_traffic(i, alexnet, Phase.FP, strategies, WORD).normalized_bw,
            expected, f"fp layer {i + 1}",
        )
    for i, expected in enumerate((4.25, 3.37, 2.31, 2.89), start=1):
        check(
            super_traffic(i, alexnet, Phase.DP, strategies, WORD).normalized_bw,
            expected, f"dp layer {i + 1}",
        )
    for i, expected in enumerate((8.36, 2.29, 1.45, 2.31, 2.89)):
        check(
            super_traffic(i, alexnet, Phase.KU, strategies, WORD).normalized_bw,
            expected, f"ku layer {i + 1}",
        )
    check(network_summary(alexnet, Phase.FP, strategies, WORD).normalized_bw, 1.94, "fp total")
    check(network_summary(alexnet, Phase.DP, strategies, WORD).normalized_bw, 3.45, "dp total")
    total_ops = 0
    for i, expected in enumerate((27.01, 57.34, 38.27, 28.74, 19.14)):
        conv_ops, _, _ = op_count(alexnet.layers[i], alexnet.batch, alexnet.groups[i])
        total_ops += conv_ops
        check(conv_ops / 1e9, expected, f"ops layer {i + 1}")
    check(total_ops / 1e9, 170.50, "ops total")

    ok = not failures
    _report(
        4,
        ok,
        "23 of 24 consistent cells within 3%; the published ku-total cell is "
        "checked by the companion xfail test (known internal inconsistency)",
    )
    assert ok, failures


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the published kernel-update total (3.92 MB/GFlop) is arithmetically "
        "inconsistent with the published per-layer cells and op counts next to "
        "it: their byte-weighted mean is 3.13, and any per-layer model matching "
        "all five cells within 3% yields a total of at most 3.23"
    ),
)
def test_criterion_4_ku_total_cell(alexnet):
    total = network_summary(alexnet, Phase.KU, StrategySet.all_on(), WORD).normalized_bw
    assert _within(total, 3.92, 0.03), total


def test_criterion_5_roofline_points(alexnet, paper_hw):
    nbw = network_summary(alexnet, Phase.FP, StrategySet.all_on(), WORD).normalized_bw
    ours = roofline_attainable(nbw, paper_hw.dram_bytes_per_s)
    baseline = roofline_attainable(3.57, paper_hw.dram_bytes_per_s)
    ok = _within(ours, 9.90e12, 0.02) and _within(baseline, 5.37e12, 0.02)
    _report(5, ok, f"attainable {ours / 1e12:.3f} / {baseline / 1e12:.3f} TFlop/s within 2%")
    assert ok, (ours, baseline)


def test_criterion_6_reconfiguration(paper_hw):
    report = reconfig_overhead(paper_hw, presets.RECONFIG_COMPUTE_SECONDS)
    cfg_ok = _within(report.cfg_seconds, 0.087, 0.05)
    overhead_ok = abs(report.overhead_fraction - 0.11) <= 0.01
    ok = cfg_ok and overhead_ok
    _report(
        6, ok,
        f"cfg {report.cfg_seconds:.4f}s within 5%, overhead "
        f"{100 * report.overhead_fraction:.2f}% within 1 point",
    )
    assert cfg_ok, report.cfg_seconds
    assert overhead_ok, report.overhead_fraction


def test_criterion_7_logic_efficiencies(alexnet):
    hw = presets.shared_345_hw()
    reports = [logic_efficiency(alexnet.layers[i], hw) for i in (2, 3, 4)]
    naive = [r.naive_efficiency for r in reports]
    naive_ok = naive == [1.0, 0.375, 0.25]
    controlled = sorted(r.controlled_efficiency for r in reports)
    expected = sorted((1.0, 1.0, 0.889))
    controlled_ok = all(abs(c - e) <= 0.001 for c, e in zip(controlled, expected))
    ok = naive_ok and controlled_ok
    _report(7, ok, f"naive {naive} exact, controlled multiset {controlled} within 0.1 point")
    assert naive_ok, naive
    assert controlled_ok, controlled


def test_criterion_8_simulator_model_byte_equality(alexnet, paper_hw):
    combos = failures = 0
    for index in range(5):
        for phase in (Phase.FP, Phase.DP, Phase.KU):
            for prefix in range(6):
                strategies = StrategySet.first(prefix)
                if phase is Phase.DP and index == 0:
                    # undefined on both sides: the agreement is the shared error
                    with pytest.raises(ConfigError):
                        super_traffic(index, alexnet, phase, strategies, WORD)
                    with pytest.raises(ConfigError):
                        simulate_layer(alexnet, index, phase, strategies, paper_hw,
                                       seed=0, compute=False)
                    continue
                check = simulate_layer(
                    alexnet, index, phase, strategies, paper_hw,
                    seed=0, batch=1, compute=False, check_model=True,
                )
                combos += 1
                if not check.model_match:
                    failures += 1
    ok = failures == 0
    _report(8, ok, f"integer byte equality on {combos} layer/phase/strategy combos at batch 1")
    assert ok, f"{failures} of {combos} combos mismatched"


def test_criterion_9_simulator_reference_equality(alexnet, paper_hw):
    worst = 0.0
    for index in range(5):
        for phase in (Phase.FP, Phase.DP, Phase.KU):
            if phase is Phase.DP and index == 0:
                continue
            check = simulate_layer(
                alexnet, index, phase, StrategySet.all_on(), paper_hw,
                seed=123 + index, batch=1, compute=True, check_reference=True,
            )
            worst = max(worst, check.reference_error)
    toy_worst = 0.0
    for case_idx, (net, index, phases) in enumerate(random_toy_cases(99, 50)):
        for phase_name in phases:
            check = simulate_layer(
                net, index, Phase(phase_name), StrategySet.all_on(), paper_hw,
                seed=500 + case_idx, batch=1, compute=True, check_reference=True,
            )
            toy_worst = max(toy_worst, check.reference_error)
    ok = worst <= 1e-5 and toy_worst <= 1e-5
    _report(
        9, ok,
        f"max relative error {worst:.2e} on real shapes, {toy_worst:.2e} over 50 toys",
    )
    assert ok, (worst, toy_worst)


def test_criterion_10_property_suite(alexnet, paper_hw):
    # adjointness of both backward operators, 100 seeds each, 32-bit path
    worst_adjoint = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        h = int(rng.integers(k, 10))
        w = int(rng.integers(k, 10))
        spec = ConvSpec(n, m, k, stride=1, pad=int(rng.integers(0, k)))
        x = rng.standard_normal((n, h, w)).astype(np.float32)
        ker = rng.standard_normal((n, m, k, k)).astype(np.float32)
        ho, wo = spec.out_dims(h, w)
        d = rng.standard_normal((m, ho, wo)).astype(np.float32)
        lhs = float(np.sum(conv_forward(x, ker, spec).astype(np.float64) * d))
        rhs = float(np.sum(x.astype(np.float64) * conv_backward_delta(d, ker, spec)))
        worst_adjoint = max(worst_adjoint, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-6))

        p = int(rng.integers(1, 4))
        s = int(rng.integers(1, p + 1))
        hp = int(rng.integers(p, 10))
        pool = PoolSpec(p, s)
        xp = rng.standard_normal((n, hp, hp)).astype(np.float32)
        ph, pw = pool.out_dims(hp, hp)
        dp = rng.standard_normal((n, ph, pw)).astype(np.float32)
        lhs = float(np.sum(pool_forward(xp, pool).astype(np.float64) * dp))
        rhs = float(np.sum(xp.astype(np.float64) * pool_backward(dp, pool, hp, hp)))
        worst_adjoint = max(worst_adjoint, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-6))
    adjoint_ok = worst_adjoint <= 1e-5

    # kernel gradients against central differences on the 64-bit path
    worst_grad = 0.0
    for seed in range(5):
        rng = np.random.default_rng(7000 + seed)
        spec = ConvSpec(2, 2, int(rng.integers(1, 4)), stride=1, pad=0)
        h = int(rng.integers(spec.k, 7))
        x = rng.standard_normal((2, h, h))
        ker = rng.standard_normal((2, 2, spec.k, spec.k))

        def loss(bank):
            return 0.5 * float(np.sum(conv_forward(x, bank, spec) ** 2))

        d = conv_forward(x, ker, spec)
        grad = kernel_gradient(x, d, spec)
        fd = finite_diff_gradient(loss, ker, 1e-3)
        worst_grad = max(worst_grad, np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-9))
    grad_ok = worst_grad <= 1e-3

    # enabling strategies never adds bytes (fusion included for fp)
    monotone_ok = True
    for index in range(5):
        fp = [
            super_traffic(index, alexnet, Phase.FP, StrategySet.first(p), WORD).total_bytes
            for p in range(6)
        ]
        monotone_ok &= fp == sorted(fp, reverse=True)
        for phase in (Phase.DP, Phase.KU):
            if phase is Phase.DP and index == 0:
                continue
            chain = [
                super_traffic(index, alexnet, phase, StrategySet.first(p), WORD).total_bytes
                for p in range(5)
            ]
            monotone_ok &= chain == sorted(chain, reverse=True)

    # read-once / write-once address histograms on a traced toy run
    rng = np.random.default_rng(42)
    layer = SuperLayerSpec(ConvSpec(2, 3, 3, stride=1, pad=1), 6, 6, True, PoolSpec(2, 2))
    x = rng.standard_normal((2, 6, 6)).astype(np.float32)
    kers = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
    run = run_super_layer(layer_plan(layer, Phase.FP, paper_hw), StrategySet.all_on(), x, kers,
                          trace=True)
    reads = {key: count for key, count in run.read_trace.items() if key[0] == "x"}
    expected_reads = {("x", i, y, c) for i in range(2) for y in range(6) for c in range(6)}
    hist_ok = set(reads) == expected_reads and set(reads.values()) == {1}
    writes = run.write_trace
    expected_writes = {("out", j, a, b) for j in range(3) for a in range(3) for b in range(3)}
    hist_ok &= set(writes) == expected_writes and set(writes.values()) == {1}

    # the published per-position cycle example is exact
    layer2 = alexnet.layers[1]
    per_position = layer2.conv.m * math.ceil(layer2.conv.n / paper_hw.num_cu)
    cycles_ok = per_position == 384
    cycles_ok &= cycle_count(layer2, paper_hw, 1) == 27 * 27 * 384
    sim = run_super_layer(plan_phase(alexnet, 1, Phase.FP, paper_hw), StrategySet.all_on(), None)
    cycles_ok &= sim.cycles == 2 * 27 * 27 * 384

    ok = adjoint_ok and grad_ok and monotone_ok and hist_ok and cycles_ok
    _report(
        10, ok,
        f"adjoint {worst_adjoint:.1e}, gradients {worst_grad:.1e}, "
        f"monotone strategies, read/write-once histograms, 384-cycle example exact",
    )
    assert adjoint_ok, worst_adjoint
    assert grad_ok, worst_grad
    assert monotone_ok
    assert hist_ok
    assert cycles_ok


def test_reported_constants_are_echoed_only(paper_hw):
    # absolute board throughputs are out of model scope: the peak-throughput
    # model is held to the reported figure at a relaxed 10%, and the extended
    # board's figure enters only the abstract's throughput ratio
    modeled = peak_throughput(paper_hw, 5)
    ok = _within(modeled, presets.REPORTED_THROUGHPUT_FLOPS, 0.10)
    _report(
        "constants", ok,
        f"peak model {modeled / 1e9:.1f} GFlop/s within 10% of the reported figure",
    )
    assert ok, modeled
    assert presets.REPORTED_THROUGHPUT_EXTENDED_FLOPS == 1244e9
