"""Reproduction of the embedded published metrics as comparison rows."""

from __future__ import annotations

import math

from . import presets
from .archmodel import (
    logic_efficiency,
    peak_throughput,
    reconfig_overhead,
    roofline_attainable,
)
from .errors import ConfigError
from .reporting import ComparisonRow
from .specs import SuperLayerSpec
from .traffic import (
    Phase,
    StrategySet,
    act_pool_words,
    conv_traffic,
    network_summary,
    op_count,
    reduction_factor,
    super_traffic,
)

WORD = presets.paper_hw().word_bytes

# Default tolerances: table values absorb 3-significant-figure rounding,
# figure readouts 2%, the absolute throughput model 10%.
TOL_TABLE = 0.03
TOL_FIGURE = 0.02
TOL_STORAGE = 0.01
TOL_THROUGHPUT = 0.10
TOL_CFG_SECONDS = 0.05


def _layer2_single_group() -> SuperLayerSpec:
    return presets.alexnet().layers[1]


def rows_table1() -> list[ComparisonRow]:
    layer = _layer2_single_group()
    batch = presets.alexnet().batch
    conv = layer.conv
    ho, wo = layer.conv_out_dims()
    ph, pw = layer.pool.out_dims(ho, wo)
    none = conv_traffic(layer, StrategySet.none(), batch, WORD)
    act_words, pool_words = act_pool_words(layer, batch)
    note = "Table 1"
    values = {
        "conv input storage B": conv.n * layer.input_h * layer.input_w * WORD * batch,
        "conv output storage B": conv.m * ho * wo * WORD * batch,
        "pool output storage B": conv.m * ph * pw * WORD * batch,
        "kernel storage B": conv.n * conv.m * conv.k**2 * WORD,
        "conv input traffic B (no strategies)": none.input_bytes,
        "conv output traffic B (no strategies)": none.output_bytes,
        "act stage traffic B": act_words * WORD,
        "pool stage traffic B": pool_words * WORD,
    }
    return [
        ComparisonRow(name, presets.TABLE1[name], float(values[name]), TOL_STORAGE, note)
        for name in presets.TABLE1
    ]


def rows_cascade() -> list[ComparisonRow]:
    layer = _layer2_single_group()
    net = presets.alexnet()
    rows = []
    for name, prefix in (("s1", 1), ("s1-s2", 2), ("s1-s3", 3)):
        report = conv_traffic(layer, StrategySet.first(prefix), net.batch, WORD)
        rows.append(
            ComparisonRow(
                f"layer 2 normalized BW, {name} (MB/GFlop)",
                presets.CASCADE[name],
                report.normalized_bw,
                TOL_TABLE,
                "strategy cascade",
            )
        )
    fused = super_traffic(1, net, Phase.FP, StrategySet.all_on(), WORD)
    rows.append(
        ComparisonRow(
            "layer 2 normalized BW, s1-s5 (MB/GFlop)",
            presets.CASCADE["s1-s5"],
            fused.normalized_bw,
            TOL_TABLE,
            "strategy cascade / Table 3",
        )
    )
    return rows


def rows_fig6() -> list[ComparisonRow]:
    net = presets.alexnet()
    ratio = reduction_factor(net.layers[1], WORD, net.batch)
    return [
        ComparisonRow(
            "layer 2 total traffic reduction factor",
            presets.FIG6_REDUCTION,
            ratio,
            TOL_FIGURE,
            "Fig. 6",
        )
    ]


def rows_table3(phase: Phase) -> list[ComparisonRow]:
    net = presets.alexnet()
    strategies = StrategySet.all_on()
    expected = {
        Phase.FP: presets.TABLE3_FP,
        Phase.DP: presets.TABLE3_DP,
        Phase.KU: presets.TABLE3_KU,
    }[phase]
    rows = []
    for i, value in enumerate(expected):
        if value is None:
            continue
        report = super_traffic(i, net, phase, strategies, WORD)
        rows.append(
            ComparisonRow(
                f"layer {i + 1} normalized BW, {phase.value} (MB/GFlop)",
                value,
                report.normalized_bw,
                TOL_TABLE,
                "Table 3",
            )
        )
    total = network_summary(net, phase, strategies, WORD)
    rows.append(
        ComparisonRow(
            f"total normalized BW, {phase.value} (MB/GFlop)",
            presets.TABLE3_TOTALS[phase.value],
            total.normalized_bw,
            TOL_TABLE,
            "Table 3 total",
        )
    )
    return rows


def rows_table3_ops() -> list[ComparisonRow]:
    net = presets.alexnet()
    rows = []
    total = 0
    for i, expected in enumerate(presets.TABLE3_OPS_G):
        conv_ops, _, _ = op_count(net.layers[i], net.batch, net.groups[i])
        total += conv_ops
        rows.append(
            ComparisonRow(
                f"layer {i + 1} conv ops (Gop)", expected, conv_ops / 1e9, TOL_TABLE, "Table 3"
            )
        )
    rows.append(
        ComparisonRow(
            "total conv ops (Gop)",
            presets.TABLE3_OPS_TOTAL_G,
            total / 1e9,
            TOL_TABLE,
            "Table 3 total",
        )
    )
    return rows


def rows_fig14() -> list[ComparisonRow]:
    net = presets.alexnet()
    hw = presets.paper_hw()
    nbw = network_summary(net, Phase.FP, StrategySet.all_on(), WORD).normalized_bw
    ours = roofline_attainable(nbw, hw.dram_bytes_per_s)
    baseline = roofline_attainable(3.57, hw.dram_bytes_per_s)
    rows = [
        ComparisonRow(
            "attainable at 1.94 MB/GFlop (flops/s)",
            presets.FIG14["attainable at 1.94 MB/GFlop (flops/s)"],
            ours,
            TOL_FIGURE,
            "Fig. 14",
        ),
        ComparisonRow(
            "attainable at 3.57 MB/Gop (flops/s)",
            presets.FIG14["attainable at 3.57 MB/Gop (flops/s)"],
            baseline,
            TOL_FIGURE,
            "Fig. 14",
        ),
    ]
    # prior works must come out strictly ordered by normalized bandwidth
    attainables = [
        roofline_attainable(bw, hw.dram_bytes_per_s) for _, bw, _ in presets.PRIOR_WORKS
    ]
    ordered = all(a < b for a, b in zip(attainables, attainables[1:])) and ours > max(attainables)
    rows.append(
        ComparisonRow(
            "roofline ordering of prior works preserved",
            1.0,
            1.0 if ordered else 0.0,
            0.0,
            "Fig. 14 ordering",
        )
    )
    return rows


def rows_reconfig() -> list[ComparisonRow]:
    hw = presets.paper_hw()
    report = reconfig_overhead(hw, presets.RECONFIG_COMPUTE_SECONDS)
    # one percentage point of slack on the overhead share
    overhead_tol = 0.01 / presets.RECONFIG_OVERHEAD
    return [
        ComparisonRow(
            "bitstream transfer time (s)",
            presets.RECONFIG_CFG_SECONDS,
            report.cfg_seconds,
            TOL_CFG_SECONDS,
            "reconfiguration timing",
        ),
        ComparisonRow(
            "reconfiguration overhead fraction",
            presets.RECONFIG_OVERHEAD,
            report.overhead_fraction,
            overhead_tol,
            "reconfiguration timing",
        ),
    ]


def rows_efficiency() -> list[ComparisonRow]:
    net = presets.alexnet()
    hw = presets.shared_345_hw()
    reports = [logic_efficiency(net.layers[i], hw) for i in (2, 3, 4)]
    rows = []
    for (layer_idx, expected), report in zip(
        zip((3, 4, 5), presets.EFFICIENCY_NAIVE), reports
    ):
        rows.append(
            ComparisonRow(
                f"layer {layer_idx} naive efficiency",
                expected,
                report.naive_efficiency,
                0.0,
                "logic reconfiguration",
            )
        )
    computed = sorted(r.controlled_efficiency for r in reports)
    expected_sorted = sorted(presets.EFFICIENCY_CONTROLLED_MULTISET)
    for i, (exp, got) in enumerate(zip(expected_sorted, computed)):
        rows.append(
            ComparisonRow(
                f"controlled efficiency multiset [{i}]",
                exp,
                got,
                0.001 / exp,  # within 0.1 percentage point
                "logic reconfiguration",
            )
        )
    return rows


def rows_peak() -> list[ComparisonRow]:
    hw = presets.paper_hw()
    return [
        ComparisonRow(
            "modeled peak throughput, k=5 (flops/s)",
            presets.REPORTED_THROUGHPUT_FLOPS,
            peak_throughput(hw, 5),
            TOL_THROUGHPUT,
            "reported throughput (Table 4)",
        )
    ]


def rows_abstract() -> list[ComparisonRow]:
    """The abstract's two relative claims: the bandwidth reduction derived from
    the model, and the throughput ratio, a check of the paper's own arithmetic."""
    fp = network_summary(presets.alexnet(), Phase.FP, StrategySet.all_on(), WORD)
    mobile = next(flops for name, _, flops in presets.PRIOR_WORKS if name == "mobile coprocessor")
    return [
        ComparisonRow(
            "FP total BW reduction vs 16-bit comparison total",
            presets.ABSTRACT_BW_REDUCTION,
            1.0 - fp.normalized_bw / presets.TABLE3_EYERISS_TOTAL,
            TOL_TABLE,
            "abstract, from Table 3",
        ),
        ComparisonRow(
            "extended-board throughput vs mobile coprocessor (ratio)",
            presets.ABSTRACT_THROUGHPUT_RATIO,
            presets.REPORTED_THROUGHPUT_EXTENDED_FLOPS / mobile,
            TOL_TABLE,
            "abstract, paper's own arithmetic: Fig. 13 / Table 4",
        ),
    ]


PRESET_BUILDERS = {
    "table1": rows_table1,
    "cascade": rows_cascade,
    "fig6": rows_fig6,
    "table3-fp": lambda: rows_table3(Phase.FP),
    "table3-dp": lambda: rows_table3(Phase.DP),
    "table3-ku": lambda: rows_table3(Phase.KU),
    "table3-ops": rows_table3_ops,
    "fig14": rows_fig14,
    "reconfig": rows_reconfig,
    "efficiency": rows_efficiency,
    "peak": rows_peak,
    "abstract": rows_abstract,
}


def comparison_rows(preset: str, tolerance: float | None = None) -> list[ComparisonRow]:
    """Rows for one comparison preset, or for 'all' of them. A tolerance
    override applies to every row."""
    if preset == "all":
        names = list(PRESET_BUILDERS)
    elif preset in PRESET_BUILDERS:
        names = [preset]
    else:
        known = ", ".join(sorted(PRESET_BUILDERS) + ["all"])
        raise ConfigError(f"unknown comparison preset '{preset}'; available: {known}")
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0):
        raise ConfigError(f"tolerance must be a finite non-negative number, got {tolerance}")
    rows: list[ComparisonRow] = []
    for name in names:
        rows.extend(PRESET_BUILDERS[name]())
    if tolerance is not None:
        rows = [
            ComparisonRow(r.metric, r.paper_value, r.computed_value, tolerance, r.note)
            for r in rows
        ]
    return rows
