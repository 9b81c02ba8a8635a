"""Command-line drivers: analyze, simulate, compare, gradcheck, roofline.

Each command returns one Report; main renders it to --out or stdout and
prints each failed check to stderr as one `FAILED:` line, so stdout holds
only the table, CSV or JSON report. Exit status: 0 on success / all checks
passed, 1 on a failed check, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import presets
from .archmodel import HwConfig, roofline_attainable
from .compare import comparison_rows
from .errors import ConfigError, GradcheckError, ShapeError
from .reference import analytic_kernel_gradients, chain_loss, finite_diff_gradient
from .reporting import render
from .specs import NetworkSpec, network_from_dict
from .traffic import Phase, StrategySet, TrafficReport, network_summary, phase_layers, super_traffic
from .verify import simulate_layer


@dataclass(frozen=True)
class RunManifest:
    """Everything one command invocation resolves to."""

    network: NetworkSpec  # at --batch when given
    hw: HwConfig
    strategies: StrategySet
    phase: Phase
    batch: int | None


@dataclass(frozen=True)
class Report:
    """One command's result: a tabular view, a JSON payload and the checks
    that failed."""

    headers: list[str]
    rows: list[list]
    payload: dict
    failures: list[str] = field(default_factory=list)


def _read_json(path: str):
    """Parse a UTF-8 JSON document; any other encoding is a configuration error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def load_network(source: str) -> NetworkSpec:
    if source in presets.NETWORK_PRESETS:
        return presets.NETWORK_PRESETS[source]()
    return network_from_dict(_read_json(source))


def load_hw(source: str) -> HwConfig:
    if source in presets.HW_PRESETS:
        return presets.HW_PRESETS[source]()
    doc = _read_json(source)
    if not isinstance(doc, dict):
        raise ConfigError(f"a hardware document must be an object, got {type(doc).__name__}")
    known = {f.name: f.type for f in fields(HwConfig)}
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"unknown hardware keys: {', '.join(sorted(unknown))}")
    missing = set(known) - set(doc)
    if missing:
        raise ConfigError(f"missing hardware keys: {', '.join(sorted(missing))}")
    for key, kind in known.items():
        v = doc[key]
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        if kind in ("int", int) and not (number and isinstance(v, int)):
            raise ConfigError(f"hardware key '{key}' must be an integer, got {v!r}")
        if not (number and math.isfinite(v)):
            raise ConfigError(f"hardware key '{key}' must be a finite number, got {v!r}")
    return HwConfig(**doc)


def _manifest(args) -> RunManifest:
    if args.batch is not None and args.batch < 1:
        raise ConfigError(f"--batch must be at least 1, got {args.batch}")
    net = load_network(args.net)
    if args.batch is not None:
        net = replace(net, batch=args.batch)
    return RunManifest(
        network=net,
        hw=load_hw(args.hw),
        strategies=StrategySet.parse(args.strategies),
        phase=Phase(args.phase),
        batch=args.batch,
    )


def _traffic_row(label, report: TrafficReport) -> list:
    return [
        label,
        report.conv_ops / 1e9,
        report.input_bytes / 1e6,
        report.output_bytes / 1e6,
        report.kernel_bytes / 1e6,
        report.total_bytes / 1e6,
        report.normalized_bw,
    ]


def cmd_analyze(manifest: RunManifest) -> Report:
    net = manifest.network
    word = manifest.hw.word_bytes
    headers = ["layer", "gop", "input_mb", "output_mb", "kernel_mb", "total_mb", "mb_per_gflop"]
    rows = []
    payload_layers = []
    for index in phase_layers(net, manifest.phase):
        report = super_traffic(index, net, manifest.phase, manifest.strategies, word)
        rows.append(_traffic_row(index + 1, report))
        payload_layers.append({"layer": index + 1, **report.to_dict()})
    total = network_summary(net, manifest.phase, manifest.strategies, word)
    rows.append(_traffic_row("total", total))
    payload = {
        "network": net.name,
        "phase": manifest.phase.value,
        "strategies": manifest.strategies.label(),
        "layers": payload_layers,
        "total": total.to_dict(),
    }
    return Report(headers, rows, payload)


def cmd_simulate(manifest: RunManifest, seed: int, layer_index: int | None, check_model: bool,
                 check_reference: bool) -> Report:
    net = manifest.network
    batch = manifest.batch or 1
    if layer_index is not None and not 1 <= layer_index <= len(net.layers):
        raise ConfigError(f"layer must be in 1..{len(net.layers)}, got {layer_index}")
    indices = phase_layers(net, manifest.phase) if layer_index is None else [layer_index - 1]
    headers = [
        "layer", "phase", "cycles", "input_b", "output_b", "kernel_b",
        "sram_b", "model_match", "ref_err",
    ]
    rows = []
    payload_layers = []
    failures: list[str] = []
    for index in indices:
        check = simulate_layer(
            net, index, manifest.phase, manifest.strategies, manifest.hw,
            seed=seed + index, batch=batch, compute=check_reference,
            check_model=check_model, check_reference=check_reference,
        )
        failures += [f"layer {index + 1}: {failure}" for failure in check.failures]
        traffic = check.sim_traffic
        rows.append([index + 1, manifest.phase.value, check.cycles, traffic.input_bytes,
                     traffic.output_bytes, traffic.kernel_bytes, check.last_run.sram_bytes,
                     "-" if check.model_match is None else check.model_match,
                     "-" if check.reference_error is None else f"{check.reference_error:.3g}"])
        payload_layers.append(
            {
                "layer": index + 1,
                "phase": manifest.phase.value,
                "cycles": check.cycles,
                "sram_bytes": check.last_run.sram_bytes,
                "register_bits": check.last_run.register_bits,
                "model_match": check.model_match,
                "reference_error": check.reference_error,
                **{f"traffic_{k}": v for k, v in traffic.to_dict().items()},
            }
        )
    payload = {
        "network": net.name,
        "phase": manifest.phase.value,
        "strategies": manifest.strategies.label(),
        "batch": batch,
        "seed": seed,
        "layers": payload_layers,
        "failures": failures,
    }
    return Report(headers, rows, payload, failures)


def cmd_compare(preset: str, tolerance: float | None) -> Report:
    rows = comparison_rows(preset, tolerance)
    headers = ["metric", "paper", "computed", "rel_err", "tolerance", "pass", "note"]
    table = [
        [r.metric, r.paper_value, r.computed_value, r.relative_error, r.tolerance, r.passed, r.note]
        for r in rows
    ]
    payload = {"preset": preset, "rows": [r.to_dict() for r in rows]}
    failures = [
        f"{r.metric}: relative error {r.relative_error:.3g} exceeds {r.tolerance:.3g}"
        for r in rows
        if not r.passed
    ]
    return Report(headers, table, payload, failures)


def cmd_gradcheck(net: NetworkSpec, seed: int, epsilon: float) -> Report:
    if any(g != 1 for g in net.groups):
        raise ConfigError("gradcheck runs ungrouped networks only")
    first = net.layers[0]
    x_shape = (first.conv.n, first.input_h, first.input_w)
    bank_shapes = [(l.conv.n, l.conv.m, l.conv.k, l.conv.k) for l in net.layers]
    if sum(map(math.prod, bank_shapes)) * math.prod(x_shape) > 1e7:
        raise ConfigError("gradcheck needs a toy-scale network")
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(x_shape)
    banks = [rng.standard_normal(shape) * 0.5 for shape in bank_shapes]

    grads = analytic_kernel_gradients(net, banks, x0)

    headers = ["layer", "max_rel_err", "worst_weight", "pass"]
    rows = []
    payload_layers = []
    failures = []
    for index, layer in enumerate(net.layers):
        def loss(bank, index=index):
            probe = [b.astype(np.float64) for b in banks]
            probe[index] = bank
            return chain_loss(net, probe, x0.astype(np.float64))

        fd = finite_diff_gradient(loss, banks[index], epsilon)
        scale = max(float(np.max(np.abs(fd))), 1e-12)
        err_map = np.abs(grads[index].astype(np.float64) - fd) / scale
        worst = tuple(int(v) for v in np.unravel_index(int(np.argmax(err_map)), err_map.shape))
        err = float(err_map[worst])
        ok = err <= 1e-3
        if not ok:
            failures.append(f"layer {index + 1} weight {worst}: relative error {err:.3g}")
        rows.append([index + 1, err, str(worst), ok])
        payload_layers.append(
            {"layer": index + 1, "max_rel_err": err, "worst_weight": list(map(int, worst)), "pass": ok}
        )

    payload = {
        "network": net.name,
        "seed": seed,
        "epsilon": epsilon,
        "layers": payload_layers,
        "failures": failures,
    }
    return Report(headers, rows, payload, failures)


def cmd_roofline(manifest: RunManifest, dram: str) -> Report:
    net = manifest.network
    word = manifest.hw.word_bytes
    ours = network_summary(net, manifest.phase, manifest.strategies, word).normalized_bw
    works = [("this model", ours)] + [(name, bw) for name, bw, _ in presets.PRIOR_WORKS]
    headers = ["work", "mb_per_gflop", "dram_gb_per_s", "attainable_gflop_per_s"]
    rows = []
    payload_points = []
    for tok in filter(str.strip, dram.split(",")):
        try:
            gbps = float(tok)
        except ValueError:
            gbps = math.nan
        if not 0 <= gbps < math.inf:
            raise ConfigError(f"--dram points must be finite and non-negative, got {tok.strip()!r}")
        for name, bw in works:
            attainable = roofline_attainable(bw, gbps * 1e9) if gbps > 0 else 0.0
            rows.append([name, bw, gbps, attainable / 1e9])
            payload_points.append(
                {
                    "work": name,
                    "normalized_bw": bw,
                    "dram_gb_per_s": gbps,
                    "attainable_flops": attainable,
                }
            )
    if not rows:
        raise ConfigError(f"--dram needs at least one bandwidth point, got {dram!r}")
    payload = {"phase": manifest.phase.value, "points": payload_points}
    return Report(headers, rows, payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convtraffic",
        description="Traffic model, schedule simulator and reproduction workbench "
        "for a streaming CNN accelerator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model=True, seed=True):  # a command takes only the flags it reads
        p.add_argument("--net", default="alexnet", help="network preset name or JSON file")
        if model:
            p.add_argument("--hw", default="paper", help="hardware preset name or JSON file")
            p.add_argument("--phase", default="fp", choices=["fp", "dp", "ku"])
            p.add_argument("--strategies", default="all", help="'none', 'all', '1-3', '1,2,4'")
            p.add_argument("--batch", type=int, default=None)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", default="table", choices=["table", "csv", "json"])
        p.add_argument("--out", default=None, help="write the report to this path")

    p = sub.add_parser("analyze", help="closed-form traffic report per layer")
    add_common(p, seed=False)

    p = sub.add_parser("simulate", help="run the schedule simulator")
    add_common(p)
    p.add_argument("--layer", type=int, default=None, help="1-based layer index, default all")
    p.add_argument("--check-against-model", action="store_true")
    p.add_argument("--check-against-reference", action="store_true")

    p = sub.add_parser("compare", help="reproduce embedded published metrics")
    p.add_argument("preset", help="comparison preset name or 'all'")
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--format", default="table", choices=["table", "csv", "json"])
    p.add_argument("--out", default=None)

    p = sub.add_parser("gradcheck", help="kernel gradients vs central differences")
    add_common(p, model=False)
    p.set_defaults(net="toy2")
    p.add_argument("--epsilon", type=float, default=1e-3)

    p = sub.add_parser("roofline", help="attainable throughput under DRAM caps")
    add_common(p, seed=False)
    p.add_argument(
        "--dram", default="19.2", help="comma list of DRAM bandwidth points in GB/s"
    )
    return parser


def _report(args) -> Report:
    if args.command == "compare":
        return cmd_compare(args.preset, args.tolerance)
    if "seed" in args and args.seed < 0:  # simulate and gradcheck draw random tensors
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    if args.command == "gradcheck":
        return cmd_gradcheck(load_network(args.net), args.seed, args.epsilon)
    manifest = _manifest(args)
    if args.command == "analyze":
        return cmd_analyze(manifest)
    if args.command == "simulate":
        return cmd_simulate(manifest, args.seed, args.layer, args.check_against_model,
                            args.check_against_reference)
    return cmd_roofline(manifest, args.dram)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _report(args)
        text = render(args.format, report.headers, report.rows, report.payload)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ConfigError, ShapeError, GradcheckError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in report.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
