"""Benchmark of the checked-simulation path.

    python3 benchmarks/run.py --workload alexnet-checked --seed 1 --seconds 30 --trace 0

Run from a checkout: the package is imported from its src/ directory and
nowhere else. Each workload is a closed loop with one caller that checks one
(layer, phase, strategy set) item after another through
`verify.simulate_layer`, plus the cycle and SRAM cross-checks against
`archmodel`. Passes over the item list repeat until --seconds is used up; a
failed check or a raising item is counted and the pass goes on.

The last stdout line is the result: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. The line before it holds the run context.
See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A fixed BLAS/OpenMP thread count keeps runs comparable across machines
# and leaves the second core of a small shared host to its other tenants.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The host's speed shifts over seconds, so set-up is sampled once before
# every pass (at least SETUP_SAMPLES times) rather than all at the start.
SETUP_SAMPLES = 5
REF_BOUND = 1e-5  # relative error the README's reference check allows
# Never used while this benchmark was written or tuned; kept for confirming
# a later speed claim on inputs it was not developed against.
HELDOUT_SEED = 90_731
ALEXNET_PAIRS = [
    f"L{i + 1}.{phase}"
    for i in range(len(workloads.ALEXNET["layers"]))
    for phase in workloads.defined_phases(workloads.ALEXNET, i)
]


class Outcome(NamedTuple):
    """Everything an item's checks produce; must repeat exactly run to run."""

    sim_bytes: int = 0
    sim_cycles: int = 0
    model_match: bool | None = None
    ref_err: float | None = None
    cycle_match: bool | None = None
    sram_match: bool | None = None
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error) or self.model_match is False or self.over_bound

    @property
    def over_bound(self) -> bool:
        return self.ref_err is not None and self.ref_err > REF_BOUND


def import_package():
    """Import convtraffic from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "convtraffic" / "__init__.py").is_file():
        raise SystemExit(f"error: no convtraffic package under {src}")
    sys.path.insert(0, str(src))
    import convtraffic
    import convtraffic.verify

    return convtraffic


def prepare(pkg, workload: workloads.Workload):
    """Parse the workload's network documents and resolve every item."""
    from convtraffic import presets, specs
    from convtraffic.traffic import Phase, StrategySet

    nets = [specs.network_from_dict(doc) for doc in workload.docs]
    hw = presets.paper_hw()
    items = [
        (item, nets[item.net], StrategySet.parse(item.strategies), Phase(item.phase))
        for item in workload.items
    ]
    return hw, items


def check_item(pkg, hw, item, net, strategies, phase) -> Outcome:
    verify, traffic, archmodel = pkg.verify, pkg.traffic, pkg.archmodel
    try:
        check = verify.simulate_layer(
            net, item.layer, phase, strategies, hw, seed=item.seed, batch=item.batch,
            compute=item.compute, check_model=True, check_reference=item.compute,
        )
        layer = net.layers[item.layer]
        geom = traffic.transpose_geometry(layer) if phase is pkg.Phase.DP else layer
        want_cycles = archmodel.cycle_count(geom, hw, item.batch) * net.groups[item.layer]
        budget = archmodel.sram_budget(geom, hw)
    except Exception as exc:  # a raising item is a failed item; the pass goes on
        return Outcome(error=f"{type(exc).__name__}: {exc}")
    return Outcome(
        sim_bytes=check.sim_traffic.total_bytes,
        sim_cycles=check.cycles,
        model_match=check.model_match,
        ref_err=check.reference_error,
        cycle_match=check.cycles == want_cycles,
        sram_match=check.last_run.sram_bytes
        == budget.kernel_sram_bytes + budget.line_buffer_bytes,
    )


def run_pass(pkg, hw, items, tracer: Tracer | None = None):
    """Check every item once; returns per-item seconds and outcomes."""
    seconds, outcomes = [], []
    for item, net, strategies, phase in items:
        if tracer is not None:
            tracer.item = (item.label, item.phase)
        start = time.perf_counter()
        outcomes.append(check_item(pkg, hw, item, net, strategies, phase))
        seconds.append(time.perf_counter() - start)
    return seconds, outcomes


def install(tracer: Tracer, pkg) -> None:
    for attr, layer in (
        ("random_phase_tensors", "verify.inputs"),
        ("run_super_layer", "simulator"),
        ("reference_phase_result", "reference"),
        ("super_traffic", "traffic"),
    ):
        tracer.install(pkg.verify, attr, layer)
    for attr in ("cycle_count", "sram_budget"):
        tracer.install(pkg.archmodel, attr, "archmodel")


def pass_seconds(samples: list[list[float]]) -> float:
    """Seconds for one pass: the sum over items of each item's median time,
    so a stall that hits one pass does not count."""
    return sum(statistics.median(per_item) for per_item in zip(*samples))


def setup_probe(name: str, seed: int) -> float:
    """Seconds a fresh interpreter spends importing the package and parsing
    the workload (see setup_probe.py)."""
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)]
    done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True,
                          cwd=ROOT)
    return float(done.stdout.split()[-1])


@dataclass
class Samples:
    plain: list = field(default_factory=list)  # per untraced pass: seconds per item
    traced: list = field(default_factory=list)  # per traced pass: seconds per item
    snapshots: list = field(default_factory=list)  # per traced pass: tracer totals
    setup: list = field(default_factory=list)  # set-up probe seconds
    outcomes: list = field(default_factory=list)  # per pass, traced or not: item outcomes


def measure(args, pkg, hw, items, tracer: Tracer | None) -> Samples:
    """Rounds of one set-up probe, an untraced pass and, when tracing, a
    traced pass, while another round fits in --seconds. The probes do not
    count against --seconds."""
    runs = Samples()
    spent = 0.0
    while True:
        runs.setup.append(setup_probe(args.workload, args.seed))
        lap = time.perf_counter()
        seconds, outcomes = run_pass(pkg, hw, items)
        runs.plain.append(seconds)
        runs.outcomes.append(outcomes)
        if tracer is not None:
            install(tracer, pkg)
            try:
                seconds, outcomes = run_pass(pkg, hw, items, tracer)
            finally:
                tracer.remove()
            runs.traced.append(seconds)
            runs.outcomes.append(outcomes)
            runs.snapshots.append({**tracer.busy, "calls.simulator": tracer.calls["simulator"],
                                   "sim_ops": tracer.sim_ops})
            tracer.reset()
        lap = time.perf_counter() - lap
        spent += lap
        if spent + lap > args.seconds:
            break
    while len(runs.setup) < SETUP_SAMPLES:
        runs.setup.append(setup_probe(args.workload, args.seed))
    return runs


def layer_metrics(snapshots: list[dict], outcomes: list[Outcome], parse_s: float,
                  overhead: float) -> dict:
    def med(key):
        return statistics.median(s.get(key, 0.0) for s in snapshots)

    errs = [o.ref_err for o in outcomes if o.ref_err is not None]
    sim_busy = med("simulator")
    m = {
        "verify.inputs_s": (med("verify.inputs"), "s"),
        "verify.model_mismatches": (sum(o.model_match is False for o in outcomes), "count"),
        "verify.ref_over_bound": (sum(o.over_bound for o in outcomes), "count"),
        "simulator.busy_s": (sim_busy, "s"),
        "simulator.calls": (med("calls.simulator"), "count"),
        "simulator.gop_per_s": (med("sim_ops") / sim_busy / 1e9 if sim_busy else 0.0, "Gop/s"),
        "simulator.sim_bytes": (sum(o.sim_bytes for o in outcomes), "B"),
        "simulator.sim_cycles": (sum(o.sim_cycles for o in outcomes), "cycles"),
        "reference.busy_s": (med("reference"), "s"),
        "reference.max_rel_err": (max(errs, default=0.0), "ratio"),
        "specs.parse_s": (parse_s, "s"),
        "traffic.busy_s": (med("traffic"), "s"),
        "archmodel.busy_s": (med("archmodel"), "s"),
        "archmodel.cycle_mismatches": (sum(o.cycle_match is False for o in outcomes), "count"),
        "archmodel.sram_mismatches": (sum(o.sram_match is False for o in outcomes), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    for layer in ("simulator", "reference"):
        for key in ("fp", "dp", "ku", *ALEXNET_PAIRS):
            m[f"{layer}.{key}.busy_s"] = (med(f"{layer}.{key}"), "s")
    return m


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context(args, passes: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    pkg = import_package()

    workload = workloads.build(args.workload, args.seed)
    start = time.perf_counter()
    hw, items = prepare(pkg, workload)
    parse_s = time.perf_counter() - start

    tracer = Tracer() if args.trace else None
    runs = measure(args, pkg, hw, items, tracer)

    outcomes = runs.outcomes[0]
    repeatable = all(o == outcomes for o in runs.outcomes[1:])
    if not repeatable:
        print("error: item outcomes differ between passes", file=sys.stderr)
    failed = sum(o.failed for o in outcomes)
    for item, o in zip(workload.items, outcomes):
        if o.error:
            print(f"item {item}: {o.error}", file=sys.stderr)
    # Failed checks are counted in `failed`; `correct` says whether every item
    # produced an outcome and the outcomes can be trusted to repeat.
    correct = repeatable and not any(o.error for o in outcomes)

    if tracer is None:
        metrics = {
            "pass_s": (pass_seconds(runs.plain), "s"),
            "setup_s": (statistics.median(runs.setup), "s"),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                            "MB"),
            "pass_ratio": ((len(outcomes) - failed) / len(outcomes), "ratio"),
        }
    else:
        overhead = pass_seconds(runs.traced) / pass_seconds(runs.plain)
        metrics = layer_metrics(runs.snapshots, outcomes, parse_s, overhead)

    print(json.dumps({"context": run_context(args, len(runs.plain))}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
