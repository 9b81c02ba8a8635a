"""Fingerprint what a checkout computes, one JSON line per benchmark item or CLI command.

    python3 tools/fingerprint.py runs ROOT WORKLOAD SEED [SEED ...] > runs.jsonl
    python3 tools/fingerprint.py reports ROOT > reports.jsonl
    python3 tools/fingerprint.py moved PARENT.jsonl CHANGE.jsonl

ROOT is a checkout whose src/convtraffic is imported; BLAS runs on one thread.

`runs` takes the item list from this checkout's benchmarks/workloads.py, so
two checkouts are hashed over the same items. Each line holds the item, a
digest of the functional results (outputs, pre_act, grad, with shapes) and
one of the counters (traffic, cycles, SRAM, register bits, traces) over
every image of the item, plus its total bytes, cycles, model match and
reference error.

`reports` runs `cli.main` in-process once per command of a fixed matrix.
Each line holds the argv, the exit code and the digest of stdout and of
stderr. The matrix covers `compare all`, `analyze` for every phase with ten
strategy sets (the six prefixes and the non-prefix sets 2, 4, 1,4 and 2,4),
`simulate` with both checks on alexnet at batch 1 and on toy2 at batch 3,
`simulate` on alexnet at batch 2 with the model check alone and with no
check, `roofline`, `gradcheck`, and the front-door errors of `simulate
--layer`, an empty `roofline --dram` and a non-finite `gradcheck --epsilon`.

`diff` of two checkouts' outputs is the "same outputs" evidence for a change.
`moved` reads two `runs` files over the same items and prints, for each
phase and field, how many lines differ, as `PHASE FIELD COUNT`, in phase and
field order; it prints nothing when the files agree, and exits 1 when their
item lists differ. A change that moves outputs on purpose shows there which
ones moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import workloads  # noqa: E402

PHASES = ("fp", "dp", "ku")
ITEM_KEYS = ("seed", "item", "net", "label", "strategies", "k")  # what names a `runs` line
STRATEGY_SETS = ("none", "1", "1-2", "1-3", "1-4", "all", "2", "4", "1,4", "2,4")


def digest(parts) -> str:
    """sha256 hex digest of the parts in order: bytes as they are, anything
    else as its repr."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _array_parts(a):
    if a is None:
        return ["none"]
    return [a.shape, str(a.dtype), a.tobytes()]


def _counter_parts(r):
    t = r.traffic
    trace = [sorted(c.items()) if c is not None else None for c in (r.read_trace, r.write_trace)]
    return [t.input_bytes, t.output_bytes, t.kernel_bytes, r.cycles, r.sram_bytes,
            r.register_bits, trace]


def runs(workload: str, seeds: list[int]) -> None:
    from convtraffic import presets, specs, verify
    from convtraffic.traffic import Phase, StrategySet

    results = []
    inner = verify.run_super_layer

    def recording(*a, **kw):
        result = inner(*a, **kw)
        results.append(result)
        return result

    verify.run_super_layer = recording
    hw = presets.paper_hw()
    for seed in seeds:
        build = workloads.build(workload, seed)
        nets = [specs.network_from_dict(doc) for doc in build.docs]
        for index, item in enumerate(build.items):
            results.clear()
            check = verify.simulate_layer(
                nets[item.net], item.layer, Phase(item.phase), StrategySet.parse(item.strategies),
                hw, seed=item.seed, batch=item.batch, compute=item.compute,
                check_model=True, check_reference=item.compute,
            )
            print(json.dumps({
                "seed": seed, "item": index, "net": item.net, "label": item.label,
                "strategies": item.strategies,
                "k": nets[item.net].layers[item.layer].conv.k,
                "results": digest(part for r in results for a in (r.outputs, r.pre_act, r.grad)
                                  for part in _array_parts(a))[:16],
                "counters": digest(part for r in results for part in _counter_parts(r))[:16],
                "bytes": check.sim_traffic.total_bytes, "cycles": check.cycles,
                "model_match": check.model_match, "ref_err": check.reference_error,
            }))


def moved(parent: Path, change: Path) -> int:
    """Print how many lines of two `runs` files differ, per phase and field."""
    old, new = ([json.loads(line) for line in path.read_text().splitlines()]
                for path in (parent, change))
    items = [[[line[key] for key in ITEM_KEYS] for line in lines] for lines in (old, new)]
    if items[0] != items[1]:
        print(f"error: {parent} and {change} do not hold the same items", file=sys.stderr)
        return 1
    # compared as JSON text, so a NaN error equals itself
    counts = Counter((a["label"].split(".")[1], name) for a, b in zip(old, new)
                     for name in a if json.dumps(a[name]) != json.dumps(b[name]))
    for phase in PHASES:
        for name in old[0] if old else ():
            if counts[phase, name]:
                print(phase, name, counts[phase, name])
    return 0


def commands() -> list[list[str]]:
    matrix = [["compare", "all", "--format", "json"]]
    for phase in PHASES:
        for strategies in STRATEGY_SETS:
            matrix.append(["analyze", "--phase", phase, "--strategies", strategies,
                           "--format", "json"])
    for net, batch in (("alexnet", "1"), ("toy2", "3")):
        for phase in PHASES:
            matrix.append(["simulate", "--net", net, "--phase", phase, "--batch", batch,
                           "--check-against-model", "--check-against-reference",
                           "--format", "json"])
    for checks in (["--check-against-model"], []):  # runs that compute no outputs
        for phase in PHASES:
            matrix.append(["simulate", "--net", "alexnet", "--phase", phase, "--batch", "2",
                           *checks, "--format", "json"])
    for phase in PHASES:
        matrix.append(["roofline", "--phase", phase, "--dram", "19.2,25.6", "--format", "json"])
    matrix.append(["gradcheck", "--seed", "7", "--format", "json"])
    for layer in ("1", "0", "6"):
        matrix.append(["simulate", "--phase", "dp", "--layer", layer])
    matrix.append(["roofline", "--dram", ","])
    matrix.append(["gradcheck", "--epsilon", "nan"])
    return matrix


def report(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": digest([out.getvalue().encode()]),
            "stderr": digest([err.getvalue().encode()])}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="what", required=True)
    r = sub.add_parser("runs", help="every simulator run of a benchmark workload")
    r.add_argument("root", type=Path)
    r.add_argument("workload", choices=workloads.WORKLOADS)
    r.add_argument("seeds", nargs="+", type=int)
    r = sub.add_parser("reports", help="every CLI report of a fixed command matrix")
    r.add_argument("root", type=Path)
    r = sub.add_parser("moved", help="lines that differ between two `runs` files")
    r.add_argument("parent", type=Path)
    r.add_argument("change", type=Path)
    args = p.parse_args(argv)
    if args.what == "moved":
        return moved(args.parent, args.change)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(args.root.resolve() / "src"))
    if args.what == "runs":
        runs(args.workload, args.seeds)
    else:
        from convtraffic import cli

        for command in commands():
            print(json.dumps(report(cli.main, command)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
