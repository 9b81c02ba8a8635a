"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload alexnet-checked \\
        --pairs 10 --seconds 8 --seeds 1 2 3 90731

Each pair runs `benchmarks/run.py --trace 0` once in each checkout, from
that checkout's root and with the same seed; pair i starts with PARENT when
i is even and with CHANGE when it is odd, and the seeds cycle through
--seeds. Every run's result line goes to stderr as it finishes. Then, for
each end-to-end metric that this checkout's BENCHMARK.json declares, stdout
gets each side's median and quartiles, the change of the median relative
to PARENT's, how many pairs the change won (ties count for neither side),
and whether a gain may be claimed: the change won at least nine tenths of
the pairs and the medians differ, in the better direction, by more than
the distance between PARENT's quartiles. Each metric's line also says
whether the change's median stays within the metric's BENCHMARK.json
`bound`, taken relative to PARENT's median in the metric's worse direction.
A last line gives each side's median `passes`, from the run-context line:
`run.py` keeps every pass's outcomes, so a faster side makes more passes
and its `peak_rss_mb` rises by that retention, not by the package's own
memory; compare the two medians before reading a `peak_rss_mb` move.
Exit status 1 when a run fails or reports `correct: false`, or when any
metric is outside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in a checkout; returns its result line, with the
    run-context line before it under "context"."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} exited {done.returncode}: "
                         f"{done.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    result["context"] = json.loads(lines[-2])["context"]
    return result


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(metrics: list[dict], runs: dict[str, list[dict]]) -> tuple[list[str], list[str]]:
    """The table's lines, and the names of the metrics outside their bound."""
    pairs = len(runs["parent"])
    lines = [f"{'metric':12} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
             f"{'change':>8} {'wins':>6}  gain  bound"]
    outside = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        p1, pm, p3 = summary(values["parent"])
        c1, cm, c3 = summary(values["change"])
        wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        better = (pm - cm) if lower else (cm - pm)
        claimable = wins >= 0.9 * pairs and better > p3 - p1
        relative = (cm - pm) / pm if pm else float("nan")
        within = -better <= metric["bound"] * abs(pm)
        if not within:
            outside.append(name)
        lines.append(f"{name:12} {pm:>12.4g} [{p1:.4g}, {p3:.4g}]".ljust(43)
                     + f" {cm:>12.4g} [{c1:.4g}, {c3:.4g}]".ljust(31)
                     + f" {relative:>+8.1%} {wins:>3}/{pairs:<2}  {'yes' if claimable else 'no':4}"
                     + f" {'within' if within else 'OUTSIDE'} {metric['bound']:g}")
    return lines, outside


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = p.parse_args(argv)
    if args.pairs < 2 or args.seconds < 1 or min(args.seeds) < 0:
        p.error("--pairs must be >= 2, --seconds >= 1 and every seed >= 0")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "benchmarks" / "run.py").is_file():
            p.error(f"{root} has no benchmarks/run.py")
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    incorrect = 0
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = run_once(roots[side], args.workload, seed, args.seconds)
            runs[side].append(result)
            incorrect += not result["correct"]
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"pair {i} seed {seed} {side}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"passes={result['context']['passes']} {values}", file=sys.stderr)
    print(f"{args.workload}: {args.pairs} pairs, --seconds {args.seconds}, "
          f"seeds {' '.join(map(str, args.seeds))}")
    lines, outside = report(metrics, runs)
    print("\n".join(lines))
    print("passes (median): " + ", ".join(
        f"{side} {statistics.median(r['context']['passes'] for r in runs[side]):g}"
        for side in SIDES))
    if incorrect:
        print(f"error: {incorrect} run(s) reported correct: false", file=sys.stderr)
    if outside:
        print(f"error: outside the bound: {' '.join(outside)}", file=sys.stderr)
    return 1 if incorrect or outside else 0


if __name__ == "__main__":
    sys.exit(main())
