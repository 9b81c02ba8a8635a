"""Write the benchmark record of the current checkout as one JSON file.

    python3 tools/bench_record.py BENCH_13.json

The record holds the wall time and peak RSS of the tier-1 suite, of
`compare all`, and of `simulate --net alexnet --strategies all` with both
checks for each phase, each one whole process with its exit code. Then, for
every AlexNet (layer, phase) pair, the median seconds over REPEATS
in-process runs of the simulator counting only, the simulator computing, and
the reference math alone, on seeded tensors drawn as `verify.simulate_layer`
draws them. Last, the `src/` line count and the run context, whose
`head_commit` is the checkout's HEAD: the record covers the working tree as
it is, and `src_differs_from_head` says whether `src/` has changes that HEAD
does not hold (staged, unstaged or untracked; null outside a git checkout),
so a record written before its commit names the parent and says true. The
AlexNet document and its defined phases come from
benchmarks/workloads.py, and the package import and thread settings from
benchmarks/run.py, both loaded read-only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
import run  # noqa: E402
import workloads  # noqa: E402

REPEATS = 3
SEED = 0


def timed_process(argv: list[str]) -> dict:
    """Wall seconds, peak RSS and exit code of one command run from the
    checkout root, with src/ on the import path. The peak is the child's own
    ru_maxrss (KiB on Linux), read from os.wait4 as the child is reaped."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    lines = stdout.strip().splitlines()
    record = {"seconds": seconds, "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
              "exit": child.returncode, "last_line": lines[-1] if lines else ""}
    if child.returncode not in (0, 1):
        raise SystemExit(f"error: {' '.join(argv)} exited {child.returncode}: "
                         f"{stderr.strip()[-500:]}")
    return record


def src_differs_from_head() -> bool | None:
    """Whether `git status` lists any change under src/; None without git."""
    try:
        done = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def median_seconds(call) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def layer_rows() -> list[dict]:
    """Counters-only, simulator-with-compute and reference-alone seconds
    for every AlexNet (layer, phase) pair, one image, all strategies."""
    import numpy as np
    from convtraffic import presets, specs, verify
    from convtraffic.simulator import plan_phase, run_super_layer
    from convtraffic.traffic import Phase, StrategySet

    net = specs.network_from_dict(workloads.ALEXNET)
    hw, strategies = presets.paper_hw(), StrategySet.parse("all")
    rows = []
    for index in range(len(net.layers)):
        for name in workloads.defined_phases(workloads.ALEXNET, index):
            plan = plan_phase(net, index, Phase(name), hw)
            tensors = verify.random_phase_tensors(np.random.default_rng(SEED), plan)

            def simulate(x):
                run_super_layer(plan, strategies, x, tensors.get("kers"),
                                delta=tensors.get("delta"),
                                prev_pre_act=tensors.get("prev_pre_act"))

            rows.append({
                "layer": index + 1,
                "phase": name,
                "counters_s": median_seconds(lambda: simulate(None)),
                "simulator_s": median_seconds(lambda: simulate(tensors["x"])),
                "reference_s": median_seconds(
                    lambda: verify.reference_phase_result(plan, tensors)),
            })
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", type=Path)
    args = p.parse_args(argv)
    for var in run.THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    run.import_package()
    import numpy as np

    cli = [sys.executable, "-m", "convtraffic.cli"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "context": {
            "head_commit": run.git_commit(),
            "src_differs_from_head": src_differs_from_head(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": run.BLAS_THREADS,
            "repeats": REPEATS,
            "seed": SEED,
        },
        "tier1": timed_process([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                "--continue-on-collection-errors"]),
        "compare_all": timed_process([*cli, "compare", "all", "--format", "csv"]),
        "simulate_alexnet": {
            phase: timed_process([*cli, "simulate", "--net", "alexnet", "--strategies", "all",
                                  "--phase", phase, "--check-against-model",
                                  "--check-against-reference"])
            for phase in ("fp", "dp", "ku")
        },
        "layers": layer_rows(),
        "src_lines": sum(len(f.read_bytes().splitlines()) for f in (ROOT / "src").rglob("*.py")),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
