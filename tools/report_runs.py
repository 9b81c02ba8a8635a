"""Fingerprint every CLI report of a fixed command matrix, one JSON line per command.

    python3 tools/report_runs.py ROOT > reports.jsonl

ROOT is a checkout whose src/convtraffic is imported; `cli.main` runs
in-process once per command. Each line holds the argv, the exit code and
the sha256 of stdout and of stderr. The matrix covers `compare all`, `analyze`
for every phase with ten strategy sets (the six prefixes and the non-prefix
sets 2, 4, 1,4 and 2,4), `simulate` with
both checks on alexnet at batch 1 and on toy2 at batch 3, `simulate` on
alexnet at batch 2 with the model check alone and with no check, `roofline`,
`gradcheck`, and the front-door errors of `simulate --layer`, an empty
`roofline --dram` and a non-finite `gradcheck --epsilon`. `diff` of two
outputs is the "same outputs" evidence for a change to the reports.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

PHASES = ("fp", "dp", "ku")
STRATEGY_SETS = ("none", "1", "1-2", "1-3", "1-4", "all", "2", "4", "1,4", "2,4")


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


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue())}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("root", type=Path)
    args = p.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from convtraffic import cli

    for command in commands():
        print(json.dumps(run(cli.main, command)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
