"""Fingerprint every simulator run of a benchmark workload, one JSON line per item.

    python3 tools/hash_runs.py ROOT WORKLOAD SEED [SEED ...] > runs.jsonl

ROOT is a checkout whose src/convtraffic is imported; the item list comes
from this checkout's benchmarks/workloads.py, so two checkouts are hashed
over the same items. Each line holds the item, a hash of the functional
results (outputs, pre_act, grad, with shapes) and a hash of the counters
(traffic, cycles, SRAM, register bits, traces) over every image of the
item, plus its total bytes, cycles, model match and reference error.
`diff` of two outputs is the byte-identity evidence for a change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import workloads  # noqa: E402


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _array_parts(a):
    if a is None:
        return ["none"]
    return [a.shape, str(a.dtype), a.tobytes()]


def _counter_parts(r):
    t = r.traffic
    trace = [sorted(c.items()) if c is not None else None for c in (r.read_trace, r.write_trace)]
    return [t.input_bytes, t.output_bytes, t.kernel_bytes, r.cycles, r.sram_bytes,
            r.register_bits, trace]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("root", type=Path)
    p.add_argument("workload", choices=workloads.WORKLOADS)
    p.add_argument("seeds", nargs="+", type=int)
    args = p.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from convtraffic import presets, specs, verify
    from convtraffic.traffic import Phase, StrategySet

    runs = []
    inner = verify.run_super_layer

    def recording(*a, **kw):
        result = inner(*a, **kw)
        runs.append(result)
        return result

    verify.run_super_layer = recording
    hw = presets.paper_hw()
    for seed in args.seeds:
        workload = workloads.build(args.workload, seed)
        nets = [specs.network_from_dict(doc) for doc in workload.docs]
        for index, item in enumerate(workload.items):
            runs.clear()
            check = verify.simulate_layer(
                nets[item.net], item.layer, Phase(item.phase), StrategySet.parse(item.strategies),
                hw, seed=item.seed, batch=item.batch, compute=item.compute,
                check_model=True, check_reference=item.compute,
            )
            print(json.dumps({
                "seed": seed, "item": index, "net": item.net, "label": item.label,
                "strategies": item.strategies,
                "k": nets[item.net].layers[item.layer].conv.k,
                "results": _digest(part for r in runs for a in (r.outputs, r.pre_act, r.grad)
                                   for part in _array_parts(a)),
                "counters": _digest(part for r in runs for part in _counter_parts(r)),
                "bytes": check.sim_traffic.total_bytes, "cycles": check.cycles,
                "model_match": check.model_match, "ref_err": check.reference_error,
            }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
