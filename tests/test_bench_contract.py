"""The benchmark harness's contract with the package.

benchmarks/run.py reaches the package through names no other test imports:
`convtraffic.Phase`, the submodules as package attributes, and the helpers
its tracer wraps in `verify`'s namespace. A change that drops one of them
makes every benchmark item fail; these tests make it fail here instead. The
harness is loaded read-only, as tools/fingerprint.py loads its workloads.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # run.py imports its siblings
    monkeypatch.setattr(sys, "path", list(sys.path))  # import_package prepends src/
    spec = importlib.util.spec_from_file_location("benchmark_run", BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _one_item_per_phase(run, pkg):
    hw, items = run.prepare(pkg, run.workloads.build("random-nets", 1))
    firsts = {}
    for entry in items:
        firsts.setdefault(entry[3], entry)
    assert sorted(phase.value for phase in firsts) == ["dp", "fp", "ku"]
    return hw, list(firsts.values())


def test_check_item_on_every_phase(run):
    pkg = run.import_package()
    hw, items = _one_item_per_phase(run, pkg)
    for item, net, strategies, phase in items:
        outcome = run.check_item(pkg, hw, item, net, strategies, phase)
        assert outcome.error == "", item.label
        assert outcome.model_match is True, item.label
        assert outcome.cycle_match and outcome.sram_match, item.label


def test_tracer_wraps_existing_names(run):
    pkg = run.import_package()
    hw, items = _one_item_per_phase(run, pkg)
    tracer = run.Tracer()
    run.install(tracer, pkg)
    try:
        _, outcomes = run.run_pass(pkg, hw, items, tracer)
    finally:
        tracer.remove()
    assert [o.error for o in outcomes] == ["", "", ""]
    assert tracer.calls["simulator"] >= 3 and tracer.calls["reference"] == 3
    assert pkg.verify.run_super_layer is pkg.simulator.run_super_layer
