import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from convtraffic import presets
from convtraffic.simulator import plan_phase
from convtraffic.specs import ConvSpec, NetworkSpec, PoolSpec, SuperLayerSpec


@pytest.fixture(scope="session")
def alexnet():
    return presets.alexnet()


@pytest.fixture(scope="session")
def paper_hw():
    return presets.paper_hw()


@pytest.fixture(scope="session")
def bench_workloads():
    """benchmarks/workloads.py, loaded read-only under a module name of its own."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def layer_plan(layer, phase, hw, prev=None, groups=1):
    """plan_phase for one standalone layer, after prev when given."""
    layers = (layer,) if prev is None else (prev, layer)
    net = NetworkSpec("plan", 1, layers, (groups,) * len(layers))
    return plan_phase(net, len(layers) - 1, phase, hw)


def brute_conv(x, ker, spec):
    """Independent quadruple-loop conv oracle, 64-bit accumulation."""
    n, m, k, s, pad = spec.n, spec.m, spec.k, spec.stride, spec.pad
    h, w = x.shape[1], x.shape[2]
    ho = (h + 2 * pad - k) // s + 1
    wo = (w + 2 * pad - k) // s + 1
    y = np.zeros((m, ho, wo), dtype=np.float64)
    for j in range(m):
        for r in range(ho):
            for c in range(wo):
                acc = 0.0
                for i in range(n):
                    for u in range(k):
                        for v in range(k):
                            yy = r * s + u - pad
                            xx = c * s + v - pad
                            if 0 <= yy < h and 0 <= xx < w:
                                acc += float(x[i, yy, xx]) * float(ker[i, j, u, v])
                y[j, r, c] = acc
    return y


def brute_pool(x, p, s):
    """Independent average-pooling oracle."""
    maps, h, w = x.shape
    ph = (h - p) // s + 1
    pw = (w - p) // s + 1
    y = np.zeros((maps, ph, pw), dtype=np.float64)
    for i in range(maps):
        for r in range(ph):
            for c in range(pw):
                acc = 0.0
                for u in range(p):
                    for v in range(p):
                        acc += float(x[i, r * s + u, c * s + v])
                y[i, r, c] = acc / (p * p)
    return y


def random_toy_cases(seed, count):
    """Seeded stream of small (net, index, phases) simulator test cases.

    Two-layer nets exercise all three phases on the second layer;
    stride-2 single layers exercise forward and kernel updating only.
    """
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        if rng.integers(0, 4) == 0:
            # stride-2 standalone layer
            k = int(rng.integers(2, 4))
            conv = ConvSpec(
                n=int(rng.integers(1, 4)),
                m=int(rng.integers(1, 4)),
                k=k,
                stride=2,
                pad=int(rng.integers(0, k)),
            )
            h = int(rng.integers(k + 2, 9))
            layer = SuperLayerSpec(conv, h, h, has_act=bool(rng.integers(0, 2)), pool=None)
            net = NetworkSpec("toy", 1, (layer,), (1,))
            cases.append((net, 0, ("fp", "ku")))
            continue
        k = int(rng.integers(1, 4))
        n_b = int(rng.integers(1, 4))
        m_b = int(rng.integers(1, 4))
        pad = int(rng.integers(0, k))
        h_b = int(rng.integers(max(k, 2), 8))
        conv_b = ConvSpec(n_b, m_b, k, stride=1, pad=pad)
        conv_out_h = conv_b.out_dims(h_b, h_b)[0]
        if rng.integers(0, 2):
            p = int(rng.integers(1, 3))
            ps = int(rng.integers(1, p + 1))
            prev_pool = PoolSpec(p, ps)
            prev_out_h = (h_b - 1) * ps + p
        else:
            prev_pool = None
            prev_out_h = h_b
        prev_conv = ConvSpec(1, n_b, 1)
        prev = SuperLayerSpec(
            prev_conv, prev_out_h, prev_out_h,
            has_act=bool(rng.integers(0, 2)), pool=prev_pool,
        )
        layer_b = SuperLayerSpec(
            conv_b, h_b, h_b, has_act=bool(rng.integers(0, 2)),
            pool=PoolSpec(2, 2) if (rng.integers(0, 2) and conv_out_h >= 2) else None,
        )
        net = NetworkSpec("toy", 1, (prev, layer_b), (1, 1))
        cases.append((net, 1, ("fp", "dp", "ku")))
    return cases
