"""The benchmark's workloads: network documents and the items checked per pass.

An item is one (layer, phase, strategy set) simulation with its checks. The
documents are plain JSON-style dicts in the README's network format, so the
package sees only what a user's file would give it. This module imports
neither numpy nor convtraffic: the set-up probe times those imports and must
start its clock before either is loaded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("alexnet-checked", "alexnet-counters", "random-nets")
PREFIXES = ("none", "1", "1-2", "1-3", "1-4", "all")

# The five conv super layers of AlexNet as a network file would state them.
ALEXNET = {
    "name": "alexnet",
    "batch": 128,
    "layers": [
        {"conv": {"n": 3, "m": 96, "k": 11, "stride": 4, "pad": 2},
         "input_h": 224, "input_w": 224, "act": True, "pool": {"p": 3, "stride": 2}},
        {"conv": {"n": 48, "m": 128, "k": 5, "stride": 1, "pad": 2},
         "act": True, "pool": {"p": 3, "stride": 2}, "groups": 2},
        {"conv": {"n": 256, "m": 384, "k": 3, "stride": 1, "pad": 1}, "act": True},
        {"conv": {"n": 192, "m": 192, "k": 3, "stride": 1, "pad": 1},
         "act": True, "groups": 2},
        {"conv": {"n": 192, "m": 128, "k": 3, "stride": 1, "pad": 1},
         "act": True, "pool": {"p": 3, "stride": 2}, "groups": 2},
    ],
}

# Nets per random-nets run. A multiple of 12, so every run holds each
# (batch, groups, first-layer pool) stratum equally often.
RANDOM_NETS = 48
# Accepted range of a net's estimated cost per image (see _cost), in
# microseconds, so that the work in a run barely depends on the seed.
COST_BAND = (27_000, 33_000)


@dataclass(frozen=True)
class Item:
    """One simulate-and-check call."""

    net: int  # index into Workload.docs
    layer: int  # zero-based super-layer index
    phase: str  # "fp", "dp" or "ku"
    strategies: str  # StrategySet.parse syntax
    batch: int
    compute: bool  # functional datapath on, and checked against the reference
    seed: int

    @property
    def label(self) -> str:
        return f"L{self.layer + 1}.{self.phase}"


@dataclass(frozen=True)
class Workload:
    docs: list
    items: list


def defined_phases(doc: dict, index: int) -> tuple[str, ...]:
    """Phases the package defines for one layer: delta propagation needs a
    previous layer and a stride-1 conv."""
    if index > 0 and doc["layers"][index]["conv"]["stride"] == 1:
        return ("fp", "dp", "ku")
    return ("fp", "ku")


def _items(docs, prefixes, batch_of, compute, seed) -> list:
    items = []
    for net, doc in enumerate(docs):
        for layer in range(len(doc["layers"])):
            for phase in defined_phases(doc, layer):
                for strategies in prefixes:
                    items.append(Item(net, layer, phase, strategies, batch_of(doc),
                                      compute, seed * 100_000 + len(items)))
    return items


def build(name: str, seed: int) -> Workload:
    if name == "alexnet-checked":
        docs = [ALEXNET]
        return Workload(docs, _items(docs, ("all",), lambda d: 1, True, seed))
    if name == "alexnet-counters":
        docs = [ALEXNET]
        return Workload(docs, _items(docs, PREFIXES, lambda d: 2, False, seed))
    if name == "random-nets":
        rng = random.Random(seed)
        docs = [random_net(rng, j) for j in range(RANDOM_NETS)]
        return Workload(docs, _items(docs, PREFIXES, lambda d: d["batch"], True, seed))
    raise ValueError(f"unknown workload {name!r}")


def _out(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _cost(doc: dict) -> int:
    """Estimated host microseconds to check one image of the net over every
    phase and all six prefixes: a fixed cost per call plus terms per output
    position, fitted on random nets. Delta propagation runs the transposed
    conv, whose output grid is the layer's input grid."""
    total = 0
    h, w = doc["layers"][0]["input_h"], doc["layers"][0]["input_w"]
    for index, layer in enumerate(doc["layers"]):
        c = layer["conv"]
        n, m, kk = c["n"], c["m"], c["k"] ** 2
        ho, wo = _out(h, c["k"], c["stride"], c["pad"]), _out(w, c["k"], c["stride"], c["pad"])
        total += 2000 + ho * wo * (105 + 9 * n + n * m * kk * 67 // 1000)
        total += 1700 + ho * wo * (41 + n * m * kk * 52 // 1000)
        if index:
            total += 3200 + h * w * (93 + 21 * m)
        h, w = ho, wo
        if layer.get("pool"):
            p = layer["pool"]
            h, w = _out(h, p["p"], p["stride"], 0), _out(w, p["p"], p["stride"], 0)
    return total


def _pool(rng: random.Random, h: int, w: int) -> dict:
    p = rng.randint(2, min(3, h, w))
    return {"p": p, "stride": rng.randint(1, p)}


def _draw_net(rng: random.Random, j: int) -> dict:
    batch = 1 + j % 3
    g1, g2 = ((1, 1), (2, 1), (1, 2), (2, 2))[j // 3 % 4]
    pool1 = j // 12 % 2 == 0

    # First layer: any stride up to k (delta propagation is undefined here).
    h, w = rng.randint(7, 18), rng.randint(7, 18)
    k1 = rng.randint(1, 5)
    c1 = {"n": rng.randint(1, 4), "m": rng.randint(1, 4) * g2, "k": k1,
          "stride": rng.randint(1, k1), "pad": rng.randint(0, k1 - 1)}
    h1, w1 = _out(h, k1, c1["stride"], c1["pad"]), _out(w, k1, c1["stride"], c1["pad"])
    first = {"conv": c1, "input_h": h, "input_w": w, "act": True, "groups": g1}
    if pool1 and min(h1, w1) >= 2:
        first["pool"] = _pool(rng, h1, w1)
        p = first["pool"]
        h1, w1 = _out(h1, p["p"], p["stride"], 0), _out(w1, p["p"], p["stride"], 0)

    # Second layer: stride 1, so every phase is defined and delta propagation
    # runs through the first layer's pool and rectifier.
    k2 = rng.randint(1, min(5, h1 + 1, w1 + 1))
    pad2 = rng.randint(max(0, k2 - min(h1, w1)), k2 - 1)
    c2 = {"n": g1 * c1["m"] // g2, "m": rng.randint(1, 4), "k": k2, "stride": 1, "pad": pad2}
    second = {"conv": c2, "act": True, "groups": g2}
    h2, w2 = _out(h1, k2, 1, pad2), _out(w1, k2, 1, pad2)
    if rng.random() < 0.5 and min(h2, w2) >= 2:
        second["pool"] = _pool(rng, h2, w2)
    return {"name": f"random-{j}", "batch": batch, "layers": [first, second]}


def random_net(rng: random.Random, j: int) -> dict:
    """The j-th net of the stream. Batch, group pattern and whether the first
    layer pools are fixed by j; shapes, strides, pads and map counts come from
    the seed, redrawn until the net's estimated cost falls in COST_BAND."""
    while True:
        doc = _draw_net(rng, j)
        if COST_BAND[0] <= _cost(doc) <= COST_BAND[1]:
            return doc
