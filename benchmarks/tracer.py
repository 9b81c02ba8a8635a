"""Per-layer timing for the traced run.

The package is timed from outside: `install` swaps a module attribute for a
wrapper that records how long each call took, and `remove` puts the
originals back. `verify.simulate_layer` looks its helpers up in its own
module namespace, so wrapping them there catches every call it makes.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.busy: Counter = Counter()  # seconds per layer, phase and (layer, phase) key
        self.calls: Counter = Counter()
        self.sim_ops = 0  # conv ops of every simulator call, as the simulator reports them
        self.item: tuple[str, str] | None = None  # (label, phase) of the item in progress
        self._saved: list = []

    def install(self, module, attr: str, layer: str) -> None:
        fn = getattr(module, attr)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._record(layer, time.perf_counter() - start)
            if layer == "simulator":
                self.sim_ops += result.traffic.conv_ops
            return result

        self._saved.append((module, attr, fn))
        setattr(module, attr, timed)

    def remove(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def reset(self) -> None:
        self.busy.clear()
        self.calls.clear()
        self.sim_ops = 0

    def _record(self, layer: str, seconds: float) -> None:
        self.busy[layer] += seconds
        self.calls[layer] += 1
        if self.item is not None:
            label, phase = self.item
            self.busy[f"{layer}.{phase}"] += seconds
            self.busy[f"{layer}.{label}"] += seconds
