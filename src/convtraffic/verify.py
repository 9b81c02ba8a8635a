"""Cross-checks between the simulator, the traffic model and the reference math."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .archmodel import HwConfig, cycle_count
from .errors import ConfigError
from .reference import kernel_gradient, super_backward_delta, super_forward
from .simulator import PhasePlan, SimResult, plan_phase, run_super_layer
from .specs import CHUNK_BYTES, NetworkSpec
from .traffic import Phase, StrategySet, TrafficReport, super_traffic


# Float64 values per block of a draw or an error check, so a large tensor
# never has a whole-tensor float64 temporary
CHUNK_VALUES = CHUNK_BYTES // 8
REFERENCE_BOUND = 1e-5  # largest relative error the reference check passes


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Largest elementwise deviation scaled by the reference max magnitude.

    Checked in blocks of about CHUNK_VALUES values along the first axis, so
    no whole-array copy is made; np.maximum keeps a NaN from any block."""
    if a.shape != b.shape:
        raise ConfigError(f"shape mismatch {a.shape} vs {b.shape}")
    step = max(1, CHUNK_VALUES * len(a) // a.size)
    top = dev = 0.0
    for i in range(0, len(a), step):
        a_rows, b_rows = a[i:i + step], b[i:i + step]
        # np.maximum.reduce directly: np.max's wrapper costs more than the
        # reduction on the small arrays checked here
        diff = np.subtract(a_rows, b_rows, dtype=np.float64)
        top = np.maximum.reduce(np.abs(b_rows), axis=None, initial=top)
        dev = np.maximum.reduce(np.abs(diff, out=diff), axis=None, initial=dev)
    return float(dev) / max(float(top), 1e-30)


def _draw(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill out, a float32 array of any memory layout, with what
    rng.standard_normal(out.shape).astype(np.float32) holds, with the same
    generator state after, drawn in out's index order at most CHUNK_VALUES
    float64 values at a time."""
    if out.ndim > 1 and out[0].size > CHUNK_VALUES:
        for item in out:
            _draw(rng, item)
        return out
    step = CHUNK_VALUES // out[0].size
    for start in range(0, len(out), step):
        out[start:start + step] = rng.standard_normal(out[start:start + step].shape)
    return out


def random_phase_tensors(rng: np.random.Generator, plan: PhasePlan) -> dict:
    """Seeded single-group tensors for one image of the plan's layer and
    phase, drawn in this order: FP's and DP's kernels (n, m, k, k), straight
    into plan.kernel_layout, then each of plan.draws: the conv input x in the
    engine geometry, then DP's previous pre-activation or KU's delta. KU has
    no kernel operand (plan.kernel_layout is None), so it draws none."""
    tensors = {}
    if plan.kernel_layout is not None:
        shape, turn, axes = plan.kernel_layout
        tensors["kers"] = _draw(rng, np.empty(shape, np.float32)[turn].transpose(axes))
    for name, shape in plan.draws.items():
        tensors[name] = _draw(rng, np.empty(shape, np.float32))
    return tensors


def reference_phase_result(plan: PhasePlan, tensors: dict) -> np.ndarray:
    """What the reference math produces for the same tensors."""
    if plan.phase is Phase.FP:
        out, _ = super_forward(tensors["x"], tensors["kers"], plan.layer)
        return out
    if plan.phase is Phase.DP:
        return super_backward_delta(tensors["x"], tensors["kers"], plan.layer.conv,
                                    plan.prev_layer, tensors.get("prev_pre_act"))
    return kernel_gradient(tensors["x"], tensors["delta"], plan.layer.conv)


@dataclass
class LayerCheck:
    """Outcome of simulating one layer and checking it: one line per failed check in failures."""

    sim_traffic: TrafficReport
    cycles: int
    last_run: SimResult
    model_match: bool | None = None
    reference_error: float | None = None
    failures: list[str] = field(default_factory=list)


def simulate_layer(
    net: NetworkSpec,
    index: int,
    phase: Phase,
    strategies: StrategySet,
    hw: HwConfig,
    seed: int,
    batch: int = 1,
    compute: bool = True,
    check_model: bool = False,
    check_reference: bool = False,
) -> LayerCheck:
    """Run one layer for `batch` images and optionally check the bytes and
    cycles against the traffic and cycle models, and the outputs, which only
    compute produces, against the reference math within REFERENCE_BOUND.

    Streamed bytes and cycles add up over the images; the kernel preload is
    charged once per run, since the store keeps the kernels across images.
    """
    if check_reference and not compute:
        raise ConfigError("check_reference needs compute: without it there are no outputs to check")
    rng = np.random.default_rng(seed)
    # a batch below 1, a phase the layer does not have and a layer over hw's
    # budgets are rejected before anything is drawn; replace re-runs
    # NetworkSpec's checks, so it runs only for a batch other than the net's
    batch_net = net if batch == net.batch else replace(net, batch=batch)
    plan = plan_phase(net, index, phase, hw)

    sim_traffic = None
    cycles = 0
    reference_error = None
    for _ in range(batch):
        # drop the previous image's arrays before this image draws
        tensors = result = expected = got = None
        tensors = random_phase_tensors(rng, plan)
        result = run_super_layer(plan, strategies, tensors["x"] if compute else None,
                                 tensors.get("kers"), delta=tensors.get("delta"),
                                 prev_pre_act=tensors.get("prev_pre_act"))
        sim_traffic = result.traffic if sim_traffic is None else sim_traffic + result.traffic
        cycles += result.cycles
        if check_reference:
            expected = reference_phase_result(plan, tensors)
            got = result.grad if phase is Phase.KU else result.outputs
            err = max_relative_error(got, expected)
            # max() would drop a NaN met after a number; keep it instead
            if reference_error is None or err > reference_error or math.isnan(err):
                reference_error = err

    if batch > 1:  # the kernel preload is charged once, not once per image
        sim_traffic = replace(sim_traffic, kernel_bytes=result.traffic.kernel_bytes)
    check = LayerCheck(sim_traffic, cycles, result, reference_error=reference_error)
    if check_model:
        model = super_traffic(index, batch_net, phase, strategies, hw.word_bytes)
        pairs = [(name, getattr(sim_traffic, name), getattr(model, name))
                 for name in ("input_bytes", "output_bytes", "kernel_bytes")]
        pairs.append(("cycles", cycles, cycle_count(plan.engine, hw, batch) * plan.groups))
        mismatches = [f"{name}: simulator {got} vs model {want}"
                      for name, got, want in pairs if got != want]
        check.model_match = not mismatches
        check.failures += ["; ".join(mismatches)] if mismatches else []
    # written so that a NaN error fails too
    if reference_error is not None and not reference_error <= REFERENCE_BOUND:
        check.failures.append(
            f"max relative error {reference_error:.3g} exceeds {REFERENCE_BOUND:g}")
    return check
