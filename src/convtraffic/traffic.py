"""Closed-form external-memory traffic and operation-count model.

Byte counts use decimal SI units (1 MB = 1e6 B). One operation is one
multiply or one add, so a conv layer performs 2*k^2*n*m*H_out*W_out ops
per image per group. Normalized bandwidth is MB of external traffic per
GFlop of convolution work.

Accounting conventions (fixed so the published reference tables
reconstruct exactly; the simulator counts the same way):

* Without the line buffer, every multiply charges its streamed operands,
  including window taps that fall in the zero padding. With the line
  buffer, only real elements the schedule touches are streamed, once each.
* Every strategy set starts from one conv-stage count on the phase's
  geometry: delta propagation runs the transposed conv, kernel updating the
  forward conv. A partial strategy set reports that count alone.
* Fusion overrides three of its terms: the one-time kernel preload stays on
  chip; the output term becomes the super layer's own output maps (pooled
  maps in forward propagation, the previous layer's conv-output grid in
  delta propagation, nothing in kernel updating, whose gradients stay in
  the kernel store); and kernel updating adds one read of its delta. The
  activation-mask operand in delta propagation stays on chip as well.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from enum import Enum
from operator import add

from .errors import ConfigError
from .specs import ConvSpec, NetworkSpec, SuperLayerSpec

_COUNT_LIMIT = 2**63  # counters are promised to fit signed 64-bit


class Phase(str, Enum):
    """Training phase a traffic report refers to."""

    FP = "fp"  # forward propagation
    DP = "dp"  # delta propagation (undefined for the first super layer)
    KU = "ku"  # kernel updating


@dataclass(frozen=True)
class StrategySet:
    """The five traffic-reduction strategies, in cascade order."""

    kernels_on_chip: bool = False  # 1: kernels preloaded to on-chip store
    window_reuse: bool = False  # 2: one window feeds all co-located filters
    on_chip_accumulate: bool = False  # 3: partial sums never leave the chip
    line_buffer: bool = False  # 4: k input rows cached, one new word per shift
    fused_super_layer: bool = False  # 5: act+pool fused, maps cross DRAM once

    def __post_init__(self):
        if self.fused_super_layer and not (
            self.kernels_on_chip
            and self.window_reuse
            and self.on_chip_accumulate
            and self.line_buffer
        ):
            raise ConfigError("strategy 5 (fusion) requires strategies 1-4")

    @classmethod
    def none(cls) -> "StrategySet":
        return cls()

    @classmethod
    def all_on(cls) -> "StrategySet":
        return cls(True, True, True, True, True)

    @classmethod
    def first(cls, count: int) -> "StrategySet":
        """Cumulative prefix: first(3) enables strategies 1, 2 and 3."""
        flags = [i < count for i in range(5)]
        return cls(*flags)

    @classmethod
    def parse(cls, text: str) -> "StrategySet":
        """Parse CLI syntax: 'none', 'all', or digits like '1,2,4' / '1-3'."""
        text = text.strip().lower()
        if text in ("", "none", "0"):
            return cls.none()
        if text == "all":
            return cls.all_on()
        chosen: set[int] = set()
        for token in filter(None, (t.strip() for t in text.split(","))):
            bounds = [b.strip() for b in token.split("-", 1)]
            if not all(b.isdecimal() for b in bounds) or int(bounds[0]) > int(bounds[-1]):
                raise ConfigError(f"strategies must be 'none', 'all', '1,2,4' or '1-3', got '{text}'")
            chosen.update(range(int(bounds[0]), int(bounds[-1]) + 1))
        if not chosen <= {1, 2, 3, 4, 5}:
            raise ConfigError(f"strategies must be within 1-5, got '{text}'")
        flags = [i + 1 in chosen for i in range(5)]
        return cls(*flags)

    def label(self) -> str:
        chosen = [i + 1 for i, f in enumerate(astuple(self)) if f]
        return "+".join(f"s{i}" for i in chosen) if chosen else "none"


@dataclass(frozen=True)
class TrafficReport:
    """External traffic and work for one layer/phase (or a whole network)."""

    input_bytes: int = 0
    output_bytes: int = 0
    kernel_bytes: int = 0
    conv_ops: int = 0
    act_ops: int = 0
    pool_ops: int = 0

    # The field loops use vars(), not astuple()/asdict(): simulate_layer adds
    # one report per image, and those copy every field on each call.
    def __post_init__(self):
        for name, v in vars(self).items():
            if v < 0:
                raise ConfigError(f"{name} must be non-negative, got {v}")

    @property
    def total_bytes(self) -> int:
        return self.input_bytes + self.output_bytes + self.kernel_bytes

    @property
    def normalized_bw(self) -> float:
        """MB of traffic per GFlop of convolution work."""
        if self.conv_ops == 0:
            return 0.0
        return (self.total_bytes / 1e6) / (self.conv_ops / 1e9)

    def __add__(self, other: "TrafficReport") -> "TrafficReport":
        return TrafficReport(*map(add, vars(self).values(), vars(other).values()))

    def to_dict(self) -> dict:
        return {**vars(self), "total_bytes": self.total_bytes, "normalized_bw": self.normalized_bw}


def used_extent(size: int, k: int, stride: int, pad: int) -> int:
    """Real elements along one axis that the window schedule ever touches.

    Equal to size whenever the stride tiles the padded extent exactly,
    smaller when the floor in the output-dim formula drops trailing rows.
    """
    out = (size + 2 * pad - k) // stride + 1
    return min(size, (out - 1) * stride + k - pad)


def op_count(
    layer: SuperLayerSpec, batch: int, groups: int = 1, phase: Phase = Phase.FP
) -> tuple[int, int, int]:
    """(conv_ops, act_ops, pool_ops) for the layer, all ops 1 flop. The
    rectifier and pooling stages run in forward propagation only."""
    conv = layer.conv
    ho, wo = layer.conv_out_dims()
    conv_ops = 2 * conv.k * conv.k * conv.n * conv.m * ho * wo * batch * groups
    act_ops = conv.m * ho * wo * batch * groups if layer.has_act and phase is Phase.FP else 0
    pool_ops = 0
    if layer.pool is not None and phase is Phase.FP:
        ph, pw = layer.pool.out_dims(ho, wo)
        pool_ops = layer.pool.p * layer.pool.p * ph * pw * conv.m * batch * groups
    if conv_ops >= _COUNT_LIMIT:
        raise ConfigError(f"conv op count {conv_ops} overflows 64-bit counters")
    return conv_ops, act_ops, pool_ops


def act_pool_words(layer: SuperLayerSpec, batch: int, groups: int = 1) -> tuple[int, int]:
    """Unfused (rectifier, pooling) stage words: one read and one write per conv
    output; one read per window tap and one write per pooled element."""
    ho, wo = layer.conv_out_dims()
    maps = layer.conv.m * batch * groups
    act = 2 * ho * wo * maps if layer.has_act else 0
    pool = 0
    if layer.pool is not None:
        ph, pw = layer.pool.out_dims(ho, wo)
        pool = (layer.pool.p**2 + 1) * ph * pw * maps
    return act, pool


def _conv_stage_words(
    conv: ConvSpec, in_h: int, in_w: int, strategies: StrategySet, batch: int, groups: int
) -> tuple[int, int, int, int]:
    """(feature_in, kernel_stream, out, kernel_store) word counts for one conv."""
    n, m, k, s, pad = conv.n, conv.m, conv.k, conv.stride, conv.pad
    ho, wo = conv.out_dims(in_h, in_w)
    positions = ho * wo * batch * groups
    if strategies.line_buffer:
        rows = used_extent(in_h, k, s, pad)
        cols = used_extent(in_w, k, s, pad)
        feature = n * rows * cols * batch * groups  # each touched element once
    elif strategies.window_reuse:
        feature = n * k * k * positions  # one window fetch per input map
    else:
        feature = n * m * k * k * positions  # refetched for every filter
    kernel_stream = 0 if strategies.kernels_on_chip else n * m * k * k * positions
    out = (m if strategies.on_chip_accumulate else n * m) * positions
    kernel_store = n * m * k * k * groups if strategies.kernels_on_chip else 0
    return feature, kernel_stream, out, kernel_store


def conv_traffic(
    layer: SuperLayerSpec,
    strategies: StrategySet,
    batch: int,
    word_bytes: int,
    groups: int = 1,
    phase: Phase = Phase.FP,
) -> TrafficReport:
    """Traffic of the phase's conv stage alone under strategies 1-4 (fusion
    ignored), counted on phase_geometry; the ops are the layer's own."""
    geom = phase_geometry(layer, phase)
    feature, kernel_stream, out, kernel_store = _conv_stage_words(
        geom.conv, geom.input_h, geom.input_w, strategies, batch, groups
    )
    conv_ops, act_ops, pool_ops = op_count(layer, batch, groups, phase)
    return TrafficReport(
        input_bytes=(feature + kernel_stream) * word_bytes,
        output_bytes=out * word_bytes,
        kernel_bytes=kernel_store * word_bytes,
        conv_ops=conv_ops,
        act_ops=act_ops,
        pool_ops=pool_ops,
    )


def transpose_conv(conv: ConvSpec) -> ConvSpec:
    """The conv that delta propagation runs: map roles swapped, padding
    k-1-pad; the 180-degree kernel rotation does not change the geometry."""
    if conv.stride != 1:
        raise ConfigError(
            f"delta propagation supports stride 1 only, got stride {conv.stride}"
        )
    if conv.pad > conv.k - 1:
        raise ConfigError(f"pad {conv.pad} exceeds k-1={conv.k - 1}, transpose undefined")
    return ConvSpec(n=conv.m, m=conv.n, k=conv.k, stride=1, pad=conv.k - 1 - conv.pad)


def transpose_geometry(layer: SuperLayerSpec) -> SuperLayerSpec:
    """Super-layer geometry that delta propagation runs on: the transpose_conv
    over this layer's conv output grid, with no activation or pooling stage."""
    ho, wo = layer.conv_out_dims()
    return SuperLayerSpec(conv=transpose_conv(layer.conv), input_h=ho, input_w=wo,
                          has_act=False, pool=None)


def phase_geometry(layer: SuperLayerSpec, phase: Phase) -> SuperLayerSpec:
    """The super-layer geometry a phase's conv stage runs on."""
    return transpose_geometry(layer) if phase is Phase.DP else layer


def phase_layers(net: NetworkSpec, phase: Phase) -> range:
    """Indices of the super layers a phase is defined on: delta propagation
    has no first layer, since no delta flows back past the network input."""
    return range(1 if phase is Phase.DP else 0, len(net.layers))


def phase_layer(net: NetworkSpec, index: int, phase: Phase) -> SuperLayerSpec:
    """Super layer `index` of net, on which the phase must be defined."""
    layer = net.layers[index]
    if index not in phase_layers(net, phase):
        raise ConfigError("delta propagation is undefined for the first super layer")
    return layer


def super_traffic(
    index: int,
    net: NetworkSpec,
    phase: Phase,
    strategies: StrategySet,
    word_bytes: int,
) -> TrafficReport:
    """Traffic of one super layer for the given phase: the conv-stage count
    on the phase's geometry, with fusion's three overrides (module notes)."""
    layer = phase_layer(net, index, phase)
    batch, groups = net.batch, net.groups[index]
    report = conv_traffic(layer, strategies, batch, word_bytes, groups, phase)
    if not strategies.fused_super_layer:
        return report
    scale = batch * groups * word_bytes
    delta_read = 0
    if phase is Phase.FP:
        out = layer.conv.m * math.prod(layer.out_dims()) * scale
    elif phase is Phase.DP:
        out = layer.conv.n * math.prod(net.layers[index - 1].conv_out_dims()) * scale
    else:
        out = 0  # gradients accumulate in the kernel store
        delta_read = layer.conv.m * math.prod(layer.conv_out_dims()) * scale
    return replace(report, input_bytes=report.input_bytes + delta_read, output_bytes=out,
                   kernel_bytes=0)


def network_summary(
    net: NetworkSpec, phase: Phase, strategies: StrategySet, word_bytes: int
) -> TrafficReport:
    """Sum of the per-layer reports over the layers the phase is defined on."""
    total = TrafficReport()
    for index in phase_layers(net, phase):
        total = total + super_traffic(index, net, phase, strategies, word_bytes)
    return total


def reduction_factor(
    layer: SuperLayerSpec, word_bytes: int, batch: int, groups: int = 1
) -> float:
    """No-strategy traffic of the whole cascade over the fused traffic.

    The no-strategy numerator charges the conv stage per operand load and
    the unfused rectifier and pooling stages (act_pool_words). The fused
    denominator is the line buffer's input maps once, the one-time kernel
    preload, and the pooled output once.
    """
    if not layer.has_act or layer.pool is None:
        raise ConfigError("reduction factor is defined for layers with act and pool")
    base = conv_traffic(layer, StrategySet.none(), batch, word_bytes, groups).total_bytes
    numerator = base + sum(act_pool_words(layer, batch, groups)) * word_bytes
    fused = conv_traffic(layer, StrategySet.all_on(), batch, word_bytes, groups)
    pooled = layer.conv.m * math.prod(layer.out_dims()) * batch * groups * word_bytes
    return numerator / (fused.input_bytes + fused.kernel_bytes + pooled)
