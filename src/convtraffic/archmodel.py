"""Hardware budget, cycle, efficiency, reconfiguration and roofline formulas."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .specs import ConvSpec, SuperLayerSpec


@dataclass(frozen=True)
class HwConfig:
    """Static parameters of one hardware configuration."""

    num_cu: int
    word_bytes: int
    clock_hz: float
    bitstream_bytes: int
    cfg_bus_bytes_per_cycle: int
    cfg_clock_hz: float
    dram_bytes_per_s: float
    max_n: int  # largest supported input-map count
    max_m: int  # largest supported output-map count
    max_k: int  # largest supported kernel side

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name != "bitstream_bytes" and v <= 0:
                raise ConfigError(f"{f.name} must be positive, got {v}")
        if self.bitstream_bytes < 0:
            raise ConfigError(f"bitstream_bytes must be non-negative, got {self.bitstream_bytes}")

    def check_kernel_side(self, k: int) -> None:
        """Raise ConfigError unless a k x k window fits the window registers."""
        if k < 1:
            raise ConfigError(f"kernel side must be positive, got {k}")
        if k > self.max_k:
            raise ConfigError(
                f"kernel side {k} exceeds the window-register budget (max_k={self.max_k})"
            )

    def check_fits(self, conv: ConvSpec) -> None:
        """Raise ConfigError naming the budget and the limit a conv stage exceeds."""
        self.check_kernel_side(conv.k)
        if conv.n > self.max_n:
            raise ConfigError(
                f"{conv.n} input maps exceed the index-range budget (max_n={self.max_n})"
            )
        if conv.m > self.max_m:
            raise ConfigError(
                f"{conv.m} output maps exceed the accumulator budget (max_m={self.max_m})"
            )


@dataclass(frozen=True)
class BudgetReport:
    """On-chip storage a layer occupies on a given configuration."""

    kernel_sram_bytes: int
    line_buffer_bytes: int
    window_register_bits: int  # 32*k^2 per computational unit
    accumulator_bits: int  # 32*m


@dataclass(frozen=True)
class EfficiencyReport:
    """Share of computational-unit slots doing useful work.

    The two figures use different denominators by design: the naive one is
    a pure map-count ratio, the controlled one includes CU wave rounding.
    A layer that exactly fills the design can therefore show a controlled
    figure below the naive 100%.
    """

    naive_efficiency: float  # undersized layers padded with zero maps
    controlled_efficiency: float  # index-range registers skip invalid maps


@dataclass(frozen=True)
class ReconfigReport:
    cfg_seconds: float
    compute_seconds: float

    @property
    def overhead_fraction(self) -> float:
        total = self.cfg_seconds + self.compute_seconds
        return self.cfg_seconds / total if total > 0 else 0.0


def peak_throughput(hw: HwConfig, k: int) -> float:
    """Flops per second with every CU busy: k^2 multipliers plus a
    (k^2 - 1)-adder tree per unit, one filter per cycle."""
    hw.check_kernel_side(k)
    return hw.num_cu * (2 * k * k - 1) * hw.clock_hz


def cycle_count(layer: SuperLayerSpec, hw: HwConfig, batch: int) -> int:
    """Cycles for the conv stage of one group: every output position sweeps
    all input maps in ceil(n/num_cu) waves for each of the m outputs."""
    conv = layer.conv
    hw.check_fits(conv)
    ho, wo = layer.conv_out_dims()
    return ho * wo * conv.m * math.ceil(conv.n / hw.num_cu) * batch


def logic_efficiency(layer: SuperLayerSpec, hw: HwConfig) -> EfficiencyReport:
    """CU efficiency running an undersized layer on a fixed design.

    The naive figure zero-pads the layer up to (max_n, max_m); the
    controlled figure gates invalid maps with index-range registers so the
    only waste left is the ceil over CU waves.
    """
    conv = layer.conv
    hw.check_fits(conv)
    naive = (conv.n * conv.m) / (hw.max_n * hw.max_m)
    waves = math.ceil(conv.n / hw.num_cu)
    controlled = conv.n / (waves * hw.num_cu)
    return EfficiencyReport(naive_efficiency=naive, controlled_efficiency=controlled)


def sram_budget(layer: SuperLayerSpec, hw: HwConfig) -> BudgetReport:
    """On-chip footprint of one layer group: kernel store, k-row line
    buffers across all input maps, the shared window register per CU and
    the m-output accumulator bank."""
    conv = layer.conv
    hw.check_fits(conv)
    return BudgetReport(
        kernel_sram_bytes=conv.n * conv.m * conv.k**2 * hw.word_bytes,
        line_buffer_bytes=conv.n * conv.k * layer.input_w * hw.word_bytes,
        window_register_bits=32 * conv.k**2 * hw.num_cu,
        accumulator_bits=32 * conv.m,
    )


def reconfig_overhead(hw: HwConfig, compute_seconds: float) -> ReconfigReport:
    """Time to stream one bitstream over the configuration bus, and the
    share of wall time it adds on top of the given compute time."""
    cfg_seconds = hw.bitstream_bytes / (hw.cfg_bus_bytes_per_cycle * hw.cfg_clock_hz)
    return ReconfigReport(cfg_seconds=cfg_seconds, compute_seconds=compute_seconds)


def roofline_attainable(
    normalized_bw: float, dram_bytes_per_s: float, peak_flops_per_s: float = math.inf
) -> float:
    """Attainable throughput under a DRAM cap: min(compute peak,
    bandwidth / bytes-per-flop) with normalized_bw in MB/GFlop."""
    if normalized_bw <= 0:
        raise ConfigError(f"normalized_bw must be positive, got {normalized_bw}")
    bytes_per_flop = normalized_bw * 1e6 / 1e9
    return min(peak_flops_per_s, dram_bytes_per_s / bytes_per_flop)
