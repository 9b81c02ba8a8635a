"""Built-in network and hardware presets plus embedded reference values.

The reference values are the published measurements and model figures the
comparison command reproduces; each carries a provenance note naming the
table or figure it came from.
"""

from __future__ import annotations

from dataclasses import replace

from .archmodel import HwConfig
from .specs import ConvSpec, NetworkSpec, PoolSpec, SuperLayerSpec


def alexnet() -> NetworkSpec:
    """The five conv super layers of AlexNet, batch 128.

    Map counts are per group; layers 2, 4 and 5 run two groups side by
    side. Layer 1 keeps the published 224x224 input; its stride-4 window
    grid uses the floor convention (55x55 output).
    """
    layers = (
        SuperLayerSpec(ConvSpec(3, 96, 11, stride=4, pad=2), 224, 224, True, PoolSpec(3, 2)),
        SuperLayerSpec(ConvSpec(48, 128, 5, stride=1, pad=2), 27, 27, True, PoolSpec(3, 2)),
        SuperLayerSpec(ConvSpec(256, 384, 3, stride=1, pad=1), 13, 13, True, None),
        SuperLayerSpec(ConvSpec(192, 192, 3, stride=1, pad=1), 13, 13, True, None),
        SuperLayerSpec(ConvSpec(192, 128, 3, stride=1, pad=1), 13, 13, True, PoolSpec(3, 2)),
    )
    return NetworkSpec(name="alexnet", batch=128, layers=layers, groups=(1, 2, 1, 2, 2))


def toy2() -> NetworkSpec:
    """Small two-super-layer network used by gradient checking."""
    layers = (
        SuperLayerSpec(ConvSpec(2, 3, 3, stride=1, pad=1), 8, 8, True, PoolSpec(2, 2)),
        SuperLayerSpec(ConvSpec(3, 2, 3, stride=1, pad=1), 4, 4, True, None),
    )
    return NetworkSpec(name="toy2", batch=1, layers=layers, groups=(1, 1))


def paper_hw() -> HwConfig:
    """The measured board configuration: 16 CUs at 137 MHz, 11.4 MB
    bitstreams over a 16-bit bus at 66 MHz, and a 19.2 GB/s DRAM cap.
    Map/kernel limits cover the largest geometry of all five layers in every
    phase (delta propagation swaps map roles)."""
    return HwConfig(
        num_cu=16,
        word_bytes=4,
        clock_hz=137e6,
        bitstream_bytes=11_400_000,
        cfg_bus_bytes_per_cycle=2,
        cfg_clock_hz=66e6,
        dram_bytes_per_s=19.2e9,
        max_n=384,
        max_m=384,
        max_k=11,
    )


def shared_345_hw() -> HwConfig:
    """The single design sized for layers 3-5 (256x384 maps, 48 CUs), reused
    across those layers without reloading a bitstream."""
    return replace(paper_hw(), num_cu=48, max_n=256, max_m=384, max_k=3)


NETWORK_PRESETS = {"alexnet": alexnet, "toy2": toy2}
HW_PRESETS = {"paper": paper_hw, "shared345": shared_345_hw}


# ---------------------------------------------------------------------------
# Published reference values reproduced by `convtraffic compare`.
# ---------------------------------------------------------------------------

# Layer-2 storage and traffic figures (single-group view), Table 1.
TABLE1 = {
    "conv input storage B": 17.9e6,
    "conv output storage B": 47.8e6,
    "pool output storage B": 11.0e6,
    "kernel storage B": 614.4e3,
    "conv input traffic B (no strategies)": 114.7e9,
    "conv output traffic B (no strategies)": 2.3e9,
    "act stage traffic B": 95.6e6,
    "pool stage traffic B": 110.7e6,
}

# Normalized bandwidth after each cumulative strategy prefix on layer 2.
CASCADE = {
    "s1": 2085.0,
    "s1-s2": 96.1,
    "s1-s3": 17.3,
    "s1-s5": 1.01,
}

# Fig. 6: total layer-2 traffic reduction, all strategies vs none.
FIG6_REDUCTION = 3976.0

# Table 3: per-layer normalized bandwidth (MB/GFlop) and op counts (Gop).
TABLE3_FP = (4.18, 1.01, 1.45, 2.31, 1.98)
TABLE3_DP = (None, 4.25, 3.37, 2.31, 2.89)
TABLE3_KU = (8.36, 2.29, 1.45, 2.31, 2.89)
TABLE3_TOTALS = {"fp": 1.94, "dp": 3.45, "ku": 3.92}
TABLE3_OPS_G = (27.01, 57.34, 38.27, 28.74, 19.14)
TABLE3_OPS_TOTAL_G = 170.50
# Total of Table 3's 16-bit comparison column (embedded constant, not modeled).
TABLE3_EYERISS_TOTAL = 4.31

# Fig. 14 roofline points at the 19.2 GB/s DRAM cap.
FIG14 = {
    "attainable at 1.94 MB/GFlop (flops/s)": 9.90e12,
    "attainable at 3.57 MB/Gop (flops/s)": 5.37e12,
}

# Reconfiguration metrics: bitstream transfer time and wall-time share
# given the measured 0.7 s layer-2 compute time.
RECONFIG_CFG_SECONDS = 0.087
RECONFIG_OVERHEAD = 0.11
RECONFIG_COMPUTE_SECONDS = 0.7  # measured constant, not derived

# Logic-level reconfiguration efficiency of layers 3-5 on the shared design.
EFFICIENCY_NAIVE = (1.0, 0.375, 0.25)
EFFICIENCY_CONTROLLED_MULTISET = (1.0, 1.0, 0.889)

# Reported absolute throughputs: the base board's (Table 4) holds the peak
# model to 10 %, the extended board's (Fig. 13) enters the abstract's ratio.
REPORTED_THROUGHPUT_FLOPS = 113e9
REPORTED_THROUGHPUT_EXTENDED_FLOPS = 1244e9

# The abstract's relative claims: forward-propagation bandwidth 55 % lower
# than the 16-bit comparison column's total, and extended-board throughput
# 5.48 times that of the mobile coprocessor in PRIOR_WORKS.
ABSTRACT_BW_REDUCTION = 0.55
ABSTRACT_THROUGHPUT_RATIO = 5.48

# Prior-work normalized bandwidths (MB/Gop) and throughputs for the
# roofline ordering check, Table 4.
PRIOR_WORKS = (
    ("FPGA 2015 design", 25.15, 61.62e9),
    ("dataflow processor", 24.7, 160e9),
    ("mobile coprocessor", 20.0, 227e9),
    ("memory-centric design", 3.57, 42e9),
)
