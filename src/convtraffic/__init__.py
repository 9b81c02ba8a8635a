"""Memory-traffic model and schedule simulator for a streaming CNN accelerator."""

from .archmodel import (
    BudgetReport,
    EfficiencyReport,
    HwConfig,
    ReconfigReport,
    cycle_count,
    logic_efficiency,
    peak_throughput,
    reconfig_overhead,
    roofline_attainable,
    sram_budget,
)
from .errors import ConfigError, GradcheckError, ShapeError
from .reference import (
    act_backward,
    act_forward,
    conv_backward_delta,
    conv_forward,
    finite_diff_gradient,
    kernel_gradient,
    kernel_update,
    pool_backward,
    pool_forward,
    super_backward_delta,
    super_forward,
)
from .simulator import (
    LineBuffer,
    SimResult,
    accumulate_row,
    kernel_matrix,
    pool_engine_schedule,
    run_super_layer,
)
from .specs import (
    ConvSpec,
    NetworkSpec,
    PoolSpec,
    SuperLayerSpec,
    TrainConfig,
    network_from_dict,
    network_to_dict,
)
from .traffic import (
    Phase,
    StrategySet,
    TrafficReport,
    conv_traffic,
    network_summary,
    op_count,
    reduction_factor,
    super_traffic,
)

__version__ = "0.1.0"
