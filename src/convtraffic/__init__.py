"""Memory-traffic model and schedule simulator for a streaming CNN accelerator.

Import the submodules (`convtraffic.traffic`, `convtraffic.verify`, ...) for
the API.
"""

# The benchmark harness (benchmarks/run.py) reads `convtraffic.Phase` from the
# top-level package; without it every benchmark item fails.
from .traffic import Phase
