"""Adaptive in-job index construction (LIAH-style).

Three layers:

* ``model`` -- the build cost model (per-record extract/sort/merge
  charges, scan premium for uncovered keys);
* ``manager`` -- the build catalog (per-index coverage buckets and
  epochs; persists across jobs);
* ``builder`` -- the incremental piggyback builder.

The planner sees coverage through coverage-blended cost equations and
the PARTIAL hybrid strategy (``core/costmodel.py``); the executor sees
it through the build gates in ``core/strategy.py``. With no
:class:`BuildSession` attached every gate short-circuits and the whole
subsystem is zero-overhead.
"""

from repro.indices.build.builder import (
    DEFAULT_BUILD_FRACTION,
    BuildSession,
    IndexBuilderFn,
)
from repro.indices.build.manager import (
    DEFAULT_NUM_BUCKETS,
    BuildState,
    IndexManager,
)
from repro.indices.build.model import BuildCostModel

__all__ = [
    "DEFAULT_BUILD_FRACTION",
    "DEFAULT_NUM_BUCKETS",
    "BuildCostModel",
    "BuildSession",
    "BuildState",
    "IndexBuilderFn",
    "IndexManager",
]
