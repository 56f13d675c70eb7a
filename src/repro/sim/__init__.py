"""Discrete-event simulation substrate.

A minimal, deterministic event engine shared by the HBM switch, the
baselines and the benches:

- :class:`~repro.sim.engine.Engine` -- a queue of plain actions with a
  monotonic clock; actions at equal times fire in the order they were
  queued, which keeps runs reproducible.
- :mod:`~repro.sim.stats` -- throughput meters, latency recorders with
  percentiles, queue-occupancy trackers and drop counters.
- :mod:`~repro.sim.parallel` -- one order-preserving process-pool map
  for independent switch simulations and scenarios, with a
  deterministic, bit-identical merge.
"""

from .engine import Engine
from .parallel import (
    SwitchWorkUnit,
    execute_work_unit,
    resolve_worker_count,
    run_parallel_tasks,
)
from .stats import (
    DropCounter,
    LatencyRecorder,
    OccupancyTracker,
    ThroughputMeter,
)
from .trace import TraceRecord, TraceRecorder

__all__ = [
    "Engine",
    "SwitchWorkUnit",
    "execute_work_unit",
    "resolve_worker_count",
    "run_parallel_tasks",
    "ThroughputMeter",
    "LatencyRecorder",
    "OccupancyTracker",
    "DropCounter",
    "TraceRecorder",
    "TraceRecord",
]
