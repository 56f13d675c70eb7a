"""Fault injection and graceful degradation (SS 2.2, *Modularity*).

The package turns the paper's reliability story into executable pieces:

- :mod:`~repro.faults.model` -- typed fault events (switch death, HBM
  channel loss, OEO degradation, fiber cut) with time windows;
- :mod:`~repro.faults.schedule` -- deterministic schedules and their
  per-switch projections, consumed by the core simulation;
- :mod:`~repro.faults.report` -- capacity-over-time measurement of one
  faulted run;
- :mod:`~repro.faults.campaign` -- seeded Monte-Carlo campaigns from
  MTBF/MTTR parameters;
- :mod:`~repro.faults.specs` -- the CLI's textual fault grammar.
"""

from .model import (
    FABRIC_FAULT_TYPES,
    FAULT_TYPES,
    FOREVER_NS,
    FiberCut,
    HBMChannelLoss,
    LinkCut,
    OEODegradation,
    RouterDown,
    SwitchFailure,
    event_from_dict,
    event_to_dict,
)
from .schedule import FaultSchedule, SwitchFaultView
from .report import (
    AVAILABILITY_THRESHOLD,
    DegradationReport,
    IntervalSample,
    deterministic_fibers,
    measure_degradation,
    router_fault_traffic,
)
from .campaign import (
    CampaignParams,
    CampaignResult,
    draw_fault_schedule,
)
from .specs import parse_fault_event, parse_fault_specs

__all__ = [
    "AVAILABILITY_THRESHOLD",
    "CampaignParams",
    "CampaignResult",
    "DegradationReport",
    "FABRIC_FAULT_TYPES",
    "FAULT_TYPES",
    "FOREVER_NS",
    "FaultSchedule",
    "FiberCut",
    "HBMChannelLoss",
    "IntervalSample",
    "LinkCut",
    "OEODegradation",
    "RouterDown",
    "SwitchFailure",
    "SwitchFaultView",
    "deterministic_fibers",
    "draw_fault_schedule",
    "event_from_dict",
    "event_to_dict",
    "measure_degradation",
    "parse_fault_event",
    "parse_fault_specs",
    "router_fault_traffic",
]
