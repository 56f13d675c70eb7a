"""Scenario runtime: declarative experiments, one shared scheduler.

The orchestration layer every workload family runs on (docs/runtime.md):

- :class:`Scenario` -- one hashable, picklable experiment cell
  (config + workload + faults + telemetry + exec hints) with a
  content digest (:meth:`Scenario.digest`);
- :class:`Runtime` -- executes cells and grids with content-addressed
  on-disk caching (:class:`ResultCache`), checkpointed resume and
  ``(k, n)`` sharding with a deterministic merge;
- :class:`Campaign` protocol plus the concrete :class:`FaultCampaign`
  and :class:`AttackCampaign`;
- :class:`EventStream` -- the live JSONL lifecycle log a sweep appends
  to under ``--events-out`` (validated by :func:`validate_events`);
- :func:`run` -- the one-call façade (``repro.run(scenario)``).
"""

from .cache import CACHE_SCHEMA, ResultCache, payload_checksum
from .campaign import AttackCampaign, Campaign, FaultCampaign
from .events import (
    EVENT_KINDS,
    EVENTS_SCHEMA,
    EventStream,
    open_event_stream,
    validate_events,
    validate_stream,
)
from .runtime import Runtime, default_code_version, parse_shard, run
from .scenario import (
    SCENARIO_KINDS,
    Scenario,
    degradation_scenario,
    execute_scenario,
    fabric_scenario,
    router_scenario,
    switch_scenario,
)

__all__ = [
    "AttackCampaign",
    "CACHE_SCHEMA",
    "Campaign",
    "EVENTS_SCHEMA",
    "EVENT_KINDS",
    "EventStream",
    "FaultCampaign",
    "ResultCache",
    "Runtime",
    "SCENARIO_KINDS",
    "Scenario",
    "default_code_version",
    "degradation_scenario",
    "execute_scenario",
    "fabric_scenario",
    "open_event_stream",
    "parse_shard",
    "payload_checksum",
    "router_scenario",
    "run",
    "switch_scenario",
    "validate_events",
    "validate_stream",
]
