"""Report serialisation: switch/router reports as plain dicts and JSON.

Benches print tables for humans; pipelines want structured output.
``report_to_dict`` flattens a :class:`~repro.core.hbm_switch.SwitchReport`
(or :class:`~repro.core.sps.RouterReport`) into JSON-safe primitives.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict

import math

from ..core.hbm_switch import SwitchReport
from ..core.sps import RouterReport


def _sanitize(value):
    """NaN -> None, recursively.  Empty-recorder statistics are NaN
    (see :class:`repro.sim.LatencyRecorder`), and ``json.dumps`` would
    otherwise emit a bare ``NaN`` literal that no JSON parser accepts;
    ``None`` serialises as ``null``."""
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_sanitize(v) for v in value]
    return value


def report_to_dict(report) -> Dict[str, Any]:
    """A JSON-safe dict of a switch or router report (NaN -> null)."""
    if isinstance(report, SwitchReport):
        # The telemetry dump is plain JSON data: sanitising rebuilds it,
        # so it skips asdict's deep copy.
        data = dataclasses.asdict(dataclasses.replace(report, telemetry=None))
        data["telemetry"] = report.telemetry
        data["pfi"] = dataclasses.asdict(report.pfi)
        data["normalized_throughput"] = report.normalized_throughput
        data["delivery_fraction"] = report.delivery_fraction
        return _sanitize(data)
    if isinstance(report, RouterReport):
        extra: Dict[str, Any] = {}
        if report.telemetry is not None:
            extra["telemetry"] = report.telemetry
            extra["stage_summaries"] = report.stage_summaries()
        return _sanitize({
            **extra,
            "duration_ns": report.duration_ns,
            "offered_bytes": report.offered_bytes,
            "delivered_bytes": report.delivered_bytes,
            "dropped_bytes": report.dropped_bytes,
            "residual_bytes": report.residual_bytes,
            "lost_bytes": report.lost_bytes,
            "failed_switches": list(report.failed_switches),
            "failed_offered_bytes": report.failed_offered_bytes,
            "fault_lost_bytes": report.fault_lost_bytes,
            "fault_events": list(report.fault_events),
            "delivery_fraction": report.delivery_fraction,
            "delivered_fraction": report.delivered_fraction,
            "loss_fraction": report.loss_fraction,
            "load_imbalance": report.load_imbalance,
            "ordering_violations": report.ordering_violations,
            "latency": report.latency_summary(),
            "per_switch_offered_bytes": list(report.per_switch_offered_bytes),
            "switches": [report_to_dict(r) for r in report.switch_reports],
        })
    # Fault-layer reports (DegradationReport, CampaignResult) carry
    # their own serialisation; dispatch on it rather than importing the
    # faults package here.
    to_dict = getattr(report, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    raise TypeError(f"cannot export {type(report).__name__}")


def report_to_json(report, indent: int = 2) -> str:
    """The JSON text of a report."""
    return json.dumps(report_to_dict(report), indent=indent, sort_keys=True)
