"""Report serialisation: any report as a plain dict and as JSON.

Benches print tables for humans; pipelines want structured output.
Every report kind serialises itself with ``to_dict()``:
:class:`~repro.core.hbm_switch.SwitchReport`,
:class:`~repro.core.sps.RouterReport`, the fault-layer and fabric
reports and the campaign results.  :func:`report_to_dict` only
dispatches to it.

NaN becomes ``null`` inside ``SwitchReport.to_dict`` and
``RouterReport.to_dict``, on their latency statistics, the only fields
that can hold NaN (:func:`repro.sim.stats.nan_to_none`).  Telemetry
dumps pass through as they are: ``MetricsRegistry.to_dict`` already
writes an empty series' NaN mean and peak as ``null``.
"""

from __future__ import annotations

import json
from typing import Any, Dict


def report_to_dict(report) -> Dict[str, Any]:
    """A JSON-safe dict of any report (NaN -> null)."""
    to_dict = getattr(report, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    raise TypeError(f"cannot export {type(report).__name__}")


def report_to_json(report, indent: int = 2) -> str:
    """The JSON text of a report."""
    return json.dumps(report_to_dict(report), indent=indent, sort_keys=True)
