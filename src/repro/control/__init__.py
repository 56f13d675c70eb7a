"""Closed-loop adaptive control plane (docs/control.md).

Reacts to the telemetry the data plane already emits -- occupancy
high-water, goodput deficit, attack-window flags -- with three
wanctl/CAKE-shaped controllers per switch:

- **admission/backpressure**: throttle ingress when buffer occupancy
  approaches the SRAM/HBM limit (multiplicative decrease, additive
  recovery);
- **split reweighting**: shift H-way fiber-split weight away from
  degraded or dead switches during fault windows;
- **attack mitigation**: rate-limit victim-targeted traffic while
  ``repro_attack_active_window`` fires.

Everything is deterministic and declarative: a frozen
:class:`ControlConfig` rides on the :class:`~repro.runtime.Scenario`
(participating in its digest), the loop ticks on window boundaries in
both fidelities, and every decision lands in a byte-reproducible
``repro-control-v1`` action stream plus ``repro_control_*`` time
series.
"""

from .actions import (
    ACTION_FIELDS,
    ACTION_KINDS,
    CONTROL_SCHEMA,
    ActionLog,
    validate_control_actions,
)
from .compare import compare_attack_loops, compare_fault_loops
from .config import (
    DEFAULT_ADMISSION,
    DEFAULT_MITIGATION,
    DEFAULT_REWEIGHT,
    ControlConfig,
    ControllerParams,
)
from .controller import (
    GREEN,
    RED,
    SOFT_RED,
    STATES,
    YELLOW,
    Controller,
    ControllerBank,
)
from .loop import CONTROL_STATE, CONTROL_THROTTLE, ControlLoop
from .packet import packet_control_prepass

__all__ = [
    "ACTION_FIELDS",
    "ACTION_KINDS",
    "ActionLog",
    "CONTROL_SCHEMA",
    "CONTROL_STATE",
    "CONTROL_THROTTLE",
    "ControlConfig",
    "ControlLoop",
    "Controller",
    "ControllerBank",
    "ControllerParams",
    "DEFAULT_ADMISSION",
    "DEFAULT_MITIGATION",
    "DEFAULT_REWEIGHT",
    "GREEN",
    "RED",
    "SOFT_RED",
    "STATES",
    "YELLOW",
    "compare_attack_loops",
    "compare_fault_loops",
    "packet_control_prepass",
    "validate_control_actions",
]
