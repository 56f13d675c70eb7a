"""Flow-level (fluid) fast engine: rates instead of packets.

The packet engine simulates every packet through the SPS -> PFI -> HBM
pipeline on a discrete-event heap -- exact, but ~10^6 events/s.  This
package evolves *byte rates* instead: traffic matrices become
piecewise-constant rate arrays, the fiber splitter becomes a
deterministic H-way rate partition (same assignment math as
:mod:`repro.core.fiber_split`), the SPS/HBM stages become vectorized
capacity constraints, and faults/attacks modulate the rate arrays over
their windows.  Reports come back in the exact same
:class:`~repro.core.hbm_switch.SwitchReport` /
:class:`~repro.core.sps.RouterReport` /
:class:`~repro.faults.report.DegradationReport` shapes, so every
analysis, telemetry summary and golden-report tool downstream works
unchanged.

Select it with ``fidelity="flow"`` on a :class:`~repro.runtime.Scenario`
or ``--fidelity flow`` on the CLI.  The packet engine remains the
ground-truth oracle: ``tests/test_fidelity_parity.py`` cross-validates
delivered/loss fractions on the A/E scenarios, and
``docs/flow_engine.md`` documents the fluid approximations and the
validated tolerances.
"""

from .engine import (
    FlowRouterResult,
    RateComponent,
    buffer_limit_bytes,
    flow_degradation,
    flow_router_result,
    simulate_flow_router,
    simulate_flow_switch,
    uniform_rate_matrix,
)

__all__ = [
    "FlowRouterResult",
    "RateComponent",
    "buffer_limit_bytes",
    "flow_degradation",
    "flow_router_result",
    "simulate_flow_router",
    "simulate_flow_switch",
    "uniform_rate_matrix",
]
