"""Pinned flow-fidelity cells: report, control-action and registry digests.

Each cell runs :func:`repro.flow.engine.simulate_flow_router` directly
and pins three digests: the payload (report, interval bins and control
summary), the ``repro-control-v1`` action log ``dumps()`` and the
telemetry registry ``dumps()``.  The cells aim at the state the engine
derives once per fault interval or per actuation rather than per
segment:

- a closed-loop fault cell with telemetry on (controller state and
  throttle series, the ``repro_flow_window_*`` series);
- a closed-loop cell whose fiber cuts overlap a windowed switch death
  (cut state crossed with reweighted split shares);
- a closed-loop flow attack trial (mitigation, attack windows and
  windowed rate components);
- a whole-run-dead switch under control;
- an open-loop cell whose channel-loss and OEO windows outlast the run,
  so the drain looks fault state up at the edges that fall inside it.

A digest here changes only with a declared behaviour change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro import scaled_router
from repro.adversary import BurstSynchronizedAttack
from repro.adversary.campaign import make_splitter
from repro.control import ControlConfig
from repro.control.packet import attack_windows_for
from repro.faults import (
    FaultSchedule,
    FiberCut,
    HBMChannelLoss,
    OEODegradation,
    SwitchFailure,
)
from repro.flow.attack import _strategy_components
from repro.flow.engine import _uniform_components, simulate_flow_router
from repro.telemetry import MetricsRegistry


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(result, registry) -> tuple:
    payload = {
        "report": dataclasses.asdict(result.report),
        "intervals": [dataclasses.asdict(i) for i in result.intervals],
        "control": result.control,
    }
    actions = (
        result.control_actions.dumps()
        if result.control_actions is not None
        else ""
    )
    return (
        _sha(json.dumps(payload, sort_keys=True, default=repr)),
        _sha(actions),
        _sha(registry.dumps()),
    )


def _router_cell(config, schedule, load, duration_ns, control, n_intervals=8):
    registry = MetricsRegistry()
    result = simulate_flow_router(
        config,
        _uniform_components(config, load, duration_ns),
        duration_ns=duration_ns,
        schedule=schedule,
        n_intervals=n_intervals,
        telemetry=registry,
        control=control,
    )
    return _digests(result, registry)


def cell_closed_loop_faults() -> tuple:
    """The bench's closed-loop shape (H = 8, 4 ribbons, 500 ns ticks)."""
    return _router_cell(
        scaled_router(fibers_per_ribbon=32, n_switches=8),
        FaultSchedule(
            [
                SwitchFailure(switch=2, start_ns=20_000.0, end_ns=60_000.0),
                HBMChannelLoss(switch=5, n_channels=3, start_ns=10_000.0),
                OEODegradation(
                    switch=1, rate_factor=0.6, start_ns=30_000.0, end_ns=90_000.0
                ),
                OEODegradation(
                    switch=1, rate_factor=0.8, start_ns=50_000.0, end_ns=70_000.0
                ),
            ]
        ),
        load=0.6,
        duration_ns=100_000.0,
        control=ControlConfig(tick_ns=500.0),
    )


def cell_cut_overlaps_switch_failure() -> tuple:
    return _router_cell(
        scaled_router(fibers_per_ribbon=16, n_switches=4),
        FaultSchedule(
            [
                FiberCut(ribbon=1, fiber=3, start_ns=5_000.0, end_ns=25_000.0),
                FiberCut(ribbon=2, fiber=0, start_ns=12_000.0),
                FiberCut(ribbon=1, fiber=7, start_ns=14_000.0, end_ns=16_000.0),
                SwitchFailure(switch=3, start_ns=10_000.0, end_ns=30_000.0),
            ]
        ),
        load=0.8,
        duration_ns=40_000.0,
        control=ControlConfig(tick_ns=500.0),
    )


def cell_closed_loop_attack() -> tuple:
    """The flow half of a closed-loop burst attack trial: the victim's
    mitigation controller throttles during the ON windows."""
    config = scaled_router(n_ribbons=8, fibers_per_ribbon=32, n_switches=8)
    splitter = make_splitter("contiguous", 32, 8)
    strategy = BurstSynchronizedAttack(
        victim=0, period_ns=2_000.0, duty=0.4, attack_fraction=0.8
    )
    duration_ns = 20_000.0
    registry = MetricsRegistry()
    result = simulate_flow_router(
        config,
        _strategy_components(strategy, config, 0.9, duration_ns),
        duration_ns=duration_ns,
        drain=False,
        weights=strategy.fiber_weights(splitter, config.n_ribbons),
        splitter=splitter,
        schedule=FaultSchedule(
            [HBMChannelLoss(switch=4, n_channels=2, start_ns=6_000.0, end_ns=9_000.0)]
        ),
        telemetry=registry,
        control=ControlConfig(tick_ns=500.0),
        attack_windows=attack_windows_for(strategy, duration_ns),
    )
    return _digests(result, registry)


def cell_whole_run_dead_under_control() -> tuple:
    return _router_cell(
        scaled_router(fibers_per_ribbon=16, n_switches=4),
        FaultSchedule.from_failed_switches([2]).merged(
            FaultSchedule(
                [OEODegradation(switch=0, rate_factor=0.5, start_ns=4_000.0, end_ns=9_000.0)]
            )
        ),
        load=0.7,
        duration_ns=20_000.0,
        control=ControlConfig(tick_ns=500.0),
        n_intervals=4,
    )


def cell_open_loop_drain_edges() -> tuple:
    """Faults that outlast the run: the drain pauses at their edges."""
    return _router_cell(
        scaled_router(fibers_per_ribbon=16, n_switches=4),
        FaultSchedule(
            [
                HBMChannelLoss(switch=0, n_channels=7, start_ns=5_000.0, end_ns=50_000.0),
                HBMChannelLoss(switch=2, n_channels=8, start_ns=12_000.0, end_ns=30_000.0),
                OEODegradation(switch=1, rate_factor=0.3, start_ns=8_000.0, end_ns=35_000.0),
            ]
        ),
        load=0.9,
        duration_ns=20_000.0,
        control=None,
        n_intervals=4,
    )


CELLS = {
    "closed_loop_faults": cell_closed_loop_faults,
    "cut_overlaps_switch_failure": cell_cut_overlaps_switch_failure,
    "closed_loop_attack": cell_closed_loop_attack,
    "whole_run_dead_under_control": cell_whole_run_dead_under_control,
    "open_loop_drain_edges": cell_open_loop_drain_edges,
}

#: ``(payload, action log, registry dump)`` digests per cell.
PINNED = {
    'closed_loop_attack': (
        '93e365f7ed90b70498bac22486737c941edf5dda09e99c7096cf820bbbedbe7f',
        '0135dba9898cb34c7253e15b30ef2b131c188bc863ea47623edcbe662dd53128',
        'a3b8a4d5a1e6218306094912505761cbdd2d82049a4e2f1c93fb28d4265ca686',
    ),
    'closed_loop_faults': (
        '548cc0f8748b82edb55f21adb87c427dbc99925c85d32460932447a6f514395e',
        'ddf6403cf8bee8920f60dbaaa0d39efe069f49e184ffa2ed0d4f63d16c875e93',
        '3084577709c76ef36eb5d30df15855ad4b1f1c858acf97179c48a9964fdf6ecd',
    ),
    'cut_overlaps_switch_failure': (
        '2b782ec3baba0c1a9071d89c391f3984280f373e996f84ad82466f42ecb83cae',
        '2194ba930df22649746ec03f0f8455e5cdfd527a18e2ed91c54626541b7c3be5',
        '31ea24a0306df553fc4248300416d589b061785035268060755e5492a3ac706a',
    ),
    'open_loop_drain_edges': (
        '79b4e07dc53befa14cbbc577f1637410ccfa91f3f56935c634f82caee291106b',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'd6dd78393a0ea05196b1dd80386998f58d265bb229b0b02cca4e74e80da5f540',
    ),
    'whole_run_dead_under_control': (
        '9e6e92b2e366e2af0222f79dd4556b716bc0953b0e9986adee3c440df7a8e3e5',
        '077222bc4ef7827c4d9d3b2dc13888eedc92d8c667d479b6ca046e5fb983c0b2',
        'c36c02683b0f5c412aed3ed9cb289c598065039f00da4dcf8576f8b1bf99c945',
    ),
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_pinned_flow_digest(name):
    assert CELLS[name]() == PINNED[name]


def test_rerun_in_one_process_is_identical():
    """No cached rate, split or fault state outlives its run."""
    first = cell_closed_loop_faults()
    cell_cut_overlaps_switch_failure()
    assert cell_closed_loop_faults() == first
