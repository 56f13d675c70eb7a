"""The closed-loop control plane: state machines, loops, campaigns.

The tentpole contract under test: a deterministic, seedable feedback
control plane driven by the windowed telemetry signals -- EWMA-smoothed
per-resource state machines with hysteresis (no flapping), floor/ceiling
clamped actuation, causal window-boundary ticks in both fidelities, an
action stream that validates against ``repro-control-v1``, digest
participation (closed-loop cells cache separately), and a strictly
positive delivered-fraction delta on the seeded fault and attack
campaigns.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import AttackCampaignParams, BurstSynchronizedAttack
from repro.config import scaled_router
from repro.control import (
    CONTROL_STATE,
    CONTROL_THROTTLE,
    DEFAULT_ADMISSION,
    DEFAULT_MITIGATION,
    DEFAULT_REWEIGHT,
    GREEN,
    RED,
    SOFT_RED,
    STATES,
    YELLOW,
    ActionLog,
    ControlConfig,
    Controller,
    ControllerParams,
    ControlLoop,
    compare_attack_loops,
    compare_fault_loops,
    validate_control_actions,
)
from repro.errors import ConfigError
from repro.faults import CampaignParams, FaultSchedule, SwitchFailure
from repro.flow import flow_degradation, flow_router_result
from repro.control.packet import PacketControl, attack_windows_for
from repro.core.fiber_split import ContiguousSplitter, PseudoRandomSplitter
from repro.core.sps import SplitParallelSwitch, assign_fibers
from repro.faults.report import _fiber_cursor
from repro.runtime import (
    FaultCampaign,
    Runtime,
    Scenario,
    degradation_scenario,
    execute_scenario,
    router_scenario,
)
from repro.telemetry import MetricsRegistry, ewma_step
from repro.traffic import (
    ArrivalBlock,
    FixedSize,
    ImixSize,
    TrafficGenerator,
    uniform_matrix,
)


def small_router(n_switches: int = 4):
    return scaled_router(n_switches=n_switches, fibers_per_ribbon=8)


PARAMS = ControllerParams()


class TestControllerStateMachine:
    def test_starts_green_at_full_value(self):
        c = Controller(PARAMS)
        assert c.state == GREEN
        assert c.value == 1.0

    def test_escalation_is_immediate_and_multi_level(self):
        # alpha=1 makes the EWMA the raw signal: one hot tick jumps
        # GREEN -> RED directly.
        c = Controller(ControllerParams(ewma_alpha=1.0))
        state, _, changed = c.update(0.95)
        assert state == RED and changed

    def test_deescalation_is_one_level_per_tick(self):
        c = Controller(ControllerParams(ewma_alpha=1.0))
        c.update(0.95)
        assert c.state == RED
        states = [c.update(0.0)[0] for _ in range(3)]
        assert states == [SOFT_RED, YELLOW, GREEN]

    def test_boundary_hovering_signal_does_not_flap(self):
        # A signal pinned exactly at the yellow threshold escalates once
        # and then holds: de-escalation needs the hysteresis margin.
        c = Controller(ControllerParams(ewma_alpha=1.0))
        changes = sum(c.update(PARAMS.yellow)[2] for _ in range(20))
        assert c.state == YELLOW
        assert changes == 1

    def test_hysteresis_blocks_marginal_recovery(self):
        p = ControllerParams(ewma_alpha=1.0)
        c = Controller(p)
        c.update(p.yellow)
        assert c.state == YELLOW
        # Just under the entry threshold but inside the hysteresis band:
        # stays YELLOW.  Below the band: steps down.
        c.update(p.yellow - p.hysteresis / 2.0)
        assert c.state == YELLOW
        c.update(p.yellow - 2.0 * p.hysteresis)
        assert c.state == GREEN

    def test_red_applies_factor_down_to_the_floor(self):
        p = ControllerParams(ewma_alpha=1.0)
        c = Controller(p)
        values = [c.update(1.0)[1] for _ in range(10)]
        assert values[0] == pytest.approx(p.factor_down)
        assert values[1] == pytest.approx(p.factor_down**2)
        assert values[-1] == p.floor  # clamped, never below

    def test_soft_red_halves_toward_factor_down(self):
        p = ControllerParams(ewma_alpha=1.0)
        c = Controller(p)
        _, value, _ = c.update(p.soft_red)
        assert value == pytest.approx(0.5 * (1.0 + p.factor_down))

    def test_green_recovers_additively_to_the_ceiling(self):
        p = ControllerParams(ewma_alpha=1.0)
        c = Controller(p, initial_value=p.floor)
        values = [c.update(0.0)[1] for _ in range(20)]
        assert values[0] == pytest.approx(p.floor + p.step_up)
        assert values[-1] == p.ceiling  # clamped, never above

    def test_yellow_holds_the_value(self):
        p = ControllerParams(ewma_alpha=1.0)
        c = Controller(p, initial_value=0.6)
        _, value, _ = c.update(p.yellow)
        assert value == 0.6

    def test_ewma_matches_the_telemetry_fold(self):
        c = Controller(PARAMS)
        signals = [0.1, 0.9, 0.4, 0.7]
        state = None
        for s in signals:
            c.update(s)
            state = ewma_step(state, s, PARAMS.ewma_alpha)
        assert c.smoothed == pytest.approx(state)


class TestConfigValidation:
    def test_bad_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            ControllerParams(yellow=0.8, soft_red=0.5)
        with pytest.raises(ConfigError):
            ControllerParams(floor=0.0)
        with pytest.raises(ConfigError):
            ControllerParams(factor_down=1.0)
        with pytest.raises(ConfigError):
            ControllerParams(ewma_alpha=0.0)

    @pytest.mark.parametrize("name", ["hysteresis", "step_up"])
    def test_nan_tuning_is_rejected(self, name):
        with pytest.raises(ConfigError, match=name):
            ControllerParams(**{name: float("nan")})

    def test_all_disabled_rejected(self):
        with pytest.raises(ConfigError):
            ControlConfig(admission=None, reweight=None, mitigation=None)
        with pytest.raises(ConfigError):
            ControlConfig(tick_ns=0.0)

    def test_to_dict_round_trips(self):
        config = ControlConfig(
            tick_ns=500.0,
            admission=None,
            reweight=ControllerParams(yellow=0.2, soft_red=0.4, red=0.6),
        )
        assert ControlConfig.from_dict(config.to_dict()) == config

    def test_control_only_on_supported_kinds(self):
        with pytest.raises(ConfigError, match="control is not supported"):
            Scenario(
                kind="switch",
                config=small_router().switch,
                load=0.5,
                duration_ns=1_000.0,
                control=ControlConfig(),
            )


class TestActionStream:
    def test_log_validates_against_schema(self):
        log = ActionLog()
        log.emit(
            "control_start", t_ns=0.0, tick_ns=100.0, n_switches=2,
            controllers=["admission"],
        )
        log.emit(
            "state_change", t_ns=100.0, tick=0, switch=1,
            controller="admission", from_state="GREEN", to_state="RED",
            signal=0.95,
        )
        log.emit(
            "control_finish", t_ns=200.0, ticks=2, n_state_changes=1,
            throttled_bytes=0,
        )
        records = validate_control_actions(log.dumps())
        assert [r["kind"] for r in records] == [
            "control_start", "state_change", "control_finish",
        ]

    def test_unknown_kind_and_missing_fields_rejected(self):
        log = ActionLog()
        with pytest.raises(ConfigError):
            log.emit("nope", t_ns=0.0)
        with pytest.raises(ConfigError):
            log.emit("control_start", t_ns=0.0)  # missing fields

    def test_seq_restart_mid_stream_rejected(self):
        # Two concatenated per-shard streams masquerading as one run's
        # log: the validator names the artifact.
        log = ActionLog()
        log.emit(
            "control_start", t_ns=0.0, tick_ns=100.0, n_switches=2,
            controllers=[],
        )
        one = log.dumps()
        lines = one.splitlines()
        merged = "\n".join(lines + [lines[1]]) + "\n"
        with pytest.raises(ConfigError, match="restarted at 0 mid-stream"):
            validate_control_actions(merged)


class TestControlLoop:
    def test_loop_is_deterministic(self):
        def run():
            loop = ControlLoop(ControlConfig(), 2, occupancy_limit_bytes=1e6)
            for i in range(10):
                loop.tick(
                    (i + 1) * 1_000.0,
                    offered=np.array([1e5, 1e5]),
                    delivered=np.array([1e5, 1e4 * i]),
                    backlog=np.array([0.0, 9e5]),
                    attack_active=(i % 2 == 0),
                )
            loop.finish(11_000.0)
            return loop.log.dumps()

        assert run() == run()

    def test_dead_switch_weight_collapses_healthy_stays(self):
        loop = ControlLoop(ControlConfig(), 2, occupancy_limit_bytes=1e9)
        for i in range(20):
            loop.tick(
                (i + 1) * 1_000.0,
                offered=np.array([1e5, 1e5]),
                delivered=np.array([1e5, 0.0]),  # switch 1 delivers nothing
                backlog=np.zeros(2),
            )
        assert loop.weight[0] == 1.0
        assert loop.weight[1] == DEFAULT_REWEIGHT.floor

    def test_idle_switch_is_not_a_broken_switch(self):
        loop = ControlLoop(ControlConfig(), 2, occupancy_limit_bytes=1e9)
        for i in range(10):
            loop.tick(
                (i + 1) * 1_000.0,
                offered=np.array([1e5, 0.0]),  # switch 1 sees no traffic
                delivered=np.array([1e5, 0.0]),
                backlog=np.zeros(2),
            )
        assert loop.weight[1] == 1.0


    def test_actuators_are_replaced_only_when_a_value_moves(self):
        """The flow engine caches its split on the identity of
        ``weight`` and its gating on ``admit``: a tick that moves no
        value keeps the arrays, one that moves a value replaces the
        array and leaves the old one as it was."""
        loop = ControlLoop(ControlConfig(), 2, occupancy_limit_bytes=1e9)
        healthy = dict(
            offered=np.array([1e5, 1e5]),
            delivered=np.array([1e5, 1e5]),
            backlog=np.zeros(2),
        )
        weight, admit = loop.weight, loop.admit
        loop.tick(1_000.0, **healthy)
        assert loop.weight is weight and loop.admit is admit
        # Switch 1 stops delivering: its deficit EWMA climbs through
        # YELLOW (weight held) into the states that cut the weight.
        replaced = 0
        for i in range(2, 8):
            before = loop.weight
            values = before.tolist()
            loop.tick(
                i * 1_000.0,
                offered=np.array([1e5, 1e5]),
                delivered=np.array([1e5, 0.0]),
                backlog=np.zeros(2),
            )
            assert before.tolist() == values
            if loop.weight.tolist() == values:
                assert loop.weight is before
            else:
                assert loop.weight is not before
                replaced += 1
        assert replaced >= 2 and loop.weight[1] < 1.0
        assert loop.admit is admit


class _ReferenceLoop:
    """The control tick as one :meth:`Controller.update` per switch and
    controller, switch by switch and per switch in the order admission,
    reweight, mitigation: what :meth:`ControlLoop.tick` must equal."""

    def __init__(self, config, n_switches, limit, telemetry=None):
        self.n, self.limit, self.tick_ns = n_switches, limit, config.tick_ns
        self.telemetry = telemetry
        self.log = ActionLog()
        self.ticks = self.n_state_changes = 0
        self.banks = [
            (name, [Controller(params) for _ in range(n_switches)])
            for name, params in (
                ("admission", config.admission),
                ("reweight", config.reweight),
                ("mitigation", config.mitigation),
            )
            if params is not None
        ]
        self.admit = np.ones(n_switches)
        self.weight = np.ones(n_switches)
        self.log.emit(
            "control_start", t_ns=0.0, tick_ns=config.tick_ns,
            n_switches=n_switches, controllers=[name for name, _ in self.banks],
        )

    def series(self, name, help, **labels):
        return self.telemetry.timeseries(
            name, help, window_ns=self.tick_ns, agg="max", **labels
        )

    def tick(self, t_ns, offered, delivered, backlog, attack_active=False):
        index = self.ticks
        self.ticks += 1
        n = self.n
        total = float(offered.sum())
        signals = {
            "admission": [b / self.limit for b in backlog.tolist()],
            "reweight": [
                max(0.0, 1.0 - d / o) if o > 1.0 else 0.0
                for o, d in zip(offered.tolist(), delivered.tolist())
            ],
            "mitigation": (
                [o * n / total for o in offered.tolist()]
                if attack_active and total > 1.0
                else [0.0] * n
            ),
        }
        values = {
            "admission": [1.0] * n,
            "reweight": self.weight.tolist(),
            "mitigation": [1.0] * n,
        }
        for h in range(n):
            for name, controllers in self.banks:
                c = controllers[h]
                before_state, before_value = c.state, c.value
                state, value, changed = c.update(signals[name][h])
                where = dict(t_ns=t_ns, tick=index, switch=h, controller=name)
                if changed:
                    self.n_state_changes += 1
                    self.log.emit(
                        "state_change", **where, from_state=STATES[before_state],
                        to_state=STATES[state], signal=round(float(c.smoothed), 9),
                    )
                if value != before_value:
                    self.log.emit("actuation", **where, value=round(float(value), 9))
                if self.telemetry is not None:
                    self.series(
                        CONTROL_STATE,
                        "controller state per control tick (0=GREEN..3=RED)",
                        controller=name, switch=str(h),
                    ).observe(t_ns, float(state))
                values[name][h] = value
        admit = [min(a, m) for a, m in zip(values["admission"], values["mitigation"])]
        if admit != self.admit.tolist():
            self.admit = np.array(admit)
        if values["reweight"] != self.weight.tolist():
            self.weight = np.array(values["reweight"])
        if self.telemetry is not None:
            for h in range(n):
                self.series(
                    CONTROL_THROTTLE, "ingress throttle fraction per control tick",
                    switch=str(h),
                ).observe(t_ns, 1.0 - admit[h])


#: Values on a coarse grid, so thresholds and their hysteresis margins
#: are hit exactly (with ``ewma_alpha`` 1 the smoothed signal is the raw
#: one).
_GRID = [i / 20 for i in range(21)]


@st.composite
def _controller_params(draw, default):
    if draw(st.booleans()):
        return default
    yellow, soft_red, red = sorted(draw(st.lists(
        st.sampled_from(_GRID + [1.5, 2.0, 3.0]), min_size=3, max_size=3
    )))
    floor = draw(st.sampled_from(_GRID[1:]))
    return ControllerParams(
        ewma_alpha=draw(st.sampled_from([1.0, 0.5, 0.3])),
        yellow=yellow, soft_red=soft_red, red=red,
        hysteresis=draw(st.sampled_from([0.0, 0.05, 0.1])),
        floor=floor,
        ceiling=draw(st.sampled_from([c for c in _GRID if c >= floor])),
        step_up=draw(st.sampled_from([0.05, 0.1, 0.2])),
        factor_down=draw(st.sampled_from([0.25, 0.5, 0.75])),
    )


@st.composite
def _tick_runs(draw):
    """A config with a non-empty subset of the controllers, and a run of
    per-switch signals that hover on and around the thresholds."""
    enabled = draw(st.integers(1, 7))  # a bit per controller
    config = ControlConfig(
        tick_ns=500.0,
        admission=draw(_controller_params(DEFAULT_ADMISSION)) if enabled & 1 else None,
        reweight=draw(_controller_params(DEFAULT_REWEIGHT)) if enabled & 2 else None,
        mitigation=draw(_controller_params(DEFAULT_MITIGATION)) if enabled & 4 else None,
    )
    n = draw(st.integers(1, 4))
    thresholds = sorted({
        value
        for params in (config.admission, config.reweight, config.mitigation)
        if params is not None
        for threshold in (params.yellow, params.soft_red, params.red)
        for value in (threshold, threshold - params.hysteresis,
                      threshold - params.hysteresis / 2.0)
    })
    fraction = st.one_of(
        st.sampled_from(thresholds + _GRID),
        st.floats(0.0, 1.5, allow_nan=False),
    )
    switch = st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 1e3, 4e3, 1e5]),  # offered
        # Goodput deficit; negative when a backlog drains in the window.
        st.one_of(fraction, st.floats(-0.5, 0.0)),
        fraction,  # backlog over the limit
    )
    ticks = draw(st.lists(
        st.tuples(st.lists(switch, min_size=n, max_size=n), st.booleans()),
        min_size=1, max_size=30,
    ))
    return config, n, ticks, draw(st.booleans())


class TestBankTick:
    LIMIT = 1e4

    @settings(max_examples=300, deadline=None)
    @given(_tick_runs())
    def test_tick_matches_one_update_per_controller(self, run):
        config, n, ticks, telemetry = run
        loop = ControlLoop(
            config, n, self.LIMIT, telemetry=MetricsRegistry() if telemetry else None
        )
        reference = _ReferenceLoop(
            config, n, self.LIMIT, MetricsRegistry() if telemetry else None
        )
        for i, (switches, attack) in enumerate(ticks):
            offered = np.array([o for o, _, _ in switches])
            delivered = np.array([o * (1.0 - d) for o, d, _ in switches])
            backlog = np.array([b * self.LIMIT for _, _, b in switches])
            t_ns = (i + 1) * config.tick_ns
            arrays = (loop.admit, loop.weight)
            values = (loop.admit.tolist(), loop.weight.tolist())
            loop.tick(t_ns, offered, delivered, backlog, attack_active=attack)
            reference.tick(t_ns, offered, delivered, backlog, attack_active=attack)
            assert loop.admit.tolist() == reference.admit.tolist()
            assert loop.weight.tolist() == reference.weight.tolist()
            # An actuator array is replaced only when one of its values
            # moved, and the replaced one is left as it was.
            for before, before_values, now in zip(arrays, values, (loop.admit, loop.weight)):
                assert before.tolist() == before_values
                assert (now is before) == (now.tolist() == before_values)
        assert loop.log.dumps() == reference.log.dumps()
        assert loop.n_state_changes == reference.n_state_changes
        if telemetry:
            assert loop.telemetry.to_dict() == reference.telemetry.to_dict()


class TestActuatorCeiling:
    """Admit and weight are fractions: a ceiling above 1 is rejected,
    one below 1 bounds the actuators at either fidelity."""

    @staticmethod
    def ceilings(admission, reweight, mitigation):
        return ControlConfig(
            admission=dataclasses.replace(DEFAULT_ADMISSION, ceiling=admission),
            reweight=dataclasses.replace(DEFAULT_REWEIGHT, ceiling=reweight),
            mitigation=dataclasses.replace(DEFAULT_MITIGATION, ceiling=mitigation),
        )

    @pytest.mark.parametrize("fidelity", ["flow", "packet"])
    def test_ceiling_above_one_rejected(self, fidelity):
        with pytest.raises(ConfigError, match="ceiling must be <= 1"):
            router_scenario(
                small_router(), load=0.5, duration_ns=20_000.0, fidelity=fidelity,
                control=self.ceilings(2.0, 3.0, 2.0),
            )
        data = ControlConfig().to_dict()
        data["reweight"]["ceiling"] = 1.5
        with pytest.raises(ConfigError, match="reweight ceiling"):
            ControlConfig.from_dict(data)

    @pytest.mark.parametrize("fidelity", ["flow", "packet"])
    def test_ceiling_below_one_bounds_the_actuators(self, fidelity):
        payload = execute_scenario(router_scenario(
            small_router(), load=0.5, duration_ns=20_000.0, fidelity=fidelity,
            control=self.ceilings(0.9, 0.8, 0.95),
        ))
        control = payload["control"]
        assert control["final_admit"] == [0.9] * 4
        assert control["final_weight"] == [0.8] * 4
        assert control["throttled_bytes"] > 0


class TestPacketThrottleAccounting:
    """At packet fidelity, as at flow fidelity, a throttled byte is a
    ``backpressure-throttled`` drop of its target switch: closing the
    loop never shrinks the offered denominator."""

    @pytest.mark.parametrize(
        "fibers, generated, throttled, fraction",
        [(8, 1_612_332, 137_764, 0.91456), (16, 3_260_964, 342_148, 0.8951)],
    )
    def test_throttled_bytes_stay_offered(self, fibers, generated, throttled, fraction):
        def cell(control):
            return execute_scenario(router_scenario(
                scaled_router(n_switches=4, fibers_per_ribbon=fibers),
                load=0.5, duration_ns=20_000.0, fidelity="packet", control=control,
            ))

        payload = cell(TestActuatorCeiling.ceilings(0.9, 0.8, 0.95))
        report = payload["report"]
        assert payload["control"]["throttled_bytes"] == throttled
        # The offer is everything the source generated: the open-loop
        # twin's offer.
        assert report["offered_bytes"] == generated == cell(None)["report"]["offered_bytes"]
        assert report["offered_bytes"] == (
            report["delivered_bytes"] + report["lost_bytes"] + report["residual_bytes"]
        )
        assert report["delivered_fraction"] == pytest.approx(fraction, abs=5e-5)
        switches = report["switches"]
        # Load 0.5 drops nothing inside the switches: every drop is a
        # throttled packet.
        assert all(set(s["drops_by_reason"]) == {"backpressure-throttled"} for s in switches)
        assert sum(s["dropped_bytes"] for s in switches) == throttled
        assert sum(s["drops_by_reason"]["backpressure-throttled"] for s in switches) == sum(
            s["offered_packets"] - s["delivered_packets"] for s in switches
        )
        # The split's per-switch offer counts what passed the throttle.
        assert sum(report["per_switch_offered_bytes"]) == generated - throttled


class TestControlStageChunking:
    """The control stage streams: closed-loop runs give the same
    report, action log and registry dump however the arrivals are
    chunked."""

    DURATION = 16_000.0

    @staticmethod
    def source(config, degradation):
        return TrafficGenerator(
            n_ports=config.n_ribbons,
            port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
            matrix=uniform_matrix(config.n_ribbons, 0.6 if degradation else 0.9),
            size_dist=FixedSize(1500) if degradation else ImixSize(),
            seed=4,
            flows_per_pair=256,
        )

    def run(self, block_ns, degradation):
        config = scaled_router()
        source = self.source(config, degradation)
        if degradation:
            control = ControlConfig(tick_ns=1_000.0)
            fibers_fn = _fiber_cursor(config.fibers_per_ribbon)
        else:
            control = TestActuatorCeiling.ceilings(0.9, 0.8, 0.95)
            fibers_fn = None
        bins = np.zeros(8, dtype=np.int64)

        def departure_sink(departures, sizes):
            np.add.at(bins, np.minimum(7, (departures / 2_000.0).astype(np.int64)), sizes)

        registry = MetricsRegistry()
        stage = PacketControl(control)
        report = SplitParallelSwitch(config).run_stream(
            source.blocks(self.DURATION)
            if block_ns is None
            else source.blocks(self.DURATION, block_ns),
            self.DURATION,
            fibers_fn=fibers_fn,
            fault_schedule=FaultSchedule(
                [SwitchFailure(switch=0, start_ns=4_000.0, end_ns=8_000.0)]
            ),
            telemetry=registry,
            departure_sink=departure_sink if degradation else None,
            control=stage,
        )
        assert stage.loop.ticks > 0
        return (
            json.dumps(report.to_dict()),
            bins.tolist(),
            stage.loop.log.dumps(),
            json.dumps(registry.to_dict()),
        )

    @pytest.mark.parametrize("degradation", [False, True], ids=["router", "degradation"])
    def test_chunking_is_invisible(self, degradation):
        whole_run = self.run(self.DURATION, degradation)
        assert self.run(None, degradation) == whole_run
        assert self.run(1_000.0, degradation) == whole_run

    def test_ticks_after_the_last_arrival_still_close(self):
        # Arrivals stop at half the run; the loop still ticks to the end.
        config = scaled_router()
        stage = PacketControl(ControlConfig(tick_ns=1_000.0))
        SplitParallelSwitch(config).run_stream(
            self.source(config, True).blocks(self.DURATION / 2),
            self.DURATION,
            control=stage,
        )
        assert stage.loop.ticks == 15


class TestClosedLoopRuns:
    def test_action_stream_byte_identical_across_runs(self):
        config = small_router()
        schedule = FaultSchedule(
            [SwitchFailure(switch=0, start_ns=5_000.0, end_ns=15_000.0)]
        )

        def run():
            result = flow_router_result(
                config, load=0.6, duration_ns=20_000.0,
                schedule=schedule, control=ControlConfig(),
            )
            return result.control_actions.dumps()

        stream = run()
        assert stream == run()
        records = validate_control_actions(stream)
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "control_start" and kinds[-1] == "control_finish"
        assert "state_change" in kinds

    def test_fine_tick_loop_reacts_and_keeps_delivering(self):
        # A mid-run switch failure under a 100 ns control period must
        # move the controllers while delivery stays in (0.9, 1].
        duration_ns = 10_000.0
        schedule = FaultSchedule(
            [SwitchFailure(switch=0, start_ns=duration_ns / 3.0,
                           end_ns=2.0 * duration_ns / 3.0)]
        )
        report = flow_degradation(
            scaled_router(fibers_per_ribbon=16, n_switches=4),
            schedule=schedule, load=0.6, duration_ns=duration_ns,
            control=ControlConfig(tick_ns=100.0),
        )
        assert report.control["ticks"] == 99
        assert report.control["n_state_changes"] > 0
        assert 0.9 < report.delivered_fraction <= 1.0

    def test_throttling_never_shrinks_the_offer(self):
        # Closed- and open-loop runs of the same scenario must account
        # the same offered bytes: throttled traffic is a drop reason,
        # not a vanishing act.
        config = small_router()
        schedule = FaultSchedule(
            [SwitchFailure(switch=0, start_ns=5_000.0, end_ns=15_000.0)]
        )
        open_report = flow_degradation(
            config, schedule=schedule, load=0.6, duration_ns=20_000.0
        )
        closed_report = flow_degradation(
            config, schedule=schedule, load=0.6, duration_ns=20_000.0,
            control=ControlConfig(),
        )
        assert closed_report.offered_bytes == open_report.offered_bytes
        assert closed_report.control is not None
        assert open_report.control is None

    def test_open_loop_payload_shape_unchanged(self):
        # The control key is absent -- not None -- on open-loop reports,
        # so every pre-control golden payload stays byte-identical.
        config = small_router()
        report = flow_degradation(config, load=0.6, duration_ns=10_000.0)
        assert "control" not in report.to_dict()


class TestPacketPrepass:
    """The split-level control stage of ``run_stream``."""

    DURATION = 4_000.0

    def workload(self):
        config = scaled_router()
        source = TrafficGenerator(
            n_ports=config.n_ribbons,
            port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
            matrix=uniform_matrix(config.n_ribbons, 0.8),
            size_dist=FixedSize(1500),
            seed=1,
        )
        (block,) = source.blocks(self.DURATION, block_ns=self.DURATION)
        splitter = PseudoRandomSplitter(config.fibers_per_ribbon, config.n_switches)
        return config, block, assign_fibers(block, config.fibers_per_ribbon), splitter

    def apply(self, config, block, fibers, splitter):
        stage = PacketControl(ControlConfig())
        stage.start(config, splitter, self.DURATION)
        return stage.apply(block, fibers)

    def test_negative_fiber_rejected(self):
        config, block, fibers, splitter = self.workload()
        fibers = fibers.copy()
        fibers[0] = -1
        with pytest.raises(ConfigError, match="fiber out of range"):
            self.apply(config, block, fibers, splitter)

    def test_fiber_beyond_the_ribbon_rejected(self):
        config, block, fibers, splitter = self.workload()
        fibers = fibers.copy()
        fibers[-1] = config.fibers_per_ribbon
        with pytest.raises(ConfigError, match="fiber out of range"):
            self.apply(config, block, fibers, splitter)

    def test_short_fiber_array_rejected(self):
        config, block, fibers, splitter = self.workload()
        router = SplitParallelSwitch(config, splitter=splitter)
        with pytest.raises(ConfigError, match="fibers must align"):
            router.run_stream(
                [block], self.DURATION, fibers_fn=lambda _: fibers[:-1],
                control=PacketControl(ControlConfig()),
            )

    def test_ribbon_beyond_the_router_rejected(self):
        config, block, fibers, splitter = self.workload()
        wide = ArrivalBlock(
            block.times, block.sizes, block.inputs + config.n_ribbons,
            block.outputs, block.flows, block.start_ns, block.end_ns,
            flow_ids=block.flow_ids,
        )
        with pytest.raises(ConfigError, match="ribbon .* out of range"):
            self.apply(config, wide, fibers, splitter)

    def test_admitted_rows_and_throttled_bytes_cover_the_block(self):
        # A synchronized burst on one switch makes mitigation throttle.
        config = scaled_router(fibers_per_ribbon=16, n_switches=4)
        splitter = ContiguousSplitter(16, 4)
        attack = BurstSynchronizedAttack(
            victim=0, period_ns=2_000.0, duty=0.5, attack_fraction=0.9
        )
        duration = 12_000.0
        block, fibers = attack.build_workload(config, splitter, 0.5, duration, seed=5)
        stage = PacketControl(ControlConfig(), attack_windows_for(attack, duration))
        stage.start(config, splitter, duration)
        kept, kept_fibers = stage.apply(block, fibers)
        stage.finish()
        assert len(kept) == kept_fibers.size < len(block)
        assert kept.total_bytes + stage.loop.throttled_bytes == block.total_bytes
        assert sum(stage.throttled_bytes) == stage.loop.throttled_bytes
        assert len(kept) + sum(stage.throttled_packets) == len(block)
        assert np.isin(kept.pids, block.pids).all()
        assert 0 <= kept_fibers.min() <= kept_fibers.max() < 16


class TestDigestsAndCaching:
    def scenario(self, control):
        return Scenario(
            kind="degradation",
            config=small_router(),
            load=0.6,
            duration_ns=10_000.0,
            fidelity="flow",
            control=control,
        )

    def test_control_participates_in_the_digest(self):
        digests = {
            self.scenario(None).digest(),
            self.scenario(ControlConfig()).digest(),
            self.scenario(ControlConfig(tick_ns=2_000.0)).digest(),
            self.scenario(ControlConfig(mitigation=None)).digest(),
        }
        assert len(digests) == 4

    def test_open_loop_digest_unchanged_by_the_field(self):
        # control=None must describe identically to a scenario built
        # before the field existed (no new key in the content).
        assert "control" not in self.scenario(None).describe()

    def test_closed_loop_campaign_caches_and_resumes(self, tmp_path):
        campaign = FaultCampaign(
            config=small_router(),
            params=CampaignParams(
                n_scenarios=3, seed=5, load=0.6, duration_ns=20_000.0
            ),
            fidelity="flow",
            control=ControlConfig(),
        )
        runtime = Runtime(cache_dir=str(tmp_path))
        cold = runtime.run_campaign(campaign)
        warm = runtime.run_campaign(campaign)
        assert json.dumps(cold.to_dict(), sort_keys=True) == json.dumps(
            warm.to_dict(), sort_keys=True
        )
        assert runtime.cache.stats()["hits"] == 3

    def test_streamed_workload_composes_with_control(self, tmp_path):
        # A closed-loop cell on a streamed heavy-tailed workload offers
        # exactly its open-loop twin's bytes (throttled bytes count as
        # offered) and caches like any other cell.
        def cell(control):
            return degradation_scenario(
                scaled_router(),
                schedule=FaultSchedule(
                    [SwitchFailure(switch=0, start_ns=4_000.0, end_ns=8_000.0)]
                ),
                load=0.6,
                duration_ns=16_000.0,
                seed=2,
                workload="lognormal",
                control=control,
            )

        open_loop = execute_scenario(cell(None))["report"]
        runtime = Runtime(cache_dir=str(tmp_path))
        cold = runtime.run(cell(ControlConfig()))
        warm = runtime.run(cell(ControlConfig()))
        assert runtime.cache.stats()["hits"] == 1
        assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)
        closed_loop = cold["report"]
        assert closed_loop["offered_bytes"] == open_loop["offered_bytes"] > 0
        assert [s["offered_bytes"] for s in closed_loop["intervals"]] == [
            s["offered_bytes"] for s in open_loop["intervals"]
        ]
        assert closed_loop["control"]["ticks"] > 0

    def test_sequential_equals_parallel(self):
        campaign = FaultCampaign(
            config=small_router(),
            params=CampaignParams(
                n_scenarios=4, seed=7, load=0.6, duration_ns=20_000.0
            ),
            fidelity="flow",
            control=ControlConfig(),
        )
        seq = Runtime(n_workers=1).run_campaign(campaign)
        par = Runtime(n_workers=2).run_campaign(campaign)
        assert json.dumps(seq.to_dict(), sort_keys=True) == json.dumps(
            par.to_dict(), sort_keys=True
        )


class TestControllerValue:
    """The acceptance gate: closed loop beats open loop, never hurts."""

    def test_fault_campaign_delta_positive_flow(self):
        result = compare_fault_loops(
            small_router(),
            CampaignParams(
                n_scenarios=6, seed=7, load=0.6, duration_ns=40_000.0
            ),
            fidelity="flow",
        )
        block = result["delivered_fraction"]
        assert block["delta_mean"] > 0.005
        assert block["delta_min"] >= -1e-9  # no cell regresses
        assert block["n_improved"] >= 3

    def test_fault_campaign_delta_positive_packet(self):
        result = compare_fault_loops(
            small_router(),
            CampaignParams(
                n_scenarios=3, seed=7, load=0.6, duration_ns=20_000.0
            ),
            fidelity="packet",
        )
        block = result["delivered_fraction"]
        assert block["delta_mean"] > 0
        assert block["delta_min"] >= -1e-9

    def test_attack_campaign_delta_positive(self):
        result = compare_attack_loops(
            small_router(),
            AttackCampaignParams(
                strategy=BurstSynchronizedAttack(),
                n_trials=3,
                seed=3,
                load=0.8,
                duration_ns=20_000.0,
            ),
            fidelity="flow",
        )
        block = result["delivered_fraction"]
        assert block["delta_mean"] > 0.005
        assert block["delta_min"] >= -1e-9
        # Reweighting spreads the burst: the victim's offered-share
        # gain must not grow under control.
        assert result["victim_gain"]["delta_mean"] <= 1e-9
