"""Fault injection & graceful degradation (repro.faults).

The three load-bearing contracts, plus the satellite behaviours:

1. An empty fault schedule is *byte-identical* to no schedule at all --
   the fault hooks must not perturb a single float on the healthy path.
2. Killing switch h at t = 0 forever is identical to the degenerate
   ``FaultSchedule.from_failed_switches([h])`` schedule.
3. Killing k of H switches measures within 1% of the closed form
   (H - k)/H from :mod:`repro.analysis.modularity`.
"""

import json

import pytest

from repro.analysis import capacity_fraction_after_failures
from repro.cli import main
from repro.config import scaled_router
from repro.core import PFIOptions, SplitParallelSwitch
from repro.core.sps import RouterReport
from repro.errors import ConfigError, TimingViolation
from repro.faults import (
    CampaignParams,
    FaultSchedule,
    FiberCut,
    HBMChannelLoss,
    OEODegradation,
    SwitchFailure,
    deterministic_fibers,
    measure_degradation,
    parse_fault_event,
    parse_fault_specs,
    router_fault_traffic,
)
from repro.reporting import report_to_json
from repro.runtime import FaultCampaign, Runtime

DURATION = 20_000.0


def run_router(config, schedule=None, failed=None, load=0.6, seed=0):
    """One sequential router run with deterministic fiber assignment."""
    if failed:
        schedule = FaultSchedule.from_failed_switches(failed)
    packets = router_fault_traffic(
        config, load=load, duration_ns=DURATION, seed=seed
    )
    fibers = deterministic_fibers(packets, config.fibers_per_ribbon)
    router = SplitParallelSwitch(
        config, options=PFIOptions(padding=True, bypass=True)
    )
    return router.run(
        packets,
        DURATION,
        fibers=fibers,
        fault_schedule=schedule,
    )


def run_campaign(config, params):
    return Runtime().run_campaign(FaultCampaign(config=config, params=params))


@pytest.fixture
def h4_router():
    return scaled_router(n_switches=4, fibers_per_ribbon=16)


class TestFaultModel:
    def test_window_validation(self):
        with pytest.raises(ConfigError):
            SwitchFailure(switch=0, start_ns=-1.0)
        with pytest.raises(ConfigError):
            SwitchFailure(switch=0, start_ns=5.0, end_ns=5.0)
        with pytest.raises(ConfigError):
            OEODegradation(switch=0, rate_factor=0.0)
        with pytest.raises(ConfigError):
            HBMChannelLoss(switch=0, n_channels=0)

    def test_window_arithmetic(self):
        event = SwitchFailure(switch=1, start_ns=10.0, end_ns=20.0)
        assert not event.active_at(9.9)
        assert event.active_at(10.0)
        assert event.active_at(19.9)
        assert not event.active_at(20.0)
        assert not event.permanent
        assert not event.whole_run
        forever = SwitchFailure(switch=1)
        assert forever.permanent and forever.whole_run

    def test_serialisation_round_trip(self):
        schedule = FaultSchedule(
            [
                SwitchFailure(switch=0, start_ns=5.0, end_ns=9.0),
                HBMChannelLoss(switch=1, n_channels=2),
                OEODegradation(switch=2, rate_factor=0.7, start_ns=3.0),
                FiberCut(ribbon=0, fiber=3),
            ]
        )
        rebuilt = FaultSchedule.from_dict(schedule.to_dict())
        assert rebuilt.events == schedule.events
        # JSON-safe: inf never appears in the dict form.
        json.dumps(schedule.to_dict())

    def test_validate_rejects_out_of_range(self, h4_router):
        with pytest.raises(ConfigError):
            FaultSchedule([SwitchFailure(switch=4)]).validate(h4_router)
        with pytest.raises(ConfigError):
            FaultSchedule([FiberCut(ribbon=0, fiber=99)]).validate(h4_router)
        with pytest.raises(ConfigError):
            FaultSchedule(
                [
                    HBMChannelLoss(switch=0, n_channels=1, start_ns=0.0, end_ns=50.0),
                    HBMChannelLoss(switch=0, n_channels=1, start_ns=25.0, end_ns=75.0),
                ]
            ).validate(h4_router)

    def test_switch_view_projection(self, h4_router):
        schedule = FaultSchedule(
            [
                SwitchFailure(switch=0, start_ns=5.0, end_ns=9.0),
                HBMChannelLoss(switch=0, n_channels=2, start_ns=1.0, end_ns=4.0),
                OEODegradation(switch=1, rate_factor=0.5),
            ]
        )
        total = h4_router.switch.total_channels
        view0 = schedule.switch_view(0, total)
        assert view0.dead_at(6.0) and not view0.dead_at(9.0)
        assert view0.channels_lost(2.0) == 2
        assert view0.channel_fraction(2.0) == pytest.approx(1 - 2 / total)
        assert view0.oeo_rate_factor(2.0) == 1.0
        view1 = schedule.switch_view(1, total)
        assert view1.oeo_rate_factor(123.0) == 0.5
        assert schedule.switch_view(2, total) is None


class TestByteIdentity:
    def test_empty_schedule_is_byte_identical(self, h4_router):
        baseline = run_router(h4_router)
        faulted = run_router(h4_router, schedule=FaultSchedule())
        assert report_to_json(baseline) == report_to_json(faulted)

    def test_whole_run_death_matches_legacy_api(self, h4_router):
        legacy = run_router(h4_router, failed=[2])
        schedule = run_router(
            h4_router, schedule=FaultSchedule([SwitchFailure(switch=2)])
        )
        assert report_to_json(legacy) == report_to_json(schedule)

    def test_unfaulted_switches_unchanged_by_others_faults(self, h4_router):
        """Share-nothing: a fault on switch 0 must not perturb 1..3."""
        baseline = run_router(h4_router)
        faulted = run_router(
            h4_router,
            schedule=FaultSchedule(
                [SwitchFailure(switch=0, start_ns=5_000.0, end_ns=9_000.0)]
            ),
        )
        for h in range(1, 4):
            assert report_to_json(baseline.switch_reports[h]) == report_to_json(
                faulted.switch_reports[h]
            )


class TestClosedForm:
    def test_capacity_fraction_closed_form(self):
        assert capacity_fraction_after_failures(16, 1) == pytest.approx(15 / 16)
        assert capacity_fraction_after_failures(4, 4) == 0.0
        with pytest.raises(ConfigError):
            capacity_fraction_after_failures(4, 5)
        with pytest.raises(ConfigError):
            capacity_fraction_after_failures(0, 0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_measured_capacity_matches_closed_form(self, h4_router, k):
        healthy = run_router(h4_router)
        degraded = run_router(h4_router, failed=list(range(k)))
        measured = degraded.delivered_bytes / healthy.delivered_bytes
        expected = capacity_fraction_after_failures(4, k)
        assert measured == pytest.approx(expected, abs=0.01)


class TestDynamicFaults:
    def test_midrun_death_drops_with_reason(self, h4_router):
        report = run_router(
            h4_router,
            schedule=FaultSchedule(
                [SwitchFailure(switch=0, start_ns=5_000.0, end_ns=15_000.0)]
            ),
        )
        dead = report.switch_reports[0]
        assert dead.drops_by_reason.get("switch-dead", 0) > 0
        # Byte conservation still holds on the faulted switch.
        assert dead.offered_bytes == (
            dead.delivered_bytes + dead.dropped_bytes + dead.residual_bytes
        )
        # The outage costs roughly its share of the faulted switch's
        # window, but the router keeps the other 3/4 untouched.
        assert report.delivered_fraction < 1.0

    def test_channel_loss_degrades_drain(self, h4_router):
        total = h4_router.switch.total_channels
        baseline = run_router(h4_router, load=0.9)
        degraded = run_router(
            h4_router,
            load=0.9,
            schedule=FaultSchedule(
                [HBMChannelLoss(switch=0, n_channels=total // 2)]
            ),
        )
        # Half the channels -> phases take twice as long on switch 0.
        slow = degraded.switch_reports[0]
        fast = baseline.switch_reports[0]
        assert slow.pfi.write_phases < fast.pfi.write_phases
        assert slow.latency["mean_ns"] > fast.latency["mean_ns"]

    def test_total_channel_loss_halts_memory(self, h4_router):
        total = h4_router.switch.total_channels
        report = run_router(
            h4_router,
            schedule=FaultSchedule(
                [HBMChannelLoss(switch=0, n_channels=total, start_ns=0.0)]
            ),
        )
        # With bypass enabled frames can still skirt the memory, but
        # nothing is ever written to (or read from) the HBM itself.
        assert report.switch_reports[0].pfi.frames_written == 0

    def test_oeo_degradation_slows_egress(self, h4_router):
        baseline = run_router(h4_router, load=0.9)
        degraded = run_router(
            h4_router,
            load=0.9,
            schedule=FaultSchedule(
                [OEODegradation(switch=0, rate_factor=0.5)]
            ),
        )
        assert (
            degraded.switch_reports[0].latency["mean_ns"]
            > baseline.switch_reports[0].latency["mean_ns"]
        )
        # Other switches untouched.
        assert report_to_json(degraded.switch_reports[1]) == report_to_json(
            baseline.switch_reports[1]
        )

    def test_fiber_cut_loses_only_that_fiber(self, h4_router):
        report = run_router(
            h4_router,
            schedule=FaultSchedule([FiberCut(ribbon=0, fiber=0)]),
        )
        baseline = run_router(h4_router)
        assert report.fault_lost_bytes > 0
        # One of R*F = 64 fibers: a small, bounded slice of the offer.
        share = report.fault_lost_bytes / baseline.offered_bytes
        assert 0.0 < share < 0.05
        assert report.offered_bytes == baseline.offered_bytes


class TestRouterReportAccounting:
    """Satellite (b): the loss accounting is symmetric by definition."""

    def _report(self, **overrides):
        base = dict(
            switch_reports=[],
            per_switch_offered_bytes=[],
            duration_ns=1.0,
            failed_offered_bytes=300,
            fault_lost_bytes=200,
        )
        base.update(overrides)
        return RouterReport(**base)

    def test_delivered_fraction_uses_total_offer(self, h4_router):
        report = run_router(h4_router, failed=[0])
        in_switch = sum(r.offered_bytes for r in report.switch_reports)
        total = in_switch + report.failed_offered_bytes + report.fault_lost_bytes
        assert report.offered_bytes == total
        assert report.delivered_fraction == pytest.approx(
            report.delivered_bytes / total
        )
        assert report.loss_fraction == pytest.approx(
            (
                report.dropped_bytes
                + report.failed_offered_bytes
                + report.fault_lost_bytes
            )
            / total
        )

    def test_fraction_definitions_pinned(self):
        """Pin the definition with synthetic numbers: 300 failed + 200
        cut bytes are in BOTH the numerator population and the shared
        denominator, so fractions sum to 1 with zero delivered."""
        report = self._report()
        assert report.offered_bytes == 500
        assert report.delivered_bytes == 0
        assert report.lost_bytes == 500
        assert report.delivered_fraction == 0.0
        assert report.loss_fraction == 1.0
        assert report.delivered_fraction + report.loss_fraction == 1.0

    def test_empty_report_edge_cases(self):
        report = self._report(failed_offered_bytes=0, fault_lost_bytes=0)
        assert report.delivered_fraction == 1.0
        assert report.loss_fraction == 0.0


class TestDegradationReport:
    def test_intervals_partition_offer(self, h4_router):
        report = measure_degradation(
            h4_router, duration_ns=DURATION, seed=3, n_intervals=5
        )
        assert len(report.intervals) == 5
        assert sum(s.offered_bytes for s in report.intervals) == report.offered_bytes
        assert (
            sum(s.delivered_bytes for s in report.intervals)
            == report.delivered_bytes
        )
        assert report.availability() <= 1.0

    def test_midrun_outage_shows_in_intervals(self, h4_router):
        report = measure_degradation(
            h4_router,
            schedule=FaultSchedule(
                [SwitchFailure(switch=0, start_ns=8_000.0, end_ns=16_000.0)]
            ),
            duration_ns=DURATION,
            seed=3,
            n_intervals=5,
        )
        outage = report.intervals[2]  # [8 us, 12 us)
        healthy = measure_degradation(
            h4_router, duration_ns=DURATION, seed=3, n_intervals=5
        ).intervals[2]
        assert outage.delivered_fraction < healthy.delivered_fraction
        assert report.fault_events

    def test_to_dict_is_json_safe(self, h4_router):
        report = measure_degradation(
            h4_router, duration_ns=10_000.0, seed=1, n_intervals=2
        )
        json.dumps(report.to_dict())


class TestCampaign:
    def test_campaign_is_deterministic(self, h4_router):
        params = CampaignParams(
            n_scenarios=4, seed=11, duration_ns=8_000.0, n_intervals=2
        )
        first = run_campaign(h4_router, params)
        second = run_campaign(h4_router, params)
        assert first.to_dict() == second.to_dict()

    def test_campaign_seeds_differ(self, h4_router):
        a = run_campaign(
            h4_router,
            CampaignParams(n_scenarios=3, seed=1, duration_ns=8_000.0, n_intervals=2),
        )
        b = run_campaign(
            h4_router,
            CampaignParams(n_scenarios=3, seed=2, duration_ns=8_000.0, n_intervals=2),
        )
        schedules_a = [s["fault_events"] for s in a.scenarios]
        schedules_b = [s["fault_events"] for s in b.scenarios]
        assert schedules_a != schedules_b

    def test_infinite_mtbf_draws_nothing(self, h4_router):
        inf = float("inf")
        params = CampaignParams(
            n_scenarios=3,
            seed=5,
            duration_ns=8_000.0,
            n_intervals=2,
            switch_mtbf_ns=inf,
            channel_mtbf_ns=inf,
            oeo_mtbf_ns=inf,
            fiber_mtbf_ns=inf,
        )
        result = run_campaign(h4_router, params)
        assert result.n_faulted == 0
        assert all(s["delivered_fraction"] > 0.95 for s in result.scenarios)

    def test_params_validation(self):
        with pytest.raises(ConfigError):
            CampaignParams(n_scenarios=0)
        with pytest.raises(ConfigError):
            CampaignParams(switch_mtbf_ns=-1.0)


class TestSpecs:
    def test_parse_each_kind(self):
        assert parse_fault_event("switch:3") == SwitchFailure(switch=3)
        assert parse_fault_event("switch:1@5-20") == SwitchFailure(
            switch=1, start_ns=5_000.0, end_ns=20_000.0
        )
        assert parse_fault_event("channels:0:4@10-") == HBMChannelLoss(
            switch=0, n_channels=4, start_ns=10_000.0
        )
        assert parse_fault_event("oeo:2:0.5") == OEODegradation(
            switch=2, rate_factor=0.5
        )
        assert parse_fault_event("fiber:1:3@2-4") == FiberCut(
            ribbon=1, fiber=3, start_ns=2_000.0, end_ns=4_000.0
        )

    def test_parse_rejects_garbage(self):
        for bad in ("switch", "switch:x", "laser:0", "oeo:1", "switch:0@x"):
            with pytest.raises(ConfigError):
                parse_fault_event(bad)

    def test_parse_many_with_commas(self):
        schedule = parse_fault_specs(["switch:0,fiber:0:1@3-6", "oeo:1:0.8"])
        assert len(schedule) == 3


class TestHBMChannelFaults:
    def test_dead_channel_rejects_commands(self):
        from repro.config import HBMSwitchConfig
        from repro.hbm.controller import HBMController

        config = HBMSwitchConfig()
        controller = HBMController(config.stack, config.n_stacks)
        controller.apply_channel_loss(2, start_ns=0.0)
        dead = controller.channel(controller.n_channels - 1)
        assert not dead.available_at(0.0)
        survivor = controller.channel(0)
        assert survivor.available_at(0.0)

    def test_dead_window_recovers(self):
        from repro.config import HBMSwitchConfig
        from repro.hbm.controller import HBMController

        config = HBMSwitchConfig()
        controller = HBMController(config.stack, config.n_stacks)
        controller.apply_channel_loss(1, start_ns=10.0, end_ns=20.0)
        dead = controller.channel(controller.n_channels - 1)
        assert dead.available_at(5.0)
        assert not dead.available_at(15.0)
        assert dead.available_at(20.0)

    def test_command_on_dead_channel_raises(self):
        from repro.config import HBMSwitchConfig
        from repro.hbm.commands import Command, Op
        from repro.hbm.controller import HBMController
        from repro.hbm.timing import HBMTiming

        config = HBMSwitchConfig()
        timing = HBMTiming()
        controller = HBMController(config.stack, config.n_stacks, timing)
        controller.apply_channel_loss(1, start_ns=0.0)
        dead_index = controller.n_channels - 1
        cmd = Command(
            op=Op.ACT, channel=dead_index, bank=0, row=0,
            time=100.0, size_bytes=0,
        )
        with pytest.raises(TimingViolation, match="channel-dead"):
            controller.apply(cmd)


class TestFaultsCli:
    def test_faults_single_scenario(self, capsys):
        code = main(
            [
                "faults",
                "--fault", "switch:0@5-10",
                "--switches", "2",
                "--duration-us", "15",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Degradation summary" in out
        assert "Capacity over time" in out
        assert "switch 0 dead" in out

    def test_faults_json(self, capsys):
        code = main(
            [
                "faults",
                "--failed-switches", "1",
                "--switches", "2",
                "--duration-us", "10",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed_switches"] == [1]
        assert 0.0 <= payload["availability"] <= 1.0

    def test_faults_campaign_writes_json(self, capsys, tmp_path):
        out = tmp_path / "campaign.json"
        code = main(
            [
                "faults",
                "--campaign", "2",
                "--seed", "7",
                "--switches", "2",
                "--duration-us", "8",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n_scenarios"] == 2
        assert "availability" in payload
        assert len(payload["scenarios"]) == 2

    def test_simulate_failed_switches_prints_loss(self, capsys):
        code = main(
            [
                "simulate",
                "--failed-switches", "0",
                "--duration-us", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "failed_offered_bytes" in out

    def test_sweep_failed_switches(self, capsys):
        code = main(
            [
                "sweep",
                "--loads", "0.4",
                "--switches", "2",
                "--failed-switches", "1",
                "--duration-us", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "failed_offered_bytes" in out

    def test_bad_fault_spec_is_a_config_error(self, capsys):
        assert main(["faults", "--fault", "laser:0"]) == 2
