"""The numpy fluid engine: conservation, faults, drain, determinism.

These are unit tests of :mod:`repro.flow` against *analytic* ground
truth -- closed-form delivered fractions the fluid model must hit
exactly.  Cross-validation against the packet engine (the oracle) lives
in ``tests/test_fidelity_parity.py``.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from repro.config import scaled_router
from repro.core import PFIOptions, SplitParallelSwitch
from repro.errors import ConfigError
from repro.faults import FaultSchedule
from repro.faults.model import FiberCut, HBMChannelLoss, SwitchFailure
from repro.flow import (
    RateComponent,
    flow_degradation,
    flow_router_result,
    simulate_flow_router,
    simulate_flow_switch,
    uniform_rate_matrix,
)
from repro.reporting import report_to_dict
from repro.traffic import FixedSize, TrafficGenerator, uniform_matrix
from repro.units import rate_to_bytes_per_ns

DURATION = 20_000.0


def router_config(**kwargs):
    return scaled_router(**kwargs)


def uniform_components(config, load, duration_ns=DURATION):
    return [
        RateComponent(
            uniform_rate_matrix(
                config.n_ribbons,
                load,
                config.fibers_per_ribbon * config.per_fiber_rate_bps,
            ),
            ((0.0, duration_ns),),
        )
    ]


class TestRateComponent:
    def test_windows_are_half_open(self):
        component = RateComponent(np.zeros((2, 2)), ((10.0, 20.0),))
        assert not component.active_at(9.9)
        assert component.active_at(10.0)
        assert component.active_at(19.9)
        assert not component.active_at(20.0)

    def test_multiple_windows(self):
        component = RateComponent(np.zeros((2, 2)), ((0.0, 5.0), (10.0, 15.0)))
        assert component.active_at(2.0)
        assert not component.active_at(7.0)
        assert component.active_at(12.0)

    def test_uniform_rate_matrix_row_rate(self):
        # Each input port offers load * port_rate in total, spread
        # evenly over the outputs -- the fluid twin of uniform_matrix.
        matrix = uniform_rate_matrix(4, 0.8, 40e9)
        expected = 0.8 * rate_to_bytes_per_ns(40e9)
        assert matrix.sum(axis=1) == pytest.approx([expected] * 4)


class TestFlowSwitch:
    def test_admissible_load_delivers_everything(self):
        report = simulate_flow_switch(router_config().switch, load=0.7)
        assert report.delivered_bytes == report.offered_bytes
        assert report.dropped_bytes == 0
        assert report.residual_bytes == 0

    def test_byte_conservation(self):
        report = simulate_flow_switch(router_config().switch, load=0.9)
        assert (
            report.offered_bytes
            == report.delivered_bytes + report.dropped_bytes + report.residual_bytes
        )

    def test_zero_load_latency_is_nan(self):
        report = simulate_flow_switch(router_config().switch, load=0.0)
        assert report.delivered_bytes == 0
        assert report.latency["count"] == 0.0
        assert math.isnan(report.latency["mean_ns"])

    def test_report_is_json_safe(self):
        # Even the NaN latency of an idle switch must serialise (to
        # null), because flow cells flow through the result cache.
        report = simulate_flow_switch(router_config().switch, load=0.0)
        json.dumps(report_to_dict(report), allow_nan=False)

    def test_windowed_component_offers_only_its_window(self):
        config = router_config().switch
        rate = uniform_rate_matrix(config.n_ports, 0.5, config.port_rate_bps)
        half = [RateComponent(rate, ((0.0, DURATION / 2),))]
        full = [RateComponent(rate, ((0.0, DURATION),))]
        offered_half = simulate_flow_switch(
            config, duration_ns=DURATION, components=half
        ).offered_bytes
        offered_full = simulate_flow_switch(
            config, duration_ns=DURATION, components=full
        ).offered_bytes
        assert offered_half == pytest.approx(offered_full / 2, rel=1e-9)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigError):
            simulate_flow_switch(router_config().switch, duration_ns=0.0)


class TestFlowRouter:
    def test_admissible_uniform_delivers_everything(self):
        report = flow_router_result(
            router_config(), load=0.7, duration_ns=DURATION
        ).report
        assert report.delivered_fraction == pytest.approx(1.0)
        assert report.loss_fraction == pytest.approx(0.0)

    def test_per_switch_conservation(self):
        report = flow_router_result(
            router_config(), load=0.9, duration_ns=DURATION
        ).report
        for switch in report.switch_reports:
            assert (
                switch.offered_bytes
                == switch.delivered_bytes
                + switch.dropped_bytes
                + switch.residual_bytes
            )

    def test_whole_run_dead_switch_halves_delivery(self):
        # H = 2 with one switch dead for the whole run: exactly half the
        # offered bytes hit the dead split and are failed at ingress.
        config = router_config()
        schedule = FaultSchedule.from_failed_switches([1])
        report = flow_router_result(
            config, load=0.6, duration_ns=DURATION, schedule=schedule
        ).report
        assert report.failed_switches == [1]
        assert report.delivered_fraction == pytest.approx(0.5, abs=1e-6)
        assert report.failed_offered_bytes == pytest.approx(
            report.offered_bytes / 2, rel=1e-6
        )
        # The dead switch contributes no SwitchReport but its offered
        # share is still accounted per switch.
        assert len(report.switch_reports) == 1
        assert len(report.per_switch_offered_bytes) == config.n_switches

    def test_windowed_death_loses_exactly_the_window_share(self):
        # Switch 0 of H=2 dead for 1/4 of the run: its half of the
        # traffic is lost for that quarter -> delivered = 1 - 0.5/4.
        schedule = FaultSchedule(
            [SwitchFailure(switch=0, start_ns=5_000.0, end_ns=10_000.0)]
        )
        report = flow_router_result(
            router_config(), load=0.6, duration_ns=DURATION, schedule=schedule
        ).report
        assert report.delivered_fraction == pytest.approx(0.875, abs=1e-3)
        dead_drops = sum(
            s.drops_by_reason.get("switch-dead", 0) for s in report.switch_reports
        )
        assert dead_drops > 0

    def test_fiber_cut_loses_its_weight_share(self):
        # One of F=8 fibers on one of 4 ribbons, cut for half the run:
        # loss = (1/8) * (1/4) * (1/2) of the offered bytes.
        schedule = FaultSchedule(
            [FiberCut(ribbon=0, fiber=0, start_ns=0.0, end_ns=DURATION / 2)]
        )
        report = flow_router_result(
            router_config(), load=0.6, duration_ns=DURATION, schedule=schedule
        ).report
        expected_loss = (1 / 8) * (1 / 4) * 0.5
        assert report.fault_lost_bytes > 0
        assert report.loss_fraction == pytest.approx(expected_loss, rel=1e-3)

    def test_rejects_bad_weights_shape(self):
        config = router_config()
        with pytest.raises(ConfigError):
            simulate_flow_router(
                config,
                uniform_components(config, 0.5),
                duration_ns=DURATION,
                weights=np.ones((2, 2)),
            )

    def test_rejects_nonpositive_duration(self):
        config = router_config()
        with pytest.raises(ConfigError):
            simulate_flow_router(
                config, uniform_components(config, 0.5), duration_ns=-1.0
            )

    def test_deterministic_byte_identical(self):
        # No RNG anywhere in the fluid engine: two runs of the same cell
        # serialise byte for byte.
        config = router_config()
        schedule = FaultSchedule(
            [SwitchFailure(switch=0, start_ns=5_000.0, end_ns=10_000.0)]
        )
        runs = [
            json.dumps(
                report_to_dict(
                    flow_router_result(
                        config, load=0.8, duration_ns=DURATION, schedule=schedule
                    ).report
                ),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestSpeedup:
    def test_flow_engine_is_100x_the_packet_engine(self):
        # The fidelity trade the flow engine exists for: the same
        # H = 8 router scenario at >= 100x the packet engine's
        # packets-equivalent throughput, with a delivered-fraction gap
        # of at most 0.02.  The flow wall is the best of five (its runs
        # are sub-millisecond, so one pass would be scheduler noise).
        config = scaled_router(fibers_per_ribbon=32, n_switches=8)
        load, duration_ns = 0.7, 40_000.0
        packets = TrafficGenerator(
            n_ports=config.n_ribbons,
            port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
            matrix=uniform_matrix(config.n_ribbons, load),
            size_dist=FixedSize(1500),
            seed=0,
            flows_per_pair=256,
        ).materialize(duration_ns)
        sps = SplitParallelSwitch(config, options=PFIOptions(padding=True, bypass=True))
        start = time.perf_counter()
        packet = sps.run(packets, duration_ns, mode="sequential")
        packet_wall = time.perf_counter() - start

        flow_walls = []
        for _ in range(5):
            start = time.perf_counter()
            flow = flow_router_result(config, load=load, duration_ns=duration_ns).report
            flow_walls.append(time.perf_counter() - start)
        assert packet_wall / min(flow_walls) >= 100.0
        assert abs(flow.delivered_fraction - packet.delivered_fraction) <= 0.02

    def test_million_packet_cell_runs_in_seconds(self):
        # H = 16, 64 ribbons, 1 ms: a cell far beyond the packet engine.
        config = scaled_router(n_ribbons=64, fibers_per_ribbon=64, n_switches=16)
        start = time.perf_counter()
        report = flow_router_result(config, load=0.7, duration_ns=1_000_000.0).report
        assert time.perf_counter() - start < 10.0
        assert report.offered_bytes / 1500.0 >= 1_000_000


class TestDrainResidual:
    def test_starved_switch_keeps_residual(self):
        # Losing every HBM channel forever halts the memory: arrivals
        # accumulate and can never drain, so they stay residual (the
        # packet engine's un-drainable switch behaves the same way).
        config = router_config()
        total = config.switch.total_channels
        schedule = FaultSchedule(
            [HBMChannelLoss(switch=0, n_channels=total, start_ns=0.0)]
        )
        report = flow_router_result(
            config, load=0.6, duration_ns=DURATION, schedule=schedule
        ).report
        starved = report.switch_reports[0]
        assert starved.delivered_bytes == 0
        assert starved.residual_bytes > 0
        assert report.residual_bytes > 0

    def test_recovering_channel_loss_drains_in_the_tail(self):
        # Channels recover right at the end of the run: everything
        # queued during the outage drains afterwards, nothing is lost.
        config = router_config()
        total = config.switch.total_channels
        schedule = FaultSchedule(
            [
                HBMChannelLoss(
                    switch=0, n_channels=total, start_ns=0.0, end_ns=DURATION
                )
            ]
        )
        report = flow_router_result(
            config, load=0.4, duration_ns=DURATION, schedule=schedule
        ).report
        assert report.delivered_fraction == pytest.approx(1.0, abs=1e-6)


class TestFlowDegradation:
    def test_intervals_localise_the_outage(self):
        # A death window covering intervals 2-3 of 8 depresses exactly
        # those bins; pristine bins deliver their full offered share.
        schedule = FaultSchedule(
            [SwitchFailure(switch=0, start_ns=5_000.0, end_ns=10_000.0)]
        )
        report = flow_degradation(
            router_config(),
            schedule=schedule,
            load=0.6,
            duration_ns=DURATION,
            n_intervals=8,
        )
        assert len(report.intervals) == 8
        fractions = [
            i.delivered_bytes / i.offered_bytes for i in report.intervals[:-1]
        ]
        assert fractions[2] == pytest.approx(0.5, abs=0.01)
        assert fractions[3] == pytest.approx(0.5, abs=0.01)
        for idx in (0, 1, 4, 5, 6):
            assert fractions[idx] == pytest.approx(1.0, abs=0.01)

    def test_interval_offered_sums_to_report(self):
        report = flow_degradation(router_config(), load=0.6, duration_ns=DURATION)
        binned = sum(i.offered_bytes for i in report.intervals)
        assert binned == pytest.approx(report.offered_bytes, rel=1e-6)

    def test_report_round_trips_to_json(self):
        schedule = FaultSchedule([FiberCut(ribbon=0, fiber=1, start_ns=1_000.0)])
        report = flow_degradation(
            router_config(), schedule=schedule, load=0.6, duration_ns=DURATION
        )
        json.dumps(report.to_dict(), allow_nan=False)


def _reference_step(q1, q2, dt, arrivals, service, port_rate, in_cap, out_cap):
    """The tandem's general update with no shortcut taken."""
    avail = q1 + arrivals * dt
    row_total = avail.sum(axis=2)
    served1 = np.minimum(row_total, port_rate * dt)
    safe_rows = np.where(row_total > 0.0, row_total, 1.0)
    frac = np.where(row_total > 0.0, served1 / safe_rows, 0.0)
    moved = avail * frac[:, :, None]
    q1 = avail - moved
    occupancy = q1.sum(axis=2)
    excess = np.maximum(occupancy - in_cap, 0.0)
    safe_occ = np.where(occupancy > 0.0, occupancy, 1.0)
    keep = np.where(occupancy > 0.0, 1.0 - excess / safe_occ, 1.0)
    q1 = q1 * keep[:, :, None]
    avail2 = q2 + moved.sum(axis=1)
    served2 = np.minimum(avail2, service[:, None] * dt)
    q2 = avail2 - served2
    over = np.maximum(q2 - out_cap, 0.0)
    q2 = q2 - over
    return q1, q2, served2.sum(axis=1), excess.sum(axis=1), over.sum(axis=1), occupancy


class TestExactShortcuts:
    """The engine's shortcuts reproduce the general computation bit for
    bit: the tandem step's empty-queue and no-overflow paths, and the
    fault state looked up per interval instead of queried per time."""

    @pytest.mark.parametrize("n_tandems, n_ports", [(3, 4), (1, 2)])
    def test_tandem_step_matches_general_update(self, n_tandems, n_ports):
        from repro.flow.engine import _FluidTandem

        rng = np.random.default_rng(11)
        port_rate = 2.0
        in_cap, out_cap = 4.0 * n_ports, 3.0 * n_ports
        tandem = _FluidTandem(n_tandems, n_ports, port_rate, in_cap, out_cap)
        q1 = np.zeros((n_tandems, n_ports, n_ports))
        q2 = np.zeros((n_tandems, n_ports))
        dropped_sram = np.zeros(n_tandems)
        dropped_hbm = np.zeros(n_tandems)
        backlog = np.zeros(n_tandems)
        queue_integral = np.zeros(n_tandems)
        peak_q1 = np.zeros(n_tandems)
        peak_q2 = np.zeros(n_tandems)
        paths = set()
        for i in range(1_000):
            # Rates and lengths on a coarse dyadic grid, so rows and
            # outputs often land exactly on, or just past, their
            # capacity; phases alternate light, near-capacity,
            # overloaded and idle so every path of the step runs.
            dt = float(rng.integers(1, 17))
            scale = (0.05, 1.0, 1.5, 0.0, 0.4)[(i // 25) % 5]
            arrivals = rng.integers(0, 9, (n_tandems, n_ports, n_ports)) * scale / 8
            service = rng.integers(0, 33, n_tandems) / 4 * (i % 7 != 0)
            q1, q2, delivered, excess, over, occupancy = _reference_step(
                q1, q2, dt, arrivals, service, port_rate, in_cap, out_cap
            )
            dropped_sram = dropped_sram + excess
            dropped_hbm = dropped_hbm + over
            pre, backlog = backlog, q1.sum(axis=(1, 2)) + q2.sum(axis=1)
            queue_integral = queue_integral + 0.5 * (pre + backlog) * dt
            peak_q1 = np.maximum(peak_q1, occupancy.max(axis=1, initial=0.0))
            peak_q2 = np.maximum(peak_q2, q2.sum(axis=1))
            tandem.step(dt, arrivals, service)
            paths.add((tandem.q1 is tandem._empty_q1, tandem.q2 is tandem._empty_q2))
            assert np.array_equal(tandem.q1, q1)
            assert np.array_equal(tandem.q2, q2)
            assert np.array_equal(tandem.last_delivered, delivered)
            assert np.array_equal(tandem.last_backlog, backlog)
            assert np.array_equal(tandem.dropped_sram, dropped_sram)
            assert np.array_equal(tandem.dropped_hbm, dropped_hbm)
            assert np.array_equal(tandem.queue_integral, queue_integral)
            assert np.array_equal(tandem.peak_q1, peak_q1)
            assert np.array_equal(tandem.peak_q2, peak_q2)
        assert paths == {(True, True), (True, False), (False, False), (False, True)}
        assert dropped_sram.sum() > 0 and dropped_hbm.sum() > 0

    def test_fault_table_matches_direct_queries(self):
        from repro.faults.model import OEODegradation
        from repro.flow.engine import _fault_table

        config = router_config(fibers_per_ribbon=16, n_switches=4)
        schedule = FaultSchedule(
            [
                SwitchFailure(switch=0, start_ns=1_000.0, end_ns=3_000.0),
                SwitchFailure(switch=0, start_ns=2_500.0, end_ns=4_000.0),
                HBMChannelLoss(switch=1, n_channels=3, start_ns=1_000.0),
                OEODegradation(switch=1, rate_factor=0.7, start_ns=500.0, end_ns=2_000.0),
                OEODegradation(switch=1, rate_factor=0.9, start_ns=1_500.0, end_ns=6_000.0),
                FiberCut(ribbon=0, fiber=1, start_ns=700.0, end_ns=900.0),
            ]
        )
        live = [0, 1, 3]
        table = _fault_table(schedule, live, config)
        switch = config.switch
        port_rate = rate_to_bytes_per_ns(switch.port_rate_bps)
        edges = sorted(
            {e.start_ns for e in schedule} | {e.end_ns for e in schedule} - {math.inf}
        )
        times = [0.0, 10_000.0]
        for edge in edges:
            times += [edge, math.nextafter(edge, -math.inf), edge + 1e-9, edge + 1.0]
        for t in times:
            rates, dead = table.at(t)
            for idx, h in enumerate(live):
                view = schedule.switch_view(h, switch.total_channels)
                factor = min(1.0, switch.speedup)
                if view is not None:
                    factor = min(
                        view.oeo_rate_factor(t),
                        switch.speedup * view.channel_fraction(t),
                        1.0,
                    )
                assert rates[idx] == port_rate * max(factor, 0.0), (t, h)
                assert (idx in dead) == (view is not None and view.dead_at(t)), (t, h)
