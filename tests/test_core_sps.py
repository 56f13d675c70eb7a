"""Split-Parallel Switch: partitioning, independence, aggregate reports."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.config import scaled_router
from repro.core import HBMSwitch, PFIOptions, SplitParallelSwitch
from repro.core.fiber_split import ContiguousSplitter
from repro.core.sps import assign_fibers
from repro.errors import ConfigError, SimulationError
from repro.faults import FaultSchedule
from repro.traffic import FixedSize, TrafficGenerator, uniform_matrix

DURATION = 30_000.0


def router_traffic(config, load=0.6, duration=DURATION, seed=0):
    """Router-level traffic: matrix entries are fractions of the *ribbon*
    rate; each switch sees its fiber share."""
    gen = TrafficGenerator(
        n_ports=config.n_ribbons,
        port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
        matrix=uniform_matrix(config.n_ribbons, load),
        size_dist=FixedSize(1500),
        seed=seed,
        flows_per_pair=256,
    )
    return gen.materialize(duration)


class TestFiberAssignment:
    def test_assign_fibers_is_flow_stable(self, small_router):
        packets = router_traffic(small_router)
        fibers = assign_fibers(packets, small_router.fibers_per_ribbon)
        by_flow = {}
        for packet, fiber in zip(packets, fibers):
            key = packet.flow
            assert by_flow.setdefault(key, fiber) == fiber

    def test_fiber_range(self, small_router):
        packets = router_traffic(small_router)
        fibers = assign_fibers(packets, small_router.fibers_per_ribbon)
        assert all(0 <= f < small_router.fibers_per_ribbon for f in fibers)

    def test_rejects_zero_fibers(self, small_router):
        with pytest.raises(ConfigError):
            assign_fibers([], 0)


class TestPartitioning:
    def test_partition_covers_everything(self, small_router):
        sps = SplitParallelSwitch(small_router)
        packets = router_traffic(small_router)
        fibers = assign_fibers(packets, small_router.fibers_per_ribbon)
        switches = sps.switch_index([p.input_port for p in packets], fibers)
        counts = np.bincount(switches, minlength=small_router.n_switches)
        assert counts.size == small_router.n_switches
        assert counts.sum() == len(packets)

    def test_switch_for_follows_splitter(self, small_router):
        splitter = ContiguousSplitter(
            small_router.fibers_per_ribbon, small_router.n_switches
        )
        sps = SplitParallelSwitch(small_router, splitter=splitter)
        alpha = small_router.fibers_per_switch
        assert sps.switch_for(0, 0) == 0
        assert sps.switch_for(0, alpha) == 1

    def test_bounds_checked(self, small_router):
        sps = SplitParallelSwitch(small_router)
        with pytest.raises(ConfigError):
            sps.switch_for(99, 0)
        with pytest.raises(ConfigError):
            sps.switch_for(0, 99)

    def test_misaligned_inputs_rejected(self, small_router):
        sps = SplitParallelSwitch(small_router)
        packets = router_traffic(small_router)
        with pytest.raises(ConfigError):
            sps.run(packets, DURATION, fibers=[0])

    def test_splitter_shape_validated(self, small_router):
        with pytest.raises(ConfigError):
            SplitParallelSwitch(
                small_router, splitter=ContiguousSplitter(16, 4)
            )


class TestRouterRun:
    def test_full_router_delivers(self, small_router):
        sps = SplitParallelSwitch(
            small_router, options=PFIOptions(padding=True, bypass=True)
        )
        packets = router_traffic(small_router, load=0.6)
        report = sps.run(packets, DURATION)
        assert report.delivery_fraction == pytest.approx(1.0)
        assert report.dropped_bytes == 0
        assert report.ordering_violations == 0
        assert len(report.switch_reports) == small_router.n_switches

    def test_load_splits_roughly_evenly(self, small_router):
        sps = SplitParallelSwitch(small_router, options=PFIOptions(padding=True, bypass=True))
        packets = router_traffic(small_router, load=0.6)
        report = sps.run(packets, DURATION)
        assert report.load_imbalance < 1.5

    def test_oeo_energy_accounted(self, small_router):
        sps = SplitParallelSwitch(small_router, options=PFIOptions(padding=True, bypass=True))
        packets = router_traffic(small_router, load=0.4)
        report = sps.run(packets, DURATION)
        # One O/E/O pair per bit in and out.
        expected_bits = 8.0 * (report.offered_bytes + report.delivered_bytes)
        assert sps.oeo.total_bits == pytest.approx(expected_bits)

    def test_latency_summary_shape(self, small_router):
        sps = SplitParallelSwitch(small_router, options=PFIOptions(padding=True, bypass=True))
        packets = router_traffic(small_router, load=0.5)
        report = sps.run(packets, DURATION)
        summary = report.latency_summary()
        assert summary["count"] > 0
        assert summary["mean_ns"] > 0
        assert summary["max_ns"] >= summary["p99_ns"]

    def test_throughput_property(self, small_router):
        sps = SplitParallelSwitch(small_router, options=PFIOptions(padding=True, bypass=True))
        packets = router_traffic(small_router, load=0.5)
        report = sps.run(packets, DURATION)
        assert report.throughput_bps > 0


class TestIngestCore:
    """``run`` is a one-block stream through the same split as ``run_stream``."""

    SPAN = 5_000.0

    def _config(self):
        return scaled_router(fibers_per_ribbon=32, n_switches=8)

    def _generator(self, config):
        return TrafficGenerator(
            n_ports=config.n_ribbons,
            port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
            matrix=uniform_matrix(config.n_ribbons, 0.6),
            size_dist=FixedSize(1500),
            seed=2,
        )

    def _in_window_bytes(self, config):
        packets = self._generator(config).materialize(2 * self.SPAN)
        return sum(p.size_bytes for p in packets if p.arrival_ns < self.SPAN)

    def _assert_only_window_counted(self, report, expected):
        assert sum(report.per_switch_offered_bytes) == expected
        assert report.offered_bytes == expected
        assert report.offered_bytes == (
            report.delivered_bytes + report.lost_bytes + report.residual_bytes
        )

    def test_eager_run_drops_arrivals_past_the_horizon(self):
        config = self._config()
        packets = self._generator(config).materialize(2 * self.SPAN)
        report = SplitParallelSwitch(config).run(packets, self.SPAN)
        self._assert_only_window_counted(report, self._in_window_bytes(config))

    def test_stream_drops_arrivals_past_the_horizon(self):
        config = self._config()
        blocks = self._generator(config).blocks(2 * self.SPAN, 1_000.0)
        report = SplitParallelSwitch(config).run_stream(blocks, self.SPAN)
        self._assert_only_window_counted(report, self._in_window_bytes(config))

    def test_dead_switch_loses_only_in_window_traffic(self):
        config = self._config()
        schedule = FaultSchedule.from_failed_switches([3])
        late = SplitParallelSwitch(config).run(
            self._generator(config).materialize(2 * self.SPAN),
            self.SPAN,
            fault_schedule=schedule,
        )
        in_window = [
            p
            for p in self._generator(config).materialize(2 * self.SPAN)
            if p.arrival_ns < self.SPAN
        ]
        exact = SplitParallelSwitch(config).run(
            in_window, self.SPAN, fault_schedule=schedule
        )
        assert late.failed_offered_bytes == exact.failed_offered_bytes > 0
        assert late.lost_bytes == exact.lost_bytes
        self._assert_only_window_counted(late, self._in_window_bytes(config))

    def test_one_block_run_finishes_each_switch_before_the_next(self, monkeypatch):
        """The memory rule: switch h is offered and finished before
        switch h+1 is offered, so one switch's samples are live at a time."""
        calls = []
        offer, finish = HBMSwitch.stream_offer, HBMSwitch.stream_finish

        def spy_offer(switch, *args, **kwargs):
            calls.append(("offer", switch))
            return offer(switch, *args, **kwargs)

        def spy_finish(switch, *args, **kwargs):
            calls.append(("finish", switch))
            return finish(switch, *args, **kwargs)

        monkeypatch.setattr(HBMSwitch, "stream_offer", spy_offer)
        monkeypatch.setattr(HBMSwitch, "stream_finish", spy_finish)
        config = self._config()
        SplitParallelSwitch(config).run(
            self._generator(config).materialize(self.SPAN), self.SPAN
        )
        assert [kind for kind, _ in calls] == ["offer", "finish"] * config.n_switches
        switches = [switch for _, switch in calls]
        assert all(a is b for a, b in zip(switches[0::2], switches[1::2]))
        assert len({id(switch) for switch in switches}) == config.n_switches

    def test_arrivals_after_the_final_block_rejected(self):
        """Once the block reaching the horizon has finished every switch,
        a later block with in-window arrivals is a disordered stream."""
        config = self._config()
        blocks = itertools.chain(
            self._generator(config).blocks(self.SPAN),
            self._generator(config).blocks(self.SPAN),
        )
        with pytest.raises(SimulationError):
            SplitParallelSwitch(config).run_stream(blocks, self.SPAN)

    def test_parallel_stream_equals_sequential(self):
        """Pooled switches get every block's slice: the report matches
        the lockstep stream at any chunking."""
        config = self._config()

        def report(mode, block_ns):
            return SplitParallelSwitch(config).run_stream(
                self._generator(config).blocks(self.SPAN, block_ns),
                self.SPAN,
                mode=mode,
                n_workers=2,
            )

        sequential = dataclasses.asdict(report("sequential", self.SPAN))
        assert dataclasses.asdict(report("parallel", 700.0)) == sequential

    def test_in_process_observers_need_sequential_mode(self):
        config = self._config()
        for observer in (
            {"departure_sink": lambda departures, sizes: None},
            {"latency_sample_cap": 16},
        ):
            with pytest.raises(ConfigError, match="sequential"):
                SplitParallelSwitch(config).run_stream(
                    self._generator(config).blocks(self.SPAN),
                    self.SPAN,
                    mode="parallel",
                    **observer,
                )
