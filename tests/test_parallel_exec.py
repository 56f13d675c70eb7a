"""Parallel split-switch execution: work units, worker pools, and the
bit-identity guarantee between sequential and parallel modes."""

import pytest

from repro.core import PFIOptions, SplitParallelSwitch
from repro.core.sps import RouterReport, assign_fibers
from repro.errors import ConfigError
from repro.reporting import report_to_json
from repro.sim import (
    SwitchWorkUnit,
    execute_work_unit,
    resolve_worker_count,
    run_parallel_tasks,
)
from repro.traffic import FixedSize, TrafficGenerator, uniform_matrix
from repro.traffic.stream import ArrivalBlock

DURATION = 30_000.0


def router_traffic(config, load=0.6, duration=DURATION, seed=0):
    gen = TrafficGenerator(
        n_ports=config.n_ribbons,
        port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
        matrix=uniform_matrix(config.n_ribbons, load),
        size_dist=FixedSize(1500),
        seed=seed,
        flows_per_pair=256,
    )
    return gen.materialize(duration)


def run_router(config, mode, load=0.6, seed=0, **kwargs):
    sps = SplitParallelSwitch(config, options=PFIOptions(padding=True, bypass=True))
    packets = router_traffic(config, load=load, seed=seed)
    return sps.run(packets, DURATION, mode=mode, **kwargs)


class TestWorkerCount:
    def test_defaults_to_cpu_count_capped_by_units(self):
        assert resolve_worker_count(None, 1) == 1

    def test_explicit_count_capped_by_units(self):
        assert resolve_worker_count(8, 3) == 3

    def test_explicit_count_respected(self):
        assert resolve_worker_count(2, 8) == 2

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ConfigError):
            resolve_worker_count(bad, 4)


class TestWorkUnits:
    def _units(self, small_router, n=2):
        sps = SplitParallelSwitch(
            small_router, options=PFIOptions(padding=True, bypass=True)
        )
        packets = router_traffic(small_router)
        block = ArrivalBlock.from_packets(packets, DURATION)
        fibers = assign_fibers(block, small_router.fibers_per_ribbon)
        switches = sps.switch_index(block.inputs, fibers)
        return [
            SwitchWorkUnit(
                index=k,
                config=small_router.switch,
                options=sps.options,
                timing=None,
                blocks=(block.select(switches == k),),
                duration_ns=DURATION,
            )
            for k in range(min(n, small_router.n_switches))
        ]

    def test_execute_returns_report(self, small_router):
        units = self._units(small_router, n=1)
        report = execute_work_unit(units[0])
        assert report.offered_packets == len(units[0].blocks[0])

    def test_run_parallel_tasks_preserves_order(self, small_router):
        units = self._units(small_router, n=2)
        reports = run_parallel_tasks(execute_work_unit, units, n_workers=2)
        assert len(reports) == 2
        for unit, report in zip(units, reports):
            assert report.offered_packets == len(unit.blocks[0])

    def test_single_worker_runs_inline(self, small_router):
        units = self._units(small_router, n=2)

        def exploding_factory(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("pool must not be created for one worker")

        reports = run_parallel_tasks(
            execute_work_unit, units, n_workers=1, executor_factory=exploding_factory
        )
        assert len(reports) == 2


class TestModes:
    def test_parallel_matches_sequential_exactly(self, small_router):
        seq = run_router(small_router, "sequential")
        par = run_router(small_router, "parallel", n_workers=2)
        assert report_to_json(seq) == report_to_json(par)

    def test_parallel_matches_at_overload(self, small_router):
        seq = run_router(small_router, "sequential", load=1.0, seed=7)
        par = run_router(small_router, "parallel", load=1.0, seed=7, n_workers=2)
        assert seq.delivered_bytes == par.delivered_bytes
        assert seq.dropped_bytes == par.dropped_bytes
        assert [r.residual_bytes for r in seq.switch_reports] == [
            r.residual_bytes for r in par.switch_reports
        ]

    def test_auto_mode_runs(self, small_router):
        seq = run_router(small_router, "sequential")
        auto = run_router(small_router, "auto", n_workers=2)
        assert report_to_json(seq) == report_to_json(auto)

    def test_unknown_mode_rejected(self, small_router):
        with pytest.raises(ConfigError):
            run_router(small_router, "turbo")

    def test_oeo_energy_identical_across_modes(self, small_router):
        sps_seq = SplitParallelSwitch(
            small_router, options=PFIOptions(padding=True, bypass=True)
        )
        sps_par = SplitParallelSwitch(
            small_router, options=PFIOptions(padding=True, bypass=True)
        )
        packets = router_traffic(small_router)
        sps_seq.run(packets, DURATION, mode="sequential")
        sps_par.run(router_traffic(small_router), DURATION, mode="parallel", n_workers=2)
        assert sps_seq.oeo.total_bits == sps_par.oeo.total_bits


class TestTelemetryParity:
    """The determinism invariant extends to telemetry: a parallel run's
    metric dump must be byte-identical to the sequential run's."""

    def test_dumps_byte_identical_across_modes(self, small_router):
        from repro.telemetry import MetricsRegistry

        reg_seq = MetricsRegistry()
        reg_par = MetricsRegistry()
        seq = run_router(small_router, "sequential", telemetry=reg_seq)
        par = run_router(small_router, "parallel", n_workers=2, telemetry=reg_par)
        assert reg_seq.dumps() == reg_par.dumps()
        assert seq.telemetry == par.telemetry
        assert report_to_json(seq) == report_to_json(par)

    def test_dumps_identical_under_faults(self, small_router):
        from repro.faults import parse_fault_specs
        from repro.telemetry import MetricsRegistry

        schedule = parse_fault_specs(["channels:1:2@5-20"])
        regs = []
        for mode, workers in (("sequential", None), ("parallel", 2)):
            reg = MetricsRegistry()
            sps = SplitParallelSwitch(
                small_router, options=PFIOptions(padding=True, bypass=True)
            )
            sps.run(
                router_traffic(small_router),
                DURATION,
                mode=mode,
                n_workers=workers,
                fault_schedule=schedule,
                telemetry=reg,
            )
            regs.append(reg)
        assert regs[0].dumps() == regs[1].dumps()

    def test_untelemetered_run_attaches_nothing(self, small_router):
        report = run_router(small_router, "sequential")
        assert report.telemetry is None
        assert report.stage_summaries() == {}


class TestRouterReportDefaults:
    def test_failed_switches_lists_are_independent(self):
        a = RouterReport(switch_reports=[], per_switch_offered_bytes=[], duration_ns=1.0)
        b = RouterReport(switch_reports=[], per_switch_offered_bytes=[], duration_ns=1.0)
        a.failed_switches.append(3)
        assert b.failed_switches == []
