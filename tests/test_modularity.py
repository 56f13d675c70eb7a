"""Modularity and fault isolation (SS 2.2, *Modularity*)."""

import pytest

from repro.analysis import degradation_curve, modular_deployments
from repro.config import reference_router
from repro.core import PFIOptions, SplitParallelSwitch
from repro.errors import ConfigError
from repro.faults import FaultSchedule
from tests.test_core_sps import router_traffic

CFG = reference_router()


class TestModularDeployments:
    def test_all_divisor_groupings_enumerated(self):
        deployments = modular_deployments(CFG)
        assert [d.n_packages for d in deployments] == [1, 2, 4, 8, 16]

    def test_totals_are_invariant(self):
        deployments = modular_deployments(CFG)
        capacities = {round(d.total_capacity_bps) for d in deployments}
        powers = {round(d.total_power_w) for d in deployments}
        assert len(capacities) == 1
        assert len(powers) == 1

    def test_dense_and_fully_modular_extremes(self):
        deployments = modular_deployments(CFG)
        dense = deployments[0]
        modular = deployments[-1]
        assert dense.n_packages == 1 and dense.switches_per_package == 16
        assert modular.n_packages == 16 and modular.switches_per_package == 1
        # 16 packages of 1/16th the capacity (the paper's sentence).
        assert modular.capacity_per_package_bps == pytest.approx(
            dense.capacity_per_package_bps / 16
        )

    def test_fiber_budget_per_package(self):
        dense = modular_deployments(CFG)[0]
        assert dense.io_fibers_per_package == CFG.total_fibers

    def test_capacity_after_failures_is_linear(self):
        dense = modular_deployments(CFG)[0]
        assert dense.capacity_after_failures(0) == dense.total_capacity_bps
        assert dense.capacity_after_failures(4) == pytest.approx(
            dense.total_capacity_bps * 12 / 16
        )
        with pytest.raises(ConfigError):
            dense.capacity_after_failures(17)

    def test_degradation_curve(self):
        curve = degradation_curve(CFG)
        assert curve[0] == 1.0
        assert curve[-1] == 0.0
        assert len(curve) == 17
        assert all(a >= b for a, b in zip(curve, curve[1:]))


class TestFailureInjection:
    def test_failed_switch_loses_only_its_share(self, small_router):
        sps = SplitParallelSwitch(
            small_router, options=PFIOptions(padding=True, bypass=True)
        )
        packets = router_traffic(small_router, load=0.5)
        report = sps.run(
            packets, 30_000.0, fault_schedule=FaultSchedule.from_failed_switches([0])
        )
        # H = 2: roughly half the traffic is lost, the rest is delivered
        # perfectly -- failure is isolated.
        assert report.failed_switches == [0]
        assert 0.3 < report.failed_offered_bytes / report.offered_bytes < 0.7
        surviving = report.switch_reports
        assert len(surviving) == small_router.n_switches - 1
        assert all(r.delivery_fraction == pytest.approx(1.0) for r in surviving)
        assert all(r.ordering_violations == 0 for r in surviving)

    def test_survivor_latency_unaffected(self, small_router):
        packets = router_traffic(small_router, load=0.5, seed=4)
        healthy = SplitParallelSwitch(
            small_router, options=PFIOptions(padding=True, bypass=True)
        ).run(packets, 30_000.0)
        packets2 = router_traffic(small_router, load=0.5, seed=4)
        degraded = SplitParallelSwitch(
            small_router, options=PFIOptions(padding=True, bypass=True)
        ).run(
            packets2,
            30_000.0,
            fault_schedule=FaultSchedule.from_failed_switches([0]),
        )
        # Switch 1's report is identical in both runs: no shared state.
        healthy_s1 = healthy.switch_reports[1]
        degraded_s1 = degraded.switch_reports[0]  # only survivor
        assert degraded_s1.offered_bytes == healthy_s1.offered_bytes
        assert degraded_s1.latency["mean_ns"] == pytest.approx(
            healthy_s1.latency["mean_ns"]
        )

    def test_invalid_failed_switch_rejected(self, small_router):
        sps = SplitParallelSwitch(small_router)
        with pytest.raises(ConfigError):
            sps.run(
                [], 1000.0, fault_schedule=FaultSchedule.from_failed_switches([99])
            )

    def test_no_failures_reported_by_default(self, small_router):
        sps = SplitParallelSwitch(
            small_router, options=PFIOptions(padding=True, bypass=True)
        )
        packets = router_traffic(small_router, load=0.3)
        report = sps.run(packets, 30_000.0)
        assert report.failed_switches == []
        assert report.failed_offered_bytes == 0
