"""A4 -- Modularity and fault isolation (SS 2.2, *Modularity*).

"The SPS architecture enables a modular approach, from a single dense
1.31 Pb/s I/O package with 16 HBM switches, to 16 parallel packages of
1/16th the capacity."  Because switches share nothing, a switch failure
costs exactly its fibers' traffic; survivors are bit-identical to the
healthy run.  Both facts are demonstrated by simulation.
"""

import pytest

from repro.analysis import degradation_curve, modular_deployments
from repro.config import scaled_router
from repro.core import PFIOptions, SplitParallelSwitch
from repro.faults import FaultSchedule
from repro.traffic import FixedSize, TrafficGenerator, uniform_matrix
from repro.units import format_rate

from conftest import show

DURATION = 20_000.0


def router_traffic(config, load=0.5, seed=0):
    gen = TrafficGenerator(
        n_ports=config.n_ribbons,
        port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
        matrix=uniform_matrix(config.n_ribbons, load),
        size_dist=FixedSize(1500),
        seed=seed,
        flows_per_pair=256,
    )
    return gen.materialize(DURATION)


def test_a04_deployment_table(benchmark, reference):
    deployments = benchmark(modular_deployments, reference)
    show(
        "A4: packaging options for the same 16 switches",
        [
            (
                d.n_packages,
                d.switches_per_package,
                format_rate(d.capacity_per_package_bps),
                f"{d.power_per_package_w / 1e3:.2f} kW",
                d.io_fibers_per_package,
            )
            for d in deployments
        ],
        headers=("packages", "switches/pkg", "capacity/pkg", "power/pkg", "fibers/pkg"),
    )
    dense, modular = deployments[0], deployments[-1]
    assert modular.capacity_per_package_bps == pytest.approx(
        dense.capacity_per_package_bps / 16
    )
    assert dense.total_power_w == pytest.approx(modular.total_power_w)
    curve = degradation_curve(reference)
    assert curve[1] == pytest.approx(15 / 16)


def test_a04_fault_isolation_by_simulation(benchmark):
    config = scaled_router(n_switches=4, fibers_per_ribbon=16)

    def run():
        healthy = SplitParallelSwitch(
            config, options=PFIOptions(padding=True, bypass=True)
        ).run(router_traffic(config), DURATION)
        degraded = SplitParallelSwitch(
            config, options=PFIOptions(padding=True, bypass=True)
        ).run(
            router_traffic(config),
            DURATION,
            fault_schedule=FaultSchedule.from_failed_switches([2]),
        )
        return healthy, degraded

    healthy, degraded = benchmark.pedantic(run, rounds=1, iterations=1)
    lost_fraction = degraded.failed_offered_bytes / degraded.offered_bytes
    show(
        "A4b: one of 4 switches failed (simulated)",
        [
            ("traffic lost", "~1/4 (its fibers)", f"{lost_fraction:.1%}"),
            ("survivors' delivery", "100%", f"{min(r.delivery_fraction for r in degraded.switch_reports):.1%}"),
            ("survivors' reordering", 0, sum(r.ordering_violations for r in degraded.switch_reports)),
        ],
    )
    assert 0.15 < lost_fraction < 0.35
    assert all(
        r.delivery_fraction == pytest.approx(1.0) for r in degraded.switch_reports
    )
    # Survivor behaviour is identical to the healthy run (shared-nothing):
    # same offered bytes and same mean latency for each surviving switch.
    healthy_by_offer = sorted(r.offered_bytes for r in healthy.switch_reports)
    degraded_offers = sorted(r.offered_bytes for r in degraded.switch_reports)
    assert all(o in healthy_by_offer for o in degraded_offers)
