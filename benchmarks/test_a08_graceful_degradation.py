"""A8 -- Graceful degradation: capacity vs failed switches (SS 2.2).

The modularity claim is quantitative: the H switches share nothing, so
killing k of them costs *exactly* k/H of capacity -- no cascade, no
amplification.  This bench simulates the paper's H = 16 router with
k = 0, 1, 2, 4, 8 dead switches and checks the measured delivered
capacity against the closed form (H - k)/H within 1%, then shows a
mid-run failure-and-repair producing a capacity dip of the same depth.
"""

import pytest

from repro.analysis import capacity_fraction_after_failures
from repro.config import scaled_router
from repro.core import PFIOptions, SplitParallelSwitch
from repro.faults import (
    FaultSchedule,
    SwitchFailure,
    deterministic_fibers,
    measure_degradation,
    router_fault_traffic,
)

from conftest import show

H = 16
DURATION = 12_000.0
LOAD = 0.5


def h16_router():
    return scaled_router(n_switches=H, fibers_per_ribbon=4 * H)


def run_with_failures(config, n_failed, seed=0):
    packets = router_fault_traffic(
        config, load=LOAD, duration_ns=DURATION, seed=seed
    )
    fibers = deterministic_fibers(packets, config.fibers_per_ribbon)
    router = SplitParallelSwitch(
        config, options=PFIOptions(padding=True, bypass=True)
    )
    return router.run(
        packets, DURATION, fibers=fibers,
        fault_schedule=FaultSchedule.from_failed_switches(range(n_failed)),
    )


def test_a08_capacity_vs_failed_switches(benchmark):
    config = h16_router()

    def run():
        return {k: run_with_failures(config, k) for k in (0, 1, 2, 4, 8)}

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    healthy = reports[0]
    rows = []
    for k, report in reports.items():
        measured = report.delivered_bytes / healthy.delivered_bytes
        expected = capacity_fraction_after_failures(H, k)
        rows.append((f"k = {k}", f"{expected:.4f}", f"{measured:.4f}"))
        assert measured == pytest.approx(expected, abs=0.01)
    show("A8: delivered capacity with k of 16 switches dead", rows)
    # Fault isolation: survivors deliver everything they were offered.
    for k, report in reports.items():
        for switch_report in report.switch_reports:
            assert switch_report.delivery_fraction == pytest.approx(1.0, abs=1e-6)


def test_a08_midrun_failure_and_repair(benchmark):
    config = scaled_router(n_switches=4, fibers_per_ribbon=16)
    window = FaultSchedule(
        [SwitchFailure(switch=0, start_ns=10_000.0, end_ns=20_000.0)]
    )

    def run():
        return measure_degradation(
            config, schedule=window, load=LOAD,
            duration_ns=30_000.0, seed=1, n_intervals=6,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    show(
        "A8b: capacity over time, switch 0 down on [10 us, 20 us)",
        [
            (
                f"{s.start_ns / 1e3:.0f}-{s.end_ns / 1e3:.0f} us",
                "3/4" if 10_000.0 <= s.start_ns < 20_000.0 else "~1",
                f"{s.delivered_fraction:.3f}",
            )
            for s in report.intervals
        ],
        headers=("interval", "expected fraction", "measured"),
    )
    dip = [s for s in report.intervals if 10_000.0 <= s.start_ns < 20_000.0]
    recovered = [s for s in report.intervals if s.start_ns >= 20_000.0]
    assert dip and recovered
    # During the outage one of four switches is gone: ~75% capacity.
    for sample in dip:
        assert sample.delivered_fraction == pytest.approx(0.75, abs=0.1)
    # After repair the router catches back up (>= full rate: backlog +
    # drain tail land here).
    assert max(s.delivered_fraction for s in recovered) > 0.9
