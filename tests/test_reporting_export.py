"""Report export: dict/JSON round-trips for pipelines."""

import json

import pytest

from repro.core import HBMSwitch, PFIOptions, SplitParallelSwitch
from repro.reporting import report_to_dict, report_to_json
from tests.conftest import make_traffic
from tests.test_core_sps import router_traffic


class TestSwitchReportExport:
    @pytest.fixture
    def report(self, small_switch):
        packets = make_traffic(small_switch, 0.5, 10_000.0)
        switch = HBMSwitch(small_switch, PFIOptions(padding=True, bypass=True))
        return switch.run(packets, 10_000.0)

    def test_dict_has_headline_fields(self, report):
        data = report_to_dict(report)
        assert data["offered_bytes"] == report.offered_bytes
        assert data["delivery_fraction"] == report.delivery_fraction
        assert data["pfi"]["frames_written"] == report.pfi.frames_written
        assert "latency_breakdown" in data

    def test_json_is_valid_and_round_trips(self, report):
        parsed = json.loads(report_to_json(report))
        assert parsed["delivered_bytes"] == report.delivered_bytes
        assert parsed["latency"]["count"] == report.latency["count"]

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            report_to_dict(object())


class TestRouterReportExport:
    def test_router_report_nests_switches(self, small_router):
        sps = SplitParallelSwitch(
            small_router, options=PFIOptions(padding=True, bypass=True)
        )
        packets = router_traffic(small_router, load=0.4)
        report = sps.run(packets, 20_000.0)
        data = report_to_dict(report)
        assert len(data["switches"]) == small_router.n_switches
        assert data["delivery_fraction"] == report.delivery_fraction
        json.loads(report_to_json(report))  # valid JSON


def _null_paths(text):
    """The key paths of every ``null`` in ``text``; a bare NaN or
    Infinity literal fails the parse."""

    def reject(constant):
        raise ValueError(f"bare {constant} in report JSON")

    paths = set()

    def walk(value, path):
        if value is None:
            paths.add(path)
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(item, path + (key,))
        elif isinstance(value, list):
            for index, item in enumerate(value):
                walk(item, path + (index,))

    walk(json.loads(text, parse_constant=reject), ())
    return paths


#: The report fields an idle switch leaves NaN, which serialise as null.
IDLE_SWITCH_NULLS = {
    ("latency", stat) for stat in ("mean_ns", "p50_ns", "p99_ns", "max_ns")
} | {
    ("latency_breakdown", stage)
    for stage in ("batch_fill", "frame_fill", "hbm_wait", "egress")
}


def _idle_switch_one_router(config, telemetry=None):
    """A router run whose switch 1 sees no traffic: every fiber that
    feeds it is cut for the whole run."""
    from repro.core.fiber_split import ContiguousSplitter
    from repro.faults import FaultSchedule, FiberCut

    splitter = ContiguousSplitter(config.fibers_per_ribbon, config.n_switches)
    cuts = FaultSchedule([
        FiberCut(ribbon=r, fiber=f)
        for r in range(config.n_ribbons)
        for f in splitter.fibers_to(r, 1)
    ])
    sps = SplitParallelSwitch(
        config, splitter=splitter, options=PFIOptions(padding=True, bypass=True)
    )
    return sps.run(
        router_traffic(config, load=0.4, duration=10_000.0), 10_000.0,
        fault_schedule=cuts, telemetry=telemetry,
    )


class TestNaNBecomesNull:
    """NaN maps to null on the latency statistics and nowhere else."""

    def test_switch_without_traffic(self, small_router):
        switch = HBMSwitch(small_router.switch, PFIOptions(padding=True, bypass=True))
        report = switch.run([], 10_000.0)
        assert report.latency["count"] == 0
        assert _null_paths(report_to_json(report)) == IDLE_SWITCH_NULLS | {
            ("telemetry",)
        }

    def test_router_with_one_idle_switch(self, small_router):
        report = _idle_switch_one_router(small_router)
        assert report.switch_reports[1].offered_bytes == 0
        assert report.switch_reports[0].delivered_bytes > 0
        # The router's latency roll-up skips the idle switch: no null.
        assert _null_paths(report_to_json(report)) == {
            ("switches", 1) + path for path in IDLE_SWITCH_NULLS
        } | {("switches", 0, "telemetry"), ("switches", 1, "telemetry")}

    def test_telemetry_dumps_pass_through(self, small_router):
        from repro.telemetry import MetricsRegistry

        report = _idle_switch_one_router(small_router, MetricsRegistry())
        data = report_to_dict(report)
        nulls = _null_paths(report_to_json(report))
        outside = {p for p in nulls if "telemetry" not in p}
        assert outside == {("switches", 1) + path for path in IDLE_SWITCH_NULLS}
        # Inside a dump, the only nulls are the ones the registry writes
        # itself: the mean and peak of a series with no windows.
        inside = nulls - outside
        assert inside
        for path in inside:
            *head, index, stat = path
            assert head[-2:] == ["telemetry", "timeseries"], path
            assert stat in ("mean", "peak"), path
            dump = data if len(head) == 2 else data["switches"][head[1]]
            assert dump["telemetry"]["timeseries"][index]["windows"] == [], path
        # The report's dumps are the run's own, not copies.
        assert data["telemetry"] is report.telemetry
