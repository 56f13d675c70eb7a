"""Windowed time series: semantics, determinism, and the layers above.

Unit coverage for :mod:`repro.telemetry.timeseries` (window attribution,
ring eviction, EWMA, empty-series nulls, merge algebra), plus the
integration contracts the ISSUE states: sequential and parallel packet
runs dump byte-identical series (faults included), flow-fidelity
telemetry tracks the packet oracle on an admissible cell, fabric link
timelines dip inside a :class:`~repro.faults.LinkCut` window, and the
sweep event stream validates against its schema.
"""

import dataclasses
import json
import math

import pytest

from repro.config import scaled_router
from repro.errors import ConfigError
from repro.telemetry import (
    MetricsRegistry,
    TimeSeries,
    TimeSeriesRecorder,
    read_jsonl,
    sparkline,
    to_jsonl,
    to_prometheus,
)
from repro.telemetry.timeseries import DEFAULT_WINDOW_NS, SPARK_BLOCKS


def make_series(**kwargs):
    defaults = dict(window_ns=100.0, agg="sum", capacity=8)
    defaults.update(kwargs)
    return TimeSeries("repro_test_series", "test", (("switch", "0"),), **defaults)


class TestWindowAttribution:
    def test_edge_event_belongs_to_starting_window(self):
        series = make_series()
        series.observe(0.0, 15.0)
        series.observe(99.9, 20.0)
        series.observe(100.0, 5.0)   # exactly on the edge: window 1
        series.observe(250.0, 7.0)
        assert series.windows() == [(0, 35.0), (1, 5.0), (2, 7.0)]

    def test_sum_and_max_aggregation(self):
        total = make_series(agg="sum")
        high = make_series(agg="max")
        for value in (3.0, 9.0, 6.0):
            total.observe(50.0, value)
            high.observe(50.0, value)
        assert total.windows() == [(0, 18.0)]
        assert high.windows() == [(0, 9.0)]

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            make_series(window_ns=0.0)
        with pytest.raises(ConfigError):
            make_series(agg="median")
        with pytest.raises(ConfigError):
            make_series(capacity=0)


class TestRingEviction:
    def test_oldest_window_evicted_at_capacity(self):
        series = make_series(capacity=3)
        for window in range(5):
            series.observe(window * 100.0, 1.0)
        assert [w for w, _ in series.windows()] == [2, 3, 4]
        assert series.evicted == 2

    def test_late_observation_to_aged_window_dropped(self):
        series = make_series(capacity=3)
        for window in range(5):
            series.observe(window * 100.0, 1.0)
        series.observe(0.0, 99.0)  # window 0 aged out long ago
        assert [w for w, _ in series.windows()] == [2, 3, 4]
        assert all(value == 1.0 for _, value in series.windows())
        assert series.evicted == 3

    def test_update_of_live_window_never_evicts(self):
        series = make_series(capacity=3)
        for window in range(3):
            series.observe(window * 100.0, 1.0)
        series.observe(50.0, 1.0)  # window 0 is still live
        assert series.windows() == [(0, 2.0), (1, 1.0), (2, 1.0)]
        assert series.evicted == 0


class TestEwma:
    def test_exact_values(self):
        series = make_series()
        for window, value in enumerate([10.0, 20.0, 30.0]):
            series.observe(window * 100.0, value)
        smoothed = series.ewma(alpha=0.5)
        assert smoothed == [(0, 10.0), (1, 15.0), (2, 22.5)]

    def test_deterministic_across_observation_order(self):
        forward, backward = make_series(), make_series()
        points = [(0.0, 1.0), (150.0, 2.0), (320.0, 3.0)]
        for t, v in points:
            forward.observe(t, v)
        for t, v in reversed(points):
            backward.observe(t, v)
        assert forward.ewma(0.3) == backward.ewma(0.3)

    def test_alpha_one_is_identity(self):
        series = make_series()
        series.observe(0.0, 4.0)
        series.observe(100.0, 8.0)
        assert series.ewma(1.0) == series.windows()

    def test_bad_alpha_rejected(self):
        series = make_series()
        with pytest.raises(ValueError):
            series.ewma(0.0)
        with pytest.raises(ValueError):
            series.ewma(1.5)


class TestEmptySeries:
    def test_python_stats_are_nan(self):
        series = make_series()
        assert math.isnan(series.mean)
        assert math.isnan(series.peak)
        assert series.total == 0.0

    def test_dump_stats_are_null(self):
        recorder = TimeSeriesRecorder()
        recorder.series("repro_test_series", window_ns=100.0, switch="0")
        entry = recorder.to_list()[0]
        assert entry["mean"] is None
        assert entry["peak"] is None
        assert entry["windows"] == []
        assert json.loads(recorder.dumps())["series"][0]["mean"] is None


class TestMerge:
    def test_sum_merge_is_elementwise(self):
        a, b = make_series(), make_series()
        a.observe(0.0, 1.0)
        a.observe(100.0, 2.0)
        b.observe(100.0, 3.0)
        b.observe(200.0, 4.0)
        a._merge(b)
        assert a.windows() == [(0, 1.0), (1, 5.0), (2, 4.0)]

    def test_max_merge_is_elementwise(self):
        a, b = make_series(agg="max"), make_series(agg="max")
        a.observe(0.0, 5.0)
        b.observe(0.0, 3.0)
        b.observe(100.0, 7.0)
        a._merge(b)
        assert a.windows() == [(0, 5.0), (1, 7.0)]

    def test_merge_trims_to_capacity(self):
        a, b = make_series(capacity=3), make_series(capacity=3)
        for window in range(3):
            a.observe(window * 100.0, 1.0)
            b.observe((window + 3) * 100.0, 1.0)
        a._merge(b)
        assert [w for w, _ in a.windows()] == [3, 4, 5]
        assert a.evicted == 3

    def test_incompatible_series_rejected(self):
        a = make_series(window_ns=100.0)
        with pytest.raises(ConfigError):
            a._merge(make_series(window_ns=200.0))
        with pytest.raises(ConfigError):
            a._merge(make_series(agg="max"))

    def test_recorder_merge_doubles(self):
        a, b = TimeSeriesRecorder(), TimeSeriesRecorder()
        for recorder in (a, b):
            recorder.series("s", window_ns=100.0, switch="0").observe(0.0, 2.0)
        a.merge(b)
        assert a.get("s", switch="0").windows() == [(0, 4.0)]


class TestRecorderDumps:
    def fill(self, recorder):
        recorder.series("b_series", window_ns=100.0, switch="1").observe(0.0, 1.0)
        recorder.series("a_series", window_ns=100.0, switch="0").observe(50.0, 2.0)

    def test_round_trip_byte_identical(self):
        recorder = TimeSeriesRecorder()
        self.fill(recorder)
        clone = TimeSeriesRecorder.from_dict(json.loads(json.dumps(recorder.to_dict())))
        assert clone.dumps() == recorder.dumps()

    def test_dump_order_independent_of_creation_order(self):
        forward, backward = TimeSeriesRecorder(), TimeSeriesRecorder()
        self.fill(forward)
        backward.series("a_series", window_ns=100.0, switch="0").observe(50.0, 2.0)
        backward.series("b_series", window_ns=100.0, switch="1").observe(0.0, 1.0)
        assert forward.dumps() == backward.dumps()

    def test_get_or_create_checks_compatibility(self):
        recorder = TimeSeriesRecorder()
        recorder.series("s", window_ns=100.0, switch="0")
        with pytest.raises(ConfigError):
            recorder.series("s", window_ns=200.0, switch="0")


class TestRegistryIntegration:
    def test_series_ride_in_registry_dumps(self):
        registry = MetricsRegistry()
        registry.timeseries("repro_test_series", switch="0").observe(0.0, 3.0)
        dump = registry.to_dict()
        assert dump["timeseries"][0]["name"] == "repro_test_series"
        clone = MetricsRegistry.from_dict(dump)
        assert clone.dumps() == registry.dumps()
        assert clone.get_timeseries("repro_test_series", switch="0").windows() == [(0, 3.0)]

    def test_seriesless_dump_has_no_timeseries_key(self):
        registry = MetricsRegistry()
        registry.counter("c", "plain counter").inc(1)
        assert "timeseries" not in registry.to_dict()

    def test_registry_merge_folds_series(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry in (a, b):
            registry.timeseries("s", switch="0").observe(0.0, 1.0)
        a.merge(b)
        assert a.get_timeseries("s", switch="0").windows() == [(0, 2.0)]

    def test_jsonl_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", "counter").inc(2)
        registry.timeseries("repro_s", switch="0").observe(150.0, 4.0)
        clone = read_jsonl(to_jsonl(registry))
        assert clone.dumps() == registry.dumps()

    def test_prometheus_renders_window_samples(self):
        registry = MetricsRegistry()
        series = registry.timeseries("repro_s", "windowed", switch="0")
        series.observe(0.0, 1.0)
        series.observe(DEFAULT_WINDOW_NS, 2.0)
        text = to_prometheus(registry)
        assert 'window_start_ns="0"' in text
        assert f'window_start_ns="{DEFAULT_WINDOW_NS:g}"' in text


class TestSparkline:
    def test_eight_levels(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        assert line == SPARK_BLOCKS

    def test_flat_and_empty(self):
        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0]) == SPARK_BLOCKS[0] * 2

    def test_explicit_bounds(self):
        assert sparkline([5.0], lo=0.0, hi=10.0) == SPARK_BLOCKS[4]


DURATION = 20_000.0


def router_packets(config, load=0.6, seed=0):
    from repro.traffic import FixedSize, TrafficGenerator, uniform_matrix

    gen = TrafficGenerator(
        n_ports=config.n_ribbons,
        port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
        matrix=uniform_matrix(config.n_ribbons, load),
        size_dist=FixedSize(1500),
        seed=seed,
        flows_per_pair=256,
    )
    return gen.materialize(DURATION)


class TestSeqParSeriesIdentity:
    """Parallel worker merge reproduces sequential series byte for byte."""

    def run_modes(self, config, schedule=None):
        from repro.core import PFIOptions, SplitParallelSwitch

        dumps = []
        for mode, workers in (("sequential", None), ("parallel", 2)):
            registry = MetricsRegistry()
            sps = SplitParallelSwitch(
                config, options=PFIOptions(padding=True, bypass=True)
            )
            sps.run(
                router_packets(config),
                DURATION,
                mode=mode,
                n_workers=workers,
                fault_schedule=schedule,
                telemetry=registry,
            )
            dumps.append(registry.to_dict())
        return dumps

    def test_series_byte_identical(self):
        config = scaled_router(n_switches=2)
        seq, par = self.run_modes(config)
        assert seq["timeseries"]  # the packet pipeline actually records
        names = {entry["name"] for entry in seq["timeseries"]}
        assert "repro_window_bytes" in names
        assert "repro_window_occupancy_bytes" in names
        assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)

    def test_series_byte_identical_under_faults(self):
        from repro.faults import parse_fault_specs

        config = scaled_router(n_switches=2)
        schedule = parse_fault_specs(["switch:1@2-8"])
        seq, par = self.run_modes(config, schedule=schedule)
        assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)
        dropped = [
            entry for entry in seq["timeseries"]
            if entry["name"] == "repro_window_dropped_bytes" and entry["windows"]
        ]
        assert dropped, "a faulted run must record dropped-byte windows"


class TestFlowTelemetry:
    """Satellite 1: flow fidelity exports real counters with packet parity."""

    def scenario(self, **overrides):
        from repro.runtime import router_scenario

        config = scaled_router(n_switches=2)
        base = dict(
            load=0.6, duration_ns=DURATION, seed=0, telemetry=True,
            fidelity="flow",
        )
        base.update(overrides)
        return router_scenario(config, **base)

    def test_flow_scenario_exports_counters(self):
        from repro.runtime.scenario import execute_scenario

        payload = execute_scenario(self.scenario())
        telemetry = payload["telemetry"]
        assert telemetry is not None
        by_name = {}
        for metric in telemetry["metrics"]:
            key = (metric["name"], metric["labels"].get("point"))
            by_name[key] = by_name.get(key, 0.0) + metric["value"]
        report = payload["report"]
        assert by_name[("repro_flow_bytes_total", "offered")] == pytest.approx(
            report["offered_bytes"], rel=1e-9
        )
        assert by_name[("repro_flow_bytes_total", "delivered")] == pytest.approx(
            report["delivered_bytes"], rel=1e-9
        )

    def test_flow_counters_track_packet_oracle(self):
        from repro.runtime.scenario import execute_scenario

        flow = execute_scenario(self.scenario())
        packet = execute_scenario(
            self.scenario(fidelity="packet", telemetry=False)
        )
        flow_delivered = sum(
            m["value"] for m in flow["telemetry"]["metrics"]
            if m["name"] == "repro_flow_bytes_total"
            and m["labels"]["point"] == "delivered"
        )
        packet_delivered = packet["report"]["delivered_bytes"]
        assert flow_delivered == pytest.approx(packet_delivered, rel=0.02)

    def test_faulted_flow_exports_loss_counters(self):
        from repro.faults import parse_fault_specs
        from repro.runtime.scenario import execute_scenario

        schedule = parse_fault_specs(["switch:1@2-8"])
        payload = execute_scenario(self.scenario(schedule=schedule, load=0.6))
        names = {m["name"] for m in payload["telemetry"]["metrics"]}
        assert "repro_flow_lost_bytes_total" in names
        assert "repro_fault_active_window" in names


class TestFabricLinkTimeline:
    """The fabric's synthesized link series shows a LinkCut as a dip."""

    def run_fabric(self, schedule=None):
        from repro.fabric.engine import simulate_fabric
        from repro.fabric.topology import ExpanderTopology

        registry = MetricsRegistry()
        report = simulate_fabric(
            scaled_router(n_switches=2),
            ExpanderTopology(n_routers=4, degree=3, seed=1),
            load=0.5,
            duration_ns=50_000.0,
            fidelity="flow",
            schedule=schedule,
            registry=registry,
        )
        return registry, report

    def cut_schedule(self):
        from repro.faults import parse_fault_specs

        return parse_fault_specs(["link:0:1@10-30"])

    def link_series(self, registry):
        series = registry.get_timeseries(
            "repro_fabric_link_window_utilization", link="0:1"
        )
        if series is None:
            series = registry.get_timeseries(
                "repro_fabric_link_window_utilization", link="1:0"
            )
        assert series is not None
        return series

    def test_uncut_link_timeline_is_flat(self):
        registry, _ = self.run_fabric()
        series = self.link_series(registry)
        values = series.values()
        assert values and max(values) == pytest.approx(min(values))
        assert max(values) > 0.0

    def test_cut_window_dips(self):
        registry, report = self.run_fabric(schedule=self.cut_schedule())
        series = self.link_series(registry)
        by_window = dict(series.windows())
        width = series.window_ns
        inside = [
            v for w, v in by_window.items()
            if 10_000.0 <= w * width and (w + 1) * width <= 30_000.0
        ]
        outside = [v for w, v in by_window.items() if (w + 1) * width <= 10_000.0]
        assert inside and outside
        assert max(inside) < min(outside)
        assert min(inside) == pytest.approx(0.0)
        # the dump also rides on the report
        assert report.telemetry is not None
        assert report.to_dict()["telemetry"] == report.telemetry

    def test_router_label_added_to_engine_series(self):
        registry, _ = self.run_fabric()
        routers = {
            dict(series.labels).get("router")
            for series in registry.iter_timeseries()
            if series.name.startswith("repro_flow_")
        }
        assert routers and None not in routers


class TestEventStream:
    def test_emit_and_validate(self, tmp_path):
        from repro.runtime import EventStream, validate_events

        path = tmp_path / "events.jsonl"
        with EventStream.open(str(path), clock=lambda: 0.0) as events:
            events.emit("sweep_start", n_cells=2, shard=None)
            events.emit("cell_start", index=0, digest="d0")
            events.emit("cell_finish", index=0, digest="d0", status="ok")
            events.emit("sweep_finish", n_executed=1, n_cached=0, n_unresolved=1)
        parsed = validate_events(path.read_text())
        assert [e["kind"] for e in parsed] == [
            "sweep_start", "cell_start", "cell_finish", "sweep_finish"
        ]
        assert [e["seq"] for e in parsed] == [0, 1, 2, 3]

    def test_unknown_kind_and_missing_fields_rejected(self, tmp_path):
        import io

        from repro.runtime import EventStream

        events = EventStream(io.StringIO(), clock=lambda: 0.0)
        with pytest.raises(ConfigError):
            events.emit("cell_explode", index=0)
        with pytest.raises(ConfigError):
            events.emit("cell_start", index=0)  # digest missing

    def test_validate_rejects_corrupt_streams(self):
        from repro.runtime import validate_events

        with pytest.raises(ConfigError):
            validate_events("")
        with pytest.raises(ConfigError):
            validate_events('{"schema":"wrong"}\n')
        header = '{"schema":"repro-events-v1"}\n'
        with pytest.raises(ConfigError):
            validate_events(header + '{"kind":"nope","seq":0,"ts":0}\n')
        with pytest.raises(ConfigError):
            validate_events(
                header
                + '{"kind":"sweep_start","seq":1,"ts":0,"n_cells":1}\n'
            )

    def test_runtime_map_emits_lifecycle(self, tmp_path):
        from repro.runtime import (
            EventStream,
            Runtime,
            switch_scenario,
            validate_events,
        )

        config = scaled_router(n_switches=2).switch
        scenarios = [
            switch_scenario(
                config, load=load, duration_ns=2_000.0, fidelity="flow"
            )
            for load in (0.4, 0.6)
        ]
        cache = tmp_path / "cache"
        path = tmp_path / "events.jsonl"
        runtime = Runtime(cache_dir=str(cache))
        with EventStream.open(str(path)) as events:
            runtime.map(scenarios, events=events)
        cold = validate_events(path.read_text())
        kinds = [e["kind"] for e in cold]
        assert kinds[0] == "sweep_start"
        assert kinds[-1] == "sweep_finish"
        assert kinds.count("cell_start") == 2
        assert kinds.count("cell_finish") == 2
        assert cold[-1]["n_executed"] == 2

        warm_path = tmp_path / "warm.jsonl"
        with EventStream.open(str(warm_path)) as events:
            runtime.map(scenarios, events=events)
        warm = validate_events(warm_path.read_text())
        assert [e["kind"] for e in warm].count("cell_cached") == 2
        assert warm[-1]["n_cached"] == 2
        assert warm[-1]["n_executed"] == 0
