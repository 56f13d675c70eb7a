"""Telemetry layer: registry semantics, exports, span taxonomy, fault tags.

The determinism-critical parity test (parallel vs sequential dumps)
lives in ``tests/test_parallel_exec.py`` next to the other bit-identity
guarantees; this module covers the layer itself.
"""

import json
import math

import pytest

from repro.core import HBMSwitch, PFIOptions
from repro.errors import ConfigError
from repro.telemetry import (
    DEFAULT_NS_BUCKETS,
    MetricsRegistry,
    PrometheusParseError,
    STAGES,
    SwitchTelemetry,
    parse_prometheus,
    record_fault_loss,
    stage_summaries,
    tag_fault_windows,
    to_jsonl,
    to_prometheus,
    write_metrics,
)
from tests.conftest import make_traffic


class TestInstruments:
    def test_counter_accumulates_and_rejects_decrease(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", switch="0")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", switch="0")
        b = registry.counter("c_total", switch="0")
        c = registry.counter("c_total", switch="1")
        assert a is b
        assert a is not c
        assert len(registry) == 2

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m", switch="0")
        with pytest.raises(ConfigError):
            registry.gauge("m", switch="0")

    def test_histogram_buckets_and_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_ns", buckets=(10.0, 20.0, 40.0))
        for value in (5.0, 15.0, 15.0, 100.0):
            hist.observe(value)
        assert hist.bucket_counts == [1, 2, 0, 1]
        assert hist.count == 4
        assert hist.sum == 135.0
        assert hist.mean == pytest.approx(33.75)
        assert 10.0 <= hist.quantile(0.5) <= 20.0
        # Overflow bucket floors at the last finite bound.
        assert hist.quantile(1.0) == 40.0

    def test_observe_n_matches_repeated_observe(self):
        registry = MetricsRegistry()
        a = registry.histogram("h_ns", which="a")
        b = registry.histogram("h_ns", which="b")
        for _ in range(7):
            a.observe(300.0)
        b.observe_n(300.0, 7)
        assert a.bucket_counts == b.bucket_counts
        assert a.sum == b.sum and a.count == b.count

    def test_unsorted_bounds_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigError):
            registry.histogram("h_ns", buckets=(20.0, 10.0))


class TestMergeAndSerialise:
    def _sample(self, scale=1):
        registry = MetricsRegistry()
        registry.counter("c_total", "c", switch="0").inc(10 * scale)
        registry.gauge("g", "g", switch="0").set(5 * scale)
        hist = registry.histogram("h_ns", "h", switch="0")
        hist.observe_n(75.0, 3 * scale)
        return registry

    def test_merge_sums_counters_and_histograms_maxes_gauges(self):
        a = self._sample(scale=1)
        b = self._sample(scale=2)
        a.merge(b)
        assert a.get("c_total", switch="0").value == 30
        assert a.get("g", switch="0").value == 10
        assert a.get("h_ns", switch="0").count == 9

    def test_merge_adopts_unseen_series_by_copy(self):
        a = MetricsRegistry()
        b = self._sample()
        a.merge(b)
        a.get("c_total", switch="0").inc(5)
        assert b.get("c_total", switch="0").value == 10

    def test_merge_rejects_mismatched_bounds(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("h_ns", buckets=(1.0, 2.0)).observe(1.0)
        b.histogram("h_ns", buckets=(1.0, 3.0)).observe(1.0)
        with pytest.raises(ConfigError):
            a.merge(b)

    def test_round_trip_is_byte_identical(self):
        registry = self._sample()
        dump = registry.to_dict()
        clone = MetricsRegistry.from_dict(dump)
        assert clone.dumps() == registry.dumps()

    def test_dump_order_independent_of_creation_order(self):
        a = MetricsRegistry()
        a.counter("x_total", switch="0").inc(1)
        a.counter("a_total", switch="0").inc(2)
        b = MetricsRegistry()
        b.counter("a_total", switch="0").inc(2)
        b.counter("x_total", switch="0").inc(1)
        assert a.dumps() == b.dumps()

    def test_from_dict_rejects_unknown_schema(self):
        with pytest.raises(ConfigError):
            MetricsRegistry.from_dict({"schema": "v0", "metrics": []})


class TestExport:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "a counter", switch="0").inc(3)
        registry.gauge("repro_g", "a gauge").set(2.5)
        hist = registry.histogram("repro_h_ns", "a histogram", switch="0")
        hist.observe(75.0)
        hist.observe(1e9)  # overflow bucket
        return registry

    def test_prometheus_round_trip_parses(self):
        text = to_prometheus(self._registry())
        samples = parse_prometheus(text)
        assert samples["repro_x_total"] == [({"switch": "0"}, 3.0)]
        assert samples["repro_g"] == [({}, 2.5)]
        buckets = samples["repro_h_ns_bucket"]
        inf_bucket = [v for labels, v in buckets if labels["le"] == "+Inf"]
        assert inf_bucket == [2.0]
        assert samples["repro_h_ns_count"] == [({"switch": "0"}, 2.0)]

    def test_hostile_label_values_round_trip(self):
        registry = MetricsRegistry()
        hostile = {
            "brace": 'va}l"ue',
            "slash": "back\\slash",
            "newline": "line\nbreak",
            "comma": 'a="1",b="2"',
        }
        registry.counter("repro_hostile_total", "escaping", **hostile).inc(1)
        samples = parse_prometheus(to_prometheus(registry))
        assert samples["repro_hostile_total"] == [(hostile, 1.0)]

    def test_parse_rejects_headerless_samples(self):
        with pytest.raises(PrometheusParseError):
            parse_prometheus('mystery_metric{x="1"} 2\n')

    def test_parse_rejects_non_cumulative_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="2"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
        )
        with pytest.raises(PrometheusParseError):
            parse_prometheus(text)

    def test_parse_rejects_inf_count_mismatch(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\n'
            'h_bucket{le="+Inf"} 1\n'
            "h_count 2\n"
        )
        with pytest.raises(PrometheusParseError):
            parse_prometheus(text)

    def test_jsonl_lines_are_valid_json(self):
        lines = to_jsonl(self._registry()).strip().splitlines()
        header = json.loads(lines[0])
        assert header == {"schema": "repro-telemetry-v1"}
        names = {json.loads(line)["name"] for line in lines[1:]}
        assert names == {"repro_x_total", "repro_g", "repro_h_ns"}

    def test_write_metrics_picks_format_by_extension(self, tmp_path):
        registry = self._registry()
        prom = tmp_path / "m.prom"
        jsonl = tmp_path / "m.jsonl"
        write_metrics(registry, str(prom))
        write_metrics(registry, str(jsonl))
        assert prom.read_text().startswith("# HELP")
        assert jsonl.read_text().startswith('{"schema"')


class TestSwitchTelemetry:
    def test_instrumented_switch_populates_stage_histograms(self, small_switch):
        registry = MetricsRegistry()
        telemetry = SwitchTelemetry(registry, small_switch, switch=0)
        switch = HBMSwitch(
            small_switch, PFIOptions(padding=True, bypass=True), telemetry=telemetry
        )
        packets = make_traffic(small_switch, 0.7, 20_000.0)
        report = switch.run(packets, 20_000.0)
        summaries = stage_summaries(registry)
        assert set(summaries) == set(STAGES)
        # A single switch sees no fiber split; every other stage must fire.
        for stage in ("oeo", "batch", "stripe", "drain"):
            assert summaries[stage]["count"] > 0, stage
        assert (
            summaries["hbm_write"]["count"]
            + summaries["hbm_read"]["count"]
            + summaries["bypass"]["count"]
        ) > 0
        ingress = registry.get(
            "repro_pipeline_bytes_total", point="ingress", switch="0"
        )
        assert ingress.value == report.offered_bytes

    def test_disabled_switch_records_nothing(self, small_switch):
        switch = HBMSwitch(small_switch, PFIOptions(padding=True, bypass=True))
        assert switch.telemetry is None
        packets = make_traffic(small_switch, 0.5, 10_000.0)
        switch.run(packets, 10_000.0)

    def test_stripe_frame_bytes_is_exact_in_aggregate(self, small_switch):
        registry = MetricsRegistry()
        telemetry = SwitchTelemetry(registry, small_switch, switch=0)
        telemetry.hbm_phase(True, 500.0, 0, 1001, 8)
        telemetry.settle()
        values = [c.value for c in telemetry.channel_bytes]
        assert sum(values) == 1001
        # 1001 = 8 * 125 + 1: the remainder byte goes to channel 0.
        assert values[:8] == [126.0] + [125.0] * 7

    def test_drop_counter_is_lazily_labeled(self, small_switch):
        registry = MetricsRegistry()
        telemetry = SwitchTelemetry(registry, small_switch, switch=2)
        telemetry.drop("no-route", 64)
        telemetry.drop("no-route", 36)
        counter = registry.get(
            "repro_pipeline_dropped_bytes_total", reason="no-route", switch="2"
        )
        assert counter.value == 100


class TestFaultTags:
    def test_schedule_windows_become_info_gauges(self):
        from repro.faults import parse_fault_specs

        registry = MetricsRegistry()
        schedule = parse_fault_specs(["switch:1@5-20", "channels:0:2"])
        tag_fault_windows(registry, schedule)
        windows = registry.series("repro_fault_active_window")
        assert len(windows) == 2
        labels = [dict(w.labels) for w in windows]
        assert {"SwitchFailure", "HBMChannelLoss"} == {l["kind"] for l in labels}
        permanent = next(l for l in labels if l["kind"] == "HBMChannelLoss")
        assert permanent["end_ns"] == "inf"
        # Label-encoded windows keep the dump JSON-safe despite inf.
        json.dumps(registry.to_dict())

    def test_fault_loss_counter(self):
        registry = MetricsRegistry()
        record_fault_loss(registry, "switch", "3", 1500)
        record_fault_loss(registry, "switch", "3", 500)
        record_fault_loss(registry, "switch", "3", 0)  # no-op
        counter = registry.get(
            "repro_fault_lost_bytes_total", scope="switch", index="3"
        )
        assert counter.value == 2000


class TestStageSummaries:
    def test_empty_registry_reports_full_taxonomy(self):
        summaries = stage_summaries(MetricsRegistry())
        assert list(summaries) == list(STAGES)
        assert all(s["count"] == 0.0 for s in summaries.values())

    def test_rollup_sums_across_switches(self):
        registry = MetricsRegistry()
        for switch in ("0", "1"):
            registry.histogram(
                "repro_stage_latency_ns", stage="drain", switch=switch
            ).observe_n(75.0, 4)
        assert stage_summaries(registry)["drain"]["count"] == 8.0
