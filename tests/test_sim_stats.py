"""Measurement instruments: meters, recorders, trackers, counters."""

import math

import pytest

from repro.sim import DropCounter, LatencyRecorder, OccupancyTracker, ThroughputMeter


class TestThroughputMeter:
    def test_counts_bytes_and_events(self):
        meter = ThroughputMeter()
        meter.record(100, 0.0)
        meter.record(200, 10.0)
        assert meter.total_bytes == 300
        assert meter.count == 2

    def test_rate_over_span(self):
        meter = ThroughputMeter()
        meter.record(100, 0.0)
        meter.record(100, 100.0)
        # 200 bytes over 100 ns = 2 B/ns = 16 Gb/s.
        assert meter.rate_bps() == pytest.approx(16e9)

    def test_rate_with_explicit_window(self):
        meter = ThroughputMeter()
        meter.record(125, 40.0)
        assert meter.rate_bps(window_ns=1000.0) == pytest.approx(1e9)

    def test_empty_meter_rate_is_zero(self):
        assert ThroughputMeter().rate_bps() == 0.0

    def test_single_event_rate_is_zero_without_window(self):
        meter = ThroughputMeter()
        meter.record(100, 5.0)
        assert meter.rate_bps() == 0.0


class TestLatencyRecorder:
    def test_statistics(self):
        rec = LatencyRecorder()
        for v in [10.0, 20.0, 30.0, 40.0]:
            rec.record(v)
        assert len(rec) == 4
        assert rec.mean == pytest.approx(25.0)
        assert rec.minimum == 10.0
        assert rec.maximum == 40.0
        assert rec.percentile(50) == pytest.approx(25.0)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1.0)

    def test_percentile_bounds(self):
        rec = LatencyRecorder()
        rec.record(1.0)
        with pytest.raises(ValueError):
            rec.percentile(101)

    def test_summary_keys(self):
        rec = LatencyRecorder()
        rec.record(5.0)
        summary = rec.summary()
        assert set(summary) == {"count", "mean_ns", "p50_ns", "p99_ns", "max_ns"}
        assert summary["count"] == 1.0

    def test_empty_summary_is_nan(self):
        # "no samples" must be distinguishable from "zero latency":
        # every statistic is NaN (null in JSON), the count stays 0.
        summary = LatencyRecorder().summary()
        assert summary["count"] == 0.0
        for key in ("mean_ns", "p50_ns", "p99_ns", "max_ns"):
            assert math.isnan(summary[key])

    def test_empty_statistics_are_nan(self):
        rec = LatencyRecorder()
        assert math.isnan(rec.mean)
        assert math.isnan(rec.minimum)
        assert math.isnan(rec.maximum)
        assert math.isnan(rec.percentile(50))


class TestOccupancyTracker:
    def test_peak(self):
        tracker = OccupancyTracker()
        tracker.observe(5)
        tracker.observe(12)
        tracker.observe(3)
        assert tracker.peak == 12
        assert tracker.current == 3

    def test_empty_tracker(self):
        assert OccupancyTracker().peak == 0.0


class TestDropCounter:
    def test_accumulates_by_reason(self):
        drops = DropCounter()
        drops.record(100, "overflow")
        drops.record(50, "overflow")
        drops.record(10, "policy")
        assert drops.dropped_items == 3
        assert drops.dropped_bytes == 160
        assert drops.by_reason == {"overflow": 2, "policy": 1}
        assert drops.any

    def test_loss_fraction(self):
        drops = DropCounter()
        drops.record(25)
        assert drops.loss_fraction(100) == pytest.approx(0.25)
        assert drops.loss_fraction(0) == 0.0

    def test_clean_counter(self):
        assert not DropCounter().any
