"""HBM switch end-to-end behaviour at unit-test scale."""

import pytest

from repro.core import HBMSwitch, PFIOptions
from repro.traffic import ArrivalProcess, FixedSize, TrafficGenerator, permutation_matrix, uniform_matrix
from tests.conftest import make_traffic

DURATION = 60_000.0


def run_switch(config, load=0.8, duration=DURATION, options=None, **traffic_kwargs):
    options = options or PFIOptions(padding=True, bypass=True)
    packets = make_traffic(config, load, duration, **traffic_kwargs)
    switch = HBMSwitch(config, options)
    report = switch.run(packets, duration)
    return switch, report, packets


class TestDelivery:
    def test_everything_delivered_at_moderate_load(self, small_switch):
        _, report, _ = run_switch(small_switch, load=0.7)
        assert report.delivery_fraction == pytest.approx(1.0)
        assert report.dropped_bytes == 0
        assert report.residual_bytes == 0

    def test_byte_conservation_audit(self, small_switch):
        switch, report, _ = run_switch(small_switch, load=0.9)
        audit = switch.audit()
        assert audit["balance"] == 0

    def test_packets_conserved(self, small_switch):
        _, report, packets = run_switch(small_switch, load=0.6)
        assert report.offered_packets == len(packets)
        assert report.delivered_packets == report.offered_packets

    def test_no_reordering(self, small_switch):
        _, report, _ = run_switch(small_switch, load=0.9)
        assert report.ordering_violations == 0

    def test_latencies_recorded_for_all(self, small_switch):
        _, report, packets = run_switch(small_switch, load=0.5)
        assert report.latency["count"] == len(packets)
        assert report.latency["mean_ns"] > 0


class TestThroughput:
    def test_normalized_throughput_tracks_load(self, small_switch):
        _, report, _ = run_switch(small_switch, load=0.8)
        assert report.normalized_throughput == pytest.approx(0.8, rel=0.1)

    def test_full_load_throughput(self, small_switch):
        # The paper's 100%-throughput regime (transitions inside the
        # baseline): sustained delivery within a few percent of offered.
        _, report, _ = run_switch(small_switch, load=1.0, duration=100_000.0)
        assert report.normalized_throughput > 0.93
        assert report.dropped_bytes == 0


class TestTrafficPatterns:
    def test_permutation_matrix(self, small_switch):
        packets_gen = TrafficGenerator(
            small_switch.n_ports,
            small_switch.port_rate_bps,
            permutation_matrix(small_switch.n_ports, 0.85),
            FixedSize(1500),
            seed=3,
        )
        packets = packets_gen.materialize(DURATION)
        switch = HBMSwitch(small_switch, PFIOptions(padding=True, bypass=True))
        report = switch.run(packets, DURATION)
        assert report.delivery_fraction == pytest.approx(1.0)
        assert report.ordering_violations == 0

    def test_bursty_arrivals(self, small_switch):
        _, report, _ = run_switch(
            small_switch, load=0.7, process=ArrivalProcess.ONOFF
        )
        assert report.delivery_fraction == pytest.approx(1.0)
        assert report.dropped_bytes == 0

    def test_small_packets(self, small_switch):
        _, report, _ = run_switch(small_switch, load=0.6, size=64)
        assert report.delivery_fraction == pytest.approx(1.0)
        assert report.ordering_violations == 0


class TestOptions:
    def test_without_padding_residue_remains(self, small_switch):
        packets = make_traffic(small_switch, 0.3, 20_000.0)
        switch = HBMSwitch(small_switch, PFIOptions(padding=False, bypass=False))
        report = switch.run(packets, 20_000.0)
        # Sub-frame tails cannot drain without padding; they are residue,
        # not losses.
        assert report.dropped_bytes == 0
        assert report.residual_bytes >= 0
        assert report.delivered_bytes + report.residual_bytes == report.offered_bytes

    def test_validated_timing_full_pipeline(self, small_switch):
        """The whole switch, with every HBM command checked for legality."""
        packets = make_traffic(small_switch, 0.8, 20_000.0)
        switch = HBMSwitch(
            small_switch, PFIOptions(padding=True, bypass=True, validate_hbm_timing=True)
        )
        report = switch.run(packets, 20_000.0)
        assert report.delivery_fraction == pytest.approx(1.0)
        assert switch.pfi.controller.peak_open_banks() <= 4

    def test_speedup_reduces_latency(self, small_switch):
        # Compare pure PFI (no padding: padding at every idle phase
        # dilutes read slots and masks the speedup's effect).
        import dataclasses

        base_packets = make_traffic(small_switch, 0.9, 40_000.0, seed=11)
        slow = HBMSwitch(small_switch, PFIOptions())
        slow_report = slow.run(base_packets, 40_000.0)

        fast_cfg = dataclasses.replace(small_switch, speedup=2.0)
        fast_packets = make_traffic(fast_cfg, 0.9, 40_000.0, seed=11)
        fast = HBMSwitch(fast_cfg, PFIOptions())
        fast_report = fast.run(fast_packets, 40_000.0)
        assert fast_report.latency["mean_ns"] < slow_report.latency["mean_ns"]


class TestSRAMObservations:
    def test_peaks_are_bounded(self, small_switch):
        _, report, _ = run_switch(small_switch, load=0.9)
        # Tail never needs more than a few frames per output.
        assert report.tail_sram_peak_bytes <= 4 * small_switch.n_ports * small_switch.frame_bytes
        assert report.input_sram_peak_bytes > 0

    def test_drop_reasons_empty_when_lossless(self, small_switch):
        _, report, _ = run_switch(small_switch, load=0.5)
        assert report.drops_by_reason == {}


class TestLatencyBreakdown:
    def test_components_sum_to_total(self, small_switch):
        _, report, _ = run_switch(small_switch, load=0.7)
        total = sum(report.latency_breakdown.values())
        assert total == pytest.approx(report.latency["mean_ns"], rel=0.01)

    def test_all_stages_present(self, small_switch):
        _, report, _ = run_switch(small_switch, load=0.5)
        assert set(report.latency_breakdown) == {
            "batch_fill", "frame_fill", "hbm_wait", "egress",
        }
        assert all(v >= 0 for v in report.latency_breakdown.values())

    def test_aggregation_delay_dominates_at_light_load(self, small_switch):
        """At light load the fill stages (batch + frame) dominate; the
        HBM wait is bounded by the padding/bypass deadline."""
        _, report, _ = run_switch(small_switch, load=0.05)
        fill = (
            report.latency_breakdown["batch_fill"]
            + report.latency_breakdown["frame_fill"]
        )
        assert fill > report.latency_breakdown["egress"]

    def test_fill_delay_shrinks_with_load(self, small_switch):
        _, light, _ = run_switch(small_switch, load=0.2)
        _, heavy, _ = run_switch(small_switch, load=0.95)
        assert (
            heavy.latency_breakdown["batch_fill"]
            < light.latency_breakdown["batch_fill"]
        )
