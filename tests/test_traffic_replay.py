"""Trace I/O: save/load round-trips, replay re-timing, error handling."""

import io

import pytest

from repro.errors import ConfigError
from repro.traffic import load_trace, replay, save_trace, trace_to_string
from tests.conftest import make_traffic


@pytest.fixture
def packets(small_switch):
    return make_traffic(small_switch, 0.5, 10_000.0, seed=8)


class TestRoundTrip:
    def test_string_roundtrip_preserves_everything(self, packets):
        text = trace_to_string(packets)
        loaded = load_trace(io.StringIO(text))
        assert len(loaded) == len(packets)
        for original, copy in zip(packets, loaded):
            assert copy.arrival_ns == original.arrival_ns
            assert copy.size_bytes == original.size_bytes
            assert copy.input_port == original.input_port
            assert copy.output_port == original.output_port
            assert copy.flow == original.flow

    def test_file_roundtrip(self, packets, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace(packets, path)
        loaded = load_trace(path)
        assert len(loaded) == len(packets)

    def test_pids_are_sequential(self, packets):
        loaded = load_trace(io.StringIO(trace_to_string(packets)))
        assert [p.pid for p in loaded] == list(range(len(loaded)))

    def test_loaded_trace_drives_simulation(self, small_switch, packets):
        from repro.core import HBMSwitch, PFIOptions

        loaded = load_trace(io.StringIO(trace_to_string(packets)))
        report = HBMSwitch(small_switch, PFIOptions(padding=True, bypass=True)).run(
            loaded, 10_000.0
        )
        assert report.delivery_fraction == pytest.approx(1.0)


class TestLoadErrors:
    def test_missing_columns(self):
        with pytest.raises(ConfigError):
            load_trace(io.StringIO("arrival_ns,size_bytes\n1.0,100\n"))

    def test_unsorted_rejected(self, packets):
        rows = trace_to_string(packets).splitlines()
        scrambled = "\n".join([rows[0], rows[2], rows[1]])
        with pytest.raises(ConfigError):
            load_trace(io.StringIO(scrambled))

    def test_bad_field_reports_line(self):
        header = (
            "arrival_ns,size_bytes,input_port,output_port,"
            "src_ip,dst_ip,src_port,dst_port,protocol"
        )
        bad = f"{header}\n1.0,notanint,0,0,1,2,3,4,6\n"
        with pytest.raises(ConfigError) as excinfo:
            load_trace(io.StringIO(bad))
        assert "line 2" in str(excinfo.value)


class TestReplay:
    def test_identity_replay(self, packets):
        again = replay(packets)
        assert [p.arrival_ns for p in again] == [
            p.arrival_ns - packets[0].arrival_ns for p in packets
        ]

    def test_scaling_halves_load(self, packets):
        slower = replay(packets, time_scale=2.0)
        original_span = packets[-1].arrival_ns - packets[0].arrival_ns
        new_span = slower[-1].arrival_ns - slower[0].arrival_ns
        assert new_span == pytest.approx(2 * original_span)

    def test_offset(self, packets):
        shifted = replay(packets, offset_ns=500.0)
        assert shifted[0].arrival_ns == 500.0

    def test_flows_preserved(self, packets):
        again = replay(packets, time_scale=3.0)
        assert all(a.flow == b.flow for a, b in zip(packets, again))

    def test_empty(self):
        assert replay([]) == []

    def test_validation(self, packets):
        with pytest.raises(ConfigError):
            replay(packets, time_scale=0.0)
        with pytest.raises(ConfigError):
            replay(packets, offset_ns=-1.0)

    def test_scaled_replay_reduces_offered_rate(self, small_switch, packets):
        """Stretching a trace reduces the offered rate proportionally
        while remaining fully deliverable.  (Latency is deliberately not
        asserted: at light load frame-aggregation delay dominates, so
        latency is not monotone in load -- that is the E12 story.)"""
        from repro.core import HBMSwitch, PFIOptions

        full = HBMSwitch(small_switch, PFIOptions(padding=True, bypass=True)).run(
            replay(packets), 10_000.0
        )
        light = HBMSwitch(small_switch, PFIOptions(padding=True, bypass=True)).run(
            replay(packets, time_scale=3.0), 30_000.0
        )
        assert light.delivery_fraction == pytest.approx(1.0)
        assert light.offered_bytes == full.offered_bytes
        assert light.throughput_bps == pytest.approx(full.throughput_bps / 3, rel=0.05)


class TestRoundTripSatellites:
    """Archival guarantees: byte equality, empty traces, out-of-order."""

    def test_save_load_save_byte_equality(self, packets):
        text = trace_to_string(packets)
        loaded = load_trace(io.StringIO(text))
        assert trace_to_string(loaded) == text

    def test_field_equality_exhaustive(self, packets):
        loaded = load_trace(io.StringIO(trace_to_string(packets)))
        for original, copy in zip(packets, loaded):
            assert copy.arrival_ns == original.arrival_ns  # exact float
            assert copy.size_bytes == original.size_bytes
            assert copy.input_port == original.input_port
            assert copy.output_port == original.output_port
            assert copy.flow.src_ip == original.flow.src_ip
            assert copy.flow.dst_ip == original.flow.dst_ip
            assert copy.flow.src_port == original.flow.src_port
            assert copy.flow.dst_port == original.flow.dst_port
            assert copy.flow.protocol == original.flow.protocol

    def test_zero_length_roundtrip(self):
        text = trace_to_string([])
        assert load_trace(io.StringIO(text)) == []
        assert trace_to_string(load_trace(io.StringIO(text))) == text

    def test_zero_length_file_roundtrip(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_trace([], path)
        assert load_trace(path) == []

    def test_out_of_order_sorted_on_request(self, packets):
        rows = trace_to_string(packets).splitlines()
        scrambled = "\n".join([rows[0]] + rows[1:][::-1]) + "\n"
        loaded = load_trace(io.StringIO(scrambled), sort=True)
        arrivals = [p.arrival_ns for p in loaded]
        assert arrivals == sorted(arrivals)
        assert [p.pid for p in loaded] == list(range(len(loaded)))
        assert len(loaded) == len(packets)
        # Sorted load of a scrambled archive == straight load of the original.
        assert trace_to_string(loaded) == trace_to_string(
            load_trace(io.StringIO(trace_to_string(packets)))
        )

    def test_out_of_order_still_rejected_by_default(self, packets):
        rows = trace_to_string(packets).splitlines()
        scrambled = "\n".join([rows[0], rows[2], rows[1]])
        with pytest.raises(ConfigError):
            load_trace(io.StringIO(scrambled))

    def test_attack_workload_roundtrip(self):
        from repro.adversary import KnownAssignmentAttack
        from repro.config import scaled_router
        from repro.core.fiber_split import ContiguousSplitter

        config = scaled_router(n_ribbons=4, fibers_per_ribbon=16, n_switches=4)
        splitter = ContiguousSplitter(16, 4)
        attack_block, _ = KnownAssignmentAttack(victim=1).build_workload(
            config, splitter, load=0.5, duration_ns=2_000.0, seed=3
        )
        text = trace_to_string(attack_block.to_packets())
        assert trace_to_string(load_trace(io.StringIO(text))) == text
