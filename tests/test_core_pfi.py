"""PFI engine: phase alternation, cyclic reads, padding, bypass,
command-level legality."""

import pytest

from repro.core.pfi import PFIEngine, PFIOptions
from repro.core.tail_sram import TailSRAM
from repro.errors import ConfigError
from repro.sim import Engine

K = 1024


class Harness:
    """A PFI engine wired to a tail SRAM and a delivery recorder."""

    def __init__(self, config, options=PFIOptions()):
        self.config = config
        self.engine = Engine()
        self.tail = TailSRAM(config)
        self.delivered = []
        self.pfi = PFIEngine(
            config=config,
            engine=self.engine,
            tail=self.tail,
            deliver=lambda frame, at: self.delivered.append(
                (self.tail.frames.view(frame), at)
            ),
            options=options,
        )

    def batch(self, output, seq=0, now=0.0):
        """A full batch (its id) for ``output`` into the tail SRAM."""
        self.tail.on_batch(self.tail.frames.batches.add(output, seq, K, now), now)

    def feed_frame(self, output, now=0.0):
        for i in range(self.config.batches_per_frame):
            self.batch(output, i, now)

    def run_cycles(self, n):
        self.pfi.start()
        self.engine.run(until=n * self.pfi.cycle_duration + 1.0)


class TestPhases:
    def test_phases_alternate(self, small_switch):
        h = Harness(small_switch)
        h.run_cycles(4)
        assert h.pfi.counters.write_phases == pytest.approx(h.pfi.counters.read_phases, abs=1)

    def test_idle_write_phases_counted(self, small_switch):
        h = Harness(small_switch)
        h.run_cycles(3)
        assert h.pfi.counters.idle_write_phases >= 3
        assert h.pfi.counters.frames_written == 0

    def test_cycle_duration_includes_transitions(self, small_switch):
        h = Harness(small_switch)
        expected = 2 * small_switch.frame_write_time_ns * (1 + 0.02)
        assert h.pfi.cycle_duration == pytest.approx(expected)

    def test_speedup_shortens_phases(self, small_switch):
        import dataclasses

        fast = dataclasses.replace(small_switch, speedup=2.0)
        h = Harness(fast)
        assert h.pfi.phase_duration == pytest.approx(small_switch.frame_write_time_ns / 2)


class TestWriteRead:
    def test_frame_round_trip(self, small_switch):
        h = Harness(small_switch)
        h.feed_frame(output=0)
        h.run_cycles(small_switch.n_ports + 2)
        assert h.pfi.counters.frames_written == 1
        assert h.pfi.counters.frames_read == 1
        assert len(h.delivered) == 1
        frame, at = h.delivered[0]
        assert frame.output == 0
        assert at > 0

    def test_strict_cyclic_read_order(self, small_switch):
        h = Harness(small_switch)
        for output in range(small_switch.n_ports):
            h.feed_frame(output)
        h.run_cycles(3 * small_switch.n_ports)
        outputs = [frame.output for frame, _ in h.delivered]
        assert sorted(outputs) == list(range(small_switch.n_ports))
        # Strict cycle: outputs are served in cyclic order of slot index.
        assert outputs == sorted(outputs, key=lambda o: outputs.index(o))

    def test_wasted_slots_without_bypass(self, small_switch):
        h = Harness(small_switch)
        h.feed_frame(0)
        h.run_cycles(small_switch.n_ports + 2)
        assert h.pfi.counters.wasted_read_slots > 0

    def test_fifo_order_per_output(self, small_switch):
        h = Harness(small_switch)
        h.feed_frame(1)
        h.feed_frame(1)
        h.run_cycles(4 * small_switch.n_ports)
        frames = [f for f, _ in h.delivered if f.output == 1]
        assert [f.index for f in frames] == [0, 1]


class TestPadding:
    def test_partial_flushes_as_padded_frame(self, small_switch):
        h = Harness(small_switch, PFIOptions(padding=True, padding_max_wait_ns=0.0))
        h.batch(2)
        h.run_cycles(small_switch.n_ports + 2)
        assert h.pfi.counters.padded_frames >= 1
        assert any(f.output == 2 for f, _ in h.delivered)

    def test_auto_threshold_scales_with_fill_time(self, small_switch):
        h = Harness(small_switch, PFIOptions(padding=True))
        fill_time = small_switch.frame_bytes / (small_switch.port_rate_bps / 8e9)
        assert h.pfi.padding_wait_ns >= 4 * fill_time

    def test_padding_respects_wait_threshold(self, small_switch):
        options = PFIOptions(padding=True, padding_max_wait_ns=1e9)
        h = Harness(small_switch, options)
        h.batch(2)
        h.run_cycles(4)
        # Batch is younger than the enormous threshold: never padded.
        assert h.pfi.counters.padded_frames == 0


class TestBypass:
    def test_bypass_serves_when_hbm_empty(self, small_switch):
        h = Harness(small_switch, PFIOptions(padding=True, bypass=True))
        h.feed_frame(0)
        # One cycle: write phase stores it... but bypass may grab it at
        # output 0's read slot if the HBM copy is not there yet.
        h.run_cycles(small_switch.n_ports + 2)
        assert len(h.delivered) >= 1
        assert h.pfi.counters.bypassed_frames + h.pfi.counters.frames_read >= 1

    def test_bypass_pads_partial(self, small_switch):
        h = Harness(small_switch, PFIOptions(padding=True, bypass=True))
        h.batch(3)
        h.run_cycles(small_switch.n_ports + 2)
        delivered_outputs = {f.output for f, _ in h.delivered}
        assert 3 in delivered_outputs

    def test_bypassed_frames_marked(self, small_switch):
        h = Harness(small_switch, PFIOptions(padding=True, bypass=True))
        h.batch(1)
        h.run_cycles(small_switch.n_ports + 2)
        bypassed = [f for f, _ in h.delivered if f.bypassed]
        assert len(bypassed) == h.pfi.counters.bypassed_frames


class TestWorkConservingReads:
    def test_skips_empty_outputs(self, small_switch):
        options = PFIOptions(work_conserving_reads=True)
        h = Harness(small_switch, options)
        h.feed_frame(3)
        h.feed_frame(3)
        h.run_cycles(6)
        # Both frames for output 3 read without waiting a full N-cycle.
        frames = [f for f, _ in h.delivered if f.output == 3]
        assert len(frames) == 2


class TestTimingValidation:
    def test_validated_run_is_legal(self, small_switch):
        h = Harness(small_switch, PFIOptions(validate_hbm_timing=True))
        for output in range(small_switch.n_ports):
            h.feed_frame(output)
        # Raises TimingViolation if PFI's schedule were ever illegal.
        h.run_cycles(3 * small_switch.n_ports)
        assert h.pfi.counters.frames_read == small_switch.n_ports
        assert h.pfi.controller.peak_open_banks() <= 4

    def test_validation_requires_unit_speedup(self, small_switch):
        import dataclasses

        fast = dataclasses.replace(small_switch, speedup=1.5)
        with pytest.raises(ConfigError):
            Harness(fast, PFIOptions(validate_hbm_timing=True))

    def test_stop_halts_phases(self, small_switch):
        h = Harness(small_switch)
        h.pfi.start()
        h.engine.run(until=h.pfi.cycle_duration)
        phases_before = h.pfi.counters.write_phases
        h.pfi.stop()
        h.engine.run(until=10 * h.pfi.cycle_duration)
        assert h.pfi.counters.write_phases <= phases_before + 1
