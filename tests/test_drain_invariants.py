"""Drain termination and byte-conservation invariants.

The drain loop used to rescan every queue twice per iteration; it now
reads an O(1) incremental residual.  These tests pin the contract: the
tracked residual always equals the ground-truth rescan, audits balance
to zero with and without padding, and the loop terminates even for
degenerate configurations and sub-frame residue.
"""

from types import SimpleNamespace

import pytest

from repro.core import HBMSwitch, PFIOptions
from repro.traffic.stream import ArrivalBlock

from tests.conftest import make_traffic


class TestTrackedResidual:
    @pytest.mark.parametrize("load", [0.3, 0.8, 1.0])
    def test_tracked_matches_rescan_after_run(self, small_switch, load):
        switch = HBMSwitch(small_switch, PFIOptions(padding=True, bypass=True))
        switch.run(make_traffic(small_switch, load, 20_000.0), 20_000.0)
        assert switch.tracked_residual_bytes == switch.residual_payload_bytes()

    def test_tracked_matches_rescan_without_drain(self, small_switch):
        switch = HBMSwitch(small_switch, PFIOptions(padding=True, bypass=True))
        switch.run(make_traffic(small_switch, 0.8, 20_000.0), 20_000.0, drain=False)
        assert switch.tracked_residual_bytes == switch.residual_payload_bytes()

    def test_tracked_matches_rescan_at_overload(self, small_switch):
        """Overload forces drops at the input ports; the incremental
        accounting must subtract exactly the dropped payload."""
        switch = HBMSwitch(small_switch, PFIOptions(padding=True, bypass=True))
        switch.run(make_traffic(small_switch, 1.0, 30_000.0, size=64), 30_000.0)
        assert switch.tracked_residual_bytes == switch.residual_payload_bytes()


class TestAuditBalance:
    def test_padded_run_balances_and_empties(self, small_switch):
        switch = HBMSwitch(small_switch, PFIOptions(padding=True, bypass=True))
        switch.run(make_traffic(small_switch, 0.6, 20_000.0), 20_000.0)
        audit = switch.audit()
        assert audit["balance"] == 0
        assert audit["residual"] == 0

    def test_emptied_switch_frees_every_batch_and_frame_row(self, small_switch):
        """Batch and frame ids are freed once their frame is on the wire
        and reused, so the tables hold only what is in flight."""
        switch = HBMSwitch(small_switch, PFIOptions(padding=True, bypass=True))
        switch.run(make_traffic(small_switch, 0.6, 20_000.0), 20_000.0)
        assert switch.audit()["residual"] == 0
        assert switch.batches.live == 0
        assert switch.frames.live == 0
        cut = sum(a.batches_emitted for port in switch.inputs for a in port.assemblers)
        assert len(switch.batches.output) < cut / 4

    def test_no_padding_subframe_residue_terminates_and_balances(self, small_switch):
        """Without padding, a partially-filled frame can never complete,
        so residue stays in the switch forever.  The run must still
        terminate (the drain loop detects the stuck residual) and the
        audit must still balance: offered = delivered + dropped + residual."""
        switch = HBMSwitch(small_switch, PFIOptions(padding=False, bypass=False))
        # A single small packet per port pair: guaranteed sub-frame residue.
        switch.run(make_traffic(small_switch, 0.05, 5_000.0, size=200), 5_000.0)
        audit = switch.audit()
        assert audit["balance"] == 0
        assert audit["residual"] > 0
        assert switch.tracked_residual_bytes == audit["residual"]

    def test_no_padding_heavy_load_balances(self, small_switch):
        switch = HBMSwitch(small_switch, PFIOptions(padding=False, bypass=False))
        switch.run(make_traffic(small_switch, 0.8, 20_000.0), 20_000.0)
        assert switch.audit()["balance"] == 0


class TestDrainGuard:
    def test_degenerate_intervals_fall_back_to_positive(self, small_switch):
        switch = HBMSwitch(small_switch, PFIOptions(padding=True, bypass=True))
        assert switch._drain_check_interval() > 0
        # Collapse both timebases; the guard must keep the loop moving.
        switch.config = SimpleNamespace(batch_time_ns=0.0)
        switch.pfi.phase_duration = 0.0
        switch.pfi.transition = 0.0
        assert switch._drain_check_interval() == 1.0

    def test_drain_schedules_one_crossing_event(self, small_switch):
        """One popped batch schedules one event, a batch time later,
        that lands the batch in the tail SRAM and pops the port's next
        batch; the engine-events gauge still counts it as two."""
        switch = HBMSwitch(small_switch, PFIOptions(padding=True, bypass=True))
        packet = make_traffic(small_switch, 0.9, 4_000.0, size=1500)[0]
        switch.stream_offer(ArrivalBlock.from_packets([packet], 4_000.0), 4_000.0)
        # The step ingests the arrival (a full batch, which schedules
        # _drain at its instant) and fires _drain: it pops the batch.
        assert switch.engine.step()
        times = [entry[0] for entry in switch.engine._queue]
        assert times == [packet.arrival_ns + small_switch.batch_time_ns]
        fired = switch.engine.events_fired
        assert switch.engine.step()
        assert switch.engine.events_fired == fired + 1
        assert switch.tail.pending_bytes == small_switch.batch_bytes
        assert not switch._draining[packet.input_port]
