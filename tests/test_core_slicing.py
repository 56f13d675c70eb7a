"""Module-level tail SRAM: the physical N-module view stays in lockstep
with the logical simulation."""

import pytest

from repro.core.frames import Batch, Frame
from repro.core.slicing import SlicedTailModel
from repro.core.tail_sram import TailSRAM
from repro.errors import ConfigError, SimulationError

K = 1024


def make_batch(output, seq=0, size=K):
    return Batch(output, seq, size, size, [], 0.0)


def logical_batch(tail, output, seq):
    """A full batch for ``output`` in ``tail``'s table: its id, and
    its value for the physical model."""
    batch = tail.frames.batches.add(output, seq, K, 0.0)
    return batch, tail.frames.batches.view(batch)


class TestSlicedModel:
    def test_batch_lands_in_every_module(self, small_switch):
        model = SlicedTailModel(small_switch)
        model.on_batch(make_batch(2))
        for module in model.modules:
            assert module.slices_for(2) == 1
        model.assert_lockstep()

    def test_slice_size_is_k_over_n(self, small_switch):
        model = SlicedTailModel(small_switch)
        assert model.slice_bytes == small_switch.batch_bytes // small_switch.n_ports
        assert model.frame_slice_bytes() == small_switch.frame_bytes // small_switch.n_ports

    def test_frame_promotion_in_lockstep(self, small_switch):
        model = SlicedTailModel(small_switch)
        batches = [make_batch(1, i) for i in range(small_switch.batches_per_frame)]
        for batch in batches:
            model.on_batch(batch)
        frame = Frame(1, 0, batches, small_switch.frame_bytes, 0.0)
        model.on_frame(frame)
        assert all(m.slices_for(1) == 0 for m in model.modules)
        assert all(m.frame_slices == 1 for m in model.modules)
        model.on_frame_written()
        assert all(m.frame_slices == 0 for m in model.modules)

    def test_underflow_detected(self, small_switch):
        model = SlicedTailModel(small_switch)
        frame = Frame(0, 0, [make_batch(0)], small_switch.frame_bytes, 0.0)
        with pytest.raises(SimulationError):
            model.on_frame(frame)
        with pytest.raises(SimulationError):
            model.on_frame_written()

    def test_wrong_batch_size_rejected(self, small_switch):
        model = SlicedTailModel(small_switch)
        with pytest.raises(ConfigError):
            model.on_batch(make_batch(0, size=K + 1))


class TestLockstepWithLogicalTail:
    def test_shadowing_a_logical_stream(self, small_switch):
        """Drive the logical TailSRAM and the physical model with the
        same event stream; per-module state is exactly 1/N of the
        logical state at every step."""
        logical = TailSRAM(small_switch)
        physical = SlicedTailModel(small_switch)
        per_frame = small_switch.batches_per_frame
        seq = 0
        for round_ in range(3):
            for output in range(small_switch.n_ports):
                for _ in range(per_frame // 2 + (output % 2)):
                    batch, value = logical_batch(logical, output, seq)
                    seq += 1
                    frame = logical.on_batch(batch, 0.0)
                    physical.on_batch(value)
                    if frame is not None:
                        physical.on_frame(logical.frames.view(frame))
                share = physical.per_module_share(logical.pending_bytes)
                if logical.pending_bytes:
                    assert share == pytest.approx(1.0 / small_switch.n_ports)
        # Frame completions agree.
        assert physical.frames_formed == len(logical.frame_fifo)

    def test_write_phases_drain_frame_slices(self, small_switch):
        logical = TailSRAM(small_switch)
        physical = SlicedTailModel(small_switch)
        for i in range(small_switch.batches_per_frame):
            batch, value = logical_batch(logical, 0, i)
            frame = logical.on_batch(batch, 0.0)
            physical.on_batch(value)
            if frame is not None:
                physical.on_frame(logical.frames.view(frame))
        assert logical.pop_frame(0.0) is not None
        physical.on_frame_written()
        assert all(m.frame_slices == 0 for m in physical.modules)
