"""Tail SRAM (Fig. 3, stage 2).

Physically: N SRAM modules, each holding one slice of every batch, with
per-output queues; when an output's queue reaches K/k = 128 batch
slices, all modules (staggered) promote them to a frame slice, and frame
slices enter a shared logical FIFO awaiting an HBM write phase.

The simulator tracks whole batches/frames (module-level slicing is a
structural property validated by the crossbar tests); what matters
temporally is: batches accumulate per output, frames complete when
``batches_per_frame`` are present, and completed frames queue FIFO for
the write phases.  The padding and bypass hooks implement the SS 4
latency optimisations.  Batches and frames are ids into the switch's
:class:`~repro.core.frames.BatchTable` and
:class:`~repro.core.frames.FrameTable`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..config import HBMSwitchConfig
from ..errors import ConfigError
from ..sim.stats import DropCounter, OccupancyTracker
from .frames import BatchTable, FrameAssembler, FrameTable


class TailSRAM:
    """The frame-assembly stage between the crossbar and the HBMs."""

    def __init__(
        self,
        config: HBMSwitchConfig,
        capacity_bytes: Optional[int] = None,
        frames: Optional[FrameTable] = None,
    ) -> None:
        self.config = config
        #: The frame table (and, through it, the batch table) this
        #: stage's ids index: shared by a switch's stages, private for
        #: a tail SRAM on its own.
        self.frames = (
            frames if frames is not None
            else FrameTable(BatchTable(config.batch_bytes), config.frame_bytes)
        )
        self._batches = self.frames.batches
        self._batch_bytes = config.batch_bytes
        self._frame_bytes = config.frame_bytes
        # Structural need: one frame forming per output plus a couple of
        # completed frames awaiting write slots; default is a generous 4x.
        if capacity_bytes is None:
            capacity_bytes = 4 * config.n_ports * config.frame_bytes
        self.capacity_bytes = capacity_bytes
        self._assemblers = [
            FrameAssembler(output, config.batch_bytes, config.batches_per_frame, self.frames)
            for output in range(config.n_ports)
        ]
        #: Ids of the completed frames awaiting a write phase, oldest first.
        self.frame_fifo: Deque[int] = deque()
        self._fifo_bytes = 0
        self.drops = DropCounter()
        self.occupancy = OccupancyTracker()
        # Maintained at enqueue/dequeue time: the capacity check in
        # on_batch runs per batch and must not rescan N assemblers.
        self._pending_bytes = 0

    # -- state ---------------------------------------------------------------

    @property
    def pending_bytes(self) -> int:
        """Bytes in not-yet-complete frames, across all outputs."""
        return self._pending_bytes

    @property
    def occupancy_bytes(self) -> int:
        return self.pending_bytes + self._fifo_bytes

    def oldest_pending(self) -> Optional[Tuple[int, float]]:
        """``(output, cut time)`` of the forming frame whose first batch
        was cut first (the lowest output on a tie); ``None`` when no
        output has a batch pending."""
        created = self._batches.created
        oldest = None
        for assembler in self._assemblers:
            pending = assembler.pending
            if pending and (oldest is None or created[pending[0]] < oldest[1]):
                oldest = (assembler.output, created[pending[0]])
        return oldest

    # -- dataplane ---------------------------------------------------------------

    def on_batch(self, batch: int, now: float) -> Optional[int]:
        """Accept a batch (its id) from the crossbar; returns a frame's
        id if one completed.  A batch that does not fit is dropped and
        its id freed."""
        if self._batch_bytes + self._pending_bytes + self._fifo_bytes > self.capacity_bytes:
            self.drops.record(self._batches.payload[batch], reason="tail-sram-overflow")
            self._batches.release((batch,))
            return None
        frame = self._assemblers[self._batches.output[batch]].add(batch, now)
        if frame is None:
            self._pending_bytes += self._batch_bytes
        else:
            # The frame took its batches out of the pending bytes.
            self._pending_bytes -= self._frame_bytes - self._batch_bytes
            self.frame_fifo.append(frame)
            self._fifo_bytes += self._frame_bytes
        self.occupancy.observe(self._pending_bytes + self._fifo_bytes)
        return frame

    def pop_frame(self, now: float) -> Optional[int]:
        """Head of the shared frame FIFO (its id), for the next write phase."""
        if not self.frame_fifo:
            return None
        self._fifo_bytes -= self._frame_bytes
        self.occupancy.observe(self.occupancy_bytes)
        return self.frame_fifo.popleft()

    def pop_frame_for(self, output: int, now: float) -> Optional[int]:
        """Oldest queued frame for ``output`` (bypass path).

        Bypass is only taken when the HBM holds nothing for ``output``,
        so the oldest frame for that output in this FIFO *is* the oldest
        frame for it anywhere -- order is preserved.
        """
        output_of = self.frames.output
        for position, frame in enumerate(self.frame_fifo):
            if output_of[frame] == output:
                del self.frame_fifo[position]
                self._fifo_bytes -= self._frame_bytes
                self.occupancy.observe(self.occupancy_bytes)
                return frame
        return None

    def padded_frame_for(self, output: int, now: float) -> Optional[int]:
        """Flush the partial frame of ``output`` padded to full size.

        Implements frame padding [33, 37]: the missing batches become
        filler so the HBM schedule is unchanged, cutting the fill-and-
        wait latency at light load.  Returns ``None`` when the output
        has nothing pending.
        """
        assembler = self._assemblers[output]
        pending_before = assembler.pending_bytes
        frame = assembler.flush(now)
        if frame is not None:
            self._pending_bytes -= pending_before
            self.occupancy.observe(self.occupancy_bytes)
        return frame

    def has_data_for(self, output: int) -> bool:
        """Anything (queued frame or partial) for ``output``?"""
        if self._assemblers[output].pending:
            return True
        output_of = self.frames.output
        return any(output_of[frame] == output for frame in self.frame_fifo)

    def validate_output(self, output: int) -> None:
        if not 0 <= output < self.config.n_ports:
            raise ConfigError(f"output {output} out of range")
