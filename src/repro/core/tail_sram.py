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
latency optimisations.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..config import HBMSwitchConfig
from ..errors import ConfigError
from ..sim.stats import DropCounter, OccupancyTracker
from .frames import Batch, Frame, FrameAssembler


class TailSRAM:
    """The frame-assembly stage between the crossbar and the HBMs."""

    def __init__(
        self,
        config: HBMSwitchConfig,
        capacity_bytes: Optional[int] = None,
    ) -> None:
        self.config = config
        # Structural need: one frame forming per output plus a couple of
        # completed frames awaiting write slots; default is a generous 4x.
        if capacity_bytes is None:
            capacity_bytes = 4 * config.n_ports * config.frame_bytes
        self.capacity_bytes = capacity_bytes
        self._assemblers = [
            FrameAssembler(output, config.batch_bytes, config.batches_per_frame)
            for output in range(config.n_ports)
        ]
        self.frame_fifo: Deque[Frame] = deque()
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

    def pending_batches(self, output: int) -> int:
        return self._assemblers[output].pending_batches

    # -- dataplane ---------------------------------------------------------------

    def on_batch(self, batch: Batch, now: float) -> Optional[Frame]:
        """Accept a batch from the crossbar; returns a frame if one completed."""
        if batch.size_bytes + self._pending_bytes + self._fifo_bytes > self.capacity_bytes:
            self.drops.record(batch.payload_bytes, reason="tail-sram-overflow")
            return None
        frame = self._assemblers[batch.output].add(batch, now)
        if frame is None:
            self._pending_bytes += self.config.batch_bytes
        else:
            # The frame took its batches out of the pending bytes.
            self._pending_bytes -= frame.size_bytes - self.config.batch_bytes
            self.frame_fifo.append(frame)
            self._fifo_bytes += frame.size_bytes
        self.occupancy.observe(self._pending_bytes + self._fifo_bytes, now)
        return frame

    def pop_frame(self, now: float) -> Optional[Frame]:
        """Head of the shared frame FIFO, for the next write phase."""
        if not self.frame_fifo:
            return None
        frame = self.frame_fifo.popleft()
        self._fifo_bytes -= frame.size_bytes
        self.occupancy.observe(self.occupancy_bytes, now)
        return frame

    def pop_frame_for(self, output: int, now: float) -> Optional[Frame]:
        """Oldest queued frame for ``output`` (bypass path).

        Bypass is only taken when the HBM holds nothing for ``output``,
        so the oldest frame for that output in this FIFO *is* the oldest
        frame for it anywhere -- order is preserved.
        """
        for position, frame in enumerate(self.frame_fifo):
            if frame.output == output:
                del self.frame_fifo[position]
                self._fifo_bytes -= frame.size_bytes
                self.occupancy.observe(self.occupancy_bytes, now)
                return frame
        return None

    def padded_frame_for(self, output: int, now: float) -> Optional[Frame]:
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
            self.occupancy.observe(self.occupancy_bytes, now)
        return frame

    def has_data_for(self, output: int) -> bool:
        """Anything (queued frame or partial) for ``output``?"""
        if self._assemblers[output].pending_batches > 0:
            return True
        return any(frame.output == output for frame in self.frame_fifo)

    def validate_output(self, output: int) -> None:
        if not 0 <= output < self.config.n_ports:
            raise ConfigError(f"output {output} out of range")
