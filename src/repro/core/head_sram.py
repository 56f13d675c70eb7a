"""Head SRAM (Fig. 3, stage 5).

Symmetric to the tail: N SRAM modules each receive a frame slice from
the HBM read, cut it into batch slices, queue them per output, and feed
the output-side cyclical crossbar.  The simulator queues whole frames
per output and lets the output port drain them at line rate; occupancy
here is the "frames landed but not yet on the wire" backlog.  Frames
are ids into the switch's :class:`~repro.core.frames.FrameTable`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from ..config import HBMSwitchConfig
from ..errors import ConfigError
from ..sim.stats import OccupancyTracker
from .frames import BatchTable, FrameTable


class HeadSRAM:
    """Per-output frame staging between HBM reads and output ports."""

    def __init__(self, config: HBMSwitchConfig, frames: Optional[FrameTable] = None):
        self.config = config
        self.frames = (
            frames if frames is not None
            else FrameTable(BatchTable(config.batch_bytes), config.frame_bytes)
        )
        self._frame_bytes = config.frame_bytes
        self._queues: List[Deque[int]] = [deque() for _ in range(config.n_ports)]
        self._bytes = 0
        self.occupancy = OccupancyTracker()

    @property
    def occupancy_bytes(self) -> int:
        return self._bytes

    def queued_frames(self, output: int) -> int:
        self._check(output)
        return len(self._queues[output])

    def on_frame(self, frame: int, now: float) -> None:
        """Accept one frame (its id) from an HBM read (or a bypass)."""
        output = self.frames.output[frame]
        self._check(output)
        self._queues[output].append(frame)
        self._bytes += self._frame_bytes
        self.occupancy.observe(self._bytes)

    def pop_frame(self, output: int, now: float) -> Optional[int]:
        """Next frame (its id) for ``output`` to transmit, FIFO order."""
        self._check(output)
        if not self._queues[output]:
            return None
        self._bytes -= self._frame_bytes
        self.occupancy.observe(self._bytes)
        return self._queues[output].popleft()

    def payload_backlog_bytes(self) -> int:
        """Real payload bytes still staged (excludes padding)."""
        payload = self.frames.payload
        return sum(payload[frame] for queue in self._queues for frame in queue)

    def _check(self, output: int) -> None:
        if not 0 <= output < self.config.n_ports:
            raise ConfigError(f"output {output} out of range")
