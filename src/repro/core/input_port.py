"""Input port SRAM (Fig. 3, stage 1).

After O/E conversion, a processing chiplet classifies each packet to an
HBM-switch output, queues it in one of N per-output SRAM queues, and
packs queues into fixed k-byte batches (packets may straddle two
batches).  Completed batches enter a FIFO awaiting their turn on the
cyclical crossbar.

The SRAM is finite: when a packet would push the port's occupancy past
``sram_capacity_bytes`` it is dropped (tail-drop), which is how the
simulator surfaces overload instead of buffering infinitely.

Arrivals come a block at a time (:meth:`InputPort.load`): the port keeps
its arrivals' block positions and a cumulative byte sum, so its
occupancy at any point of the block is one binary search away and the
per-output :class:`~repro.core.frames.BatchAssembler` queues cut batches
without a per-packet step.  Batches are ids into the switch's
:class:`~repro.core.frames.BatchTable`; the FIFO is a queue of ids.  Occupancy only grows between crossbar pops,
so the owning switch checks admission per batch (it walks packets only
when the SRAM could actually overflow) and the occupancy tracker,
sampled at every pop, flush and block end, sees the exact peak.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Deque, List, Optional

import numpy as np

from ..config import HBMSwitchConfig
from ..sim.stats import DropCounter, OccupancyTracker
from .frames import _NO_BYTES, _NO_ROWS, BatchAssembler, BatchTable, int_array


class InputPort:
    """One of the N input ports of an HBM switch."""

    def __init__(
        self,
        config: HBMSwitchConfig,
        port: int,
        sram_capacity_bytes: Optional[int] = None,
        batches: Optional[BatchTable] = None,
    ) -> None:
        self.config = config
        self.port = port
        # Default capacity: a generous multiple of the structural need
        # (one batch forming per output plus a FIFO of in-flight batches).
        if sram_capacity_bytes is None:
            sram_capacity_bytes = 64 * config.n_ports * config.batch_bytes
        self.sram_capacity_bytes = sram_capacity_bytes
        #: The table this port's batches are rows of (shared by a
        #: switch's stages; a private one for a port on its own).
        self.batches = batches if batches is not None else BatchTable(config.batch_bytes)
        self._payload = self.batches.payload
        self._batch_bytes = config.batch_bytes
        self.assemblers = [
            BatchAssembler(output, config.batch_bytes, self.batches)
            for output in range(config.n_ports)
        ]
        #: Ids of the batches awaiting the crossbar, oldest first.
        self.fifo: Deque[int] = deque()
        self.drops = DropCounter()
        self.occupancy = OccupancyTracker()
        self._fifo_bytes = 0
        # Payload admitted before the loaded block, and payload moved
        # out of the partial batches into emitted ones.
        self._admitted = 0
        self._batched = 0
        # The loaded block: block position and cumulative size of each
        # arrival (leading 0), and bytes dropped on admission so far.
        self._rows = _NO_ROWS
        self._cum = _NO_BYTES
        self._dropped = 0
        #: Block position the owner has ingested up to (see
        #: :attr:`partial_bytes`).
        self.position = 0

    # -- state ---------------------------------------------------------------

    def admitted_bytes(self, position: int) -> int:
        """Payload admitted from arrivals before block ``position``."""
        return (
            self._admitted
            + self._cum[bisect_left(self._rows, position)]
            - self._dropped
        )

    def occupancy_at(self, position: int) -> int:
        """SRAM occupancy once arrivals before ``position`` are in."""
        # admitted_bytes(position), inline: the crossbar asks per batch.
        return (
            self._admitted
            + self._cum[bisect_left(self._rows, position)]
            - self._dropped
            - self._batched
            + self._fifo_bytes
        )

    @property
    def partial_bytes(self) -> int:
        """Bytes sitting in not-yet-complete batches."""
        return self.admitted_bytes(self.position) - self._batched

    @property
    def occupancy_bytes(self) -> int:
        return self.partial_bytes + self._fifo_bytes

    @property
    def fifo_bytes(self) -> int:
        return self._fifo_bytes

    # -- dataplane ---------------------------------------------------------------

    def load(self, rows: np.ndarray, sizes: np.ndarray) -> None:
        """Take one block's arrivals: their block positions and sizes;
        the per-output split is loaded into :attr:`assemblers` by the
        owner."""
        self._rows = int_array(rows)
        self._cum = int_array(np.concatenate(([0], np.cumsum(sizes))))
        self._dropped = 0

    def drop(self, size: int) -> None:
        """An arrival of the loaded block was tail-dropped on admission
        (the owner decides and records it)."""
        self._dropped += size

    def enqueue(self, batch: int) -> None:
        """Queue a completed batch (its id) for the crossbar."""
        self.fifo.append(batch)
        self._fifo_bytes += self._batch_bytes
        self._batched += self._payload[batch]

    def close_block(self, now: Optional[float]) -> None:
        """Every arrival of the loaded block is in (the last at ``now``;
        ``None`` for a block without arrivals here)."""
        self._admitted += self._cum[-1] - self._dropped
        self._rows = _NO_ROWS
        self._cum = _NO_BYTES
        self._dropped = 0
        self.position = 0
        for assembler in self.assemblers:
            assembler.close_block()
        if now is not None:
            self.occupancy.observe(self.occupancy_bytes, now)

    def pop_batch(self, now: float, occupancy: Optional[int] = None) -> Optional[int]:
        """Remove the head-of-line batch for transmission; returns its id.

        ``occupancy`` is the current occupancy when the caller already
        knows it.
        """
        if not self.fifo:
            return None
        if occupancy is None:
            occupancy = self.occupancy_bytes
        # The peak is reached just before a pop (arrivals only add).
        self.occupancy.observe_fall(occupancy, occupancy - self._batch_bytes, now)
        self._fifo_bytes -= self._batch_bytes
        return self.fifo.popleft()

    def flush_partials(self, now: float) -> List[int]:
        """Pad out all partial batches (used at drain time with padding
        on); returns their ids."""
        flushed = []
        for assembler in self.assemblers:
            batch = assembler.flush(now)
            if batch is not None:
                self.enqueue(batch)
                flushed.append(batch)
        if flushed:
            self.occupancy.observe(self.occupancy_bytes, now)
        return flushed
