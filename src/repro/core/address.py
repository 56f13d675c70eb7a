"""No-bookkeeping HBM addressing (PFI steps 3-4).

The HBM is divided into per-output regions, each a FIFO of frame slots.
The n-th frame written for output ``j`` goes deterministically to bank
interleaving group ``n mod (L/gamma)``, and rows advance cyclically
within the region -- so both sides only need *counters* (head, tail),
never per-packet or per-frame pointers.  That is the paper's answer to
the gigabytes of SRAM bookkeeping an ideal OQ emulation would need
(Challenge 6 / Design 6 step 4).

An address is a light value read off those counters: each region builds
its ``L/gamma`` :class:`~repro.hbm.interleaving.BankGroup` values once,
and a push or pop returns a :class:`FrameAddress` tuple naming one of
them.  Static regions (:class:`OutputRegionFifo`) and dynamic pages
(:class:`~repro.core.paging.OutputPageFifo`) return the same type.
"""

from __future__ import annotations

from typing import List, NamedTuple

from ..config import HBMSwitchConfig
from ..errors import CapacityExceeded, ConfigError
from ..hbm.interleaving import BankGroup


class FrameAddress(NamedTuple):
    """Where one frame lives: a bank group and a row, on every channel.

    ``sub_row`` is the segment-size slice within the row (SS 3.2's
    hierarchy: region -> rows -> segment-size sub-rows -> banks).  With
    the reference design S = row size, so sub_row is always 0; the
    datacenter variant's smaller segments pack several frames per row.
    """

    output: int
    frame_index: int
    group: BankGroup
    row: int
    sub_row: int = 0


_tuple_new = tuple.__new__


def bank_groups(n_groups: int, gamma: int) -> List[BankGroup]:
    """The ``n_groups`` bank groups of ``gamma`` banks, built once per
    region: frame ``n`` lands in ``groups[n % n_groups]``."""
    return [BankGroup(index, gamma) for index in range(n_groups)]


class OutputRegionFifo:
    """The FIFO of frame slots for one output's HBM region.

    A frame occupies one row in each of the gamma banks of its group,
    across all T channels.  With ``rows_per_bank`` rows reserved per bank
    for this output, the region holds ``n_groups * rows_per_bank``
    frames.  Head/tail counters are the *only* state -- that is the
    design's point.
    """

    def __init__(
        self,
        output: int,
        n_groups: int,
        gamma: int,
        rows_per_bank: int,
        base_row: int = 0,
        segments_per_row: int = 1,
    ):
        if n_groups <= 0 or gamma <= 0 or rows_per_bank <= 0:
            raise ConfigError(
                f"need positive geometry, got groups={n_groups}, gamma={gamma}, "
                f"rows={rows_per_bank}"
            )
        if segments_per_row <= 0:
            raise ConfigError(
                f"segments_per_row must be positive, got {segments_per_row}"
            )
        self.output = output
        self.n_groups = n_groups
        self.gamma = gamma
        self.rows_per_bank = rows_per_bank
        self.base_row = base_row
        self.segments_per_row = segments_per_row
        self._groups = bank_groups(n_groups, gamma)
        self._head = 0  # next frame index to read
        self._tail = 0  # next frame index to write

    # -- counters ---------------------------------------------------------------

    @property
    def capacity_frames(self) -> int:
        """How many frames the region holds before wrapping onto live data.

        Sub-row packing multiplies capacity: a row hosts
        ``segments_per_row`` frames' segments per bank.
        """
        return self.n_groups * self.rows_per_bank * self.segments_per_row

    @property
    def occupancy(self) -> int:
        return self._tail - self._head

    @property
    def empty(self) -> bool:
        return self._head == self._tail

    # -- address arithmetic -------------------------------------------------------

    def _address(self, frame_index: int) -> FrameAddress:
        row_ordinal, group_index = divmod(frame_index, self.n_groups)
        row_ordinal, sub_row = divmod(row_ordinal, self.segments_per_row)
        # tuple.__new__ skips the generated Python-level __new__: one
        # address per PFI phase.
        return _tuple_new(FrameAddress, (
            self.output,
            frame_index,
            self._groups[group_index],
            self.base_row + row_ordinal % self.rows_per_bank,
            sub_row,
        ))

    def push(self) -> FrameAddress:
        """Allocate the next write slot (the n-th frame's address)."""
        if self.occupancy >= self.capacity_frames:
            raise CapacityExceeded(
                f"output {self.output} HBM region full "
                f"({self.capacity_frames} frames)"
            )
        address = self._address(self._tail)
        self._tail += 1
        return address

    def pop(self) -> FrameAddress:
        """Consume the oldest frame's address (read side, same sequence)."""
        if self.empty:
            raise CapacityExceeded(f"output {self.output} HBM region empty")
        address = self._address(self._head)
        self._head += 1
        return address

    def peek(self) -> FrameAddress:
        """The oldest frame's address without consuming it."""
        if self.empty:
            raise CapacityExceeded(f"output {self.output} HBM region empty")
        return self._address(self._head)


class HBMAddressMap:
    """Static per-output region allocation over the whole HBM group.

    Rows available per (channel, bank) are split evenly across the N
    outputs; each output gets an :class:`OutputRegionFifo`.  Static
    allocation is the paper's simple option ("the head, tail, and number
    of entries of the FIFO can simply be tracked with counters").
    """

    def __init__(self, config: HBMSwitchConfig, rows_per_bank_total: int = 0):
        self.config = config
        if rows_per_bank_total <= 0:
            rows_per_bank_total = self._rows_per_bank_from_capacity(config)
        rows_per_output = rows_per_bank_total // config.n_ports
        if rows_per_output <= 0:
            raise ConfigError(
                f"{rows_per_bank_total} rows/bank cannot host "
                f"{config.n_ports} output regions"
            )
        self.rows_per_output = rows_per_output
        # SS 3.2 hierarchy: rows subdivide into segment-size sub-rows,
        # so small-segment (datacenter) configs pack several frames per
        # row instead of wasting the rest of it.
        segments_per_row = max(1, config.stack.row_bytes // config.segment_bytes)
        self.segments_per_row = segments_per_row
        self.regions = [
            OutputRegionFifo(
                output=j,
                n_groups=config.n_bank_groups,
                gamma=config.gamma,
                rows_per_bank=rows_per_output,
                base_row=j * rows_per_output,
                segments_per_row=segments_per_row,
            )
            for j in range(config.n_ports)
        ]

    @staticmethod
    def _rows_per_bank_from_capacity(config: HBMSwitchConfig) -> int:
        """Rows per (channel, bank) implied by the stack capacity."""
        stack = config.stack
        bank_bytes = stack.capacity_bytes // (stack.channels * stack.banks_per_channel)
        return max(1, bank_bytes // stack.row_bytes)

    def region(self, output: int) -> OutputRegionFifo:
        if not 0 <= output < len(self.regions):
            raise ConfigError(f"output {output} out of range")
        return self.regions[output]

    @property
    def total_capacity_frames(self) -> int:
        return sum(region.capacity_frames for region in self.regions)

    @property
    def occupancy_frames(self) -> int:
        return sum(region.occupancy for region in self.regions)

    def occupancy_bytes(self) -> int:
        return self.occupancy_frames * self.config.frame_bytes
