"""Dynamic per-output page allocation (SS 3.2, *HBM memory organization*).

The paper offers two region-allocation options: **static** (each output
owns a fixed slice of rows; head/tail counters are the only state --
:class:`~repro.core.address.HBMAddressMap`) or **dynamic with large
per-output pages**, where "a small extra amount of SRAM would suffice to
track pointers to these large pages."

This module implements the dynamic option: the row space of every bank
is carved into large pages of ``rows_per_page`` frame slots; outputs
acquire pages from a shared free list as they grow and release them as
they drain.  The FIFO discipline and the no-bookkeeping bank-group rule
are unchanged -- the n-th frame of an output still lands in group
``n mod (L/gamma)``; only the *row* within the bank is now looked up
through the output's page table.

The win over static allocation is capacity elasticity: a hotspot output
can buffer far beyond 1/N-th of the memory while idle outputs lend it
their share (ablation bench A1).  The cost is exactly what the paper
says: a page-table SRAM of ``#pages x pointer`` bits, reported by
:meth:`DynamicPageAllocator.page_table_sram_bits`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List

from ..config import HBMSwitchConfig
from ..errors import CapacityExceeded, ConfigError
from .address import FrameAddress, bank_groups


@dataclass(frozen=True)
class Page:
    """One large page: ``rows_per_page`` consecutive frame rows."""

    index: int
    base_row: int
    rows: int


class OutputPageFifo:
    """The dynamic-paged FIFO of frame slots for one output.

    Like :class:`~repro.core.address.OutputRegionFifo` but rows come from
    dynamically acquired pages.  Frames still map to bank groups by the
    counter rule; a page supplies ``rows * n_groups`` frame slots (one
    row per group position before the next row is needed).
    """

    def __init__(self, output: int, n_groups: int, gamma: int, allocator: "DynamicPageAllocator"):
        self.output = output
        self.n_groups = n_groups
        self.gamma = gamma
        self._allocator = allocator
        self._groups = bank_groups(n_groups, gamma)
        self._pages: Deque[Page] = deque()
        self._head = 0
        self._tail = 0
        self._released_rows = 0  # rows freed from the front of the page list

    @property
    def occupancy(self) -> int:
        return self._tail - self._head

    @property
    def pages_held(self) -> int:
        return len(self._pages)

    def _slots_per_page(self, page: Page) -> int:
        return page.rows * self.n_groups

    def _address_for(self, frame_index: int) -> FrameAddress:
        """Translate a frame counter to (group, row) via the page table."""
        row_ordinal, group_index = divmod(frame_index, self.n_groups)
        # Walk the page list to find the page holding this row ordinal.
        # Head-relative: pages are released from the front as the head
        # advances past them, so the base ordinal is tracked explicitly.
        ordinal = row_ordinal - self._released_rows
        for page in self._pages:
            if ordinal < page.rows:
                return FrameAddress(
                    self.output, frame_index, self._groups[group_index],
                    page.base_row + ordinal,
                )
            ordinal -= page.rows
        raise CapacityExceeded(
            f"output {self.output}: frame {frame_index} has no page"
        )

    def push(self) -> FrameAddress:
        """Allocate the next write slot, acquiring a page if needed."""
        needed_row = self._tail // self.n_groups
        have_rows = self._released_rows + sum(p.rows for p in self._pages)
        if needed_row >= have_rows:
            page = self._allocator.acquire(self.output)
            self._pages.append(page)
        address = self._address_for(self._tail)
        self._tail += 1
        return address

    def pop(self) -> FrameAddress:
        """Consume the oldest frame; release fully drained leading pages."""
        if self._head == self._tail:
            raise CapacityExceeded(f"output {self.output} FIFO empty")
        address = self._address_for(self._head)
        self._head += 1
        self._release_drained()
        return address

    def _release_drained(self) -> None:
        """Return leading pages whose every row is behind the head."""
        while self._pages:
            page = self._pages[0]
            page_end_row = self._released_rows + page.rows
            head_row = self._head // self.n_groups
            # Keep the page while the head row is still within it, and
            # also while the tail still writes into it.
            tail_row = self._tail // self.n_groups
            if head_row >= page_end_row and tail_row >= page_end_row:
                self._pages.popleft()
                self._released_rows += page.rows
                self._allocator.release(page)
            else:
                break


class DynamicPageAllocator:
    """Shared pool of large pages across all outputs of one HBM switch.

    ``rows_per_bank_total`` rows per (channel, bank) are carved into
    pages of ``rows_per_page``.  Every page maps the same row range on
    every channel and bank (frames always stripe the full width), so one
    pointer per page suffices -- the "small extra amount of SRAM".
    """

    def __init__(
        self,
        config: HBMSwitchConfig,
        rows_per_page: int = 8,
        rows_per_bank_total: int = 0,
    ) -> None:
        if rows_per_page <= 0:
            raise ConfigError(f"rows_per_page must be positive, got {rows_per_page}")
        self.config = config
        if rows_per_bank_total <= 0:
            stack = config.stack
            bank_bytes = stack.capacity_bytes // (stack.channels * stack.banks_per_channel)
            rows_per_bank_total = max(1, bank_bytes // stack.row_bytes)
        n_pages = rows_per_bank_total // rows_per_page
        if n_pages < config.n_ports:
            raise ConfigError(
                f"only {n_pages} pages for {config.n_ports} outputs; "
                f"shrink rows_per_page"
            )
        self.rows_per_page = rows_per_page
        self._free: Deque[Page] = deque(
            Page(index=i, base_row=i * rows_per_page, rows=rows_per_page)
            for i in range(n_pages)
        )
        self.total_pages = n_pages
        self._owner: Dict[int, int] = {}
        self.fifos: List[OutputPageFifo] = [
            OutputPageFifo(j, config.n_bank_groups, config.gamma, self)
            for j in range(config.n_ports)
        ]

    # -- pool operations ----------------------------------------------------------

    def acquire(self, output: int) -> Page:
        if not self._free:
            raise CapacityExceeded("page pool exhausted")
        page = self._free.popleft()
        self._owner[page.index] = output
        return page

    def release(self, page: Page) -> None:
        if page.index not in self._owner:
            raise ConfigError(f"page {page.index} is not allocated")
        del self._owner[page.index]
        self._free.append(page)

    # -- introspection -------------------------------------------------------------

    @property
    def free_pages(self) -> int:
        return len(self._free)

    def pages_of(self, output: int) -> int:
        return sum(1 for owner in self._owner.values() if owner == output)

    def region(self, output: int) -> OutputPageFifo:
        if not 0 <= output < len(self.fifos):
            raise ConfigError(f"output {output} out of range")
        return self.fifos[output]

    @property
    def occupancy_frames(self) -> int:
        return sum(f.occupancy for f in self.fifos)

    def page_table_sram_bits(self) -> int:
        """The 'small extra amount of SRAM' (SS 3.2).

        One pointer per page (log2 pages, rounded to whole bits) plus a
        per-output head/tail pair; a few KB for the reference design.
        """
        import math

        pointer_bits = max(1, math.ceil(math.log2(max(self.total_pages, 2))))
        table = self.total_pages * pointer_bits
        counters = self.config.n_ports * 2 * 32
        return table + counters
