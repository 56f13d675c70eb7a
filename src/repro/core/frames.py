"""Batches and frames: PFI's two-stage aggregation (Design 6, step 1).

At each input, variable-size packets are cut and assembled into
fixed-size **batches** of k = 4 KB; packets may straddle two batches
(SS 3.2 step 1).  At the tail SRAM, batches for the same output aggregate
into **frames** of K = 512 KB = 128 batches (step 2).

The simulator tracks data at batch granularity; a packet is *carried* by
the batch containing its last byte, which is when its content is fully
available downstream -- latency is measured at that batch's departure.
Padding bytes (from the SS 4 latency optimisation) are tracked separately
so goodput and raw throughput can be reported apart.

Packets are never objects here.  A switch keeps each block's admitted
arrivals as :class:`ArrivalColumns` (one numpy array per field, sorted
by (input, output) pair), and a batch names the packets it completes as
*segments* -- ``(columns, lo, hi)`` row ranges, usually one, two when a
batch straddles a block boundary.  A :class:`BatchAssembler` finds its
batch boundaries with a cumulative byte sum and a binary search, one
search per batch rather than one step per packet.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError


class ArrivalColumns:
    """One block's admitted arrivals at one switch, as aligned arrays.

    Rows are grouped by (input, output) pair and keep arrival order
    within a pair, so the packets one batch completes are a contiguous
    row range.  ``admitted`` stays ``None`` until an input-SRAM
    overflow drops a row after the block was laid out; readers then
    skip the dropped rows.
    """

    __slots__ = ("times", "sizes", "pids", "okeys", "lanes", "rows", "admitted")

    def __init__(self, times, sizes, pids, okeys, lanes, rows) -> None:
        self.times = np.asarray(times, dtype=np.float64)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.pids = np.asarray(pids, dtype=np.int64)
        #: Flow-order key per row: one id per (flow, output) pair.
        self.okeys = np.asarray(okeys, dtype=np.int64)
        #: Egress (fiber, wavelength) lane index per row.
        self.lanes = np.asarray(lanes, dtype=np.int64)
        #: The row's arrival index in the switch's ingest order.
        self.rows = np.asarray(rows, dtype=np.int64)
        self.admitted: Optional[np.ndarray] = None

    def drop(self, row: int) -> None:
        """Mark ``row`` as dropped after layout (input-SRAM overflow)."""
        if self.admitted is None:
            self.admitted = np.ones(self.times.size, dtype=bool)
        self.admitted[row] = False


def int_array(values) -> array:
    """``values`` as a compact array of Python-int items: 8 bytes each
    like numpy, but scalar reads and :mod:`bisect` searches run at
    list speed."""
    return array("q", np.ascontiguousarray(values, dtype=np.int64).tobytes())


_NO_ROWS = array("q")
_NO_BYTES = array("q", [0])

_EMPTY = ArrivalColumns([], [], [], [], [], [])

#: A row range of one block's columns: ``(columns, lo, hi)``.
Segment = Tuple[ArrivalColumns, int, int]


def segment_rows(segments: Sequence[Segment], *fields: str) -> List[np.ndarray]:
    """Each of ``fields`` concatenated over ``segments``, skipping
    dropped rows."""
    if len(segments) == 1:
        columns, lo, hi = segments[0]
        if columns.admitted is None:
            return [getattr(columns, name)[lo:hi] for name in fields]
    if not segments:
        return [np.empty(0, dtype=getattr(_EMPTY, name).dtype) for name in fields]
    # Row index of every output position within its own block's
    # columns, then one gather per block.
    blocks: dict = {}
    owner = [
        blocks.setdefault(id(columns), (len(blocks), columns))[0]
        for columns, _, _ in segments
    ]
    los = np.fromiter((lo for _, lo, _ in segments), np.int64, len(segments))
    lengths = np.fromiter((hi for _, _, hi in segments), np.int64, len(segments)) - los
    rows = np.repeat(los - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())
    block_of = np.repeat(owner, lengths)
    by_block = np.argsort(block_of, kind="stable")
    bounds = np.searchsorted(block_of[by_block], np.arange(len(blocks) + 1))
    out = [np.empty(rows.size, dtype=getattr(_EMPTY, name).dtype) for name in fields]
    keep = None
    for index, columns in blocks.values():
        where = by_block[bounds[index]:bounds[index + 1]]
        picked = rows[where]
        for values, name in zip(out, fields):
            values[where] = getattr(columns, name)[picked]
        if columns.admitted is not None:
            if keep is None:
                keep = np.ones(rows.size, dtype=bool)
            keep[where] = columns.admitted[picked]
    if keep is not None:
        out = [values[keep] for values in out]
    return out


def first_arrivals(batches: Sequence["Batch"]) -> np.ndarray:
    """Arrival time of the first packet each batch completes (NaN for a
    batch that completes none), gathered per block of columns."""
    firsts = np.full(len(batches), np.nan)
    completing = [batch.completing for batch in batches]
    segments = list(chain.from_iterable(completing))
    n = len(segments)
    if not n:
        return firsts
    owners = np.repeat(
        np.arange(len(batches)), np.fromiter(map(len, completing), np.int64, len(batches))
    )
    blocks = list(map(itemgetter(0), segments))
    los = np.fromiter(map(itemgetter(1), segments), np.int64, n)
    his = np.fromiter(map(itemgetter(2), segments), np.int64, n)
    # Consecutive segments mostly share a block: group by runs.
    ids = np.fromiter(map(id, blocks), np.int64, n)
    heads = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    index_of: dict = {}
    columns_of: list = []
    run_block = []
    for head in heads.tolist():
        columns = blocks[head]
        index = index_of.setdefault(id(columns), len(columns_of))
        if index == len(columns_of):
            columns_of.append(columns)
        run_block.append(index)
    block_of = np.repeat(run_block, np.diff(np.r_[heads, n]))
    # The first admitted row of each segment, if it has one.
    times = np.full(n, np.nan)
    for index, columns in enumerate(columns_of):
        where = np.flatnonzero(block_of == index) if len(columns_of) > 1 else np.arange(n)
        first = los[where]
        if columns.admitted is not None:
            kept = np.flatnonzero(columns.admitted)
            if not kept.size:
                continue
            at = np.searchsorted(kept, first)
            first = np.where(at < kept.size, kept[np.minimum(at, kept.size - 1)], his[where])
        found = first < his[where]
        times[where[found]] = columns.times[first[found]]
    # Segments are in batch order: a batch's first segment with an
    # admitted row holds its first arrival.
    found = np.flatnonzero(~np.isnan(times))
    owner = owners[found]
    lead = np.r_[True, owner[1:] != owner[:-1]]
    firsts[owner[lead]] = times[found[lead]]
    return firsts


class Batch:
    """One fixed-size batch of ``size_bytes`` (= k), for one output.

    ``completing`` holds the segments of the packets whose last byte is
    in this batch (see :func:`segment_rows`).
    """

    __slots__ = ("output", "seq", "size_bytes", "payload_bytes", "completing", "created_ns")

    def __init__(
        self,
        output: int,
        seq: int,
        size_bytes: int,
        payload_bytes: int,
        completing: Sequence[Segment],
        created_ns: float,
    ) -> None:
        self.output = output
        self.seq = seq
        self.size_bytes = size_bytes
        self.payload_bytes = payload_bytes
        self.completing = tuple(completing)
        self.created_ns = created_ns

    @property
    def padding_bytes(self) -> int:
        """Filler bytes added when the batch was flushed before full."""
        return self.size_bytes - self.payload_bytes

    @property
    def completing_count(self) -> int:
        """Packets whose last byte is in this batch."""
        if len(self.completing) == 1 and self.completing[0][0].admitted is None:
            return self.completing[0][2] - self.completing[0][1]
        return sum(
            hi - lo if columns.admitted is None
            else int(np.count_nonzero(columns.admitted[lo:hi]))
            for columns, lo, hi in self.completing
        )

    def slice_bytes(self, n_modules: int) -> int:
        """Size of one of the N equal slices (k/N = 256 B reference)."""
        if self.size_bytes % n_modules != 0:
            raise ConfigError(
                f"batch of {self.size_bytes} B does not slice into {n_modules}"
            )
        return self.size_bytes // n_modules

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Batch(out={self.output}, seq={self.seq}, "
            f"{self.payload_bytes}/{self.size_bytes}B, "
            f"{self.completing_count} pkts)"
        )


class BatchAssembler:
    """Per-(input, output) queue that cuts arrivals into batches.

    Every time the fill crosses a k-byte boundary a batch is emitted.  A
    packet completing exactly at a boundary belongs to the batch it
    fills (its last byte is inside it).

    A block's arrivals for the pair are loaded at once
    (:meth:`load`): their cumulative byte sum gives every boundary, and
    :meth:`next_completion` binary-searches the arrival that crosses
    the next one.  The owner interleaves :meth:`complete` calls with
    other pairs' and decides admission first; an arrival dropped after
    loading (:meth:`drop`) shifts the pair's later boundaries, which the
    next search takes into account.
    """

    def __init__(self, output: int, batch_bytes: int):
        if batch_bytes <= 0:
            raise ConfigError(f"batch size must be positive, got {batch_bytes}")
        self.output = output
        self.batch_bytes = batch_bytes
        self._fill = 0  # bytes in the current partial batch (between blocks)
        self._seq = 0
        #: Segments of earlier blocks whose packets complete in the
        #: current partial batch.
        self._pending: List[Segment] = []
        self._columns: Optional[ArrivalColumns] = None
        self._base = 0  # columns row of the block's first arrival
        self._rows = _NO_ROWS  # block position of each arrival
        self._cum = _NO_BYTES  # cumulative sizes, leading 0
        self._fill0 = 0  # fill when the block was loaded
        self._seq0 = 0  # batches emitted when the block was loaded
        self._dropped = 0  # bytes of this block dropped after loading
        self._rank = 0  # arrivals already passed by a completion
        self._cstart = 0  # first arrival completing in the partial batch
        #: Block position of the next completing arrival (or ``None``).
        self.next_position: Optional[int] = None
        self._next_rank = 0

    @property
    def fill_bytes(self) -> int:
        """Bytes buffered in the partial batch (exact between blocks)."""
        return self._fill

    @property
    def batches_emitted(self) -> int:
        return self._seq

    def load(
        self, columns: ArrivalColumns, base: int, rows: np.ndarray, sizes: np.ndarray
    ) -> Optional[int]:
        """Take one block's arrivals: ``columns`` rows ``base ..``, at
        block positions ``rows``, of ``sizes``.  Returns the first
        completing position (see :meth:`next_completion`)."""
        self._columns = columns
        self._base = base
        self._rows = int_array(rows)
        self._cum = int_array(np.concatenate(([0], np.cumsum(sizes))))
        self._fill0 = self._fill
        self._seq0 = self._seq
        self._dropped = 0
        self._rank = 0
        self._cstart = 0
        return self.next_completion()

    def next_completion(self) -> Optional[int]:
        """Block position of the next arrival that completes a batch,
        assuming every later arrival is admitted; ``None`` if none does
        in this block."""
        k = self.batch_bytes
        target = k * (self._seq - self._seq0 + 1) - self._fill0 + self._dropped
        # Sizes are positive, so ``cum`` is strictly increasing and the
        # first index reaching ``target`` lies past the arrivals done.
        end = bisect_left(self._cum, target)
        if end >= len(self._cum):
            self.next_position = None
        else:
            self._next_rank = end - 1
            self.next_position = self._rows[end - 1]
        return self.next_position

    def drop(self, position: int) -> None:
        """The arrival at block ``position`` was dropped on admission."""
        rank = bisect_left(self._rows, position)
        self._dropped += self._cum[rank + 1] - self._cum[rank]
        self._columns.drop(self._base + rank)

    def complete(self, now: float) -> List[Batch]:
        """Emit the batches completed by the arrival at
        :attr:`next_position` (at least one)."""
        k = self.batch_bytes
        r = self._next_rank
        base = self._base
        columns = self._columns
        before = self._fill0 + self._cum[r] - self._dropped
        after = before + self._cum[r + 1] - self._cum[r]
        home = (after - 1) // k  # the batch holding r's last byte
        emitted = []
        for b in range(before // k, after // k):
            if b == before // k:
                segments = list(self._pending)
                self._pending = []
                hi = r + 1 if b == home else r
                if hi > self._cstart:
                    segments.append((columns, base + self._cstart, base + hi))
            elif b == home:
                segments = [(columns, base + r, base + r + 1)]
            else:
                segments = []
            emitted.append(Batch(self.output, self._seq, k, k, segments, now))
            self._seq += 1
        self._cstart = r + 1 if after % k == 0 else r
        self._rank = r + 1
        return emitted

    def close_block(self) -> None:
        """Every arrival of the loaded block has been passed."""
        total = self._fill0 + self._cum[-1] - self._dropped
        self._fill = total - self.batch_bytes * (self._seq - self._seq0)
        if len(self._rows) > self._cstart:
            self._pending.append(
                (self._columns, self._base + self._cstart, self._base + len(self._rows))
            )
        self._columns = None
        self._rows = _NO_ROWS
        self._cum = _NO_BYTES
        self._fill0 = self._fill
        self._seq0 = self._seq
        self._dropped = 0
        self._rank = self._cstart = 0
        self.next_position = None

    def flush(self, now: float) -> Optional[Batch]:
        """Emit the partial batch padded to full size (frame padding).

        Returns ``None`` when nothing is buffered.  Called between
        blocks.
        """
        if self._fill == 0:
            return None
        batch = Batch(
            self.output, self._seq, self.batch_bytes, self._fill, self._pending, now
        )
        self._seq += 1
        self._fill = 0
        self._fill0 = 0
        self._seq0 = self._seq
        self._pending = []
        return batch


class Frame:
    """One K-byte frame: ``batches_per_frame`` batches for one output."""

    __slots__ = ("output", "index", "batches", "size_bytes", "created_ns", "bypassed", "payload_bytes")

    def __init__(self, output: int, index: int, batches: List[Batch], size_bytes: int, created_ns: float):
        self.output = output
        self.index = index
        self.batches = batches
        self.size_bytes = size_bytes
        self.created_ns = created_ns
        self.bypassed = False
        #: Real (non-padding, non-filler) bytes; batches are fixed at
        #: emission time, so this is computed once instead of per query
        #: (residual accounting reads it on every enqueue/dequeue).
        self.payload_bytes = sum(batch.payload_bytes for batch in batches)

    @property
    def padding_bytes(self) -> int:
        """Filler: batch padding plus whole missing batches (padded frames)."""
        return self.size_bytes - self.payload_bytes

    @property
    def completing_count(self) -> int:
        """Packets whose last byte is in this frame."""
        return sum(batch.completing_count for batch in self.batches)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Frame(out={self.output}, idx={self.index}, "
            f"{len(self.batches)} batches, {self.payload_bytes}/{self.size_bytes}B)"
        )


class FrameAssembler:
    """Per-output frame builder living in the tail SRAM.

    Collects batches; emits a frame when ``batches_per_frame`` have
    accumulated.  ``flush`` builds a *padded frame* from fewer batches
    (the SS 4 latency optimisation), keeping the frame size fixed so the
    HBM schedule is unchanged.
    """

    def __init__(self, output: int, batch_bytes: int, batches_per_frame: int):
        if batches_per_frame <= 0:
            raise ConfigError(
                f"batches_per_frame must be positive, got {batches_per_frame}"
            )
        self.output = output
        self.batch_bytes = batch_bytes
        self.batches_per_frame = batches_per_frame
        self._pending: List[Batch] = []
        self._index = 0

    @property
    def frame_bytes(self) -> int:
        return self.batch_bytes * self.batches_per_frame

    @property
    def pending_batches(self) -> int:
        return len(self._pending)

    @property
    def pending_bytes(self) -> int:
        return len(self._pending) * self.batch_bytes

    def add(self, batch: Batch, now: float) -> Optional[Frame]:
        """Feed one batch; return a full frame when one completes."""
        if batch.output != self.output:
            raise ConfigError(
                f"batch for output {batch.output} fed to frame assembler "
                f"for output {self.output}"
            )
        self._pending.append(batch)
        if len(self._pending) == self.batches_per_frame:
            return self._emit(now)
        return None

    def flush(self, now: float) -> Optional[Frame]:
        """Emit a padded frame from whatever is pending (possibly none)."""
        if not self._pending:
            return None
        return self._emit(now)

    def _emit(self, now: float) -> Frame:
        frame = Frame(
            output=self.output,
            index=self._index,
            batches=self._pending,
            size_bytes=self.frame_bytes,
            created_ns=now,
        )
        self._index += 1
        self._pending = []
        return frame
