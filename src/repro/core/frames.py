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

Neither packets, batches nor frames are objects in a running switch.  A
switch keeps each block's admitted arrivals as :class:`ArrivalColumns`
(one numpy array per field, sorted by (input, output) pair).  Its
batches are rows of one :class:`BatchTable` and its frames rows of one
:class:`FrameTable`, named by integer ids that the stages queue and
pass on; ids are reused once a frame leaves on the wire.  A batch names
the packets it completes as a row range of one block's columns, after
the *segments* -- ``(columns, lo, hi)`` row ranges -- of earlier blocks
when it straddles a block boundary.  A :class:`BatchAssembler` finds its
batch boundaries with a cumulative byte sum and a binary search, one
search per batch rather than one step per packet, and counts the
admitted packets each batch completes as it cuts it.

:class:`Batch` and :class:`Frame` are values: one batch or frame read out
of the tables (:meth:`BatchTable.view`, :meth:`FrameTable.view`) for
inspection, and the records the module-level SRAM model
(:mod:`repro.core.slicing`) consumes.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from heapq import heapify, heappop, heappush
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


def gather_rows(
    blocks: Sequence[ArrivalColumns], los: Sequence[int], his: Sequence[int], *fields: str
) -> List[np.ndarray]:
    """Each of ``fields`` concatenated over the row ranges
    ``blocks[s][los[s]:his[s]]``, skipping dropped rows."""
    n = len(blocks)
    if n == 1 and blocks[0].admitted is None:
        columns = blocks[0]
        return [getattr(columns, name)[los[0]:his[0]] for name in fields]
    if not n:
        return [np.empty(0, dtype=getattr(_EMPTY, name).dtype) for name in fields]
    # Row index of every output position within its own block's
    # columns, then one gather per block.
    index_of: dict = {}
    distinct: list = []
    owner = []
    for columns in blocks:
        index = index_of.setdefault(id(columns), len(distinct))
        if index == len(distinct):
            distinct.append(columns)
        owner.append(index)
    los = np.fromiter(los, np.int64, n)
    lengths = np.fromiter(his, np.int64, n) - los
    rows = np.repeat(los - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())
    block_of = np.repeat(owner, lengths)
    by_block = np.argsort(block_of, kind="stable")
    bounds = np.searchsorted(block_of[by_block], np.arange(len(distinct) + 1))
    out = [np.empty(rows.size, dtype=getattr(_EMPTY, name).dtype) for name in fields]
    keep = None
    for index, columns in enumerate(distinct):
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


def first_arrivals(
    n_batches: int,
    owners: Sequence[int],
    blocks: Sequence[ArrivalColumns],
    los: Sequence[int],
    his: Sequence[int],
) -> np.ndarray:
    """Arrival time of the first packet each of ``n_batches`` batches
    completes (NaN for a batch that completes none).

    Segment ``s`` -- rows ``los[s]:his[s]`` of ``blocks[s]`` -- belongs
    to batch ``owners[s]``; segments come in batch order, each batch's
    in row order.  Gathered per block of columns.
    """
    firsts = np.full(n_batches, np.nan)
    n = len(blocks)
    if not n:
        return firsts
    owners = np.fromiter(owners, np.int64, n)
    los = np.fromiter(los, np.int64, n)
    his = np.fromiter(his, np.int64, n)
    # Consecutive segments mostly share a block: group by runs.
    ids = np.fromiter(map(id, blocks), np.int64, n)
    heads = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    index_of: dict = {}
    columns_of: list = []
    run_block = []
    for head in heads.tolist():
        columns = blocks[head]
        index = index_of.setdefault(id(columns), len(columns_of))
        if index == len(columns_of):
            columns_of.append(columns)
        run_block.append(index)
    block_of = np.repeat(run_block, np.diff(np.append(heads, n)))
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
    lead = np.concatenate(([True], owner[1:] != owner[:-1]))
    firsts[owner[lead]] = times[found[lead]]
    return firsts


class Batch:
    """One fixed-size batch of ``size_bytes`` (= k), for one output, as a
    value (see :meth:`BatchTable.view`).

    ``completing`` holds the segments of the packets whose last byte is
    in this batch, as ``(columns, lo, hi)`` row ranges.
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


class Frame:
    """One K-byte frame: ``batches_per_frame`` batches for one output, as
    a value (see :meth:`FrameTable.view`)."""

    __slots__ = ("output", "index", "batches", "size_bytes", "created_ns", "bypassed", "payload_bytes")

    def __init__(self, output: int, index: int, batches: List[Batch], size_bytes: int, created_ns: float):
        self.output = output
        self.index = index
        self.batches = batches
        self.size_bytes = size_bytes
        self.created_ns = created_ns
        self.bypassed = False
        #: Real (non-padding, non-filler) bytes.
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


#: Free ids a table gathers, beyond those of its last trim, before it
#: trims again.
_TRIM_ROWS = 1024


class _Rows:
    """Id allocation for a table of columns (one list per field).

    Free ids are a heap and the lowest is handed out first, so the live
    rows gather at the start of the columns.  Once enough ids are free,
    the free rows at the end are cut off: after a burst the columns
    shrink back instead of holding its high-water mark.  Each trim scans
    the free ids once and comes after at least as many releases, so it
    costs O(1) per release.
    """

    __slots__ = ("_free", "_trim_at")

    def __init__(self) -> None:
        self._free: List[int] = []
        self._trim_at = _TRIM_ROWS

    def _columns(self) -> tuple:
        raise NotImplementedError

    @property
    def live(self) -> int:
        """Ids handed out and not yet released."""
        return len(self._columns()[0]) - len(self._free)

    def _trim(self) -> None:
        columns = self._columns()
        end = len(columns[0])
        free = set(self._free)
        while end and end - 1 in free:
            end -= 1
        if end < len(columns[0]):
            for column in columns:
                del column[end:]
            self._free = [row for row in self._free if row < end]
            heapify(self._free)
        self._trim_at = len(self._free) + max(_TRIM_ROWS, end // 2)


class BatchTable(_Rows):
    """The batches inside one switch, as columns indexed by batch id.

    An input port takes an id when it cuts a batch (:meth:`add`); the
    switch frees it once the batch's frame is on the wire, and the tail
    SRAM when it drops the batch (:meth:`release`).  Ids are reused, so
    the columns only ever hold about the batches in flight.

    Batch ``b`` completes the packets of rows ``lo[b]:hi[b]`` of
    ``columns[b]`` (``None`` when it completes none in its own block),
    after those of ``earlier[b]`` -- the segments of earlier blocks, set
    only on the first batch a pair cuts after a block boundary (and on
    flushed batches).  ``count[b]`` is how many of those rows were
    admitted.  Every batch is ``batch_bytes`` long.
    """

    __slots__ = (
        "batch_bytes", "output", "seq", "payload", "created", "count",
        "columns", "lo", "hi", "earlier",
    )

    def __init__(self, batch_bytes: int) -> None:
        super().__init__()
        self.batch_bytes = batch_bytes
        self.output: List[int] = []
        self.seq: List[int] = []
        self.payload: List[int] = []
        self.created: List[float] = []
        self.count: List[int] = []
        self.columns: List[Optional[ArrivalColumns]] = []
        self.lo: List[int] = []
        self.hi: List[int] = []
        self.earlier: List[Optional[Tuple[Segment, ...]]] = []

    def _columns(self) -> tuple:
        return (
            self.output, self.seq, self.payload, self.created, self.count,
            self.columns, self.lo, self.hi, self.earlier,
        )

    def add(
        self,
        output: int,
        seq: int,
        payload: int,
        created: float,
        count: int = 0,
        columns: Optional[ArrivalColumns] = None,
        lo: int = 0,
        hi: int = 0,
        earlier: Optional[Tuple[Segment, ...]] = None,
    ) -> int:
        """A new batch's id."""
        free = self._free
        if free:
            batch = heappop(free)
            self.output[batch] = output
            self.seq[batch] = seq
            self.payload[batch] = payload
            self.created[batch] = created
            self.count[batch] = count
            self.columns[batch] = columns
            self.lo[batch] = lo
            self.hi[batch] = hi
            self.earlier[batch] = earlier
            return batch
        self.output.append(output)
        self.seq.append(seq)
        self.payload.append(payload)
        self.created.append(created)
        self.count.append(count)
        self.columns.append(columns)
        self.lo.append(lo)
        self.hi.append(hi)
        self.earlier.append(earlier)
        return len(self.output) - 1

    def release(self, batches: Sequence[int]) -> None:
        """Free ``batches`` for reuse (dropping their block references)."""
        columns = self.columns
        earlier = self.earlier
        free = self._free
        for batch in batches:
            columns[batch] = earlier[batch] = None
            heappush(free, batch)
        if len(free) >= self._trim_at:
            self._trim()

    def segments(self, batch: int) -> List[Segment]:
        """The row ranges of the packets ``batch`` completes, in order."""
        segments = list(self.earlier[batch] or ())
        if self.columns[batch] is not None:
            segments.append((self.columns[batch], self.lo[batch], self.hi[batch]))
        return segments

    def view(self, batch: int) -> Batch:
        """``batch`` as a :class:`Batch` value."""
        return Batch(
            self.output[batch], self.seq[batch], self.batch_bytes,
            self.payload[batch], self.segments(batch), self.created[batch],
        )


class FrameTable(_Rows):
    """The frames inside one switch, as columns indexed by frame id.

    The tail SRAM takes an id when it closes a frame over a list of
    batch ids (:meth:`add`); the switch frees it, with its batches, once
    the frame is on the wire (:meth:`release`).  Every frame is
    ``frame_bytes`` long: ``payload[f]`` is its real data, the rest
    batch padding and missing batches of a padded frame.
    """

    __slots__ = (
        "batches", "frame_bytes", "output", "index", "created", "payload",
        "members", "bypassed",
    )

    def __init__(self, batches: BatchTable, frame_bytes: int) -> None:
        super().__init__()
        #: The batch table the frames' member ids index.
        self.batches = batches
        self.frame_bytes = frame_bytes
        self.output: List[int] = []
        self.index: List[int] = []
        self.created: List[float] = []
        self.payload: List[int] = []
        #: Each frame's batch ids, in crossing order.
        self.members: List[Optional[List[int]]] = []
        self.bypassed: List[bool] = []

    def _columns(self) -> tuple:
        return (
            self.output, self.index, self.created, self.payload, self.members,
            self.bypassed,
        )

    def add(self, output: int, index: int, created: float, members: List[int]) -> int:
        """A new frame's id: the ``index``-th frame of ``output``."""
        payload = sum(map(self.batches.payload.__getitem__, members))
        free = self._free
        if free:
            frame = heappop(free)
            self.output[frame] = output
            self.index[frame] = index
            self.created[frame] = created
            self.payload[frame] = payload
            self.members[frame] = members
            self.bypassed[frame] = False
            return frame
        self.output.append(output)
        self.index.append(index)
        self.created.append(created)
        self.payload.append(payload)
        self.members.append(members)
        self.bypassed.append(False)
        return len(self.output) - 1

    def release(self, frame: int) -> None:
        """Free ``frame`` and its batches for reuse."""
        self.batches.release(self.members[frame])
        self.members[frame] = None
        heappush(self._free, frame)
        if len(self._free) >= self._trim_at:
            self._trim()

    def view(self, frame: int) -> Frame:
        """``frame`` as a :class:`Frame` value."""
        value = Frame(
            self.output[frame], self.index[frame],
            [self.batches.view(batch) for batch in self.members[frame]],
            self.frame_bytes, self.created[frame],
        )
        value.bypassed = self.bypassed[frame]
        return value


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
    next search takes into account, and is left out of the count of
    packets its batch completes.

    Emitted batches are rows of ``batches`` (a private table unless the
    owner shares one).
    """

    def __init__(self, output: int, batch_bytes: int, batches: Optional[BatchTable] = None):
        if batch_bytes <= 0:
            raise ConfigError(f"batch size must be positive, got {batch_bytes}")
        self.output = output
        self.batch_bytes = batch_bytes
        self.batches = batches if batches is not None else BatchTable(batch_bytes)
        self._fill = 0  # bytes in the current partial batch (between blocks)
        self._seq = 0
        #: Segments of earlier blocks whose packets complete in the
        #: current partial batch, and how many of their rows are admitted.
        self._earlier: Optional[Tuple[Segment, ...]] = None
        self._earlier_count = 0
        self._columns: Optional[ArrivalColumns] = None
        self._base = 0  # columns row of the block's first arrival
        self._rows = _NO_ROWS  # block position of each arrival
        self._cum = _NO_BYTES  # cumulative sizes, leading 0
        self._fill0 = 0  # fill when the block was loaded
        self._seq0 = 0  # batches emitted when the block was loaded
        self._dropped = 0  # bytes of this block dropped after loading
        self._drops: List[int] = []  # their ranks, ascending
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
        """The arrival at block ``position`` was dropped on admission.

        Drops come in arrival order."""
        rank = bisect_left(self._rows, position)
        self._dropped += self._cum[rank + 1] - self._cum[rank]
        self._drops.append(rank)
        self._columns.drop(self._base + rank)

    def _admitted(self, lo: int, hi: int) -> int:
        """Admitted arrivals among ranks ``lo:hi`` of the loaded block."""
        drops = self._drops
        if not drops:
            return hi - lo
        return hi - lo - bisect_left(drops, hi) + bisect_left(drops, lo)

    def complete(self, now: float) -> List[int]:
        """Emit the batches completed by the arrival at
        :attr:`next_position` (at least one); returns their ids."""
        k = self.batch_bytes
        r = self._next_rank
        base = self._base
        columns = self._columns
        add = self.batches.add
        output = self.output
        cum = self._cum
        before = self._fill0 + cum[r] - self._dropped
        after = before + cum[r + 1] - cum[r]
        home = (after - 1) // k  # the batch holding r's last byte
        first = before // k
        emitted = []
        seq = self._seq
        for b in range(first, after // k):
            if b == first:
                hi = r + 1 if b == home else r
                lo = self._cstart
                count = self._earlier_count
                if hi > lo:
                    count += self._admitted(lo, hi)
                    emitted.append(add(
                        output, seq, k, now, count, columns, base + lo, base + hi,
                        self._earlier,
                    ))
                else:
                    emitted.append(add(output, seq, k, now, count, None, 0, 0, self._earlier))
                self._earlier = None
                self._earlier_count = 0
            elif b == home:
                # ``r`` itself: it completes a batch, so it was admitted.
                emitted.append(add(output, seq, k, now, 1, columns, base + r, base + r + 1))
            else:
                emitted.append(add(output, seq, k, now))
            seq += 1
        self._seq = seq
        self._cstart = r + 1 if after % k == 0 else r
        return emitted

    def close_block(self) -> None:
        """Every arrival of the loaded block has been passed."""
        total = self._fill0 + self._cum[-1] - self._dropped
        self._fill = total - self.batch_bytes * (self._seq - self._seq0)
        n = len(self._rows)
        if n > self._cstart:
            segment = (self._columns, self._base + self._cstart, self._base + n)
            self._earlier = (self._earlier or ()) + (segment,)
            self._earlier_count += self._admitted(self._cstart, n)
        self._columns = None
        self._rows = _NO_ROWS
        self._cum = _NO_BYTES
        self._fill0 = self._fill
        self._seq0 = self._seq
        self._dropped = 0
        self._drops = []
        self._cstart = 0
        self.next_position = None

    def flush(self, now: float) -> Optional[int]:
        """Emit the partial batch padded to full size (frame padding);
        returns its id.

        Returns ``None`` when nothing is buffered.  Called between
        blocks.
        """
        if self._fill == 0:
            return None
        batch = self.batches.add(
            self.output, self._seq, self._fill, now, self._earlier_count,
            earlier=self._earlier,
        )
        self._seq += 1
        self._fill = 0
        self._fill0 = 0
        self._seq0 = self._seq
        self._earlier = None
        self._earlier_count = 0
        return batch


class FrameAssembler:
    """Per-output frame builder living in the tail SRAM.

    Collects batch ids; emits a frame (a row of ``frames``) when
    ``batches_per_frame`` have accumulated.  ``flush`` builds a *padded
    frame* from fewer batches (the SS 4 latency optimisation), keeping
    the frame size fixed so the HBM schedule is unchanged.
    """

    def __init__(
        self,
        output: int,
        batch_bytes: int,
        batches_per_frame: int,
        frames: Optional[FrameTable] = None,
    ):
        if batches_per_frame <= 0:
            raise ConfigError(
                f"batches_per_frame must be positive, got {batches_per_frame}"
            )
        self.output = output
        self.batch_bytes = batch_bytes
        self.batches_per_frame = batches_per_frame
        self.frames = (
            frames if frames is not None
            else FrameTable(BatchTable(batch_bytes), batch_bytes * batches_per_frame)
        )
        self._output_of = self.frames.batches.output
        #: Ids of the batches of the forming frame, in crossing order.
        self.pending: List[int] = []
        self._index = 0

    @property
    def frame_bytes(self) -> int:
        return self.batch_bytes * self.batches_per_frame

    @property
    def pending_batches(self) -> int:
        return len(self.pending)

    @property
    def pending_bytes(self) -> int:
        return len(self.pending) * self.batch_bytes

    def add(self, batch: int, now: float) -> Optional[int]:
        """Feed one batch; return a full frame's id when one completes."""
        if self._output_of[batch] != self.output:
            raise ConfigError(
                f"batch for output {self._output_of[batch]} fed to frame "
                f"assembler for output {self.output}"
            )
        pending = self.pending
        pending.append(batch)
        if len(pending) == self.batches_per_frame:
            return self._emit(now)
        return None

    def flush(self, now: float) -> Optional[int]:
        """Emit a padded frame from whatever is pending (possibly none)."""
        if not self.pending:
            return None
        return self._emit(now)

    def _emit(self, now: float) -> int:
        frame = self.frames.add(self.output, self._index, now, self.pending)
        self._index += 1
        self.pending = []
        return frame
