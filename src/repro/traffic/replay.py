"""Packet-trace I/O: save simulator workloads, replay external ones.

The synthetic generators cover the paper's analysis, but a production
library must also ingest real workloads (anonymised router traces,
testbed captures).  The format is deliberately plain CSV --
``arrival_ns,size_bytes,input_port,output_port,src_ip,dst_ip,src_port,
dst_port,protocol`` -- so traces can come from anywhere.

:func:`save_trace` / :func:`load_trace` round-trip exactly;
:func:`replay` re-times a trace (offsetting and/or speed-scaling it) so
one capture drives experiments at several loads.

For internet-scale captures, :func:`stream_trace` reads the same CSV as
a bounded-memory block iterator (one
:class:`~repro.traffic.stream.ArrivalBlock` in memory at a time) and
:class:`TraceSource` wraps a trace file as a
:class:`~repro.traffic.stream.TrafficSource` any engine can consume.
Both readers parse rows through one row reader; the eager
:func:`load_trace` is the one that can sort an interleaved capture.
"""

from __future__ import annotations

import csv
import io
from contextlib import closing
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, TextIO, Union

import numpy as np

from ..errors import ConfigError
from .flows import FiveTuple
from .packet import Packet
from .stream import DEFAULT_BLOCK_NS, ArrivalBlock, TrafficSource

_COLUMNS = [
    "arrival_ns",
    "size_bytes",
    "input_port",
    "output_port",
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "protocol",
]


def save_trace(packets: Sequence[Packet], destination: Union[str, Path, TextIO]) -> None:
    """Write packets as CSV (header + one row per packet, arrival order)."""
    own = isinstance(destination, (str, Path))
    handle: TextIO = open(destination, "w", newline="") if own else destination
    try:
        writer = csv.writer(handle)
        writer.writerow(_COLUMNS)
        for packet in packets:
            writer.writerow(
                [
                    repr(packet.arrival_ns),
                    packet.size_bytes,
                    packet.input_port,
                    packet.output_port,
                    packet.flow.src_ip,
                    packet.flow.dst_ip,
                    packet.flow.src_port,
                    packet.flow.dst_port,
                    packet.flow.protocol,
                ]
            )
    finally:
        if own:
            handle.close()


def _read_rows(source: Union[str, Path, TextIO]):
    """Parse a CSV trace row by row.

    Yields ``(line_no, arrival_ns, size_bytes, input_port, output_port,
    flow)`` per row; a missing column, or a row whose fields do not
    parse, raises :class:`ConfigError` (naming the line).  A path is
    opened here and closed when the rows run out or the reader is
    closed (both readers close it with :func:`contextlib.closing`).
    """
    own = isinstance(source, (str, Path))
    handle: TextIO = open(source, "r", newline="") if own else source
    try:
        reader = csv.DictReader(handle)
        missing = set(_COLUMNS) - set(reader.fieldnames or [])
        if missing:
            raise ConfigError(f"trace is missing columns: {sorted(missing)}")
        for line_no, row in enumerate(reader, start=2):
            try:
                arrival = float(row["arrival_ns"])
                size = int(row["size_bytes"])
                flow = FiveTuple(
                    src_ip=int(row["src_ip"]),
                    dst_ip=int(row["dst_ip"]),
                    src_port=int(row["src_port"]),
                    dst_port=int(row["dst_port"]),
                    protocol=int(row["protocol"]),
                )
                input_port = int(row["input_port"])
                output_port = int(row["output_port"])
            except (KeyError, ValueError) as error:
                raise ConfigError(f"trace line {line_no}: {error}") from error
            yield line_no, arrival, size, input_port, output_port, flow
    finally:
        if own:
            handle.close()


def load_trace(source: Union[str, Path, TextIO], sort: bool = False) -> List[Packet]:
    """Read a CSV trace eagerly; returns packets with fresh sequential
    pids.  For anything larger than a test fixture, prefer
    :func:`stream_trace` / :class:`TraceSource` (byte-identical packets
    at bounded memory).

    Rows must be sorted by arrival time: the simulators' drain
    invariant (offered = delivered + dropped + residual, and shared
    arrival-time tie-breaking by pid) assumes pids follow arrival
    order, so an unsorted trace fed to the SPS would silently reorder
    flows.  Violations therefore raise :class:`ConfigError` with the
    offending line.  ``sort=True`` instead accepts out-of-order rows
    and stably sorts them by arrival (re-assigning pids in the sorted
    order) -- for archived captures whose writers interleaved several
    sources, which :func:`stream_trace` rejects.
    """
    packets: List[Packet] = []
    last_time = -float("inf")
    with closing(_read_rows(source)) as rows:
        for line_no, arrival, size, input_port, output_port, flow in rows:
            try:
                packet = Packet(
                    pid=len(packets),
                    size_bytes=size,
                    input_port=input_port,
                    output_port=output_port,
                    flow=flow,
                    arrival_ns=arrival,
                )
            except ValueError as error:
                raise ConfigError(f"trace line {line_no}: {error}") from error
            if arrival < last_time and not sort:
                raise ConfigError(
                    f"trace line {line_no}: arrivals not sorted "
                    f"({arrival} after {last_time})"
                )
            last_time = max(last_time, arrival)
            packets.append(packet)
    if sort:
        packets.sort(key=lambda p: p.arrival_ns)
        for pid, packet in enumerate(packets):
            packet.pid = pid
    return packets


def stream_trace(
    source: Union[str, Path, TextIO],
    duration_ns: Optional[float] = None,
    block_ns: float = DEFAULT_BLOCK_NS,
) -> Iterator[ArrivalBlock]:
    """Read a CSV trace as a bounded-memory block iterator.

    Yields :class:`~repro.traffic.stream.ArrivalBlock` spans of
    ``block_ns`` covering ``[0, duration_ns)`` (trailing spans are
    empty blocks, so a consuming engine still advances to the
    horizon); rows at or past ``duration_ns`` are dropped, exactly as
    the switch ingest would drop them.  With ``duration_ns=None`` the
    stream ends at the last row's span and nothing is dropped.  Only
    one block of rows is ever held in memory.

    Ordering contract (the ``load_trace(sort=False)`` footgun, made
    explicit): the simulators' drain invariant needs pids in arrival
    order, so rows are auto-sorted *within* each block span -- jitter
    smaller than ``block_ns`` is repaired for free -- but a row whose
    arrival precedes an already-yielded block is a hard
    :class:`ConfigError` naming the line.  Pre-sort such captures
    (``load_trace(sort=True)``) or raise ``block_ns`` past the jitter.

    For a trace that is already sorted, the concatenated blocks are
    byte-identical to :func:`load_trace`'s packet list.
    """
    if block_ns <= 0:
        raise ConfigError(f"block_ns must be positive, got {block_ns}")
    if duration_ns is not None and duration_ns <= 0:
        raise ConfigError(f"duration must be positive, got {duration_ns}")
    with closing(_read_rows(source)) as rows:
        start = 0.0
        pid_offset = 0
        times: List[float] = []
        sizes: List[int] = []
        inputs: List[int] = []
        outputs: List[int] = []
        flows: List[FiveTuple] = []

        def flush(end: float) -> ArrivalBlock:
            nonlocal pid_offset, times, sizes, inputs, outputs, flows
            t = np.asarray(times, dtype=np.float64)
            order = np.argsort(t, kind="stable")
            block = ArrivalBlock(
                times=t[order],
                sizes=np.asarray(sizes, dtype=np.int64)[order],
                inputs=np.asarray(inputs, dtype=np.int64)[order],
                outputs=np.asarray(outputs, dtype=np.int64)[order],
                flows=tuple(flows[k] for k in order),
                start_ns=start,
                end_ns=end,
                pid_offset=pid_offset,
            )
            pid_offset += len(block)
            times, sizes, inputs, outputs, flows = [], [], [], [], []
            return block

        for line_no, arrival, size, input_port, output_port, flow in rows:
            if arrival < 0:
                raise ConfigError(
                    f"trace line {line_no}: negative arrival {arrival}"
                )
            if duration_ns is not None and arrival >= duration_ns:
                continue
            if arrival < start:
                raise ConfigError(
                    f"trace line {line_no}: arrival {arrival} ns precedes "
                    f"an already-emitted block (blocks only auto-sort "
                    f"within one {block_ns:g} ns span; pre-sort the "
                    f"capture with load_trace(sort=True) or raise "
                    f"block_ns)"
                )
            while arrival >= start + block_ns:
                end = start + block_ns
                if duration_ns is not None:
                    end = min(end, duration_ns)
                yield flush(end)
                start += block_ns
            times.append(arrival)
            sizes.append(size)
            inputs.append(input_port)
            outputs.append(output_port)
            flows.append(flow)
        if duration_ns is None:
            if times:
                yield flush(start + block_ns)
        else:
            while start < duration_ns:
                yield flush(min(start + block_ns, duration_ns))
                start += block_ns


class TraceSource(TrafficSource):
    """A trace file as a reusable :class:`TrafficSource`.

    Re-opens ``path`` on every :meth:`blocks` call, so one source
    drives many runs (sweep cells, fault trials) without keeping any
    packets resident between them.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise ConfigError(f"trace file not found: {self.path}")

    def blocks(
        self, duration_ns: float, block_ns: float = DEFAULT_BLOCK_NS
    ) -> Iterator[ArrivalBlock]:
        return stream_trace(self.path, duration_ns, block_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceSource({str(self.path)!r})"


def replay(
    packets: Sequence[Packet],
    time_scale: float = 1.0,
    offset_ns: float = 0.0,
) -> List[Packet]:
    """Fresh packets with re-timed arrivals.

    ``time_scale`` stretches inter-arrival gaps (2.0 = half the load),
    ``offset_ns`` shifts the start.  Flows and sizes are preserved, so
    ECMP pinning and ordering semantics carry over.
    """
    if time_scale <= 0:
        raise ConfigError(f"time_scale must be positive, got {time_scale}")
    if offset_ns < 0:
        raise ConfigError(f"offset must be >= 0, got {offset_ns}")
    if not packets:
        return []
    base = packets[0].arrival_ns
    out: List[Packet] = []
    for pid, original in enumerate(packets):
        out.append(
            Packet(
                pid=pid,
                size_bytes=original.size_bytes,
                input_port=original.input_port,
                output_port=original.output_port,
                flow=original.flow,
                arrival_ns=offset_ns + (original.arrival_ns - base) * time_scale,
            )
        )
    return out


def trace_to_string(packets: Sequence[Packet]) -> str:
    """The CSV text of a trace (convenience for tests and small dumps)."""
    buffer = io.StringIO()
    save_trace(packets, buffer)
    return buffer.getvalue()
