"""Array-native arrival ingest: the cursor an HBM switch's engine reads.

Arrivals never become heap events.  Each offered
:class:`~repro.traffic.stream.ArrivalBlock` is laid out once with numpy
-- switch-dead and no-route drops as masks, the surviving rows sorted by
(input, output) pair into :class:`~repro.core.frames.ArrivalColumns`,
per-pair and per-port cumulative byte sums -- and the engine hands the
cursor every run of arrivals that precedes its next internal event
(:meth:`~repro.sim.engine.Engine.attach_arrivals`).

Within a run nothing leaves an input SRAM, so the cursor only has to
act at the arrivals that complete a batch.  A heap holds each pair's
next completing arrival (a binary search over the pair's byte sum);
the cursor pops them in arrival order, queues the batches, and starts
a port's crossbar drain exactly as a per-packet handler would -- the
drain is an internal event at the arrival's instant, so later arrivals
of the run wait for it while arrivals at the same instant still go
first.  Admission is decided per completion, not per packet: a bound
on the largest port occupancy proves most spans cannot overflow, the
exact per-port occupancy (one search each) settles the rest, and only
a span that really overflows is walked packet by packet
(:meth:`~repro.core.input_port.InputPort.admit`).

Telemetry's per-arrival instruments -- packet and byte counters, the
O/E histogram, windowed ingress bytes and the in-switch occupancy
high-water -- are pure functions of the block, its admission mask and
the residual at the start of each span, so they are computed once per
block when its last arrival is in, in arrival order, and handed to the
switch's telemetry, which folds them in bulk with its other buffered
observations.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from .frames import ArrivalColumns, BatchAssembler, int_array

_INF = float("inf")


class Ingest:
    """One switch's arrival cursor over its queue of offered blocks."""

    def __init__(self, switch) -> None:
        self.switch = switch
        self.n_ports = switch.config.n_ports
        #: Time of the next pending arrival (``inf`` when none).
        self.next_time = _INF
        #: Arrivals of the current block already ingested.
        self.position = 0
        #: Arrivals ingested over the run.
        self.ingested = 0
        self._queue: Deque[Tuple[object, np.ndarray]] = deque()
        self._n = 0
        self._times = array("d")
        self._cum = array("q", [0])
        self._safe = 0
        self._bound = 0
        self._heap: List[Tuple[int, int]] = []
        self._pairs: Dict[int, BatchAssembler] = {}
        self._block = None
        self._capacity = switch.inputs[0].sram_capacity_bytes
        # Exact per-port occupancies at the admission point while spans
        # run close to the capacity (``None`` otherwise), and the
        # block's inputs/sizes/pre-drop flags as lists for that walk.
        self._occupancy: Optional[List[int]] = None
        self._lists = None

    # -- offering --------------------------------------------------------------

    def offer(self, block, rows: np.ndarray) -> None:
        """Queue ``block``; ``rows`` are its arrivals' ingest rows."""
        self._queue.append((block, rows))
        if self.position >= self._n:
            self._next_block()

    def _next_block(self) -> None:
        while self._queue:
            self._load(*self._queue.popleft())
            if self._n:
                self.next_time = self._times[0]
                return
            self._close()
        self.next_time = _INF

    def _load(self, block, rows: np.ndarray) -> None:
        """Lay one block out for the cursor."""
        switch = self.switch
        n_ports = self.n_ports
        n = len(block)
        times, sizes, inputs = block.times, block.sizes, block.inputs
        outputs = block.outputs
        dead = (
            switch.faults.dead_mask(times)
            if switch.faults is not None and n
            else np.zeros(n, dtype=bool)
        )
        no_route = np.zeros(n, dtype=bool)
        if switch.fib is not None and n:
            live = np.flatnonzero(~dead)
            dst = np.fromiter(
                (flow.dst_ip for flow in block.flows), np.int64, len(block.flows)
            )
            routed = switch.fib.classify_array(dst[block.flow_ids[live]])
            unroutable = (routed < 0) | (routed >= n_ports)
            no_route[live[unroutable]] = True
            outputs = outputs.copy()
            outputs[live[~unroutable]] = routed[~unroutable]
        pre = dead | no_route
        self._pre = np.flatnonzero(pre).tolist()
        self._dead = dead
        self._pre_next = 0
        live = np.flatnonzero(~pre)
        pair = inputs[live] * n_ports + outputs[live]
        order = np.argsort(pair, kind="stable")
        laid = live[order]
        pair = pair[order]
        lanes, okeys = switch.flows.intern(block.flows, block.flow_ids[laid], outputs[laid])
        columns = ArrivalColumns(
            times[laid], sizes[laid], block.pids[laid], okeys, lanes, rows[laid]
        )
        self._block = block
        self._outputs = outputs
        self._pre_mask = pre
        self._overflow: List[int] = []
        # (position, residual) at the start of each admitted span, flat.
        self._steps: List[int] = []
        laid_sizes = sizes[laid]
        starts = np.flatnonzero(np.concatenate(([True], pair[1:] != pair[:-1])))[: laid.size]
        ends = np.append(starts[1:], laid.size)
        heap = []
        pairs = {}
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            key = int(pair[lo])
            assembler = switch.inputs[key // n_ports].assemblers[key % n_ports]
            position = assembler.load(columns, lo, laid[lo:hi], laid_sizes[lo:hi])
            pairs[key] = assembler
            if position is not None:
                heap.append((position, key))
        heapq.heapify(heap)
        self._heap = heap
        self._pairs = pairs
        by_port = live[np.argsort(inputs[live], kind="stable")]
        port_of = inputs[by_port]
        bounds = np.searchsorted(port_of, np.arange(n_ports + 1))
        for p, port in enumerate(switch.inputs):
            span = by_port[bounds[p]:bounds[p + 1]]
            port.load(span, sizes[span])
        self._times = array("d", times.tobytes())
        self._cum = int_array(np.concatenate(([0], np.cumsum(np.where(pre, 0, sizes)))))
        self._n = n
        self.position = 0
        self._safe = 0
        self._lists = None
        if self._occupancy is None:
            self._bound = max(port.occupancy_at(0) for port in switch.inputs)

    # -- the engine's side -----------------------------------------------------

    def ingest(self, limit: float, closed: bool) -> float:
        """Ingest pending arrivals up to ``limit`` (inclusive when
        ``closed``), stopping after the instant at which one of them
        starts a drain; returns the last ingested arrival's time."""
        times = self._times
        start = self.position
        end = (
            bisect_right(times, limit, start) if closed
            else bisect_left(times, limit, start)
        )
        heap = self._heap
        pairs = self._pairs
        emit = self.switch._emit
        n_ports = self.n_ports
        while heap and heap[0][0] < end:
            position, key = heap[0]
            assembler = pairs[key]
            if assembler.next_position != position:
                heapq.heappop(heap)
                continue
            self._extend(position + 1)
            if assembler.next_position != position:
                continue  # an admission drop moved this pair's boundary
            heapq.heappop(heap)
            now = times[position]
            batches = assembler.complete(now)
            following = assembler.next_completion()
            if following is not None:
                heapq.heappush(heap, (following, key))
            if emit(key // n_ports, batches, now):
                # The drain fires at ``now``: only arrivals at the same
                # instant precede it.
                end = min(end, bisect_right(times, now, position + 1))
        self._extend(end)
        self.ingested += end - start
        self.position = end
        last = times[end - 1]
        if end < self._n:
            self.next_time = times[end]
        else:
            self._close()
            self._next_block()
        return last

    def _extend(self, stop: int) -> None:
        """Decide admission for every arrival before ``stop``.

        The bound on the largest port occupancy settles most spans at
        once.  When it cannot, the ports' exact occupancies (kept from
        then on while spans stay close to the capacity) decide each
        arrival of the span in turn -- tail-drop is sequential.
        """
        start = self._safe
        if stop <= start:
            return
        switch = self.switch
        n_bytes = self._cum[stop] - self._cum[start]
        overflow: List[Tuple[int, int, int]] = []
        if n_bytes:
            if self._bound + n_bytes > self._capacity:
                occupancy = self._occupancy
                if occupancy is None:
                    occupancy = [port.occupancy_at(start) for port in switch.inputs]
                    self._occupancy = occupancy
                self._bound = max(occupancy)
            if self._bound + n_bytes <= self._capacity:
                self._bound += n_bytes
                self._occupancy = None
            else:
                overflow = self._admit(start, stop)
                self._bound = max(self._occupancy)
        pre = self._pre
        if overflow or (self._pre_next < len(pre) and pre[self._pre_next] < stop):
            self._drop(start, stop, overflow)
            n_bytes -= sum(size for _, _, size in overflow)
        if switch.telemetry is not None:
            self._steps.append(start)
            self._steps.append(switch._residual_payload)
        switch._residual_payload += n_bytes
        self._safe = stop

    def _admit(self, start: int, stop: int) -> List[Tuple[int, int, int]]:
        """Tail-drop arrivals in ``[start, stop)`` one by one against the
        exact port occupancies; returns ``(position, port, size)`` of
        the dropped ones."""
        if self._lists is None:
            block = self._block
            self._lists = (
                block.inputs.tolist(), block.sizes.tolist(), self._pre_mask.tolist()
            )
        inputs, sizes, pre = self._lists
        occupancy = self._occupancy
        capacity = self._capacity
        ports = self.switch.inputs
        dropped = []
        for position in range(start, stop):
            if pre[position]:
                continue
            p = inputs[position]
            size = sizes[position]
            if occupancy[p] + size > capacity:
                dropped.append((position, p, size))
                ports[p].drop(size)
            else:
                occupancy[p] += size
        return dropped

    def occupancy(self, port: int) -> int:
        """Exact input-SRAM occupancy of ``port`` at the ingest point."""
        if self._occupancy is not None:
            return self._occupancy[port]
        return self.switch.inputs[port].occupancy_at(self.position)

    def moved(self, port: int, n_bytes: int) -> None:
        """``n_bytes`` entered (positive) or left ``port``'s SRAM outside
        arrivals: crossbar pops and drain-time padding."""
        if self._occupancy is not None:
            self._occupancy[port] += n_bytes

    def _drop(self, start: int, stop: int, overflow) -> None:
        """Record the drops in ``[start, stop)`` in arrival order and
        move the boundaries of the pairs that lost bytes."""
        switch = self.switch
        block = self._block
        times = self._times
        drops = [(position, p, size, "input-sram-overflow") for position, p, size in overflow]
        pre = self._pre
        while self._pre_next < len(pre) and pre[self._pre_next] < stop:
            position = pre[self._pre_next]
            reason = "switch-dead" if self._dead[position] else "no-route"
            drops.append(
                (position, int(block.inputs[position]), int(block.sizes[position]), reason)
            )
            self._pre_next += 1
        drops.sort()
        moved = set()
        for position, p, size, reason in drops:
            if reason == "input-sram-overflow":
                output = int(self._outputs[position])
                key = p * self.n_ports + output
                self._pairs[key].drop(position)
                self._overflow.append(position)
                moved.add(key)
            else:
                output = int(block.outputs[position])
            switch.inputs[p].drops.record(size, reason=reason)
            switch._record_drop(reason, p, output, size, times[position])
        for key in sorted(moved):
            assembler = self._pairs[key]
            before = assembler.next_position
            if assembler.next_completion() is not None and assembler.next_position != before:
                heapq.heappush(self._heap, (assembler.next_position, key))

    def _close(self) -> None:
        """The current block's last arrival is in."""
        last = self._times[-1] if self._n else None
        for port in self.switch.inputs:
            port.close_block(last)
        if self.switch.telemetry is not None and self._n:
            self._fold_telemetry()
        self._n = 0
        self.position = 0
        self._times = array("d")
        self._heap = []
        self._pairs = {}
        self._block = None

    def _fold_telemetry(self) -> None:
        """The block's admitted arrivals, with the in-switch payload
        each one leaves behind, for the per-arrival ingress instruments."""
        block = self._block
        admitted = ~self._pre_mask
        admitted[self._overflow] = False
        sizes = np.where(admitted, block.sizes, 0)
        through = np.cumsum(sizes)
        steps = np.asarray(self._steps, dtype=np.int64).reshape(-1, 2)
        kept = np.flatnonzero(admitted)
        step = np.searchsorted(steps[:, 0], kept, side="right") - 1
        starts = steps[step, 0]
        before = np.where(starts > 0, through[np.maximum(starts - 1, 0)], 0)
        residual = steps[step, 1] + through[kept] - before
        self.switch.telemetry.arrived(block.times[kept], block.sizes[kept], residual)
