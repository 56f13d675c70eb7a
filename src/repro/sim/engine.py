"""A small deterministic discrete-event engine.

Time is a float in nanoseconds (see :mod:`repro.units`).  The engine is
intentionally simple: a binary heap of ``(time, sequence, event)``
where the monotonically increasing sequence number breaks ties, so two
events scheduled for the same instant always fire in a deterministic
order.  External arrivals are not heap events: an attached arrival
cursor (:meth:`Engine.attach_arrivals`) is handed every run of arrivals
that precedes the next internal event, and arrivals outrank internal
events at equal times -- the same order whether arrivals come in one
block (eager runs) or block by block (streaming runs).  Determinism
matters here because the OQ-mimicry experiment (E5) compares two
switches fed the *same* arrival sequence.

The engine is the innermost loop of every simulation -- a loaded switch
run fires one event per batch crossing, phase and frame landing -- so
the hot path is written for CPython speed: heap entries are plain tuples
(compared at C speed, never reaching the payload), :class:`Event` uses
``__slots__``, and :meth:`Engine.run` binds its loop state to locals
instead of going through attribute lookups on every event.  A recurring
action carries no payload and is built once: the switch queues each
port's crossing and each PFI phase as the same :class:`Event` again
(:meth:`Engine.reschedule`), with the state it acts on held by its
owner, so a crossing or a phase allocates nothing but its heap entry.  Cancellation stays lazy
(cancelled events are skipped when popped), with a cheap counter that
compacts the heap when cancelled entries dominate it.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from ..errors import SimulationError

#: Compact the heap once it holds this many cancelled entries *and* they
#: outnumber the live ones -- keeps pathological cancel-heavy workloads
#: from scanning dead entries forever while costing nothing in the
#: common cancel-free case.
_COMPACT_THRESHOLD = 64

_INF = float("inf")



class Event:
    """One scheduled callback.

    The heap orders entries by ``(time, seq)`` tuples, so events pop in
    deterministic order.  ``cancelled`` events are skipped when popped
    (lazy deletion -- cheaper than heap surgery).
    """

    __slots__ = ("time", "seq", "action", "cancelled")

    def __init__(self, time: float, seq: int, action: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.3f}, seq={self.seq}{state})"


class Engine:
    """Event queue plus clock.

    Usage::

        eng = Engine()
        eng.schedule(10.0, lambda: print("at t=10ns"))
        eng.run(until=100.0)
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        #: Current simulation time in nanoseconds (read it; the run
        #: loop moves it).  A plain attribute: every event reads it.
        self.now = 0.0
        self._cancelled = 0
        self._fired = 0
        #: Optional external-arrival cursor (see :meth:`attach_arrivals`).
        self.arrivals = None

    def attach_arrivals(self, arrivals) -> None:
        """Feed external arrivals from a cursor instead of heap events.

        ``arrivals.next_time`` is the time of the next pending arrival
        (``inf`` when none); ``arrivals.ingest(limit, closed)`` consumes
        pending arrivals up to ``limit`` (inclusive when ``closed``)
        and returns the time of the last one it consumed.  It may stop
        early: once it schedules an internal event, arrivals later than
        that event's time must wait for it.  The loop hands the cursor
        every run of arrivals that precedes the next internal event;
        arrivals outrank internal events at equal times.
        """
        self.arrivals = arrivals

    @property
    def events_fired(self) -> int:
        """Total events fired over the engine's lifetime (perf metric)."""
        return self._fired

    def schedule(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to fire at absolute ``time``.

        Scheduling in the past is an error: it would silently reorder
        causality, which is exactly the class of bug a DES must surface.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time:.3f} ns, now is {self.now:.3f} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, action)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def reschedule(self, time: float, event: Event) -> None:
        """Queue an existing ``event`` to fire (again) at ``time``.

        For an action that recurs -- a port's crossing, a PFI phase --
        the event is built once and queued each time with a fresh
        sequence number, so ties order exactly as a new event's would.
        Its own ``time`` and ``seq`` stay those it was built with.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time:.3f} ns, now is {self.now:.3f} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, event))

    def schedule_after(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to fire ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay:.3f} ns")
        return self.schedule(self.now + delay, action)

    def cancel(self, event: Event) -> None:
        """Cancel through the engine so dead entries are tallied for
        compaction; ``event.cancel()`` alone is also fine."""
        if not event.cancelled:
            event.cancelled = True
            self._cancelled += 1
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        if (
            self._cancelled >= _COMPACT_THRESHOLD
            and self._cancelled * 2 > len(self._queue)
        ):
            self._queue = [
                entry for entry in self._queue if not entry[2].cancelled
            ]
            heapq.heapify(self._queue)
            self._cancelled = 0

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def step(self) -> bool:
        """Fire the next internal event, ingesting any arrivals that
        precede it first.  Returns ``False`` when the queue is empty."""
        queue = self._queue
        pop = heapq.heappop
        arrivals = self.arrivals
        if arrivals is not None:
            top = self.peek_time()
            while arrivals.next_time <= (top if top is not None else _INF):
                self.now = arrivals.ingest(
                    top if top is not None else _INF, True
                )
                top = self.peek_time()
        while queue:
            time, _seq, event = pop(queue)
            if event.cancelled:
                continue
            self.now = time
            self._fired += 1
            event.action()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        inclusive: bool = True,
    ) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the number of events fired.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` at the end even if the last event fired earlier, so
        throughput denominators are well defined.

        ``inclusive=False`` stops *before* events at exactly ``until``
        fire (they stay queued).  Block-streamed runs advance the
        engine this way to each block boundary: events at the boundary
        must wait until the next block's arrivals are offered, so that
        same-timestamp ordering (arrivals first) matches the eager run.
        """
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        arrivals = self.arrivals
        while True:
            if arrivals is not None:
                arrival = arrivals.next_time
                top = queue[0][0] if queue else _INF
                if arrival <= top and arrival != _INF:
                    if until is not None and (
                        arrival > until or (not inclusive and arrival >= until)
                    ):
                        break
                    if until is None or top < until:
                        self.now = arrivals.ingest(top, True)
                    else:
                        self.now = arrivals.ingest(until, inclusive)
                    continue
            if not queue:
                break
            if max_events is not None and fired >= max_events:
                break
            time, _seq, event = queue[0]
            if event.cancelled:
                pop(queue)
                continue
            if until is not None and (
                time > until or (not inclusive and time >= until)
            ):
                break
            pop(queue)
            self.now = time
            event.action()
            fired += 1
        self._fired += fired
        if until is not None and until > self.now:
            self.now = until
        return fired
