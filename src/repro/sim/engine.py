"""A small deterministic discrete-event engine.

Time is a float in nanoseconds (see :mod:`repro.units`).  The engine is
intentionally simple: a binary heap of ``(time, sequence, action)``
where the monotonically increasing sequence number breaks ties, so two
actions queued for the same instant always fire in a deterministic
order.  External arrivals are not heap entries: an attached arrival
cursor (:meth:`Engine.attach_arrivals`) is handed every run of arrivals
that precedes the next internal event, and arrivals outrank internal
events at equal times -- the same order whether arrivals come in one
block (eager runs) or block by block (streaming runs).  Determinism
matters here because the OQ-mimicry experiment (E5) compares two
switches fed the *same* arrival sequence.

The engine is the innermost loop of every simulation -- a loaded switch
run fires one event per batch crossing, phase and frame landing -- so
the hot path is written for CPython speed: heap entries are plain tuples
(compared at C speed; the unique sequence number means a comparison
never reaches the action), and :meth:`Engine.run` binds its loop state
to locals instead of going through attribute lookups on every event.
An event is nothing but its action, a zero-argument callable.  Every
event the switch queues recurs and carries no payload: each port's
crossing and each PFI phase is a ``partial`` or bound method built once
and queued again with :meth:`Engine.schedule`, with the state it acts
on held by its owner, so a crossing or a phase allocates nothing but
its heap entry.  A queued action always fires: the fixed rotation of
the paper's design settles each event's time when it is queued, so
nothing is ever taken back off the queue.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from ..errors import SimulationError

_INF = float("inf")


class Engine:
    """Event queue plus clock.

    Usage::

        eng = Engine()
        eng.schedule(10.0, lambda: print("at t=10ns"))
        eng.run(until=100.0)
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        #: Current simulation time in nanoseconds (read it; the run
        #: loop moves it).  A plain attribute: every event reads it.
        self.now = 0.0
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

    def schedule(self, time: float, action: Callable[[], None]) -> None:
        """Queue ``action`` to fire at absolute ``time``.

        The one queue operation.  A recurring action is built once and
        queued each time it recurs; every call takes a fresh sequence
        number, so ties fire in the order they were queued.

        Scheduling in the past is an error: it would silently reorder
        causality, which is exactly the class of bug a DES must surface.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time:.3f} ns, now is {self.now:.3f} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, action))

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
            time, _seq, action = queue[0]
            if until is not None and (
                time > until or (not inclusive and time >= until)
            ):
                break
            pop(queue)
            self.now = time
            action()
            fired += 1
        self._fired += fired
        if until is not None and until > self.now:
            self.now = until
        return fired
