"""Parallel execution of independent switch simulations.

The Split-Parallel Switch's central property is that its H switches
share nothing: no electronic load balancing, no inter-switch state, one
O/E/O per packet (:mod:`repro.core.sps`).  The router simulation is
therefore *embarrassingly parallel* -- H independent discrete-event
simulations plus a passive fiber assignment -- and this module exploits
exactly that and nothing more.

Design constraints:

- **Determinism.**  Each :class:`SwitchWorkUnit` is a self-contained,
  picklable description of one switch run.  A unit's result depends only
  on the unit (each worker builds its own engine, RNG-free pipeline and
  report), so executing units in any process, in any order, yields
  bit-identical :class:`~repro.core.hbm_switch.SwitchReport`s.  The
  pool returns results in unit order, so the aggregate
  :class:`~repro.core.sps.RouterReport` is byte-identical to a
  sequential run.
- **Graceful degradation.**  With one worker (or one unit) the pool is
  skipped entirely and units run inline -- no pickling, no processes --
  which is also the fallback on platforms without working
  multiprocessing.

A unit carries its switch's arrivals as
:class:`~repro.traffic.stream.ArrivalBlock` arrays -- cheap to pickle,
and the same blocks the in-process path offers -- and the worker
streams them through :func:`open_switch` / :func:`finish_switch`
exactly as the sequential router does, so the two paths cannot drift.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ConfigError


@dataclass(frozen=True)
class SwitchWorkUnit:
    """One picklable, self-contained switch simulation.

    ``index`` identifies the unit in the deterministic merge; the rest
    mirrors the :meth:`~repro.core.hbm_switch.HBMSwitch.run_stream`
    signature.  ``blocks`` are the switch's time-ordered arrival blocks.
    """

    index: int
    config: object  # HBMSwitchConfig (kept loose to avoid an import cycle)
    options: object  # PFIOptions
    timing: Optional[object]  # HBMTiming
    blocks: Tuple = field(repr=False)
    duration_ns: float = 0.0
    drain: bool = True
    #: Optional per-switch fault projection
    #: (:class:`~repro.faults.schedule.SwitchFaultView`); ``None`` keeps
    #: the exact unfaulted simulation path.
    faults: Optional[object] = None
    #: When True the worker instruments its switch with a fresh
    #: per-switch :class:`~repro.telemetry.MetricsRegistry` and ships
    #: the dump back on ``SwitchReport.telemetry``.  A plain flag (not a
    #: registry object) keeps the unit cheaply picklable; the parent
    #: merges worker dumps in unit-index order, so the aggregate is
    #: byte-identical to a sequential run.
    telemetry: bool = False


def open_switch(unit: SwitchWorkUnit, departure_sink=None, latency_sample_cap=None):
    """Build the unit's switch, started and ready for ``stream_offer``.

    Returns ``(switch, registry)``; ``registry`` is the switch's fresh
    :class:`~repro.telemetry.MetricsRegistry` when the unit is
    instrumented, else ``None``.  The one place a router's switch is
    set up, in-process or on a worker.
    """
    from ..core.hbm_switch import HBMSwitch

    registry = None
    telemetry = None
    if unit.telemetry:
        from ..telemetry import MetricsRegistry, SwitchTelemetry

        registry = MetricsRegistry()
        telemetry = SwitchTelemetry(registry, unit.config, unit.index)
    switch = HBMSwitch(
        unit.config,
        unit.options,
        unit.timing,
        faults=unit.faults,
        telemetry=telemetry,
        latency_sample_cap=latency_sample_cap,
    )
    if departure_sink is not None:
        for output in switch.outputs:
            output.departure_sink = departure_sink
    switch.stream_begin()
    return switch, registry


def finish_switch(unit: SwitchWorkUnit, switch, registry):
    """Finish an opened switch at the unit's horizon; returns its report
    with the per-switch telemetry dump attached."""
    report = switch.stream_finish(unit.duration_ns, unit.drain)
    if registry is not None:
        report.telemetry = registry.to_dict()
    return report


def execute_work_unit(unit: SwitchWorkUnit):
    """Run one unit to completion; returns its ``SwitchReport``.

    Module-level (not a closure or method) so it pickles for worker
    processes regardless of the multiprocessing start method.
    """
    switch, registry = open_switch(unit)
    for block in unit.blocks:
        switch.stream_offer(block, unit.duration_ns)
        switch.stream_advance(min(block.end_ns, unit.duration_ns))
    return finish_switch(unit, switch, registry)


def resolve_worker_count(n_workers: Optional[int], n_units: int) -> int:
    """Effective pool size: requested (or CPU count), capped at the
    number of units -- idle workers only cost startup time."""
    if n_units <= 0:
        return 0
    if n_workers is None:
        n_workers = os.cpu_count() or 1
    if n_workers <= 0:
        raise ConfigError(f"n_workers must be positive, got {n_workers}")
    return min(n_workers, n_units)


def run_parallel_tasks(
    fn: Callable,
    items: Sequence,
    n_workers: Optional[int] = None,
    executor_factory: Callable[..., ProcessPoolExecutor] = ProcessPoolExecutor,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> List:
    """Order-preserving parallel map: results come back in input order
    (NOT by completion time), so every merge over them is deterministic.

    ``fn`` must be a module-level callable and every item picklable --
    the contract worker processes impose.  With one worker (or one item)
    everything runs inline, which is also the fallback on platforms
    without working multiprocessing.  A router's pooled switches
    (:func:`execute_work_unit` per unit) and fault-injection campaigns
    (:mod:`repro.faults.campaign`) fan whole faulted router runs out
    through this: the parallelism is *between* independent scenarios,
    so each worker still simulates its scenario sequentially and
    deterministically.

    ``on_result(index, result)`` is invoked in the parent, in input
    order, as each result becomes available (inline: after each item;
    pool: as the ordered result stream drains).  The scenario runtime
    checkpoints sweep cells through this hook, so a killed run keeps
    every cell that finished before the kill.
    """
    items = list(items)
    workers = resolve_worker_count(n_workers, len(items))
    if workers <= 1:
        results = []
        for index, item in enumerate(items):
            result = fn(item)
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results
    results = []
    with executor_factory(max_workers=workers) as pool:
        for index, result in enumerate(pool.map(fn, items)):
            if on_result is not None:
                on_result(index, result)
            results.append(result)
    return results
