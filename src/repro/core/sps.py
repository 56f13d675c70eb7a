"""The Split-Parallel Switch: the top-level router (Fig. 1).

SPS spatially splits each ribbon's F fibers across H *independent* HBM
switches -- no electronic load balancing, no inter-switch coordination,
one O/E/O conversion per packet.  Because the switches share nothing,
the router simulation is H independent switch simulations plus the
(passive) fiber-to-switch assignment, which is exactly how the real
device would behave.

Upstream routers hash flows across the fibers of a bundle (ECMP/LAG), so
a flow arrives on one fiber, lands in one switch, and can never be
reordered by the split -- a property :func:`assign_fibers` preserves by
hashing on the 5-tuple.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..config import RouterConfig
from ..errors import ConfigError, SimulationError
from ..hbm.timing import HBMTiming
from ..photonics.oeo import OEOConverter
from ..sim.parallel import (
    SwitchWorkUnit,
    execute_work_unit,
    finish_switch,
    open_switch,
    run_parallel_tasks,
)
from ..sim.stats import nan_to_none
from ..traffic.ecmp import hash_to_choice
from ..traffic.packet import Packet
from ..traffic.stream import ArrivalBlock, arrival_order
from ..units import bytes_per_ns_to_rate
from .fiber_split import FiberSplitter, PseudoRandomSplitter, split_imbalance
from .hbm_switch import SwitchReport
from .pfi import PFIOptions

#: Execution modes of :meth:`SplitParallelSwitch.run_stream`.
RUN_MODES = ("sequential", "parallel", "auto")


def assign_fibers(traffic, n_fibers: int, salt: int = 0xECA):
    """Pick the arrival fiber of each packet by upstream ECMP/LAG hash.

    Flow-stable: all packets of a flow use the same fiber, so the split
    cannot reorder a flow.  ``traffic`` is an
    :class:`~repro.traffic.stream.ArrivalBlock` (returns a fiber array,
    hashing each entry of its flow table once) or a packet list
    (returns a list, hashing each distinct flow once).
    """
    if n_fibers <= 0:
        raise ConfigError(f"n_fibers must be positive, got {n_fibers}")
    if isinstance(traffic, ArrivalBlock):
        table = np.fromiter(
            (hash_to_choice(flow, n_fibers, salt) for flow in traffic.flows),
            np.int64,
            len(traffic.flows),
        )
        return table[traffic.flow_ids]
    fibers: Dict = {}
    return [
        fibers[p.flow] if p.flow in fibers
        else fibers.setdefault(p.flow, hash_to_choice(p.flow, n_fibers, salt))
        for p in traffic
    ]


def check_split_range(
    config: RouterConfig, ribbons: np.ndarray, fibers: np.ndarray
) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless every (ribbon,
    fiber) lies inside ``config``'s geometry -- numpy indexing would
    silently wrap a negative one."""
    if ribbons.size:
        if ribbons.min() < 0 or ribbons.max() >= config.n_ribbons:
            raise ConfigError(
                f"ribbon {int(ribbons.max())} out of range "
                f"(router has {config.n_ribbons})"
            )
        if fibers.min() < 0 or fibers.max() >= config.fibers_per_ribbon:
            raise ConfigError(
                f"fiber out of range [{int(fibers.min())}, {int(fibers.max())}] "
                f"(ribbons have {config.fibers_per_ribbon})"
            )


@dataclass
class RouterReport:
    """Aggregate of the H independent switch runs.

    ``failed_switches`` lists switches injected as dead for the whole
    run (SS 2.2 *Modularity*: switches share nothing, so a failure costs
    exactly the traffic of its fibers -- 1/H of capacity -- and nothing
    else).  ``failed_offered_bytes`` is the traffic that arrived on a
    dead switch's fibers and was lost; ``fault_lost_bytes`` is traffic
    lost to other split-level faults (fiber cuts) and ``fault_events``
    describes the injected schedule, if any.
    """

    switch_reports: List[SwitchReport]
    per_switch_offered_bytes: List[int]
    duration_ns: float
    failed_switches: List[int] = field(default_factory=list)
    failed_offered_bytes: int = 0
    fault_lost_bytes: int = 0
    fault_events: List[str] = field(default_factory=list)
    #: Merged telemetry dump of the whole run (split-level series plus
    #: every switch's registry, merged in switch-index order), or
    #: ``None`` for uninstrumented runs.
    telemetry: Optional[Dict] = None

    @property
    def offered_bytes(self) -> int:
        """All traffic that reached the package, including traffic lost
        on failed switches' fibers and on cut fibers."""
        return (
            sum(r.offered_bytes for r in self.switch_reports)
            + self.failed_offered_bytes
            + self.fault_lost_bytes
        )

    @property
    def delivered_bytes(self) -> int:
        return sum(r.delivered_bytes for r in self.switch_reports)

    @property
    def dropped_bytes(self) -> int:
        return sum(r.dropped_bytes for r in self.switch_reports)

    @property
    def residual_bytes(self) -> int:
        """Payload still queued inside the surviving switches."""
        return sum(r.residual_bytes for r in self.switch_reports)

    @property
    def lost_bytes(self) -> int:
        """Every byte that entered the package and will never leave it:
        in-switch drops plus split-level losses (dead switches' fibers,
        cut fibers).  Complements :attr:`residual_bytes`:
        offered = delivered + lost + residual."""
        return self.dropped_bytes + self.failed_offered_bytes + self.fault_lost_bytes

    @property
    def throughput_bps(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return bytes_per_ns_to_rate(self.delivered_bytes / self.duration_ns)

    @property
    def delivery_fraction(self) -> float:
        if self.offered_bytes <= 0:
            return 1.0
        return self.delivered_bytes / self.offered_bytes

    @property
    def delivered_fraction(self) -> float:
        """Delivered bytes over *total* offered bytes.

        The denominator is the symmetric total -- surviving-switch
        offered + ``failed_offered_bytes`` + ``fault_lost_bytes`` --
        i.e. exactly the byte population that :attr:`loss_fraction`
        draws from, so ``delivered_fraction + loss_fraction +
        residual/offered == 1`` holds by construction.
        """
        if self.offered_bytes <= 0:
            return 1.0
        return self.delivered_bytes / self.offered_bytes

    @property
    def loss_fraction(self) -> float:
        """Lost bytes over total offered bytes (same denominator as
        :attr:`delivered_fraction` -- the accounting is symmetric)."""
        if self.offered_bytes <= 0:
            return 0.0
        return self.lost_bytes / self.offered_bytes

    @property
    def load_imbalance(self) -> float:
        """Max-over-mean of per-switch offered load (1.0 = perfect)."""
        return split_imbalance(np.asarray(self.per_switch_offered_bytes, dtype=float))

    @property
    def ordering_violations(self) -> int:
        return sum(r.ordering_violations for r in self.switch_reports)

    def latency_summary(self) -> Dict[str, float]:
        """Combined latency view: exact for mean/max (count-weighted),
        approximate for percentiles (reports carry summaries, not raw
        samples; benches that need exact percentiles read per switch)."""
        # Switches that delivered nothing carry NaN latencies and a 0
        # count; only the populated ones contribute to the roll-up.
        populated = [r for r in self.switch_reports if r.latency["count"] > 0]
        counts = sum(r.latency["count"] for r in populated)
        if counts == 0:
            nan = float("nan")
            return {
                "count": 0.0,
                "mean_ns": nan,
                "p50_ns": nan,
                "p99_ns": nan,
                "max_ns": nan,
            }
        mean = (
            sum(r.latency["mean_ns"] * r.latency["count"] for r in populated)
            / counts
        )
        return {
            "count": counts,
            "mean_ns": mean,
            "p50_ns": float(np.median([r.latency["p50_ns"] for r in populated])),
            "p99_ns": max(r.latency["p99_ns"] for r in populated),
            "max_ns": max(r.latency["max_ns"] for r in populated),
        }

    def stage_summaries(self) -> Dict[str, Dict[str, float]]:
        """Per-pipeline-stage latency roll-up from the telemetry dump.

        ``{stage: {count, mean_ns, p50_ns, p99_ns}}`` over the span
        taxonomy of :data:`repro.telemetry.STAGES`; empty dict when the
        run was not instrumented.
        """
        if self.telemetry is None:
            return {}
        from ..telemetry import MetricsRegistry, stage_summaries

        return stage_summaries(MetricsRegistry.from_dict(self.telemetry))

    def to_dict(self) -> Dict[str, Any]:
        """The report as a JSON-safe dict, each switch's record nested
        under ``"switches"``.  The telemetry dump and its stage roll-up
        lead when the run was instrumented; the latency roll-up carries
        NaN as ``None``."""
        data: Dict[str, Any] = {}
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry
            data["stage_summaries"] = self.stage_summaries()
        data.update({
            "duration_ns": self.duration_ns,
            "offered_bytes": self.offered_bytes,
            "delivered_bytes": self.delivered_bytes,
            "dropped_bytes": self.dropped_bytes,
            "residual_bytes": self.residual_bytes,
            "lost_bytes": self.lost_bytes,
            "failed_switches": list(self.failed_switches),
            "failed_offered_bytes": self.failed_offered_bytes,
            "fault_lost_bytes": self.fault_lost_bytes,
            "fault_events": list(self.fault_events),
            "delivery_fraction": self.delivery_fraction,
            "delivered_fraction": self.delivered_fraction,
            "loss_fraction": self.loss_fraction,
            "load_imbalance": self.load_imbalance,
            "ordering_violations": self.ordering_violations,
            "latency": nan_to_none(self.latency_summary()),
            "per_switch_offered_bytes": list(self.per_switch_offered_bytes),
            "switches": [r.to_dict() for r in self.switch_reports],
        })
        return data


class SplitParallelSwitch:
    """The petabit router: H parallel HBM switches behind a fiber split."""

    def __init__(
        self,
        config: RouterConfig,
        splitter: Optional[FiberSplitter] = None,
        options: PFIOptions = PFIOptions(),
        timing: Optional[HBMTiming] = None,
    ) -> None:
        self.config = config
        self.options = options
        self.timing = timing
        self.splitter = (
            splitter
            if splitter is not None
            else PseudoRandomSplitter(config.fibers_per_ribbon, config.n_switches)
        )
        if self.splitter.n_fibers != config.fibers_per_ribbon:
            raise ConfigError(
                f"splitter covers {self.splitter.n_fibers} fibers, router has "
                f"{config.fibers_per_ribbon}"
            )
        if self.splitter.n_switches != config.n_switches:
            raise ConfigError(
                f"splitter targets {self.splitter.n_switches} switches, router "
                f"has {config.n_switches}"
            )
        self.oeo = OEOConverter()
        # Cache assignments: ribbon -> fiber -> switch.
        self._assignments = [
            self.splitter.assignment(r) for r in range(config.n_ribbons)
        ]
        self._assignment_table = np.array(
            [self.splitter.assignment_array(r) for r in range(config.n_ribbons)],
            dtype=np.int64,
        ).reshape(config.n_ribbons, config.fibers_per_ribbon)

    def switch_for(self, ribbon: int, fiber: int) -> int:
        """Which HBM switch serves (ribbon, fiber)."""
        if not 0 <= ribbon < self.config.n_ribbons:
            raise ConfigError(f"ribbon {ribbon} out of range")
        if not 0 <= fiber < self.config.fibers_per_ribbon:
            raise ConfigError(f"fiber {fiber} out of range")
        return self._assignments[ribbon][fiber]

    def switch_index(self, ribbons: np.ndarray, fibers: np.ndarray) -> np.ndarray:
        """:meth:`switch_for` over aligned arrays, range-checked."""
        ribbons = np.asarray(ribbons, dtype=np.int64)
        fibers = np.asarray(fibers, dtype=np.int64)
        check_split_range(self.config, ribbons, fibers)
        return self._assignment_table[ribbons, fibers]

    def run(
        self,
        packets: Sequence[Packet],
        duration_ns: float,
        fibers: Optional[Sequence[int]] = None,
        drain: bool = True,
        mode: str = "sequential",
        n_workers: Optional[int] = None,
        fault_schedule=None,
        telemetry=None,
    ) -> RouterReport:
        """Simulate the whole router on an eager packet list.

        The Packet-list adapter over :meth:`run_stream`: ``packets``
        become one :class:`~repro.traffic.stream.ArrivalBlock` (stably
        sorted by arrival time) and ``fibers[i]``, packet i's arrival
        fiber within its ribbon (default: the upstream ECMP hash), is
        reordered with them.  The packets themselves are not modified
        (``departure_ns`` is not written back; stream with a
        ``departure_sink`` to observe departures).
        """
        if fibers is not None and len(fibers) != len(packets):
            raise ConfigError("packets and fibers must align")
        order = arrival_order(packets)
        block = ArrivalBlock.from_packets([packets[k] for k in order], duration_ns)
        if fibers is not None:
            fibers = np.asarray(fibers, dtype=np.int64)[order]
        return self.run_stream(
            [block],
            duration_ns,
            fibers_fn=None if fibers is None else lambda _: fibers,
            drain=drain,
            mode=mode,
            n_workers=n_workers,
            fault_schedule=fault_schedule,
            telemetry=telemetry,
        )

    def run_stream(
        self,
        blocks: Iterable[ArrivalBlock],
        duration_ns: float,
        fibers_fn=None,
        drain: bool = True,
        mode: str = "sequential",
        n_workers: Optional[int] = None,
        fault_schedule=None,
        telemetry=None,
        departure_sink=None,
        latency_sample_cap: Optional[int] = None,
        control=None,
    ) -> RouterReport:
        """Simulate the router from a stream of arrival blocks.

        The one router entry point: ``blocks`` is any iterable of
        time-ordered :class:`~repro.traffic.stream.ArrivalBlock`
        (typically ``source.blocks(duration_ns)``, or one whole-run
        block).  Per block, as array operations (after the control
        stage, if any): arrivals at or after
        ``duration_ns`` are dropped (they never enter the simulated
        window), cut fibers' traffic dies at the passive split (a
        mask), and the rest is split across the switches by a
        vectorised fiber-to-switch lookup.  A block ending before
        ``duration_ns`` is offered to each switch, which then advances
        to its end, so at most one block of arrivals is held at a time.
        The block that reaches ``duration_ns`` is offered to each
        switch, which is finished (drained and reported) and released
        before the next switch is offered -- so a one-block run holds
        one finished switch's latency samples at a time, not H.
        Reports -- and telemetry dumps -- do not depend on how the
        arrivals are chunked.

        ``fibers_fn(block)`` returns the block's per-packet arrival
        fibers as an array (default: the upstream ECMP hash of
        :func:`assign_fibers` -- stateless, so chunking cannot change
        it; stateful policies carry their cursors in a closure).

        ``control`` (a :class:`~repro.control.packet.PacketControl`)
        closes the loop: each block and its fibers pass through the
        stage right after fiber assignment, which reweights and
        throttles them tick by tick.  A throttled packet is offered to
        its target switch but never enters it: its report counts it as
        a ``backpressure-throttled`` drop (a whole-run-dead target's in
        ``failed_offered_bytes``), while ``per_switch_offered_bytes``
        keeps what passed the throttle.  The caller reads the loop from
        the stage afterwards.

        ``fault_schedule`` (a :class:`~repro.faults.FaultSchedule`)
        injects timed faults: whole-run switch deaths lose their traffic
        at the (passive) split and the survivors run exactly as before
        -- the modularity/fault-isolation property of SS 2.2; windowed
        deaths / HBM channel losses / OEO degradations are handed to the
        affected switches as per-switch views, and fiber cuts filter
        their traffic at the split into ``fault_lost_bytes``.  An empty
        (or ``None``) schedule leaves every simulation path bit-identical
        to an unfaulted run.

        ``mode`` selects where the H independent simulations execute:

        - ``"sequential"`` (default): in this process, in lockstep with
          the stream.
        - ``"parallel"``: each live switch's sub-blocks are collected
          for the whole stream, then ship as a
          :class:`~repro.sim.parallel.SwitchWorkUnit` to a process pool
          of ``n_workers`` (default: CPU count).  Reports are merged in
          switch-index order, so the result is byte-identical to
          sequential mode.
        - ``"auto"``: parallel when it can help (several live switches
          and several CPUs), sequential otherwise.

        ``telemetry`` (a :class:`~repro.telemetry.MetricsRegistry`)
        instruments the whole pipeline: split-level series are recorded
        here, each live switch runs with its own per-switch registry
        (in every mode -- workers ship dumps back on their reports),
        and the dumps are merged into ``telemetry`` in switch-index
        order, so parallel and sequential runs produce byte-identical
        dumps.  The merged dump is also stored on
        :attr:`RouterReport.telemetry`.

        ``departure_sink(departures_ns, sizes)`` receives, on every
        switch, aligned arrays of delivered packets' departure times
        and sizes, in transmission order, a chunk at a time -- the
        streaming degradation path bins delivered bytes here.
        ``latency_sample_cap`` bounds retained latency samples per
        output port (see :class:`~repro.sim.stats.LatencyRecorder`).
        Both observe in-process switches, so they need
        ``mode="sequential"``; both default to off, keeping the
        bit-exact historical path.
        """
        if mode not in RUN_MODES:
            raise ConfigError(f"mode must be one of {RUN_MODES}, got {mode!r}")
        if mode != "sequential" and (
            departure_sink is not None or latency_sample_cap is not None
        ):
            raise ConfigError(
                "departure_sink and latency_sample_cap observe in-process "
                f'switches: they need mode="sequential", got {mode!r}'
            )
        schedule = fault_schedule
        if schedule is not None:
            schedule.validate(self.config)
            if schedule.is_empty:
                schedule = None
        if telemetry is not None:
            self.oeo.attach_telemetry(telemetry)
            if schedule is not None:
                from ..telemetry import tag_fault_windows

                tag_fault_windows(telemetry, schedule)
        n_switches = self.config.n_switches
        # Whole-run dead switches get no simulation at all: their
        # traffic dies at the passive split.  Every other switch is
        # described by one work unit, whichever process runs it.
        dead = (
            frozenset(schedule.whole_run_dead_switches())
            if schedule is not None
            else frozenset()
        )
        units: List[Optional[SwitchWorkUnit]] = [
            None
            if h in dead
            else SwitchWorkUnit(
                index=h,
                config=self.config.switch,
                options=self.options,
                timing=self.timing,
                blocks=(),
                duration_ns=duration_ns,
                drain=drain,
                faults=(
                    schedule.switch_view(h, self.config.switch.total_channels)
                    if schedule is not None
                    else None
                ),
                telemetry=telemetry is not None,
            )
            for h in range(n_switches)
        ]
        pooled = _use_pool(mode, n_workers, n_switches - len(dead))
        # In-process (switch, registry) per live switch, opened on its
        # first offer and dropped once it has finished.
        running: List[Optional[tuple]] = [None] * n_switches
        reports: List[Optional[SwitchReport]] = [None] * n_switches
        offered = [0] * n_switches
        failed_bytes = 0
        fault_lost = 0
        cut_lost: Dict[tuple, int] = {}
        cuts = schedule is not None and schedule.has_fiber_cuts
        finished = False
        if control is not None:
            control.start(self.config, self.splitter, duration_ns, schedule, telemetry)
        for block in blocks:
            fibers = np.asarray(
                fibers_fn(block)
                if fibers_fn is not None
                else assign_fibers(block, self.config.fibers_per_ribbon),
                dtype=np.int64,
            )
            if fibers.size != len(block):
                raise ConfigError("packets and fibers must align")
            if control is not None:
                block, fibers = control.apply(block, fibers)
            keep = block.times < duration_ns
            if cuts:
                cut = keep & schedule.fiber_cut_mask(block.inputs, fibers, block.times)
                if cut.any():
                    lost = block.sizes[cut]
                    fault_lost += int(lost.sum())
                    for ribbon, fiber, n_bytes in zip(
                        block.inputs[cut].tolist(), fibers[cut].tolist(), lost.tolist()
                    ):
                        key = (ribbon, fiber)
                        cut_lost[key] = cut_lost.get(key, 0) + n_bytes
                    keep &= ~cut
            if not keep.all():
                block = block.select(keep)
                fibers = fibers[keep]
            if finished and len(block):
                raise SimulationError(
                    f"arrivals before {duration_ns} ns offered after the "
                    "batch that reached the end of the run"
                )
            switch_of = self.switch_index(block.inputs, fibers)
            by_switch = np.argsort(switch_of, kind="stable")
            bounds = np.searchsorted(switch_of[by_switch], np.arange(n_switches + 1))
            arrived_bytes = np.bincount(
                switch_of, weights=block.sizes, minlength=n_switches
            ).astype(np.int64).tolist()
            finished = finished or block.end_ns >= duration_ns
            for h in range(n_switches):
                part = block.select(by_switch[bounds[h]:bounds[h + 1]])
                offered[h] += arrived_bytes[h]
                if telemetry is not None:
                    # The split is passive (0 ns); the observable is the
                    # per-switch packet count -- the load balance of E10.
                    # Per-block increments sum to the same final values
                    # (the registry dump is value-sorted, never
                    # insertion-ordered).
                    telemetry.histogram(
                        "repro_stage_latency_ns",
                        "passive fiber-split assignment (count = per-switch load)",
                        stage="split", switch=str(h),
                    ).observe_n(0.0, len(part))
                    # Time-resolved view of the same split: offered bytes
                    # per window per switch, recorded at the split point
                    # so dead switches' offered load shows up too.
                    telemetry.timeseries(
                        "repro_split_window_bytes",
                        "offered bytes per window at the fiber split",
                        switch=str(h),
                    ).observe_many(part.times, part.sizes)
                if units[h] is None:
                    failed_bytes += arrived_bytes[h]
                elif pooled:
                    units[h] = replace(units[h], blocks=units[h].blocks + (part,))
                elif reports[h] is None:
                    if running[h] is None:
                        running[h] = open_switch(
                            units[h], departure_sink, latency_sample_cap
                        )
                    switch, registry = running[h]
                    switch.stream_offer(part, duration_ns)
                    if finished:
                        reports[h] = finish_switch(units[h], switch, registry)
                        # Release the finished switch -- and its latency
                        # samples -- before the next one is offered.
                        running[h] = switch = registry = None
                    else:
                        switch.stream_advance(block.end_ns)
        if control is not None:
            control.finish()
        if not pooled:
            # A stream that stopped short of duration_ns still finishes.
            for h, unit in enumerate(units):
                if unit is not None and reports[h] is None:
                    opened = running[h] or open_switch(
                        unit, departure_sink, latency_sample_cap
                    )
                    reports[h] = finish_switch(unit, *opened)
        else:
            live = [unit for unit in units if unit is not None]
            pooled_reports = run_parallel_tasks(
                execute_work_unit, live, n_workers=n_workers
            )
            for unit, report in zip(live, pooled_reports):
                reports[unit.index] = report
        if telemetry is not None:
            from ..telemetry import record_fault_loss

            for (ribbon, fiber), n_bytes in sorted(cut_lost.items()):
                record_fault_loss(telemetry, "fiber", f"{ribbon}/{fiber}", n_bytes)
            for h in sorted(dead):
                record_fault_loss(telemetry, "switch", str(h), offered[h])
        for report in reports:
            if report is not None:
                # One O/E + one E/O per bit through a switch (the SPS
                # property); a throttled bit never went through.
                self.oeo.convert(8.0 * (report.offered_bytes + report.delivered_bytes))
        if control is not None:
            for h, n_packets in enumerate(control.throttled_packets):
                n_bytes = control.throttled_bytes[h]
                if reports[h] is None:
                    failed_bytes += n_bytes
                elif n_packets:
                    reports[h] = _with_throttled(reports[h], n_bytes, n_packets)
        switch_reports = [report for report in reports if report is not None]
        telemetry_dump = None
        if telemetry is not None:
            # Per-switch registries merge in switch-index order whichever
            # process ran the switch, so the aggregate dump is
            # byte-identical in-process and on the pool.
            for report in switch_reports:
                if report.telemetry is not None:
                    telemetry.merge_dict(report.telemetry)
            telemetry_dump = telemetry.to_dict()
        return RouterReport(
            switch_reports=switch_reports,
            per_switch_offered_bytes=offered,
            duration_ns=duration_ns,
            failed_switches=sorted(dead),
            failed_offered_bytes=failed_bytes,
            fault_lost_bytes=fault_lost,
            fault_events=schedule.describe() if schedule is not None else [],
            telemetry=telemetry_dump,
        )


def _with_throttled(report: SwitchReport, n_bytes: int, n_packets: int) -> SwitchReport:
    """``report`` with ``n_packets`` throttled packets (``n_bytes``)
    added to its offer as ``backpressure-throttled`` drops."""
    return replace(
        report,
        offered_bytes=report.offered_bytes + n_bytes,
        offered_packets=report.offered_packets + n_packets,
        dropped_bytes=report.dropped_bytes + n_bytes,
        drops_by_reason={**report.drops_by_reason, "backpressure-throttled": n_packets},
    )


def _use_pool(mode: str, n_workers: Optional[int], n_live: int) -> bool:
    """Whether ``mode`` ships the live switches to the process pool."""
    if mode == "auto":
        workers = n_workers if n_workers is not None else (os.cpu_count() or 1)
        return n_live > 1 and workers > 1
    return mode == "parallel"
