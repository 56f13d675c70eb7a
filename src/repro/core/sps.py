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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..config import RouterConfig
from ..errors import ConfigError, SimulationError
from ..hbm.timing import HBMTiming
from ..photonics.oeo import OEOConverter
from ..sim.parallel import SwitchWorkUnit, finish_switch, open_switch, run_work_units
from ..traffic.ecmp import hash_to_choice
from ..traffic.packet import Packet
from ..units import bytes_per_ns_to_rate
from .fiber_split import FiberSplitter, PseudoRandomSplitter, split_imbalance
from .hbm_switch import SwitchReport
from .pfi import PFIOptions

#: Execution modes of :meth:`SplitParallelSwitch.run`.
RUN_MODES = ("sequential", "parallel", "auto")


def assign_fibers(packets: Sequence[Packet], n_fibers: int, salt: int = 0xECA) -> List[int]:
    """Pick the arrival fiber of each packet by upstream ECMP/LAG hash.

    Flow-stable: all packets of a flow use the same fiber, so the split
    cannot reorder a flow.
    """
    if n_fibers <= 0:
        raise ConfigError(f"n_fibers must be positive, got {n_fibers}")
    return [hash_to_choice(p.flow, n_fibers, salt) for p in packets]


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

    def switch_for(self, ribbon: int, fiber: int) -> int:
        """Which HBM switch serves (ribbon, fiber)."""
        if not 0 <= ribbon < self.config.n_ribbons:
            raise ConfigError(f"ribbon {ribbon} out of range")
        if not 0 <= fiber < self.config.fibers_per_ribbon:
            raise ConfigError(f"fiber {fiber} out of range")
        return self._assignments[ribbon][fiber]

    def partition_packets(
        self, packets: Sequence[Packet], fibers: Sequence[int]
    ) -> List[List[Packet]]:
        """Split a packet stream into per-switch streams by arrival fiber."""
        if len(packets) != len(fibers):
            raise ConfigError("packets and fibers must align")
        per_switch: List[List[Packet]] = [[] for _ in range(self.config.n_switches)]
        for packet, fiber in zip(packets, fibers):
            per_switch[self.switch_for(packet.input_port, fiber)].append(packet)
        return per_switch

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

        The eager path is a one-block stream: ``packets`` form a single
        batch ending at ``duration_ns`` and take the same split,
        simulation and report assembly as :meth:`run_stream`, so the
        two entry points cannot drift apart.  ``fibers[i]`` is packet
        i's arrival fiber within its ribbon; by default fibers are
        chosen by upstream ECMP hash.

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

        - ``"sequential"`` (default): one after another in this process.
        - ``"parallel"``: each live switch's slice ships as a
          :class:`~repro.sim.parallel.SwitchWorkUnit` to a process pool
          of ``n_workers`` (default: CPU count).  Reports are merged in
          switch-index order, so the result is byte-identical to
          sequential mode; the caller's packet objects are, however,
          simulated as copies (``departure_ns`` is not written back).
        - ``"auto"``: parallel when it can help (several live switches
          and several CPUs), sequential otherwise.

        ``telemetry`` (a :class:`~repro.telemetry.MetricsRegistry`)
        instruments the whole pipeline: split-level series are recorded
        here, each live switch runs with its own per-switch registry
        (in *both* modes -- workers ship dumps back on their reports),
        and the dumps are merged into ``telemetry`` in switch-index
        order.  Because per-switch series never overlap and the merge
        order is fixed, parallel and sequential runs of the same
        workload produce byte-identical dumps.  The merged dump is also
        stored on :attr:`RouterReport.telemetry`.
        """
        if mode not in RUN_MODES:
            raise ConfigError(f"mode must be one of {RUN_MODES}, got {mode!r}")
        if fibers is None:
            fibers = assign_fibers(packets, self.config.fibers_per_ribbon)
        return self._simulate(
            [(packets, fibers, duration_ns)],
            duration_ns,
            drain=drain,
            fault_schedule=fault_schedule,
            telemetry=telemetry,
            mode=mode,
            n_workers=n_workers,
        )

    def run_stream(
        self,
        blocks,
        duration_ns: float,
        fibers_fn=None,
        drain: bool = True,
        max_drain_ns: Optional[float] = None,
        fault_schedule=None,
        telemetry=None,
        departure_sink=None,
        latency_sample_cap: Optional[int] = None,
    ) -> RouterReport:
        """Simulate the router from a stream of arrival blocks.

        The bounded-memory ingest path: ``blocks`` is any iterable of
        :class:`~repro.traffic.stream.ArrivalBlock` (typically
        ``source.blocks(duration_ns)``).  Each block is one batch of
        the core :meth:`run` also uses: it is partitioned across the H
        switches and every engine is advanced to the block boundary
        before the next block is pulled, so at most one block of
        packets is ever materialized.  Reports -- and telemetry dumps
        -- do not depend on the block count, so they are byte-identical
        to :meth:`run` fed the concatenated packets
        (``mode="sequential"``); the switches advance in lockstep with
        the source, so there is no ``mode`` knob here.

        ``fibers_fn(packets, block)`` supplies per-packet arrival
        fibers for one block (default: the upstream ECMP hash of
        :func:`assign_fibers` -- stateless, so chunking cannot change
        it; stateful policies carry their cursors in a closure).

        ``departure_sink(packet)`` fires per delivered packet at
        departure-stamp time on every switch -- the streaming
        degradation path bins delivered bytes here.
        ``latency_sample_cap`` bounds retained latency samples per
        output port (see :class:`~repro.sim.stats.LatencyRecorder`);
        both default to off, keeping the bit-exact historical path.
        """

        def batches():
            for block in blocks:
                packets = block.to_packets()
                fibers = (
                    fibers_fn(packets, block)
                    if fibers_fn is not None
                    else assign_fibers(packets, self.config.fibers_per_ribbon)
                )
                yield packets, fibers, block.end_ns

        return self._simulate(
            batches(),
            duration_ns,
            drain=drain,
            max_drain_ns=max_drain_ns,
            fault_schedule=fault_schedule,
            telemetry=telemetry,
            departure_sink=departure_sink,
            latency_sample_cap=latency_sample_cap,
        )

    def _simulate(
        self,
        batches: Iterable[Tuple[Sequence[Packet], Sequence[int], float]],
        duration_ns: float,
        drain: bool,
        fault_schedule,
        telemetry,
        max_drain_ns: Optional[float] = None,
        mode: str = "sequential",
        n_workers: Optional[int] = None,
        departure_sink=None,
        latency_sample_cap: Optional[int] = None,
    ) -> RouterReport:
        """The one split-and-simulate core behind :meth:`run` and
        :meth:`run_stream`.

        ``batches`` yields time-ordered ``(packets, fibers, end_ns)``.
        Per batch: arrivals at or after ``duration_ns`` are dropped
        (they never enter the simulated window), cut fibers' traffic
        dies at the passive split, and the rest is partitioned across
        the switches.  A batch ending before ``duration_ns`` is offered
        to each switch, which then advances to ``end_ns``.  The batch
        that reaches ``duration_ns`` is offered to each switch, which
        is finished (drained and reported) and released before the next
        switch is offered -- so a one-batch eager run holds one
        finished switch's latency samples at a time, not H.

        Pooled runs (``mode`` parallel, or auto with several workers)
        hand each live switch's whole slice to a worker process as a
        :class:`SwitchWorkUnit` instead; the split and the report
        assembly are the same.
        """
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
                packets=(),
                duration_ns=duration_ns,
                drain=drain,
                max_drain_ns=max_drain_ns,
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
        for packets, fibers, end_ns in batches:
            if len(packets) != len(fibers):
                raise ConfigError("packets and fibers must align")
            if cuts or any(p.arrival_ns >= duration_ns for p in packets):
                kept_packets: List[Packet] = []
                kept_fibers: List[int] = []
                for packet, fiber in zip(packets, fibers):
                    if packet.arrival_ns >= duration_ns:
                        continue
                    if cuts and schedule.fiber_cut_active(
                        packet.input_port, fiber, packet.arrival_ns
                    ):
                        fault_lost += packet.size_bytes
                        key = (packet.input_port, fiber)
                        cut_lost[key] = cut_lost.get(key, 0) + packet.size_bytes
                    else:
                        kept_packets.append(packet)
                        kept_fibers.append(fiber)
                packets, fibers = kept_packets, kept_fibers
            if finished and packets:
                raise SimulationError(
                    f"arrivals before {duration_ns} ns offered after the "
                    "batch that reached the end of the run"
                )
            per_switch = self.partition_packets(packets, fibers)
            finished = finished or end_ns >= duration_ns
            for h in range(n_switches):
                arrived = sum(p.size_bytes for p in per_switch[h])
                offered[h] += arrived
                if telemetry is not None:
                    # The split is passive (0 ns); the observable is the
                    # per-switch packet count -- the load balance of E10.
                    # Per-batch increments sum to the same final values
                    # (the registry dump is value-sorted, never
                    # insertion-ordered).
                    telemetry.histogram(
                        "repro_stage_latency_ns",
                        "passive fiber-split assignment (count = per-switch load)",
                        stage="split", switch=str(h),
                    ).observe_n(0.0, len(per_switch[h]))
                    # Time-resolved view of the same split: offered bytes
                    # per window per switch, recorded at the split point
                    # so dead switches' offered load shows up too.
                    split_series = telemetry.timeseries(
                        "repro_split_window_bytes",
                        "offered bytes per window at the fiber split",
                        switch=str(h),
                    )
                    for packet in per_switch[h]:
                        split_series.observe(packet.arrival_ns, packet.size_bytes)
                if units[h] is None:
                    failed_bytes += arrived
                elif pooled:
                    units[h] = replace(
                        units[h], packets=units[h].packets + tuple(per_switch[h])
                    )
                elif reports[h] is None:
                    if running[h] is None:
                        running[h] = open_switch(
                            units[h], departure_sink, latency_sample_cap
                        )
                    switch, registry = running[h]
                    switch.stream_offer(per_switch[h], duration_ns)
                    if finished:
                        reports[h] = finish_switch(units[h], switch, registry)
                        # Release the finished switch -- and its latency
                        # samples -- before the next one is offered.
                        running[h] = switch = registry = None
                    else:
                        switch.stream_advance(end_ns)
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
            for unit, report in zip(live, run_work_units(live, n_workers=n_workers)):
                reports[unit.index] = report
        if telemetry is not None:
            from ..telemetry import record_fault_loss

            for (ribbon, fiber), n_bytes in sorted(cut_lost.items()):
                record_fault_loss(telemetry, "fiber", f"{ribbon}/{fiber}", n_bytes)
            for h in sorted(dead):
                record_fault_loss(telemetry, "switch", str(h), offered[h])
        switch_reports = [report for report in reports if report is not None]
        for report in switch_reports:
            # One O/E + one E/O per bit through a switch (the SPS property).
            self.oeo.convert(8.0 * (report.offered_bytes + report.delivered_bytes))
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


def _use_pool(mode: str, n_workers: Optional[int], n_live: int) -> bool:
    """Whether ``mode`` ships the live switches to the process pool."""
    if mode == "auto":
        workers = n_workers if n_workers is not None else (os.cpu_count() or 1)
        return n_live > 1 and workers > 1
    return mode == "parallel"
