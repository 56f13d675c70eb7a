"""Graceful-degradation measurement: capacity over time under faults.

The modularity claim (SS 2.2) is quantitative: killing k of the H
share-nothing switches costs exactly k/H of capacity, and nothing else
degrades.  :func:`measure_degradation` turns one faulted router run into
a :class:`DegradationReport` -- offered vs delivered capacity per time
interval -- so the claim (and the softer degradations: channel loss, OEO
aging, fiber cuts) can be read off as a capacity-over-time curve.

Binning: offered bytes are attributed to the interval of each packet's
*arrival*; delivered bytes to the interval of its *departure* (the wire
time of its last byte).  The run is sequential so every departure is
seen: both open- and closed-loop runs bin them through the output
ports' departure sink, one array of departures per transmitted frame.
Departures during the drain tail (after ``duration_ns``) land in the
last interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import List, Optional, Sequence

import numpy as np

from ..config import RouterConfig
from ..core.pfi import PFIOptions
from ..core.sps import SplitParallelSwitch
from ..errors import ConfigError
from ..traffic import FixedSize, TrafficGenerator, uniform_matrix
from ..units import bytes_per_ns_to_rate
from .schedule import FaultSchedule

#: Default interval-availability threshold: an interval counts as
#: "available" when it delivered at least this fraction of its offer.
AVAILABILITY_THRESHOLD = 0.9


def _fault_traffic_source(
    config: RouterConfig, load: float, seed: int, packet_bytes: int = 1500
) -> TrafficGenerator:
    """The default degradation traffic: fixed-size packets so
    per-interval byte counts are smooth."""
    return TrafficGenerator(
        n_ports=config.n_ribbons,
        port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
        matrix=uniform_matrix(config.n_ribbons, load),
        size_dist=FixedSize(packet_bytes),
        seed=seed,
        flows_per_pair=256,
    )


def router_fault_traffic(
    config: RouterConfig,
    load: float = 0.6,
    duration_ns: float = 40_000.0,
    seed: int = 0,
    packet_bytes: int = 1500,
) -> List:
    """Router-level traffic for degradation runs, as one packet list."""
    return _fault_traffic_source(config, load, seed, packet_bytes).materialize(
        duration_ns
    )


def _fiber_cursor(n_fibers: int):
    """A per-ribbon round-robin fiber cursor.

    Returns ``assign(block)`` (the shape of ``run_stream``'s
    ``fibers_fn``): the next fiber of each arrival's ribbon as an
    array, with the count carried across calls, so a stream assigned
    block by block gets exactly the fibers of the concatenated run.
    """
    if n_fibers <= 0:
        raise ConfigError(f"n_fibers must be positive, got {n_fibers}")
    counters: dict = {}

    def assign(block) -> np.ndarray:
        ribbons = np.asarray(block.inputs, dtype=np.int64)
        order = np.argsort(ribbons, kind="stable")
        sorted_ribbons = ribbons[order]
        starts = np.flatnonzero(np.r_[True, sorted_ribbons[1:] != sorted_ribbons[:-1]])
        counts = np.diff(np.r_[starts, ribbons.size])
        base = np.zeros(ribbons.size, dtype=np.int64)
        for start, count in zip(starts.tolist(), counts.tolist()):
            ribbon = int(sorted_ribbons[start])
            done = counters.get(ribbon, 0)
            base[start:start + count] = done - start
            counters[ribbon] = done + count
        fibers = np.empty(ribbons.size, dtype=np.int64)
        fibers[order] = (base + np.arange(ribbons.size)) % n_fibers
        return fibers

    return assign


def deterministic_fibers(packets: Sequence, n_fibers: int) -> List[int]:
    """Per-ribbon round-robin fiber assignment.

    ECMP hashing spreads flows multinomially, which adds O(1/sqrt(n))
    noise to per-switch offered bytes; the closed-form (H-k)/H
    cross-check needs the noise-free spread this gives.  Round-robin is
    kept per ribbon (each ribbon has its own fiber-to-switch map), so
    every ribbon's packets cover its fibers exactly evenly.
    """
    ribbons = SimpleNamespace(
        inputs=np.fromiter((p.input_port for p in packets), np.int64, len(packets))
    )
    return _fiber_cursor(n_fibers)(ribbons).tolist()


@dataclass(frozen=True)
class IntervalSample:
    """Offered vs delivered bytes in one ``[start_ns, end_ns)`` slice."""

    start_ns: float
    end_ns: float
    offered_bytes: int
    delivered_bytes: int

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns

    @property
    def offered_bps(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return bytes_per_ns_to_rate(self.offered_bytes / self.duration_ns)

    @property
    def delivered_bps(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return bytes_per_ns_to_rate(self.delivered_bytes / self.duration_ns)

    @property
    def delivered_fraction(self) -> float:
        """Delivered over offered (can exceed 1.0 while a backlog or the
        drain tail empties into this interval)."""
        if self.offered_bytes <= 0:
            return 1.0
        return self.delivered_bytes / self.offered_bytes

    def to_dict(self) -> dict:
        return {
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "offered_bytes": self.offered_bytes,
            "delivered_bytes": self.delivered_bytes,
            "offered_bps": self.offered_bps,
            "delivered_bps": self.delivered_bps,
            "delivered_fraction": self.delivered_fraction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IntervalSample":
        """Inverse of :meth:`to_dict` (derived rates are recomputed)."""
        return cls(
            start_ns=data["start_ns"],
            end_ns=data["end_ns"],
            offered_bytes=data["offered_bytes"],
            delivered_bytes=data["delivered_bytes"],
        )


@dataclass
class DegradationReport:
    """Capacity-over-time view of one faulted router run."""

    duration_ns: float
    intervals: List[IntervalSample]
    offered_bytes: int
    delivered_bytes: int
    lost_bytes: int
    residual_bytes: int
    failed_switches: List[int] = field(default_factory=list)
    fault_events: List[str] = field(default_factory=list)
    #: Closed-loop runs only: the control loop's compact summary
    #: (:meth:`repro.control.ControlLoop.summary`); ``None`` open-loop.
    control: Optional[dict] = None

    @property
    def delivered_fraction(self) -> float:
        if self.offered_bytes <= 0:
            return 1.0
        return self.delivered_bytes / self.offered_bytes

    @property
    def loss_fraction(self) -> float:
        if self.offered_bytes <= 0:
            return 0.0
        return self.lost_bytes / self.offered_bytes

    def availability(self, threshold: float = AVAILABILITY_THRESHOLD) -> float:
        """Fraction of intervals that delivered at least ``threshold``
        of their offered bytes (1.0 = no interval dipped)."""
        if not self.intervals:
            return 1.0
        ok = sum(
            1 for s in self.intervals if s.delivered_fraction >= threshold
        )
        return ok / len(self.intervals)

    def to_dict(self, threshold: float = AVAILABILITY_THRESHOLD) -> dict:
        data = {
            "duration_ns": self.duration_ns,
            "offered_bytes": self.offered_bytes,
            "delivered_bytes": self.delivered_bytes,
            "lost_bytes": self.lost_bytes,
            "residual_bytes": self.residual_bytes,
            "delivered_fraction": self.delivered_fraction,
            "loss_fraction": self.loss_fraction,
            "availability": self.availability(threshold),
            "availability_threshold": threshold,
            "failed_switches": list(self.failed_switches),
            "fault_events": list(self.fault_events),
            "intervals": [s.to_dict() for s in self.intervals],
        }
        if self.control is not None:
            # Conditional so open-loop payloads stay byte-identical to
            # every pre-control release.
            data["control"] = self.control
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DegradationReport":
        """Inverse of :meth:`to_dict` -- rebuilds the report from a
        cached runtime payload so the CLI tables (which read report
        attributes) render from recalled cells exactly as from fresh
        runs.  Derived fractions/availability are recomputed, so a
        round-trip re-serialises byte-identically."""
        return cls(
            duration_ns=data["duration_ns"],
            intervals=[IntervalSample.from_dict(d) for d in data["intervals"]],
            offered_bytes=data["offered_bytes"],
            delivered_bytes=data["delivered_bytes"],
            lost_bytes=data["lost_bytes"],
            residual_bytes=data["residual_bytes"],
            failed_switches=list(data["failed_switches"]),
            fault_events=list(data["fault_events"]),
            control=data.get("control"),
        )


def measure_degradation(
    config: RouterConfig,
    schedule: Optional[FaultSchedule] = None,
    load: float = 0.6,
    duration_ns: float = 40_000.0,
    seed: int = 0,
    n_intervals: int = 8,
    options: Optional[PFIOptions] = None,
    telemetry=None,
    workload: Optional[str] = None,
    control=None,
) -> DegradationReport:
    """Run one faulted router simulation and bin it over time.

    Sequential execution on purpose: the binning needs per-packet
    departures, which only the sequential path produces.  Packets are
    spread round-robin over each ribbon's fibers
    (:func:`deterministic_fibers`), so measured capacity matches the
    (H - k)/H closed form without multinomial hash noise.

    The run consumes arrival blocks incrementally: offered bytes are
    binned per block as it is offered (arrival interval) and delivered
    bytes per packet via the output ports' departure sink (departure
    interval, drain tail into the last bin; a lost packet counts as
    offered only), without keeping packets around.  The blocks
    come from the default smooth fixed-size traffic, or from
    ``workload`` (a :func:`~repro.traffic.stream.workload_source` spec,
    e.g. ``"pareto"`` or ``"trace:capture.csv"``).

    ``control`` (a :class:`~repro.control.ControlConfig`) closes the
    loop, with either traffic, through the control stage of
    ``run_stream`` (:class:`~repro.control.packet.PacketControl`).
    Offered bytes count *all* generated packets -- a throttled one bins
    as offered-but-undelivered and its switch's report holds it as a
    drop -- so the delivered fraction is measured against the original
    offer, never against a throttle-shrunk one.

    ``telemetry`` (a :class:`~repro.telemetry.MetricsRegistry`)
    instruments the run; the fault schedule's windows are tagged onto
    the dump, so per-stage metrics can be read against the injected
    faults.
    """
    if options is None:
        options = PFIOptions(padding=True, bypass=True)
    if n_intervals <= 0:
        raise ConfigError(f"n_intervals must be positive, got {n_intervals}")
    router = SplitParallelSwitch(config, options=options)
    width = duration_ns / n_intervals
    last = n_intervals - 1
    offered = np.zeros(n_intervals, dtype=np.int64)
    delivered = np.zeros(n_intervals, dtype=np.int64)

    def interval_of(times: np.ndarray) -> np.ndarray:
        return np.minimum(last, (times / width).astype(np.int64))

    def departure_sink(departures: np.ndarray, sizes: np.ndarray) -> None:
        np.add.at(delivered, interval_of(departures), sizes)

    if workload is None:
        source = _fault_traffic_source(config, load, seed)
    else:
        from ..traffic.stream import workload_source

        source = workload_source(
            workload,
            n_ports=config.n_ribbons,
            port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
            load=load,
            seed=seed,
            duration_ns=duration_ns,
        )

    def binned(blocks):
        # Every generated packet is offered, throttled ones included.
        for block in blocks:
            np.add.at(offered, interval_of(block.times), block.sizes)
            yield block

    stage = None
    if control is not None:
        from ..control.packet import PacketControl

        stage = PacketControl(control)
    report = router.run_stream(
        binned(source.blocks(duration_ns)),
        duration_ns,
        fibers_fn=_fiber_cursor(config.fibers_per_ribbon),
        fault_schedule=schedule,
        telemetry=telemetry,
        departure_sink=departure_sink,
        control=stage,
    )
    intervals = [
        IntervalSample(
            start_ns=i * width,
            end_ns=(i + 1) * width,
            offered_bytes=int(offered[i]),
            delivered_bytes=int(delivered[i]),
        )
        for i in range(n_intervals)
    ]
    return DegradationReport(
        duration_ns=duration_ns,
        intervals=intervals,
        offered_bytes=report.offered_bytes,
        delivered_bytes=report.delivered_bytes,
        lost_bytes=report.lost_bytes,
        residual_bytes=report.residual_bytes,
        failed_switches=list(report.failed_switches),
        fault_events=list(report.fault_events),
        control=None if stage is None else stage.loop.summary(),
    )
