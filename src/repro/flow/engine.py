"""The vectorized fluid core: piecewise-constant rates over segments.

Model
-----

Time is cut into *segments* at every instant where some rate can change:
traffic-component window edges, fault-event window edges, and the
degradation-report interval edges.  Within a segment every rate is
constant, so the fluid queue update

    ``served = min(backlog + arrival_rate * dt, service_rate * dt)``

is the exact solution of the fluid ODE on that segment -- no
discretisation error accumulates from step size, and the whole engine
is a deterministic function of its inputs (no RNG anywhere, so
``fidelity="flow"`` cells are reproducible byte for byte).

Each HBM switch is a two-stage tandem of fluid queues, mirroring the
packet pipeline's two real bottlenecks:

- **stage 1 (input SRAM + crossbar)**: per-(input, output) byte matrix
  ``Q1``; each input port drains at the port rate P (one batch per
  batch-time over the cyclical crossbar).  Rows are capped at the input
  SRAM capacity (same default as
  :class:`~repro.core.input_port.InputPort`); the excess is dropped as
  ``input-sram-overflow`` -- how overload surfaces in the packet engine
  too.
- **stage 2 (HBM + egress)**: per-output byte vector ``q2`` drained at
  ``P * min(oeo_factor, speedup * channel_fraction, 1)`` -- OEO
  degradations cap the egress line, HBM channel losses stretch PFI
  phases by T/(T-lost), and neither can push the output past its line
  rate.  Occupancy is capped at the switch's HBM share per output.

The fiber split is the deterministic H-way rate partition: ribbon r's
offered rate is weighted over its F fibers (uniform by default, or an
attack strategy's mixed weights) and each switch h receives the summed
weight of the fibers assigned to it -- literally
``assignment_array`` from :mod:`repro.core.fiber_split` applied to
rates instead of packets.  Fault semantics mirror the packet engine:
whole-run-dead switches lose their traffic at the split
(``failed_offered_bytes``, no :class:`SwitchReport`), windowed switch
deaths gate *arrivals only* (``switch-dead`` drops; the pipeline keeps
draining), and active fiber cuts divert their weight share into
``fault_lost_bytes``.

Latency at flow fidelity is approximate by construction: the mean is a
pipeline base (two batch times + two frame-write times) plus the
Little's-law queueing delay ``integral(Q) dt / delivered_bytes``;
p50/p99/max all report that mean.  Delivered/loss *fractions* are the
validated quantities (see ``docs/flow_engine.md``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..config import HBMSwitchConfig, RouterConfig
from ..core.fiber_split import FiberSplitter, PseudoRandomSplitter
from ..core.hbm_switch import SwitchReport
from ..core.pfi import PFICounters
from ..core.sps import RouterReport
from ..errors import ConfigError
from ..faults.report import DegradationReport, IntervalSample
from ..traffic import uniform_matrix
from ..units import bytes_per_ns_to_rate, rate_to_bytes_per_ns

#: Residual backlog (bytes) below which a drain counts as empty -- less
#: than any packet, so the int rounding in the reports absorbs it.
_DRAIN_EPS = 0.5

#: Latency-breakdown stages of the packet engine's SwitchReport; the
#: fluid model does not resolve them, so each reports 0.0.
_BREAKDOWN_STAGES = ("batch_fill", "frame_fill", "hbm_wait", "egress")

#: Flow-fidelity metric names.  Counters are per-switch byte totals;
#: the window series are the fluid engine's time-resolved view (its
#: piecewise-constant segments land in fixed-width windows).
FLOW_BYTES = "repro_flow_bytes_total"
FLOW_LOST = "repro_flow_lost_bytes_total"
FLOW_WINDOW_BYTES = "repro_flow_window_bytes"
FLOW_WINDOW_QUEUE = "repro_flow_window_queue_bytes"
FLOW_WINDOW_DROPPED = "repro_flow_window_dropped_bytes"


@dataclass(frozen=True)
class RateComponent:
    """One traffic component: an (n, n) rate matrix active in windows.

    ``matrix[i, j]`` is the offered byte rate (bytes/ns) from input i to
    output j while any of the half-open ``windows`` is active.
    Components add; a plain always-on workload is one component with a
    single ``(0, duration)`` window.
    """

    matrix: np.ndarray
    windows: Tuple[Tuple[float, float], ...]

    def active_at(self, t_ns: float) -> bool:
        return any(start <= t_ns < end for start, end in self.windows)


def uniform_rate_matrix(n_ports: int, load: float, port_rate_bps: float) -> np.ndarray:
    """The fluid twin of ``uniform_matrix``: every entry in bytes/ns."""
    return uniform_matrix(n_ports, load) * rate_to_bytes_per_ns(port_rate_bps)


# --------------------------------------------------------------------------
# Segment edges
# --------------------------------------------------------------------------


def _component_edges(components: Sequence[RateComponent]) -> List[float]:
    edges: List[float] = []
    for component in components:
        for start, end in component.windows:
            edges.append(start)
            if math.isfinite(end):
                edges.append(end)
    return edges


def _schedule_edges(schedule) -> List[float]:
    """Window edges of a fault schedule (or any iterable of events)."""
    edges: List[float] = []
    if schedule is None:
        return edges
    for event in schedule:
        edges.append(event.start_ns)
        if math.isfinite(event.end_ns):
            edges.append(event.end_ns)
    return edges


def _segments(duration_ns: float, extra_edges: Sequence[float]) -> List[float]:
    """Sorted unique edges over ``[0, duration_ns]`` (both ends included)."""
    edges = [0.0, duration_ns]
    edges.extend(e for e in extra_edges if 0.0 < e < duration_ns)
    return np.unique(np.asarray(edges, dtype=np.float64)).tolist()


class _Piecewise:
    """A function of time that is constant between sorted edges.

    Every window in the engine is half-open (``start <= t < end``), so
    the value on ``[edges[k-1], edges[k])`` is the value at
    ``edges[k-1]``, and before the first edge it is the value at
    ``-inf``.  ``value_at`` runs once per interval; :meth:`at` is one
    ``bisect_right`` and exact for every ``t``.
    """

    __slots__ = ("edges", "values")

    def __init__(self, edges: Sequence[float], value_at) -> None:
        self.edges = sorted({e for e in edges if math.isfinite(e)})
        self.values = [value_at(t) for t in [-math.inf, *self.edges]]

    def at(self, t_ns: float):
        return self.values[bisect_right(self.edges, t_ns)]


# --------------------------------------------------------------------------
# The two-stage fluid tandem (stacked across switches)
# --------------------------------------------------------------------------


class _FluidTandem:
    """L independent two-stage tandems with (N, N) stage-1 state each."""

    def __init__(
        self,
        n_tandems: int,
        n_ports: int,
        port_rate: float,
        input_capacity: float,
        output_capacity: float,
    ) -> None:
        self.n_tandems = n_tandems
        self.n_ports = n_ports
        self.port_rate = port_rate
        self.input_capacity = input_capacity
        self.output_capacity = output_capacity
        #: Shared all-zero queues and backlog: a stage that empties
        #: takes these, so the next step knows by identity that adding
        #: the queue is the identity.  Never written in place.
        self._empty_q1 = np.zeros((n_tandems, n_ports, n_ports))
        self._empty_q2 = np.zeros((n_tandems, n_ports))
        self._no_backlog = np.zeros(n_tandems)
        self.q1 = self._empty_q1
        self.q2 = self._empty_q2
        self.delivered = np.zeros(n_tandems)
        self.dropped_sram = np.zeros(n_tandems)
        self.dropped_hbm = np.zeros(n_tandems)
        self.queue_integral = np.zeros(n_tandems)
        self.peak_q1 = np.zeros(n_tandems)
        self.peak_q2 = np.zeros(n_tandems)
        #: Per-tandem deliveries and backlog of the most recent step --
        #: the per-segment telemetry, the control hand-off, the drain
        #: and the next step's queue integral read these instead of
        #: re-deriving them from the queues.
        self.last_delivered = np.zeros(n_tandems)
        self.last_backlog = self._no_backlog
        #: ``(dt, arrivals, service, total delivered)`` of the last step
        #: when it started and ended empty, else None.
        self._steady: Optional[tuple] = None

    def step(self, dt: float, arrivals: np.ndarray, service: np.ndarray) -> float:
        """Advance every tandem by ``dt``.

        ``arrivals`` is the (L, N, N) byte-rate tensor already gated for
        dead windows; ``service`` the (L,) per-output egress rate.
        Neither is modified.  Returns the total bytes delivered this
        segment.

        Each stage has a shortcut for the common case that is the exact
        result of its general update, not an approximation: when every
        row (output) can send all it holds, the served fraction is
        exactly 1.0, so everything moves on and the queue is left
        exactly 0.0; adding an all-zero queue is the identity; and with
        no queue over capacity the tail drop changes nothing.  A step
        that starts and ends with no backlog adds exactly 0.0 to the
        queue integral, so that update is skipped too.  Such a step's
        result is a function of its inputs alone, so a step that follows
        it with the same ``arrivals`` and ``service`` objects (cached
        arrays are never written in place) and an equal ``dt`` repeats
        its deliveries and leaves the queues empty.
        """
        steady = self._steady
        if (
            steady is not None
            and arrivals is steady[1]
            and service is steady[2]
            and dt == steady[0]
        ):
            self.delivered += self.last_delivered
            return steady[3]
        pre = self.last_backlog  # the backlog this state was left with
        # Stage 1: input SRAM and the crossbar, P per input port.
        avail = arrivals * dt
        if self.q1 is not self._empty_q1:
            avail = self.q1 + avail
        row_total = avail.sum(axis=2)
        port_bytes = self.port_rate * dt
        q1_total = None
        if row_total.max(initial=0.0) <= port_bytes:
            moved = avail
            self.q1 = self._empty_q1
        else:
            served1 = np.minimum(row_total, port_bytes)
            frac = np.divide(
                served1, row_total, out=np.zeros_like(row_total), where=row_total > 0.0
            )
            moved = avail * frac[:, :, None]
            q1 = avail - moved
            # Input-SRAM tail drop: a row (one input port) over capacity
            # sheds its excess proportionally over its per-output queues.
            occupancy = q1.sum(axis=2)
            if (occupancy > self.input_capacity).any():
                excess = np.maximum(occupancy - self.input_capacity, 0.0)
                safe_occ = np.where(occupancy > 0.0, occupancy, 1.0)
                keep = np.where(occupancy > 0.0, 1.0 - excess / safe_occ, 1.0)
                self.dropped_sram += excess.sum(axis=1)
                q1 = q1 * keep[:, :, None]
            self.q1 = q1
            q1_total = q1.sum(axis=(1, 2))
            self.peak_q1 = np.maximum(self.peak_q1, occupancy.max(axis=1, initial=0.0))
        # Stage 2: HBM and egress, ``service`` per output.
        avail2 = moved.sum(axis=1)
        if self.q2 is not self._empty_q2:
            avail2 = self.q2 + avail2
        drain_bytes = service[:, None] * dt
        q2_total = None
        if (avail2 <= drain_bytes).all():
            served2 = avail2
            self.q2 = self._empty_q2
        else:
            served2 = np.minimum(avail2, drain_bytes)
            q2 = avail2 - served2
            if (q2 > self.output_capacity).any():  # HBM overflow
                over = np.maximum(q2 - self.output_capacity, 0.0)
                self.dropped_hbm += over.sum(axis=1)
                q2 = q2 - over
            self.q2 = q2
            q2_total = q2.sum(axis=1)
            self.peak_q2 = np.maximum(self.peak_q2, q2_total)
        segment_delivered = served2.sum(axis=1)
        self.delivered += segment_delivered
        self.last_delivered = segment_delivered
        if q1_total is None:
            post = self._no_backlog if q2_total is None else q2_total
        else:
            post = q1_total if q2_total is None else q1_total + q2_total
        self.last_backlog = post
        total = float(segment_delivered.sum())
        if pre is self._no_backlog and post is self._no_backlog:
            self._steady = (dt, arrivals, service, total)
        else:
            self._steady = None
            self.queue_integral += 0.5 * (pre + post) * dt
        return total


def _drain(
    tandem: _FluidTandem,
    start_ns: float,
    service_at,
    future_edges: Sequence[float],
    min_step: float,
    on_delivered=None,
) -> None:
    """Analytically drain every tandem after arrivals stop.

    Between fault edges service rates are constant, so stage 1 empties
    in at most ``max_row / P`` and stage 2 in ``max_backlog / s``; the
    loop takes those strides, pausing at each edge where a fault window
    opens or closes.  A tandem whose service rate is zero with no future
    edge left keeps its backlog as residual (mirroring the packet
    engine, where a switch with no surviving HBM channels cannot drain).
    """
    t = start_ns
    edges = sorted(e for e in future_edges if e > start_ns and math.isfinite(e))
    no_arrivals = np.zeros_like(tandem.q1)
    guard = 0
    limit = 8 * (len(edges) + 2) + 64
    while guard < limit:
        guard += 1
        backlog = tandem.last_backlog
        if backlog.sum() <= _DRAIN_EPS:
            break
        service = service_at(t + 1e-9)
        stuck = (service <= 0.0) & (backlog > _DRAIN_EPS)
        next_edge = next((e for e in edges if e > t), None)
        if stuck.any() and next_edge is None and not ((service > 0.0) & (backlog > _DRAIN_EPS)).any():
            break  # permanently starved: leave the residual
        strides = [min_step]
        rows = tandem.q1.sum(axis=2)
        if rows.size:
            strides.append(rows.max() / tandem.port_rate)
        active = service > 0.0
        if active.any():
            strides.append((backlog[active] / service[active]).max())
        dt = max(strides)
        if next_edge is not None:
            dt = min(dt, next_edge - t)
        if dt <= 0.0:
            dt = min_step
        delivered = tandem.step(dt, no_arrivals, service)
        if on_delivered is not None:
            on_delivered(delivered, t + 0.5 * dt)
        t += dt


# --------------------------------------------------------------------------
# Report assembly
# --------------------------------------------------------------------------


def _rounded_conserved(
    offered: float, delivered: float, drops: Dict[str, float]
) -> Tuple[int, int, Dict[str, int], int]:
    """Round totals to ints while keeping offered = delivered + dropped
    + residual exact (the invariant the packet engine's audit checks)."""
    offered_i = int(round(offered))
    drops_i = {k: int(round(v)) for k, v in drops.items() if round(v) > 0}
    dropped_i = sum(drops_i.values())
    delivered_i = min(int(round(delivered)), offered_i - dropped_i)
    residual_i = offered_i - delivered_i - dropped_i
    if residual_i < 0:  # pragma: no cover - clamped above
        delivered_i += residual_i
        residual_i = 0
    return offered_i, delivered_i, drops_i, residual_i


def _latency_summary(count: float, mean_ns: float) -> Dict[str, float]:
    if count <= 0:
        nan = float("nan")
        return {"count": 0.0, "mean_ns": nan, "p50_ns": nan, "p99_ns": nan, "max_ns": nan}
    return {
        "count": float(count),
        "mean_ns": mean_ns,
        "p50_ns": mean_ns,
        "p99_ns": mean_ns,
        "max_ns": mean_ns,
    }


def _switch_report(
    config: HBMSwitchConfig,
    duration_ns: float,
    offered: float,
    delivered: float,
    drops: Dict[str, float],
    queue_integral: float,
    peak_q1: float,
    peak_q2: float,
    mean_packet_bytes: float,
) -> SwitchReport:
    offered_i, delivered_i, drops_i, residual_i = _rounded_conserved(
        offered, delivered, drops
    )
    frame_bytes = config.frame_bytes
    frames = delivered_i // frame_bytes if frame_bytes > 0 else 0
    delivered_packets = int(round(delivered_i / mean_packet_bytes))
    base_ns = 2.0 * config.batch_time_ns + 2.0 * config.frame_write_time_ns
    queue_delay_ns = queue_integral / delivered if delivered > 0 else 0.0
    return SwitchReport(
        duration_ns=duration_ns,
        offered_bytes=offered_i,
        offered_packets=int(round(offered_i / mean_packet_bytes)),
        delivered_bytes=delivered_i,
        delivered_packets=delivered_packets,
        dropped_bytes=sum(drops_i.values()),
        residual_bytes=residual_i,
        throughput_bps=bytes_per_ns_to_rate(delivered_i / duration_ns)
        if duration_ns > 0
        else 0.0,
        capacity_bps=config.aggregate_port_rate_bps,
        latency=_latency_summary(delivered_packets, base_ns + queue_delay_ns),
        latency_breakdown={stage: 0.0 for stage in _BREAKDOWN_STAGES},
        ordering_violations=0,
        pfi=PFICounters(
            frames_written=frames,
            frames_read=frames,
            payload_written_bytes=delivered_i,
        ),
        input_sram_peak_bytes=int(round(peak_q1)),
        tail_sram_peak_bytes=0,
        head_sram_peak_bytes=0,
        hbm_peak_frames=int(math.ceil(peak_q2 / frame_bytes)) if frame_bytes > 0 else 0,
        drops_by_reason={
            reason: int(round(drops[reason] / mean_packet_bytes))
            for reason in sorted(drops_i)
            if int(round(drops[reason] / mean_packet_bytes)) > 0
        },
    )


# --------------------------------------------------------------------------
# Telemetry
# --------------------------------------------------------------------------


class _WindowRecorder:
    """What one flow run records into a metrics registry.

    Engines build one only with telemetry on and hold ``None``
    otherwise.  Per switch (``labels``) it feeds the offered and
    delivered :data:`FLOW_WINDOW_BYTES` and the :data:`FLOW_WINDOW_QUEUE`
    series every segment; with ``losses`` also the
    :data:`FLOW_WINDOW_DROPPED` series (each segment's change of the
    cumulative drop totals) and the backlog during the drain, which the
    single-switch engine does not record.  :meth:`totals` writes the
    end-of-run byte counters.
    """

    def __init__(self, registry, labels: Sequence[str], losses: bool = True) -> None:
        self.registry = registry
        self.offered = [
            registry.timeseries(
                FLOW_WINDOW_BYTES, "flow bytes per window by crossing point",
                point="offered", switch=label,
            )
            for label in labels
        ]
        self.delivered = [
            registry.timeseries(
                FLOW_WINDOW_BYTES, "flow bytes per window by crossing point",
                point="delivered", switch=label,
            )
            for label in labels
        ]
        self.queue = [
            registry.timeseries(
                FLOW_WINDOW_QUEUE, "fluid backlog high-water per window",
                agg="max", switch=label,
            )
            for label in labels
        ]
        self.dropped = (
            [
                registry.timeseries(
                    FLOW_WINDOW_DROPPED, "flow dropped bytes per window",
                    switch=label,
                )
                for label in labels
            ]
            if losses
            else None
        )
        # Cumulative drop totals at the end of the previous segment.
        zeros = np.zeros(len(labels))
        self._drops = self._dead = self._throttled = zeros

    def segment(
        self,
        t_ns: float,
        offered: np.ndarray,
        tandem: _FluidTandem,
        dropped_dead: Optional[np.ndarray] = None,
        dropped_throttled: Optional[np.ndarray] = None,
    ) -> None:
        """One segment at midpoint ``t_ns``: ``offered`` bytes per switch,
        the tandem's step, and (with losses) the cumulative drops."""
        dropped = None
        if self.dropped is not None:
            drops = tandem.dropped_sram + tandem.dropped_hbm
            dropped = (
                drops - self._drops + dropped_dead - self._dead
                + dropped_throttled - self._throttled
            ).tolist()
            self._drops = drops
            self._dead = dropped_dead.copy()
            self._throttled = dropped_throttled.copy()
        delivered = tandem.last_delivered.tolist()
        backlog = tandem.last_backlog.tolist()
        for idx, value in enumerate(offered.tolist()):
            self.offered[idx].observe(t_ns, value)
            self.delivered[idx].observe(t_ns, delivered[idx])
            self.queue[idx].observe(t_ns, backlog[idx])
            if dropped is not None and dropped[idx] > 0.0:
                self.dropped[idx].observe(t_ns, dropped[idx])

    def drained(self, t_ns: float, tandem: _FluidTandem) -> None:
        """One drain step at midpoint ``t_ns``."""
        delivered = tandem.last_delivered.tolist()
        backlog = tandem.last_backlog.tolist()
        for idx, value in enumerate(delivered):
            if value > 0.0:
                self.delivered[idx].observe(t_ns, value)
            if self.dropped is not None:
                self.queue[idx].observe(t_ns, backlog[idx])

    def totals(
        self, label: str, offered: int, delivered: int, losses: Dict[str, float]
    ) -> None:
        """One switch's offered/delivered bytes and its losses by reason."""
        self.registry.counter(
            FLOW_BYTES, "flow bytes by crossing point",
            point="offered", switch=label,
        ).inc(offered)
        self.registry.counter(
            FLOW_BYTES, "flow bytes by crossing point",
            point="delivered", switch=label,
        ).inc(delivered)
        for reason in sorted(losses):
            n_bytes = int(round(losses[reason]))
            if n_bytes > 0:
                self.registry.counter(
                    FLOW_LOST, "flow dropped bytes by reason",
                    reason=reason, switch=label,
                ).inc(n_bytes)


# --------------------------------------------------------------------------
# Single-switch simulation (Scenario kind="switch")
# --------------------------------------------------------------------------


def simulate_flow_switch(
    config: HBMSwitchConfig,
    load: float = 0.8,
    duration_ns: float = 50_000.0,
    drain: bool = True,
    mean_packet_bytes: float = 1500.0,
    components: Optional[Sequence[RateComponent]] = None,
    telemetry=None,
) -> SwitchReport:
    """Fluid twin of one :class:`~repro.core.hbm_switch.HBMSwitch` run.

    The default workload is the uniform admissible matrix at ``load``
    (what :func:`repro.runtime.execute_scenario` feeds the packet
    engine); pass ``components`` for a custom rate pattern.  The
    arrival process does not appear: Poisson, deterministic and ON/OFF
    streams all share the same mean rates, which is exactly the fluid
    limit -- burstiness effects are what the packet oracle is for.
    """
    if duration_ns <= 0:
        raise ConfigError(f"duration must be positive, got {duration_ns}")
    n = config.n_ports
    port_rate = rate_to_bytes_per_ns(config.port_rate_bps)
    if components is None:
        components = [
            RateComponent(
                uniform_rate_matrix(n, load, config.port_rate_bps),
                ((0.0, duration_ns),),
            )
        ]
    service = np.array([port_rate * min(1.0, config.speedup)])
    tandem = _FluidTandem(
        n_tandems=1,
        n_ports=n,
        port_rate=port_rate,
        input_capacity=64.0 * n * config.batch_bytes,
        output_capacity=config.memory_capacity_bytes / n,
    )
    recorder = (
        _WindowRecorder(telemetry, ["0"], losses=False)
        if telemetry is not None
        else None
    )
    offered = 0.0
    edges = _segments(duration_ns, _component_edges(components))
    for t0, t1 in zip(edges[:-1], edges[1:]):
        dt = t1 - t0
        if dt <= 0:
            continue
        tm = 0.5 * (t0 + t1)
        matrix = sum(
            (c.matrix for c in components if c.active_at(tm)),
            np.zeros((n, n)),
        )
        offered += matrix.sum() * dt
        tandem.step(dt, matrix[None, :, :], service)
        if recorder is not None:
            recorder.segment(tm, np.array([float(matrix.sum()) * dt]), tandem)
    if drain:
        _drain(
            tandem,
            duration_ns,
            lambda t: service,
            (),
            max(config.batch_time_ns, 1.0),
            on_delivered=None
            if recorder is None
            else lambda _, t_mid: recorder.drained(t_mid, tandem),
        )
    losses = {
        "input-sram-overflow": float(tandem.dropped_sram[0]),
        "hbm-full": float(tandem.dropped_hbm[0]),
    }
    if recorder is not None:
        recorder.totals(
            "0", int(round(offered)), int(round(float(tandem.delivered[0]))), losses
        )
    return _switch_report(
        config,
        duration_ns,
        offered,
        float(tandem.delivered[0]),
        losses,
        float(tandem.queue_integral[0]),
        float(tandem.peak_q1[0]),
        float(tandem.peak_q2[0]),
        mean_packet_bytes,
    )


# --------------------------------------------------------------------------
# Router simulation (Scenario kinds "router" / "degradation" / "fault_cell")
# --------------------------------------------------------------------------


@dataclass
class FlowRouterResult:
    """A flow-level router run: the report plus optional interval bins.

    Closed-loop runs additionally carry the control loop's compact
    summary (``control``) and its full action log (``control_actions``,
    a :class:`~repro.control.actions.ActionLog`) -- both ``None`` for
    open-loop runs.
    """

    report: RouterReport
    intervals: List[IntervalSample] = field(default_factory=list)
    control: Optional[dict] = None
    control_actions: Optional[object] = None

    def degradation(self) -> DegradationReport:
        """The run as a capacity-over-time report (binned runs only)."""
        report = self.report
        return DegradationReport(
            duration_ns=report.duration_ns,
            intervals=self.intervals,
            offered_bytes=report.offered_bytes,
            delivered_bytes=report.delivered_bytes,
            lost_bytes=report.lost_bytes,
            residual_bytes=report.residual_bytes,
            failed_switches=list(report.failed_switches),
            fault_events=list(report.fault_events),
            control=self.control,
        )


def buffer_limit_bytes(switch_config: HBMSwitchConfig) -> float:
    """The per-switch buffer ceiling the admission controller guards:
    total input-SRAM capacity (the fluid tandem's per-row cap times the
    N rows) plus the switch's HBM share -- the same limits the tandem
    enforces."""
    n = switch_config.n_ports
    return 64.0 * n * n * switch_config.batch_bytes + float(
        switch_config.memory_capacity_bytes
    )


def _fault_table(schedule, live: Sequence[int], config: RouterConfig) -> _Piecewise:
    """Per interval between fault edges: every live switch's egress
    service rate, and the live indices whose switch is dead."""
    switch = config.switch
    port_rate = rate_to_bytes_per_ns(switch.port_rate_bps)
    views = [
        schedule.switch_view(h, switch.total_channels) if schedule is not None else None
        for h in live
    ]

    def state_at(t_ns: float) -> Tuple[np.ndarray, Tuple[int, ...]]:
        rates = np.empty(len(live))
        dead = []
        for idx, view in enumerate(views):
            if view is None:
                factor = min(1.0, switch.speedup)
            else:
                factor = min(
                    view.oeo_rate_factor(t_ns),
                    switch.speedup * view.channel_fraction(t_ns),
                    1.0,
                )
                if view.dead_at(t_ns):
                    dead.append(idx)
            rates[idx] = port_rate * max(factor, 0.0)
        return rates, tuple(dead)

    return _Piecewise(_schedule_edges(schedule), state_at)


class _Rates(NamedTuple):
    """What the split gives every switch while the active components,
    the fiber-cut state and the split weights hold (rates in bytes/ns)."""

    matrix_total: float  # the whole offered matrix
    cut_rate: float  # lost to active fiber cuts
    offered: np.ndarray  # (H,) per switch
    failed_rate: float  # offered to the whole-run-dead switches
    arrivals: np.ndarray  # (L, N, N) of the live switches
    live_rate: np.ndarray  # (L,) ``arrivals`` summed per switch


class _Gate(NamedTuple):
    """The arrivals a segment feeds the tandem: ``_Rates.arrivals``
    throttled by the admit fractions and zeroed on dead switches."""

    arrivals: np.ndarray
    throttle: Optional[np.ndarray]  # (L,) 1 - admit; None when all admit
    dead_rates: Tuple[Tuple[int, float], ...]  # (live index, zeroed rate)


class _SplitCache:
    """The fiber split of the offered rates, rebuilt only when an input
    moves.

    :meth:`rates` is keyed on the active component set, the active
    fiber cuts and the reweight multiplier array (by identity: the
    control loop replaces it when a weight moves); :meth:`gate` on the
    rates, the admit array (likewise) and the dead switches.  Cached
    arrays are shared with the segment loop, so nothing here or there
    writes into one.
    """

    def __init__(
        self,
        components: Sequence[RateComponent],
        weights: np.ndarray,
        assignment: np.ndarray,
        cuts: Sequence,
        n_switches: int,
        live: Sequence[int],
        dead: Sequence[int],
    ) -> None:
        n_ribbons, n_fibers = weights.shape
        self._components = components
        self._weights = weights
        self._assignment = assignment
        self._index = (assignment.ravel(), np.repeat(np.arange(n_ribbons), n_fibers))
        self._cuts = cuts
        self._n_switches = n_switches
        self._live = np.asarray(live, dtype=np.int64)
        self._dead = list(dead)
        self._active = _Piecewise(
            _component_edges(components),
            lambda t: tuple(i for i, c in enumerate(components) if c.active_at(t)),
        )
        self._cut = _Piecewise(
            _schedule_edges(cuts),
            lambda t: tuple(i for i, c in enumerate(cuts) if c.active_at(t)),
        )
        self._rates: Optional[_Rates] = None
        self._rates_key: tuple = ()
        self._gate: Optional[_Gate] = None
        self._gate_key: tuple = ()

    def rates(self, t_ns: float, multiplier: Optional[np.ndarray]) -> _Rates:
        active = self._active.at(t_ns)
        cut = self._cut.at(t_ns)
        key = self._rates_key
        if (
            self._rates is None
            or multiplier is not key[2]
            or active != key[0]
            or cut != key[1]
        ):
            self._rates = self._build(active, cut, multiplier)
            self._rates_key = (active, cut, multiplier)
        return self._rates

    def _build(self, active, cut, multiplier) -> _Rates:
        n = len(self._weights)
        matrix = sum(
            (self._components[i].matrix for i in active), np.zeros((n, n))
        )
        base = self._weights
        if multiplier is not None:
            # Reweight actuation: scale each fiber's weight by its
            # switch's multiplier, renormalised per ribbon (rows stay
            # positive -- the controller floor is > 0).
            base = base * multiplier[self._assignment]
            sums = base.sum(axis=1, keepdims=True)
            base = base / np.where(sums > 0, sums, 1.0)
        cut_rate = 0.0
        if cut:
            base = base.copy()
            cut_weight = np.zeros(n)
            for i in cut:
                fiber = self._cuts[i]
                cut_weight[fiber.ribbon] += base[fiber.ribbon, fiber.fiber]
                base[fiber.ribbon, fiber.fiber] = 0.0
            cut_rate = float((matrix.sum(axis=1) * cut_weight).sum())
        shares = np.zeros((self._n_switches, n))
        np.add.at(shares, self._index, base.ravel())
        arrivals_all = shares[:, :, None] * matrix[None, :, :]
        offered = arrivals_all.sum(axis=(1, 2))
        arrivals = arrivals_all[self._live]
        return _Rates(
            matrix_total=matrix.sum(),
            cut_rate=cut_rate,
            offered=offered,
            failed_rate=float(offered[self._dead].sum()) if self._dead else 0.0,
            arrivals=arrivals,
            live_rate=arrivals.sum(axis=(1, 2)),
        )

    def gate(
        self, rates: _Rates, admit: Optional[np.ndarray], dead: Tuple[int, ...]
    ) -> _Gate:
        key = self._gate_key
        if (
            self._gate is None
            or rates is not key[0]
            or admit is not key[1]
            or dead != key[2]
        ):
            self._gate = self._build_gate(rates, admit, dead)
            self._gate_key = (rates, admit, dead)
        return self._gate

    def _build_gate(self, rates, admit, dead) -> _Gate:
        arrivals = rates.arrivals
        throttle = None
        if admit is not None:
            # Admission/mitigation actuation: throttle at ingress,
            # before loss-of-light gating -- throttled bytes are an
            # explicit drop, never a reduced offer.  At admit 1.0 the
            # throttle is the identity and is skipped.
            admit_live = admit[self._live]
            if (admit_live != 1.0).any():
                throttle = 1.0 - admit_live
                arrivals = arrivals * admit_live[:, None, None]
        dead_rates = []
        if dead:
            arrivals = arrivals.copy()
            for idx in dead:
                dead_rates.append((idx, arrivals[idx].sum()))
                arrivals[idx] = 0.0
        return _Gate(arrivals, throttle, tuple(dead_rates))


class _Totals:
    """The byte accumulators of one router run: rates times segment
    lengths, summed in segment order."""

    def __init__(
        self,
        n_switches: int,
        n_live: int,
        duration_ns: float,
        n_intervals: Optional[int],
    ) -> None:
        self.per_switch_offered = np.zeros(n_switches)
        self.live_offered = np.zeros(n_live)
        self.dropped_dead = np.zeros(n_live)
        self.dropped_throttled = np.zeros(n_live)
        self.failed_offered = 0.0
        self.fault_lost = 0.0
        self.n_intervals = n_intervals or 0
        self.width = duration_ns / n_intervals if n_intervals else None
        self.offered_bins = np.zeros(self.n_intervals)
        self.delivered_bins = np.zeros(self.n_intervals)

    def intervals(self) -> List[IntervalSample]:
        return [
            IntervalSample(
                start_ns=i * self.width,
                end_ns=(i + 1) * self.width,
                offered_bytes=int(round(self.offered_bins[i])),
                delivered_bytes=int(round(self.delivered_bins[i])),
            )
            for i in range(self.n_intervals)
        ]


class _ControlWindow:
    """The control hand-off: each switch's offered and delivered bytes
    summed over the open tick window, handed with the backlog to
    :meth:`~repro.control.loop.ControlLoop.tick` at every tick edge.
    The loop's actuators then apply to the following segments."""

    def __init__(
        self,
        loop,
        tick_ns: float,
        duration_ns: float,
        n_switches: int,
        live: Sequence[int],
        dead: Sequence[int],
        attack_windows: Optional[Sequence[Tuple[float, float]]],
    ) -> None:
        self.loop = loop
        self.tick_ns = tick_ns
        self.duration_ns = duration_ns
        self.next_tick = tick_ns
        self.n_switches = n_switches
        self._live = np.asarray(live, dtype=np.int64)
        self._dead = list(dead)
        self._spans = tuple(attack_windows) if attack_windows else ()
        #: The open window's sums and the dead-switch backlog buffer:
        #: the loop reads them as lists, so they are reset in place.
        self.offered = np.zeros(n_switches)
        self.delivered = np.zeros(n_switches)
        self._backlog = np.zeros(n_switches)

    def segment(
        self,
        t1: float,
        seg_offered: np.ndarray,
        offered_rates: np.ndarray,
        dt: float,
        tandem: _FluidTandem,
    ) -> None:
        """Fold a segment ending at ``t1``; tick if a tick edge is reached."""
        dead = self._dead
        if dead:
            self.offered[self._live] += seg_offered
            self.offered[dead] += offered_rates[dead] * dt
            self.delivered[self._live] += tandem.last_delivered
        else:
            self.offered += seg_offered
            self.delivered += tandem.last_delivered
        while self.next_tick < self.duration_ns - 1e-9 and t1 >= self.next_tick - 1e-9:
            t_ns = self.next_tick
            start = t_ns - self.tick_ns
            backlog = tandem.last_backlog
            if dead:
                backlog = self._backlog
                backlog[self._live] = tandem.last_backlog
            self.loop.tick(
                t_ns,
                self.offered,
                self.delivered,
                backlog,
                attack_active=any(s < t_ns and e > start for s, e in self._spans),
            )
            self.offered.fill(0.0)
            self.delivered.fill(0.0)
            self.next_tick += self.tick_ns


def _run_segments(
    edges: List[float],
    split: _SplitCache,
    faults: _Piecewise,
    tandem: _FluidTandem,
    totals: _Totals,
    loop,
    window: Optional[_ControlWindow],
    recorder: Optional[_WindowRecorder],
) -> None:
    """The segment loop: per segment, the cached split and fault state,
    one tandem step, the byte accounting and the control hand-off."""
    width = totals.width
    for t0, t1 in zip(edges[:-1], edges[1:]):
        dt = t1 - t0
        if dt <= 0:
            continue
        tm = 0.5 * (t0 + t1)
        rates = split.rates(tm, None if loop is None else loop.weight)
        totals.fault_lost += rates.cut_rate * dt
        totals.failed_offered += rates.failed_rate * dt
        totals.per_switch_offered += rates.offered * dt
        seg_offered = rates.live_rate * dt
        totals.live_offered += seg_offered
        service, dead = faults.at(tm)
        gate = split.gate(rates, None if loop is None else loop.admit, dead)
        if gate.throttle is not None:
            totals.dropped_throttled += seg_offered * gate.throttle
        for idx, rate in gate.dead_rates:
            totals.dropped_dead[idx] += rate * dt
        delivered = tandem.step(dt, gate.arrivals, service)
        if recorder is not None:
            recorder.segment(
                tm, seg_offered, tandem, totals.dropped_dead, totals.dropped_throttled
            )
        if width:
            index = min(int(tm / width), totals.n_intervals - 1)
            totals.offered_bins[index] += rates.matrix_total * dt
            totals.delivered_bins[index] += delivered
        if window is not None:
            window.segment(t1, seg_offered, rates.offered, dt, tandem)


def _router_result(
    config: RouterConfig,
    duration_ns: float,
    live: Sequence[int],
    dead: Sequence[int],
    totals: _Totals,
    tandem: _FluidTandem,
    schedule,
    mean_packet_bytes: float,
    loop,
    recorder: Optional[_WindowRecorder],
) -> FlowRouterResult:
    """Report assembly: per-switch reports, telemetry totals, intervals."""
    if loop is not None:
        loop.throttled_bytes = float(totals.dropped_throttled.sum())
        loop.finish(duration_ns)
    losses = [
        {
            "switch-dead": float(totals.dropped_dead[idx]),
            "backpressure-throttled": float(totals.dropped_throttled[idx]),
            "input-sram-overflow": float(tandem.dropped_sram[idx]),
            "hbm-full": float(tandem.dropped_hbm[idx]),
        }
        for idx in range(len(live))
    ]
    reports = [
        _switch_report(
            config.switch,
            duration_ns,
            float(totals.live_offered[idx]),
            float(tandem.delivered[idx]),
            losses[idx],
            float(tandem.queue_integral[idx]),
            float(tandem.peak_q1[idx]),
            float(tandem.peak_q2[idx]),
            mean_packet_bytes,
        )
        for idx in range(len(live))
    ]
    registry = None
    if recorder is not None:
        from ..telemetry import record_fault_loss

        registry = recorder.registry
        for idx, h in enumerate(live):
            recorder.totals(
                str(h), reports[idx].offered_bytes, reports[idx].delivered_bytes,
                losses[idx],
            )
        for h in dead:
            n_bytes = int(round(totals.per_switch_offered[h]))
            if n_bytes > 0:
                record_fault_loss(registry, "switch", str(h), n_bytes)
        if totals.fault_lost > 0:
            # The fluid split has no per-fiber byte attribution (cut
            # weight folds into one scalar per segment); record the
            # aggregate under the packet engine's counter name.
            record_fault_loss(
                registry, "fiber", "aggregate", int(round(totals.fault_lost))
            )
    report = RouterReport(
        switch_reports=reports,
        per_switch_offered_bytes=[int(round(v)) for v in totals.per_switch_offered],
        duration_ns=duration_ns,
        failed_switches=list(dead),
        failed_offered_bytes=int(round(totals.failed_offered)),
        fault_lost_bytes=int(round(totals.fault_lost)),
        fault_events=schedule.describe() if schedule is not None else [],
        telemetry=registry.to_dict() if registry is not None else None,
    )
    return FlowRouterResult(
        report=report,
        intervals=totals.intervals(),
        control=loop.summary() if loop is not None else None,
        control_actions=loop.log if loop is not None else None,
    )


def simulate_flow_router(
    config: RouterConfig,
    components: Sequence[RateComponent],
    duration_ns: float,
    drain: bool = True,
    weights: Optional[np.ndarray] = None,
    splitter: Optional[FiberSplitter] = None,
    schedule=None,
    n_intervals: Optional[int] = None,
    mean_packet_bytes: float = 1500.0,
    telemetry=None,
    control=None,
    attack_windows: Optional[Sequence[Tuple[float, float]]] = None,
) -> FlowRouterResult:
    """Fluid twin of :meth:`~repro.core.sps.SplitParallelSwitch.run`.

    ``components`` carry (n_ribbons, n_ribbons) matrices in bytes/ns.
    ``weights`` is the (n_ribbons, n_fibers) per-ribbon fiber weight
    array -- uniform 1/F by default (the fluid limit of both ECMP
    hashing and round-robin assignment); attack strategies supply their
    mixed weights.  ``splitter`` maps fibers to switches exactly as the
    packet engine's default (a seeded
    :class:`~repro.core.fiber_split.PseudoRandomSplitter`).

    With ``n_intervals`` the run also bins offered/delivered bytes per
    interval (delivered during the drain tail lands in the last
    interval, as in :func:`repro.faults.report.measure_degradation`).

    ``telemetry`` (a :class:`~repro.telemetry.MetricsRegistry`) closes
    the flow-fidelity observability gap: per-switch offered/delivered
    counters and per-reason loss counters, fault-loss attribution in the
    packet engine's shapes, and per-segment window series
    (:data:`FLOW_WINDOW_BYTES` / :data:`FLOW_WINDOW_QUEUE` /
    :data:`FLOW_WINDOW_DROPPED`).  The engine has no RNG and runs in one
    process, so instrumented dumps are byte-reproducible.

    ``control`` (a :class:`~repro.control.ControlConfig`) closes the
    loop: segment edges gain window-boundary ticks every ``tick_ns``,
    each tick folds the previous window's per-switch offered /
    delivered / backlog into the controllers, and the resulting
    actuators apply to the following segments -- the split weights are
    scaled per switch (and renormalised) by the reweight controller,
    and admission throttling removes ``1 - admit`` of each switch's
    post-split arrivals as explicit ``backpressure-throttled`` drops
    (offered bytes are *not* reduced: a throttled byte is an accounted
    loss, never a vanished offer).  ``attack_windows`` gates the
    mitigation controller, mirroring ``repro_attack_active_window``.

    Cost: fault state is computed once per interval between fault
    edges, the split once per change of the active components, the
    cut state or the control actuators, and each segment is one tandem
    step plus the byte accounting (``docs/flow_engine.md``, "Cost").
    """
    if duration_ns <= 0:
        raise ConfigError(f"duration must be positive, got {duration_ns}")
    n_ribbons = config.n_ribbons
    n_fibers = config.fibers_per_ribbon
    n_switches = config.n_switches
    n_ports = config.switch.n_ports
    if n_ports != n_ribbons:
        raise ConfigError(
            f"switch has {n_ports} ports but the router has {n_ribbons} "
            f"ribbons; the flow engine needs them equal (as the packet "
            f"engine implicitly does)"
        )
    if splitter is None:
        splitter = PseudoRandomSplitter(n_fibers, n_switches)
    if weights is None:
        weights = np.full((n_ribbons, n_fibers), 1.0 / n_fibers)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n_ribbons, n_fibers):
        raise ConfigError(
            f"weights shape {weights.shape} does not match "
            f"({n_ribbons}, {n_fibers})"
        )
    row_sums = weights.sum(axis=1, keepdims=True)
    weights = np.where(row_sums > 0, weights / np.where(row_sums > 0, row_sums, 1.0), 1.0 / n_fibers)
    if schedule is not None:
        schedule.validate(config)
        if schedule.is_empty:
            schedule = None

    dead = schedule.whole_run_dead_switches() if schedule is not None else []
    live = [h for h in range(n_switches) if h not in dead]
    split = _SplitCache(
        components,
        weights,
        np.stack([splitter.assignment_array(r) for r in range(n_ribbons)]),
        schedule.fiber_cuts if schedule is not None else (),
        n_switches,
        live,
        dead,
    )
    tandem = _FluidTandem(
        n_tandems=len(live),
        n_ports=n_ports,
        port_rate=rate_to_bytes_per_ns(config.switch.port_rate_bps),
        input_capacity=64.0 * n_ports * config.switch.batch_bytes,
        output_capacity=config.switch.memory_capacity_bytes / n_ports,
    )
    totals = _Totals(n_switches, len(live), duration_ns, n_intervals)

    extra_edges = _component_edges(components) + _schedule_edges(schedule)
    if totals.width:
        extra_edges.extend(totals.width * i for i in range(1, n_intervals))
    loop = window = None
    if control is not None:
        from ..control.loop import ControlLoop

        loop = ControlLoop(
            control,
            n_switches,
            buffer_limit_bytes(config.switch),
            telemetry=telemetry,
        )
        window = _ControlWindow(
            loop, control.tick_ns, duration_ns, n_switches, live, dead, attack_windows
        )
        n_ticks = int(math.ceil(duration_ns / control.tick_ns - 1e-9))
        extra_edges.extend(control.tick_ns * i for i in range(1, n_ticks))

    recorder = None
    if telemetry is not None:
        if schedule is not None:
            from ..telemetry import tag_fault_windows

            tag_fault_windows(telemetry, schedule)
        recorder = _WindowRecorder(telemetry, [str(h) for h in live])

    faults = _fault_table(schedule, live, config)
    _run_segments(
        _segments(duration_ns, extra_edges),
        split, faults, tandem, totals, loop, window, recorder,
    )
    if drain:
        def drained(delivered_bytes: float, t_mid: float) -> None:
            if totals.width:
                totals.delivered_bins[-1] += delivered_bytes
            if recorder is not None:
                recorder.drained(t_mid, tandem)

        _drain(
            tandem,
            duration_ns,
            lambda t: faults.at(t)[0],
            _schedule_edges(schedule),
            max(config.switch.batch_time_ns, 1.0),
            on_delivered=drained,
        )
    return _router_result(
        config, duration_ns, live, dead, totals, tandem, schedule,
        mean_packet_bytes, loop, recorder,
    )


def _uniform_components(
    config: RouterConfig, load: float, duration_ns: float
) -> List[RateComponent]:
    """One always-on uniform matrix at ``load`` of every ribbon's rate."""
    return [
        RateComponent(
            uniform_rate_matrix(
                config.n_ribbons,
                load,
                config.fibers_per_ribbon * config.per_fiber_rate_bps,
            ),
            ((0.0, duration_ns),),
        )
    ]


def flow_router_result(
    config: RouterConfig,
    load: float = 0.8,
    duration_ns: float = 50_000.0,
    drain: bool = True,
    schedule=None,
    mean_packet_bytes: float = 1500.0,
    telemetry=None,
    control=None,
) -> FlowRouterResult:
    """Uniform-load router run at flow fidelity (Scenario kind="router")."""
    return simulate_flow_router(
        config,
        _uniform_components(config, load, duration_ns),
        duration_ns=duration_ns,
        drain=drain,
        schedule=schedule,
        mean_packet_bytes=mean_packet_bytes,
        telemetry=telemetry,
        control=control,
    )


def flow_degradation(
    config: RouterConfig,
    schedule=None,
    load: float = 0.6,
    duration_ns: float = 40_000.0,
    n_intervals: int = 8,
    mean_packet_bytes: float = 1500.0,
    telemetry=None,
    control=None,
) -> DegradationReport:
    """Fluid twin of :func:`repro.faults.report.measure_degradation`."""
    return simulate_flow_router(
        config,
        _uniform_components(config, load, duration_ns),
        duration_ns=duration_ns,
        drain=True,
        schedule=schedule,
        n_intervals=n_intervals,
        mean_packet_bytes=mean_packet_bytes,
        telemetry=telemetry,
        control=control,
    ).degradation()
