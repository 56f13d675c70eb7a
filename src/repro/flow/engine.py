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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
    edges: List[float] = []
    if schedule is None:
        return edges
    for event in schedule:
        edges.append(event.start_ns)
        if math.isfinite(event.end_ns):
            edges.append(event.end_ns)
    return edges


def _segments(duration_ns: float, extra_edges: Sequence[float]) -> np.ndarray:
    """Sorted unique edges over ``[0, duration_ns]`` (both ends included)."""
    edges = [0.0, duration_ns]
    edges.extend(e for e in extra_edges if 0.0 < e < duration_ns)
    return np.unique(np.asarray(edges, dtype=np.float64))


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
        self.q1 = np.zeros((n_tandems, n_ports, n_ports))
        self.q2 = np.zeros((n_tandems, n_ports))
        self.delivered = np.zeros(n_tandems)
        self.dropped_sram = np.zeros(n_tandems)
        self.dropped_hbm = np.zeros(n_tandems)
        self.queue_integral = np.zeros(n_tandems)
        self.peak_q1 = np.zeros(n_tandems)
        self.peak_q2 = np.zeros(n_tandems)
        #: Per-tandem deliveries and backlog of the most recent step --
        #: the flow engine's per-segment telemetry reads these instead
        #: of re-deriving them from cumulative counters.
        self.last_delivered = np.zeros(n_tandems)
        self.last_backlog = np.zeros(n_tandems)

    def backlog(self) -> np.ndarray:
        return self.q1.sum(axis=(1, 2)) + self.q2.sum(axis=1)

    def step(self, dt: float, arrivals: np.ndarray, service: np.ndarray) -> float:
        """Advance every tandem by ``dt``.

        ``arrivals`` is the (L, N, N) byte-rate tensor already gated for
        dead windows; ``service`` the (L,) per-output egress rate.
        Returns the total bytes delivered this segment.
        """
        pre = self.backlog()
        avail = self.q1 + arrivals * dt
        row_total = avail.sum(axis=2)
        served1 = np.minimum(row_total, self.port_rate * dt)
        safe_rows = np.where(row_total > 0.0, row_total, 1.0)
        frac = np.where(row_total > 0.0, served1 / safe_rows, 0.0)
        moved = avail * frac[:, :, None]
        q1 = avail - moved
        # Input-SRAM tail drop: a row (one input port) over capacity
        # sheds its excess proportionally over its per-output queues.
        occupancy = q1.sum(axis=2)
        excess = np.maximum(occupancy - self.input_capacity, 0.0)
        safe_occ = np.where(occupancy > 0.0, occupancy, 1.0)
        keep = np.where(occupancy > 0.0, 1.0 - excess / safe_occ, 1.0)
        self.dropped_sram += excess.sum(axis=1)
        self.q1 = q1 * keep[:, :, None]
        inflow = moved.sum(axis=1)
        avail2 = self.q2 + inflow
        served2 = np.minimum(avail2, service[:, None] * dt)
        q2 = avail2 - served2
        over = np.maximum(q2 - self.output_capacity, 0.0)
        self.dropped_hbm += over.sum(axis=1)
        self.q2 = q2 - over
        segment_delivered = served2.sum(axis=1)
        self.delivered += segment_delivered
        self.last_delivered = segment_delivered
        post = self.backlog()
        self.last_backlog = post
        self.queue_integral += 0.5 * (pre + post) * dt
        self.peak_q1 = np.maximum(self.peak_q1, occupancy.max(axis=1, initial=0.0))
        self.peak_q2 = np.maximum(self.peak_q2, self.q2.sum(axis=1))
        return float(segment_delivered.sum())


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
    guard = 0
    limit = 8 * (len(edges) + 2) + 64
    while guard < limit:
        guard += 1
        backlog = tandem.backlog()
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
            totals = tandem.q2.sum(axis=1) + tandem.q1.sum(axis=(1, 2))
            strides.append((totals[active] / service[active]).max())
        dt = max(strides)
        if next_edge is not None:
            dt = min(dt, next_edge - t)
        if dt <= 0.0:
            dt = min_step
        delivered = tandem.step(dt, np.zeros_like(tandem.q1), service)
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
    win_offered = win_delivered = win_queue = None
    if telemetry is not None:
        win_offered = telemetry.timeseries(
            FLOW_WINDOW_BYTES, "flow bytes per window by crossing point",
            point="offered", switch="0",
        )
        win_delivered = telemetry.timeseries(
            FLOW_WINDOW_BYTES, "flow bytes per window by crossing point",
            point="delivered", switch="0",
        )
        win_queue = telemetry.timeseries(
            FLOW_WINDOW_QUEUE, "fluid backlog high-water per window",
            agg="max", switch="0",
        )
    offered = 0.0
    edges = _segments(duration_ns, _component_edges(components))
    for t0, t1 in zip(edges[:-1], edges[1:]):
        dt = float(t1 - t0)
        if dt <= 0:
            continue
        tm = 0.5 * (t0 + t1)
        matrix = sum(
            (c.matrix for c in components if c.active_at(tm)),
            np.zeros((n, n)),
        )
        offered += matrix.sum() * dt
        tandem.step(dt, matrix[None, :, :], service)
        if telemetry is not None:
            win_offered.observe(tm, float(matrix.sum()) * dt)
            win_delivered.observe(tm, float(tandem.last_delivered[0]))
            win_queue.observe(tm, float(tandem.last_backlog[0]))
    if drain:
        def drain_hook(delivered_bytes: float, t_mid: float) -> None:
            if telemetry is not None and delivered_bytes > 0.0:
                win_delivered.observe(t_mid, delivered_bytes)

        _drain(
            tandem,
            duration_ns,
            lambda t: service,
            (),
            max(config.batch_time_ns, 1.0),
            on_delivered=drain_hook,
        )
    if telemetry is not None:
        telemetry.counter(
            FLOW_BYTES, "flow bytes by crossing point",
            point="offered", switch="0",
        ).inc(int(round(offered)))
        telemetry.counter(
            FLOW_BYTES, "flow bytes by crossing point",
            point="delivered", switch="0",
        ).inc(int(round(float(tandem.delivered[0]))))
        losses = {
            "input-sram-overflow": float(tandem.dropped_sram[0]),
            "hbm-full": float(tandem.dropped_hbm[0]),
        }
        for reason in sorted(losses):
            n_bytes = int(round(losses[reason]))
            if n_bytes > 0:
                telemetry.counter(
                    FLOW_LOST, "flow dropped bytes by reason",
                    reason=reason, switch="0",
                ).inc(n_bytes)
    return _switch_report(
        config,
        duration_ns,
        offered,
        float(tandem.delivered[0]),
        {
            "input-sram-overflow": float(tandem.dropped_sram[0]),
            "hbm-full": float(tandem.dropped_hbm[0]),
        },
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


def buffer_limit_bytes(switch_config: HBMSwitchConfig) -> float:
    """The per-switch buffer ceiling the admission controller guards:
    total input-SRAM capacity (the fluid tandem's per-row cap times the
    N rows) plus the switch's HBM share -- the same limits the tandem
    enforces."""
    n = switch_config.n_ports
    return 64.0 * n * n * switch_config.batch_bytes + float(
        switch_config.memory_capacity_bytes
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
    interval, as in :func:`repro.faults.report.bin_packets`).

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

    assignment = np.stack(
        [splitter.assignment_array(r) for r in range(n_ribbons)]
    )
    assignment_flat = assignment.ravel()
    ribbon_index_flat = np.repeat(np.arange(n_ribbons), n_fibers)

    dead = set(schedule.whole_run_dead_switches()) if schedule is not None else set()
    live = [h for h in range(n_switches) if h not in dead]
    views = {
        h: schedule.switch_view(h, config.switch.total_channels)
        if schedule is not None
        else None
        for h in live
    }
    cuts = list(schedule.fiber_cuts) if schedule is not None else []

    port_rate = rate_to_bytes_per_ns(config.switch.port_rate_bps)
    speedup = config.switch.speedup
    tandem = _FluidTandem(
        n_tandems=len(live),
        n_ports=n_ports,
        port_rate=port_rate,
        input_capacity=64.0 * n_ports * config.switch.batch_bytes,
        output_capacity=config.switch.memory_capacity_bytes / n_ports,
    )

    def service_at(t_ns: float) -> np.ndarray:
        rates = np.empty(len(live))
        for idx, h in enumerate(live):
            view = views[h]
            if view is None:
                factor = min(1.0, speedup)
            else:
                factor = min(
                    view.oeo_rate_factor(t_ns),
                    speedup * view.channel_fraction(t_ns),
                    1.0,
                )
            rates[idx] = port_rate * max(factor, 0.0)
        return rates

    def shares_at(t_ns: float, base: np.ndarray) -> Tuple[np.ndarray, float]:
        """(n_switches, n_ribbons) weight shares + the cut weight rate
        multiplier per ribbon folded into a scalar-ready vector."""
        if cuts:
            effective = base.copy()
            cut_weight = np.zeros(n_ribbons)
            for cut in cuts:
                if cut.active_at(t_ns):
                    cut_weight[cut.ribbon] += effective[cut.ribbon, cut.fiber]
                    effective[cut.ribbon, cut.fiber] = 0.0
        else:
            effective = base
            cut_weight = None
        shares = np.zeros((n_switches, n_ribbons))
        np.add.at(
            shares, (assignment_flat, ribbon_index_flat), effective.ravel()
        )
        return shares, cut_weight

    loop = None
    if control is not None:
        from ..control.loop import ControlLoop

        loop = ControlLoop(
            control,
            n_switches,
            buffer_limit_bytes(config.switch),
            telemetry=telemetry,
        )

    static_shares = None
    if not cuts and loop is None:
        static_shares, _ = shares_at(0.0, weights)

    per_switch_offered = np.zeros(n_switches)
    live_offered = np.zeros(len(live))
    dropped_dead = np.zeros(len(live))
    dropped_throttled = np.zeros(len(live))
    failed_offered = 0.0
    fault_lost = 0.0

    width = duration_ns / n_intervals if n_intervals else None
    offered_bins = np.zeros(n_intervals) if n_intervals else None
    delivered_bins = np.zeros(n_intervals) if n_intervals else None

    extra_edges = _component_edges(components) + _schedule_edges(schedule)
    if width:
        extra_edges.extend(width * i for i in range(1, n_intervals))
    if loop is not None:
        tick_ns = control.tick_ns
        n_ticks = int(math.ceil(duration_ns / tick_ns - 1e-9))
        extra_edges.extend(tick_ns * i for i in range(1, n_ticks))
        next_tick = tick_ns
        tick_offered = np.zeros(n_switches)
        tick_delivered = np.zeros(n_switches)
        attack_spans = tuple(attack_windows) if attack_windows else ()

        def attack_active_in(start: float, end: float) -> bool:
            return any(s < end and e > start for s, e in attack_spans)

    edges = _segments(duration_ns, extra_edges)

    win_offered = win_delivered = win_queue = win_dropped = None
    if telemetry is not None:
        if schedule is not None:
            from ..telemetry import tag_fault_windows

            tag_fault_windows(telemetry, schedule)
        win_offered = [
            telemetry.timeseries(
                FLOW_WINDOW_BYTES, "flow bytes per window by crossing point",
                point="offered", switch=str(h),
            )
            for h in live
        ]
        win_delivered = [
            telemetry.timeseries(
                FLOW_WINDOW_BYTES, "flow bytes per window by crossing point",
                point="delivered", switch=str(h),
            )
            for h in live
        ]
        win_queue = [
            telemetry.timeseries(
                FLOW_WINDOW_QUEUE, "fluid backlog high-water per window",
                agg="max", switch=str(h),
            )
            for h in live
        ]
        win_dropped = [
            telemetry.timeseries(
                FLOW_WINDOW_DROPPED, "flow dropped bytes per window", switch=str(h)
            )
            for h in live
        ]

    live_array = np.asarray(live, dtype=np.int64)
    for t0, t1 in zip(edges[:-1], edges[1:]):
        dt = float(t1 - t0)
        if dt <= 0:
            continue
        tm = 0.5 * (t0 + t1)
        matrix = sum(
            (c.matrix for c in components if c.active_at(tm)),
            np.zeros((n_ribbons, n_ribbons)),
        )
        row_rates = matrix.sum(axis=1)
        if loop is None:
            base_weights = weights
        else:
            # Reweight actuation: scale each fiber's weight by its
            # switch's multiplier, renormalised per ribbon (rows stay
            # positive -- the controller floor is > 0).
            base_weights = weights * loop.weight[assignment]
            base_sums = base_weights.sum(axis=1, keepdims=True)
            base_weights = base_weights / np.where(base_sums > 0, base_sums, 1.0)
        if cuts:
            shares, cut_weight = shares_at(tm, base_weights)
            fault_lost += float((row_rates * cut_weight).sum()) * dt
        elif static_shares is not None:
            shares = static_shares
        else:
            shares, _ = shares_at(tm, base_weights)
        arrivals_all = shares[:, :, None] * matrix[None, :, :]
        offered_now = arrivals_all.sum(axis=(1, 2))
        per_switch_offered += offered_now * dt
        if dead:
            failed_offered += float(offered_now[sorted(dead)].sum()) * dt
        arrivals = arrivals_all[live_array]
        seg_offered = arrivals.sum(axis=(1, 2)) * dt
        live_offered += seg_offered
        if telemetry is not None:
            drops_before = tandem.dropped_sram + tandem.dropped_hbm
            dead_before = dropped_dead.copy()
            throttled_before = dropped_throttled.copy()
        if loop is not None:
            # Admission/mitigation actuation: throttle at ingress,
            # before loss-of-light gating -- throttled bytes are an
            # explicit drop, never a reduced offer.
            admit_live = loop.admit[live_array]
            dropped_throttled += seg_offered * (1.0 - admit_live)
            arrivals = arrivals * admit_live[:, None, None]
        if schedule is not None:
            for idx, h in enumerate(live):
                view = views[h]
                if view is not None and view.dead_at(tm):
                    dropped_dead[idx] += arrivals[idx].sum() * dt
                    arrivals[idx] = 0.0
        segment_delivered = tandem.step(dt, arrivals, service_at(tm))
        if telemetry is not None:
            seg_dropped = (
                tandem.dropped_sram + tandem.dropped_hbm - drops_before
                + dropped_dead - dead_before
                + dropped_throttled - throttled_before
            )
            for idx in range(len(live)):
                win_offered[idx].observe(tm, float(seg_offered[idx]))
                win_delivered[idx].observe(tm, float(tandem.last_delivered[idx]))
                win_queue[idx].observe(tm, float(tandem.last_backlog[idx]))
                if seg_dropped[idx] > 0.0:
                    win_dropped[idx].observe(tm, float(seg_dropped[idx]))
        if width:
            bin_index = min(int(tm / width), n_intervals - 1)
            offered_bins[bin_index] += matrix.sum() * dt
            delivered_bins[bin_index] += segment_delivered
        if loop is not None:
            tick_offered[live_array] += seg_offered
            if dead:
                tick_offered[sorted(dead)] += offered_now[sorted(dead)] * dt
            tick_delivered[live_array] += tandem.last_delivered
            while next_tick < duration_ns - 1e-9 and t1 >= next_tick - 1e-9:
                backlog_full = np.zeros(n_switches)
                backlog_full[live_array] = tandem.last_backlog
                loop.tick(
                    next_tick,
                    tick_offered,
                    tick_delivered,
                    backlog_full,
                    attack_active=attack_active_in(
                        next_tick - tick_ns, next_tick
                    ),
                )
                tick_offered = np.zeros(n_switches)
                tick_delivered = np.zeros(n_switches)
                next_tick += tick_ns

    if drain:
        def drain_hook(delivered_bytes: float, t_mid: float) -> None:
            if width:
                delivered_bins[-1] += delivered_bytes
            if telemetry is not None:
                for idx in range(len(live)):
                    if tandem.last_delivered[idx] > 0.0:
                        win_delivered[idx].observe(
                            t_mid, float(tandem.last_delivered[idx])
                        )
                    win_queue[idx].observe(t_mid, float(tandem.last_backlog[idx]))

        _drain(
            tandem,
            duration_ns,
            service_at,
            _schedule_edges(schedule),
            max(config.switch.batch_time_ns, 1.0),
            on_delivered=drain_hook,
        )

    if loop is not None:
        loop.throttled_bytes = float(dropped_throttled.sum())
        loop.finish(duration_ns)

    reports = [
        _switch_report(
            config.switch,
            duration_ns,
            float(live_offered[idx]),
            float(tandem.delivered[idx]),
            {
                "switch-dead": float(dropped_dead[idx]),
                "backpressure-throttled": float(dropped_throttled[idx]),
                "input-sram-overflow": float(tandem.dropped_sram[idx]),
                "hbm-full": float(tandem.dropped_hbm[idx]),
            },
            float(tandem.queue_integral[idx]),
            float(tandem.peak_q1[idx]),
            float(tandem.peak_q2[idx]),
            mean_packet_bytes,
        )
        for idx in range(len(live))
    ]
    if telemetry is not None:
        from ..telemetry import record_fault_loss

        for idx, h in enumerate(live):
            label = str(h)
            telemetry.counter(
                FLOW_BYTES, "flow bytes by crossing point",
                point="offered", switch=label,
            ).inc(reports[idx].offered_bytes)
            telemetry.counter(
                FLOW_BYTES, "flow bytes by crossing point",
                point="delivered", switch=label,
            ).inc(reports[idx].delivered_bytes)
            losses = {
                "switch-dead": dropped_dead[idx],
                "backpressure-throttled": dropped_throttled[idx],
                "input-sram-overflow": tandem.dropped_sram[idx],
                "hbm-full": tandem.dropped_hbm[idx],
            }
            for reason in sorted(losses):
                n_bytes = int(round(losses[reason]))
                if n_bytes > 0:
                    telemetry.counter(
                        FLOW_LOST, "flow dropped bytes by reason",
                        reason=reason, switch=label,
                    ).inc(n_bytes)
        for h in sorted(dead):
            n_bytes = int(round(per_switch_offered[h]))
            if n_bytes > 0:
                record_fault_loss(telemetry, "switch", str(h), n_bytes)
        if fault_lost > 0:
            # The fluid split has no per-fiber byte attribution (cut
            # weight folds into one scalar per segment); record the
            # aggregate under the packet engine's counter name.
            record_fault_loss(
                telemetry, "fiber", "aggregate", int(round(fault_lost))
            )
    report = RouterReport(
        switch_reports=reports,
        per_switch_offered_bytes=[int(round(v)) for v in per_switch_offered],
        duration_ns=duration_ns,
        failed_switches=sorted(dead),
        failed_offered_bytes=int(round(failed_offered)),
        fault_lost_bytes=int(round(fault_lost)),
        fault_events=schedule.describe() if schedule is not None else [],
        telemetry=telemetry.to_dict() if telemetry is not None else None,
    )
    intervals: List[IntervalSample] = []
    if n_intervals:
        intervals = [
            IntervalSample(
                start_ns=i * width,
                end_ns=(i + 1) * width,
                offered_bytes=int(round(offered_bins[i])),
                delivered_bytes=int(round(delivered_bins[i])),
            )
            for i in range(n_intervals)
        ]
    return FlowRouterResult(
        report=report,
        intervals=intervals,
        control=loop.summary() if loop is not None else None,
        control_actions=loop.log if loop is not None else None,
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
    result = simulate_flow_router(
        config,
        _uniform_components(config, load, duration_ns),
        duration_ns=duration_ns,
        drain=True,
        schedule=schedule,
        n_intervals=n_intervals,
        mean_packet_bytes=mean_packet_bytes,
        telemetry=telemetry,
        control=control,
    )
    report = result.report
    return DegradationReport(
        duration_ns=duration_ns,
        intervals=result.intervals,
        offered_bytes=report.offered_bytes,
        delivered_bytes=report.delivered_bytes,
        lost_bytes=report.lost_bytes,
        residual_bytes=report.residual_bytes,
        failed_switches=list(report.failed_switches),
        fault_events=list(report.fault_events),
        control=result.control,
    )
