"""Fabric execution: multi-hop composition over the per-package engines.

One fabric cell = one topology + one routing policy + one demand
pattern, executed as a sequence of *hop rounds*:

1. Every endpoint flow is expanded into its weighted path set
   (:mod:`repro.fabric.routing`); each path starts with its share of
   the flow's offered rate.
2. At hop round ``k``, every path currently alive contributes its rate
   to the transit load of the k-th router on its sequence.  Each loaded
   router is run **through the existing single-package engine** at that
   load -- the discrete-event pipeline for ``fidelity="packet"``
   (seeded traffic through :class:`~repro.core.sps.SplitParallelSwitch`)
   or the fluid engine for ``fidelity="flow"``
   (:func:`~repro.flow.flow_router_result`) -- and the run's delivered
   fraction multiplies the rates of every path transiting it.  Runs
   with identical (load, fault) signatures are executed once and shared
   (the per-router engine is used as a rate-transfer function, so
   sharing is exact and keeps packet-fidelity fabrics tractable).
3. Between rounds, each surviving path crosses the link to its next
   router: the link's offered rate accumulates against a run-wide
   capacity budget (a directed link crossed at several hop rounds is
   one shared resource, so total delivered through it never exceeds
   its capacity), an offered/capacity excess is shed proportionally, an
   active :class:`~repro.faults.LinkCut` sheds its time fraction and
   the covered share of the budget, and propagation delay (plus the
   rotation slot wait for rotation fabrics) adds to the path's latency.

Fabric-scoped faults: a :class:`~repro.faults.RouterDown` window maps
to a :class:`~repro.faults.SwitchFailure` over every one of the node's
H switches inside that node's engine runs -- so down windows cost
exactly what the single-package engines compute -- and a ``LinkCut``
removes the cut link's traffic for the fraction of the run it covers.

Transit loads above a router's line rate are handled analytically: the
engine runs at the admissible clamp and the excess ``min(1, 1/rho)`` is
shed before the run (the package cannot accept more than line rate).

Telemetry (both fidelities): each engine run's registry dump is
re-labelled with the ``router=`` dimension and merged in (round,
router) order, so fabric dumps obey the same disjoint-series,
deterministic-merge rules as per-switch telemetry.  On top of the
merged per-node dumps the fabric synthesizes one utilization window
series per loaded link (``repro_fabric_link_window_utilization``,
``link="A:B"``) from its analytic hop model -- windows a ``LinkCut``
covers dip by the cut share -- and tags every fabric fault window.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import RouterConfig
from ..errors import ConfigError
from ..faults.model import FABRIC_FAULT_TYPES, LinkCut, RouterDown, SwitchFailure
from ..faults.schedule import FaultSchedule
from .report import FabricReport, FlowSummary, LinkSummary, RouterSummary
from .routing import compute_paths
from .topology import FabricTopology, RotationTopology

#: Demand patterns over the endpoint set.  ``uniform`` spreads each
#: source's load evenly; ``hotspot`` aims :data:`HOTSPOT_SHARE` of it at
#: the source's antipodal partner (endpoint index + E/2 mod E) -- the
#: skewed near-permutation matrix that concentrates direct routes on few
#: links while the fabric keeps spare disjoint capacity, i.e. the case
#: Valiant load balancing exists for.
TRAFFIC_PATTERNS = ("uniform", "hotspot")

#: The engines every cell can run on: ``"packet"`` (discrete events)
#: or ``"flow"`` (the fluid engine of :mod:`repro.flow`).
FIDELITIES = ("packet", "flow")

#: Share of each source's offered load aimed at its hot partner under
#: the ``hotspot`` pattern (the rest spreads uniformly).
HOTSPOT_SHARE = 0.5

#: Per-link utilization timeline (windowed series, ``link="A:B"``).
LINK_WINDOW_UTILIZATION = "repro_fabric_link_window_utilization"


def validate_fabric_schedule(
    schedule: Optional[FaultSchedule], topology: FabricTopology
) -> None:
    """Check a fabric schedule against a topology.

    Fabric cells accept only fabric-scoped events (``RouterDown``,
    ``LinkCut``): package-internal faults are ambiguous at fabric scope
    (which node?), so they are rejected rather than guessed at.
    """
    if schedule is None:
        return
    for event in schedule:
        if not isinstance(event, FABRIC_FAULT_TYPES):
            raise ConfigError(
                f"fabric scenarios take fabric-scoped faults only "
                f"(router:R / link:U:V), got {event.describe()}"
            )
        if isinstance(event, RouterDown):
            if not 0 <= event.router < topology.n_routers:
                raise ConfigError(
                    f"fault targets router {event.router}, fabric has "
                    f"{topology.n_routers}"
                )
        elif isinstance(event, LinkCut):
            if not topology.has_link(event.a, event.b):
                raise ConfigError(
                    f"fault cuts link {event.a}--{event.b}, which the "
                    f"{type(topology).__name__} does not contain"
                )


def _covered_ns(events, t0: float, t1: float) -> float:
    """Length of [t0, t1) covered by the union of event windows."""
    clipped = sorted(
        (max(t0, e.start_ns), min(t1, e.end_ns))
        for e in events
        if e.start_ns < t1 and e.end_ns > t0
    )
    covered = 0.0
    cursor = t0
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def _window_fraction(events, duration_ns: float) -> float:
    """Fraction of [0, duration) covered by the union of event windows."""
    if duration_ns <= 0:
        return 0.0
    return _covered_ns(events, 0.0, duration_ns) / duration_ns


def _link_timelines(
    registry,
    topology: FabricTopology,
    link_offered: Dict[Tuple[int, int], float],
    cut_events: Dict[Tuple[int, int], List[LinkCut]],
    line_rate: float,
    duration_ns: float,
) -> None:
    """Synthesize per-link utilization window series from the hop model.

    The hop-round engine is analytic in time -- each link carries one
    run-total offered rate -- so its timeline is reconstructed: every
    window of an uncut link sits at ``offered / capacity``, and a window
    a :class:`~repro.faults.LinkCut` overlaps is scaled by the uncut
    share of that window, so cut windows show up as dips (to zero when
    the cut covers the whole window).
    """
    from ..telemetry.timeseries import DEFAULT_WINDOW_NS

    window_ns = max(DEFAULT_WINDOW_NS, duration_ns / 64.0)
    n_windows = max(1, int(math.ceil(duration_ns / window_ns - 1e-9)))
    for (u, v) in topology.links():
        offered = link_offered.get((u, v), 0.0)
        if offered <= 0:
            continue
        capacity = line_rate * topology.link_capacity_fraction(u, v)
        level = offered / capacity if capacity > 0 else 0.0
        cuts = cut_events.get((min(u, v), max(u, v)), ())
        series = registry.timeseries(
            LINK_WINDOW_UTILIZATION,
            "link utilization per window (cut windows dip)",
            window_ns=window_ns,
            agg="max",
            link=f"{u}:{v}",
        )
        for w in range(n_windows):
            w0 = w * window_ns
            w1 = min(w0 + window_ns, duration_ns)
            uncut = 1.0 - (
                _covered_ns(cuts, w0, w1) / (w1 - w0) if w1 > w0 else 0.0
            )
            series.observe(w0, level * uncut)


def _demand_matrix(
    endpoints: Tuple[int, ...], load: float, line_rate_bps: float, pattern: str
) -> Dict[Tuple[int, int], float]:
    """Offered rate (bps) per (src, dst) endpoint pair."""
    n = len(endpoints)
    if n < 2:
        raise ConfigError(f"a fabric needs >= 2 endpoints, got {n}")
    total = load * line_rate_bps
    demand: Dict[Tuple[int, int], float] = {}
    if pattern == "uniform":
        share = total / (n - 1)
        for src in endpoints:
            for dst in endpoints:
                if src != dst:
                    demand[(src, dst)] = share
        return demand
    # hotspot: each source aims HOTSPOT_SHARE of its load at its
    # antipodal partner and spreads the rest uniformly.
    for i, src in enumerate(endpoints):
        hot = endpoints[(i + n // 2) % n]
        if hot == src:  # odd n=1 cannot happen (n >= 2 checked above)
            hot = endpoints[(i + 1) % n]
        cold = [d for d in endpoints if d not in (src, hot)]
        if not cold:
            demand[(src, hot)] = total
            continue
        demand[(src, hot)] = total * HOTSPOT_SHARE
        for dst in cold:
            demand[(src, dst)] = total * (1.0 - HOTSPOT_SHARE) / len(cold)
    return demand


class _RouterRuns:
    """Memoised per-router engine runs keyed by (load, fault signature).

    The engines are deterministic functions of (config, load, schedule,
    seed); identical signatures share one run *and one derived seed*,
    so the per-router transfer function is evaluated once per distinct
    signature -- on symmetric fabrics a whole hop round collapses to a
    single engine run.
    """

    def __init__(
        self,
        config: RouterConfig,
        duration_ns: float,
        seed: int,
        fidelity: str,
        drain: bool,
        want_telemetry: bool,
    ) -> None:
        self.config = config
        self.duration_ns = duration_ns
        self.seed = seed
        self.fidelity = fidelity
        self.drain = drain
        self.want_telemetry = want_telemetry
        self._memo: Dict[Tuple, Tuple[float, float, Optional[dict]]] = {}

    def run(
        self, eff_load: float, schedule: Optional[FaultSchedule]
    ) -> Tuple[float, float, Optional[dict]]:
        """-> (delivered_fraction, mean_latency_ns, telemetry dump)."""
        fault_key = (
            tuple(e.describe() for e in schedule) if schedule is not None else ()
        )
        key = (round(eff_load, 12), fault_key)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        derived_seed = int(
            np.random.SeedSequence(
                (self.seed, len(self._memo))
            ).generate_state(1, np.uint32)[0]
        )
        if self.fidelity == "flow":
            result = self._run_flow(eff_load, schedule)
        else:
            result = self._run_packet(eff_load, schedule, derived_seed)
        self._memo[key] = result
        return result

    def _run_flow(self, eff_load, schedule):
        from ..flow import flow_router_result

        registry = None
        if self.want_telemetry:
            from ..telemetry import MetricsRegistry

            registry = MetricsRegistry()
        report = flow_router_result(
            self.config,
            load=eff_load,
            duration_ns=self.duration_ns,
            drain=self.drain,
            schedule=schedule,
            telemetry=registry,
        ).report
        dump = registry.to_dict() if registry is not None else None
        return (
            report.delivered_fraction,
            _finite(report.latency_summary()["mean_ns"]),
            dump,
        )

    def _run_packet(self, eff_load, schedule, derived_seed):
        from ..core.pfi import PFIOptions
        from ..core.sps import SplitParallelSwitch
        from ..traffic import ArrivalProcess, ImixSize, TrafficGenerator, uniform_matrix

        generator = TrafficGenerator(
            n_ports=self.config.n_ribbons,
            port_rate_bps=(
                self.config.fibers_per_ribbon * self.config.per_fiber_rate_bps
            ),
            matrix=uniform_matrix(self.config.n_ribbons, eff_load),
            size_dist=ImixSize(),
            process=ArrivalProcess("poisson"),
            seed=derived_seed,
        )
        registry = None
        if self.want_telemetry:
            from ..telemetry import MetricsRegistry

            registry = MetricsRegistry()
        router = SplitParallelSwitch(self.config, options=PFIOptions())
        report = router.run_stream(
            generator.blocks(self.duration_ns),
            self.duration_ns,
            drain=self.drain,
            fault_schedule=schedule,
            telemetry=registry,
        )
        dump = registry.to_dict() if registry is not None else None
        return (
            report.delivered_fraction,
            _finite(report.latency_summary()["mean_ns"]),
            dump,
        )


def _finite(value: float) -> float:
    return 0.0 if value is None or math.isnan(value) else float(value)


def _relabel_router(dump: dict, router: int) -> dict:
    """A copy of a telemetry dump with ``router=`` added to every series."""
    relabeled = {
        "schema": dump["schema"],
        "metrics": [
            {**entry, "labels": {**entry.get("labels", {}), "router": str(router)}}
            for entry in dump["metrics"]
        ],
    }
    if dump.get("timeseries"):
        relabeled["timeseries"] = [
            {**entry, "labels": {**entry.get("labels", {}), "router": str(router)}}
            for entry in dump["timeseries"]
        ]
    return relabeled


def simulate_fabric(
    config: RouterConfig,
    topology: FabricTopology,
    routing: str = "direct",
    load: float = 0.6,
    duration_ns: float = 50_000.0,
    seed: int = 0,
    fidelity: str = "flow",
    schedule: Optional[FaultSchedule] = None,
    link_delay_ns: float = 0.0,
    pattern: str = "uniform",
    drain: bool = True,
    registry=None,
) -> FabricReport:
    """Run one fabric cell end to end; returns its :class:`FabricReport`.

    ``config`` is the per-node package (every router is identical);
    ``load`` is each endpoint's offered load as a fraction of its
    package line rate, spread over the other endpoints according to
    ``pattern``.  ``registry`` receives the merged, ``router=``-labelled
    telemetry of every engine run (either fidelity) plus the fabric's
    own per-link utilization timelines; its dump also rides on the
    returned report's ``telemetry`` field.
    """
    if not 0.0 <= load <= 1.0:
        raise ConfigError(f"load must be in [0, 1], got {load}")
    if duration_ns <= 0:
        raise ConfigError(f"duration_ns must be positive, got {duration_ns}")
    if fidelity not in FIDELITIES:
        raise ConfigError(f"fidelity must be one of {FIDELITIES}, got {fidelity!r}")
    if pattern not in TRAFFIC_PATTERNS:
        raise ConfigError(
            f"pattern must be one of {TRAFFIC_PATTERNS}, got {pattern!r}"
        )
    if link_delay_ns < 0:
        raise ConfigError(f"link_delay_ns must be >= 0, got {link_delay_ns}")
    if not topology.is_connected():
        raise ConfigError(f"{type(topology).__name__} is not connected")
    validate_fabric_schedule(schedule, topology)

    line_rate = config.io_per_direction_bps
    endpoints = topology.endpoints()
    demand = _demand_matrix(endpoints, load, line_rate, pattern)

    # Fabric fault projections: per-router down windows (as per-switch
    # failures for the engines) and per-link cut time fractions.
    down_events: Dict[int, List[RouterDown]] = {}
    cut_events: Dict[Tuple[int, int], List[LinkCut]] = {}
    if schedule is not None:
        for event in schedule:
            if isinstance(event, RouterDown):
                down_events.setdefault(event.router, []).append(event)
            else:
                cut_events.setdefault((event.a, event.b), []).append(event)
    router_schedules: Dict[int, Optional[FaultSchedule]] = {}
    down_fraction: Dict[int, float] = {}
    for router, events in down_events.items():
        router_schedules[router] = FaultSchedule(
            SwitchFailure(switch=h, start_ns=e.start_ns, end_ns=e.end_ns)
            for e in events
            for h in range(config.n_switches)
        )
        down_fraction[router] = _window_fraction(events, duration_ns)
    cut_fraction = {
        link: _window_fraction(events, duration_ns)
        for link, events in cut_events.items()
    }

    # Expand every flow into weighted paths carrying absolute rates.
    flow_paths: List[Tuple[Tuple[int, int], Tuple[int, ...], float]] = []
    for (src, dst) in sorted(demand):
        for path in compute_paths(topology, src, dst, routing):
            flow_paths.append(
                ((src, dst), path.routers, demand[(src, dst)] * path.weight)
            )
    rates = [rate for _, _, rate in flow_paths]
    latencies = [0.0] * len(flow_paths)
    max_visits = max(len(routers) for _, routers, _ in flow_paths)

    runs = _RouterRuns(
        config,
        duration_ns,
        seed,
        fidelity,
        drain,
        want_telemetry=registry is not None,
    )
    rotation_wait = (
        topology.mean_slot_wait_ns()
        if isinstance(topology, RotationTopology)
        else 0.0
    )

    router_offered: Dict[int, float] = {}
    router_delivered: Dict[int, float] = {}
    link_offered: Dict[Tuple[int, int], float] = {}
    link_remaining: Dict[Tuple[int, int], float] = {}
    telemetry_merges: List[Tuple[int, dict]] = []

    for k in range(max_visits):
        # -- router stage: aggregate transit loads, run each loaded node.
        loads: Dict[int, float] = {}
        for i, (_, routers, _) in enumerate(flow_paths):
            if len(routers) > k and rates[i] > 0:
                loads[routers[k]] = loads.get(routers[k], 0.0) + rates[i]
        factors: Dict[int, float] = {}
        mean_lat: Dict[int, float] = {}
        for router in sorted(loads):
            rho = loads[router] / line_rate
            eff_load = min(rho, 1.0)
            overload = min(1.0, 1.0 / rho) if rho > 0 else 1.0
            delivered, latency_ns, dump = runs.run(
                eff_load, router_schedules.get(router)
            )
            factors[router] = delivered * overload
            mean_lat[router] = latency_ns
            router_offered[router] = router_offered.get(router, 0.0) + loads[router]
            router_delivered[router] = (
                router_delivered.get(router, 0.0)
                + loads[router] * factors[router]
            )
            if dump is not None:
                telemetry_merges.append((router, dump))
        for i, (_, routers, _) in enumerate(flow_paths):
            if len(routers) > k and rates[i] > 0:
                rates[i] *= factors[routers[k]]
                latencies[i] += mean_lat[routers[k]]
        # -- link stage: paths cross to their (k+1)-th router.
        crossing: Dict[Tuple[int, int], float] = {}
        for i, (_, routers, _) in enumerate(flow_paths):
            if len(routers) > k + 1 and rates[i] > 0:
                link = (routers[k], routers[k + 1])
                crossing[link] = crossing.get(link, 0.0) + rates[i]
        link_factors: Dict[Tuple[int, int], float] = {}
        for link in sorted(crossing):
            u, v = link
            cut = 1.0 - cut_fraction.get((min(u, v), max(u, v)), 0.0)
            if link not in link_remaining:
                # The run-wide budget: capacity scaled by the uncut
                # share of the run, drawn down by every crossing.
                link_remaining[link] = (
                    line_rate * topology.link_capacity_fraction(u, v) * cut
                )
            surviving = crossing[link] * cut
            congestion = (
                min(1.0, link_remaining[link] / surviving)
                if surviving > 0
                else 1.0
            )
            link_factors[link] = cut * congestion
            link_remaining[link] -= surviving * congestion
            link_offered[link] = link_offered.get(link, 0.0) + crossing[link]
        for i, (_, routers, _) in enumerate(flow_paths):
            if len(routers) > k + 1 and rates[i] > 0:
                rates[i] *= link_factors[(routers[k], routers[k + 1])]
                latencies[i] += link_delay_ns + rotation_wait

    if registry is not None:
        for router, dump in telemetry_merges:
            registry.merge_dict(_relabel_router(dump, router))
        _link_timelines(
            registry, topology, link_offered, cut_events, line_rate, duration_ns
        )
        if schedule is not None:
            from ..telemetry import tag_fault_windows

            tag_fault_windows(registry, schedule)

    # -- roll up per-flow, per-link and per-router summaries.
    flows: List[FlowSummary] = []
    for (src, dst) in sorted(demand):
        indices = [i for i, (pair, _, _) in enumerate(flow_paths) if pair == (src, dst)]
        offered = demand[(src, dst)]
        delivered = sum(rates[i] for i in indices)
        original = [flow_paths[i][2] for i in indices]
        mean_hops = (
            sum(len(flow_paths[i][1]) * flow_paths[i][2] for i in indices)
            / sum(original)
        )
        if delivered > 0:
            latency = (
                sum(latencies[i] * rates[i] for i in indices) / delivered
            )
        else:
            latency = 0.0
        flows.append(
            FlowSummary(
                src=src,
                dst=dst,
                offered_bps=offered,
                delivered_fraction=delivered / offered if offered > 0 else 0.0,
                mean_hops=mean_hops,
                mean_latency_ns=latency,
            )
        )
    links = [
        LinkSummary(
            src=u,
            dst=v,
            capacity_bps=line_rate * topology.link_capacity_fraction(u, v),
            offered_bps=link_offered.get((u, v), 0.0),
            utilization=(
                link_offered.get((u, v), 0.0)
                / (line_rate * topology.link_capacity_fraction(u, v))
            ),
            cut_fraction=cut_fraction.get((min(u, v), max(u, v)), 0.0),
        )
        for (u, v) in topology.links()
    ]
    routers = [
        RouterSummary(
            router=r,
            offered_bps=router_offered.get(r, 0.0),
            delivered_fraction=(
                router_delivered.get(r, 0.0) / router_offered[r]
                if router_offered.get(r, 0.0) > 0
                else 1.0
            ),
            down_fraction=down_fraction.get(r, 0.0),
        )
        for r in range(topology.n_routers)
    ]
    return FabricReport(
        topology=topology.describe(),
        routing=routing,
        fidelity=fidelity,
        duration_ns=duration_ns,
        n_routers=topology.n_routers,
        flows=flows,
        links=links,
        routers=routers,
        fault_events=list(schedule.describe()) if schedule is not None else [],
        telemetry=registry.to_dict() if registry is not None else None,
    )
