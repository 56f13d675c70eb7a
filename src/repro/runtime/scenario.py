"""Declarative scenarios: one hashable description of one experiment cell.

A :class:`Scenario` composes the full experiment space every workload
family in the repro draws from -- a validated config
(:class:`~repro.config.RouterConfig` or
:class:`~repro.config.HBMSwitchConfig`), a traffic or attack workload, an
optional :class:`~repro.faults.FaultSchedule`, a telemetry switch and
execution hints -- into one frozen, picklable value.  The runtime
(:mod:`repro.runtime.runtime`) executes scenarios through a single
shared scheduler; the cache (:mod:`repro.runtime.cache`) addresses
results by :meth:`Scenario.digest`.

Digest semantics
----------------

``digest()`` hashes the *semantic content* of a scenario: everything
that can change the result payload.  Two fields are deliberately
excluded:

- ``seed`` -- the cache is keyed by ``(digest, seed, code_version)``, so
  the same scenario swept over seeds shares one digest with per-seed
  cache cells;
- ``mode`` / ``workers`` -- execution hints.  Sequential and parallel
  runs of the same scenario are byte-identical by construction (the
  repo-wide invariant since PR 1), so they must also be cache hits for
  each other.

:func:`execute_scenario` is the one executor for every kind: the
scenario is its only input, and ``fidelity`` picks only the engine call.
A ``fault_cell`` is the ``degradation`` report
(:func:`~repro.faults.report.measure_degradation` or
:func:`~repro.flow.flow_degradation`) summarised for the campaign
aggregate; an ``attack`` trial shares its analytic view and summary
between fidelities and branches only for the simulated run.  Payloads
are byte-identical to the pre-runtime outputs for the same seeds.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..adversary.campaign import SPLITTER_KINDS
from ..config import HBMSwitchConfig, RouterConfig
from ..control.config import ControlConfig
from ..core.pfi import PFIOptions
from ..core.sps import RUN_MODES
from ..errors import ConfigError
from ..fabric.engine import FIDELITIES, TRAFFIC_PATTERNS
from ..fabric.routing import ROUTING_POLICIES
from ..fabric.topology import FabricTopology, topology_to_dict
from ..traffic import (
    ArrivalProcess,
    FixedSize,
    ImixSize,
    TrafficGenerator,
    uniform_matrix,
)
from ..traffic.stream import WORKLOAD_KINDS
from .cache import payload_checksum

#: The workload families the runtime can execute.
SCENARIO_KINDS = (
    "switch", "router", "degradation", "fault_cell", "attack", "fabric",
)


@dataclass(frozen=True)
class Param:
    """The rule of one :class:`Scenario` field.

    ``kinds`` are the kinds that read the field; any other kind must
    leave it at its default, because a value the executor never reads
    would still change the digest and split one result over two cache
    entries.  A non-``None`` value must be an instance of ``types``,
    a finite number in ``[low, high]`` (``above``: strictly above
    ``low``), and one of ``values`` or start with ``prefix``; ``None``
    is accepted exactly when it is the default.  ``digest`` says when
    the field enters :meth:`Scenario.describe`: ``"always"``,
    ``"if_set"`` (a key added after digests were in use, so older
    digests stay valid) or ``"never"``; ``content`` renders an object
    value JSON-safe.
    """

    kinds: Tuple[str, ...] = SCENARIO_KINDS
    types: Optional[tuple] = None
    low: Optional[float] = None
    high: float = math.inf
    above: bool = False
    values: Optional[tuple] = None
    prefix: Optional[str] = None
    digest: str = "always"
    content: Optional[Callable[[Any], Any]] = None

    def check(self, name: str, value) -> None:
        if self.types is not None and not isinstance(value, self.types):
            raise ConfigError(
                f"{name} must be a {' or '.join(t.__name__ for t in self.types)}"
                f", got {type(value).__name__}"
            )
        if self.low is not None and not (
            isinstance(value, numbers.Real)
            and (isinstance(value, numbers.Integral) or math.isfinite(value))
            and (value > self.low if self.above else value >= self.low)
            and value <= self.high
        ):
            bound = (
                f"in [{self.low:g}, {self.high:g}]" if self.high < math.inf
                else f"{'>' if self.above else '>='} {self.low:g}"
            )
            raise ConfigError(
                f"{name} must be a finite number {bound}, got {value!r}"
            )
        if self.values is not None and not (
            value in self.values
            or (self.prefix and str(value).startswith(self.prefix))
        ):
            also = f' or "{self.prefix}<...>"' if self.prefix else ""
            raise ConfigError(
                f"{name} must be one of {self.values}{also}, got {value!r}"
            )


#: Digest content per config or strategy object, by identity: the
#: object (held, so its id is not reused) and its content.  Bounded;
#: the oldest entry goes first.
_CONTENT: Dict[int, Tuple[object, Dict[str, Any]]] = {}
_CONTENT_ENTRIES = 256


def _typed_content(obj) -> Dict[str, Any]:
    """A config or strategy dataclass as digest content, built once per
    object (they are frozen).  Every scenario built on the object shares
    the one dict: read it, never change it."""
    entry = _CONTENT.get(id(obj))
    if entry is None or entry[0] is not obj:
        data = dataclasses.asdict(obj)
        data["_type"] = type(obj).__name__
        if len(_CONTENT) >= _CONTENT_ENTRIES:
            del _CONTENT[next(iter(_CONTENT))]
        entry = _CONTENT[id(obj)] = (obj, data)
    return entry[1]


def _field(default, *kinds: str, **rule) -> Any:
    """A :class:`Scenario` field with its :class:`Param` (read by every
    kind unless ``kinds`` are named)."""
    return dataclasses.field(
        default=default,
        metadata={"param": Param(kinds=kinds or SCENARIO_KINDS, **rule)},
    )


_BOOL = (False, True)
_PACKET_KINDS = ("switch", "router")
_PFI_KINDS = ("switch", "router", "degradation", "fault_cell")


@dataclass(frozen=True)
class Scenario:
    """One declarative, content-addressable experiment cell.

    ``kind`` selects the workload family:

    - ``"switch"`` -- one HBM switch fed synthetic traffic
      (``config`` is an :class:`~repro.config.HBMSwitchConfig`);
    - ``"router"`` -- the full H-switch Split-Parallel router
      (``config`` is a :class:`~repro.config.RouterConfig`);
    - ``"degradation"`` -- a faulted router run binned over time
      (:func:`~repro.faults.report.measure_degradation`);
    - ``"fault_cell"`` -- one Monte-Carlo fault-campaign member;
    - ``"attack"`` -- one adversarial campaign trial;
    - ``"fabric"`` -- a multi-router fabric cell: ``config`` is the
      per-node :class:`~repro.config.RouterConfig`, ``topology`` one of
      the :mod:`repro.fabric.topology` dataclasses, ``routing`` a
      :data:`~repro.fabric.routing.ROUTING_POLICIES` member.

    Each field declares its :class:`Param` once, beside it: the kinds
    that read it, the values it accepts and whether it enters the
    digest.  Construction checks every field against its rule and
    raises :class:`~repro.errors.ConfigError` on a bad value or on a
    non-default value of a field the kind never reads
    (:data:`KIND_FIELDS`); :meth:`describe` is the same table read for
    the digest.  Unread fields still participate in the digest at their
    defaults, which hash stably.

    At packet fidelity every kind runs on
    :class:`~repro.traffic.stream.ArrivalBlock` arrays from its traffic
    source to the engine's ``run_stream``; no executor builds
    :class:`~repro.traffic.Packet` objects.  ``control`` closes the
    loop at the split, as a stage of ``run_stream``
    (:class:`~repro.control.packet.PacketControl`).
    """

    kind: str = _field(dataclasses.MISSING, values=SCENARIO_KINDS)
    #: HBMSwitchConfig (switch) or RouterConfig (the rest).
    config: object = _field(dataclasses.MISSING, content=_typed_content)
    load: float = _field(0.8, low=0.0, high=1.0)
    duration_ns: float = _field(50_000.0, low=0.0, above=True)
    #: A separate cache-key component: seeds of one scenario share its
    #: digest, with per-seed cache cells.
    seed: int = _field(0, low=0, digest="never")
    #: Fixed packet size in bytes; 0 selects the IMIX mix.
    packet_size: int = _field(0, *_PACKET_KINDS, low=0)
    process: str = _field(
        "poisson", *_PACKET_KINDS, values=tuple(p.value for p in ArrivalProcess)
    )
    padding: bool = _field(True, *_PFI_KINDS, values=_BOOL)
    bypass: bool = _field(True, *_PFI_KINDS, values=_BOOL)
    #: Optional fault schedule (``None`` = pristine hardware).
    schedule: Optional[object] = _field(
        None, "router", "degradation", "fault_cell", "attack", "fabric",
        content=lambda s: s.to_dict(),
    )
    #: ``degradation``/``fault_cell``: time-bin count.
    n_intervals: int = _field(8, "degradation", "fault_cell", low=1)
    drain: bool = _field(True, "switch", "router", "fabric", values=_BOOL)
    #: ``attack`` only: splitter family, its manufacturing seed, the
    #: strategy object and the trial's traffic seed.
    splitter_kind: Optional[str] = _field(None, "attack", values=SPLITTER_KINDS)
    splitter_seed: int = _field(0, "attack", low=0)
    strategy: Optional[object] = _field(None, "attack", content=_typed_content)
    traffic_seed: Optional[int] = _field(None, "attack", low=0)
    telemetry: bool = _field(
        False, "switch", "router", "degradation", "attack", "fabric",
        values=_BOOL,
    )
    #: ``"packet"`` runs the discrete-event pipeline; ``"flow"`` the
    #: numpy fluid engine (:mod:`repro.flow`).  Part of the digest, so
    #: flow and packet cells cache separately.
    fidelity: str = _field("packet", values=FIDELITIES)
    #: Optional streaming workload spec
    #: (:func:`~repro.traffic.stream.workload_source`):
    #: ``"pareto"``/``"lognormal"``/``"diurnal"``/``"flash"`` or
    #: ``"trace:<path>"``.  ``None`` keeps the legacy
    #: :class:`~repro.traffic.TrafficGenerator` traffic.  Packet
    #: fidelity only; composes with ``control``.  Open-loop cells
    #: consume the arrivals block by block (bounded memory); closed-loop
    #: cells and attack trials draw the run as one block.
    workload: Optional[str] = _field(
        None, "switch", "router", "degradation", "fault_cell", "attack",
        values=WORKLOAD_KINDS, prefix="trace:", digest="if_set",
    )
    #: Free-form cell tag (campaign index); part of the digest because
    #: campaign payloads embed it.
    tag: Optional[int] = _field(None, "fault_cell", "attack")
    #: Optional closed-loop control plane; ``None`` = open loop.  Distinct
    #: tunings occupy distinct cache entries.
    control: Optional[object] = _field(
        None, "router", "degradation", "fault_cell", "attack",
        types=(ControlConfig,), digest="if_set", content=lambda c: c.to_dict(),
    )
    #: ``fabric`` only: the topology dataclass, routing policy, demand
    #: pattern and inter-package propagation delay.
    topology: Optional[object] = _field(
        None, "fabric", types=(FabricTopology,), content=topology_to_dict
    )
    routing: str = _field("direct", "fabric", values=ROUTING_POLICIES)
    pattern: str = _field("uniform", "fabric", values=TRAFFIC_PATTERNS)
    link_delay_ns: float = _field(0.0, "fabric", low=0.0)
    #: Execution hints -- excluded from the digest (results are
    #: byte-identical across modes by construction).
    mode: str = _field("sequential", values=RUN_MODES, digest="never")
    workers: Optional[int] = _field(None, low=1, digest="never")

    def __post_init__(self) -> None:
        for name, default, param in _PARAMS:
            value = getattr(self, name)
            if value is None and default is None:
                continue
            param.check(name, value)
            if self.kind not in param.kinds and value != default:
                raise ConfigError(
                    f"{name} is not supported for kind {self.kind!r}: it "
                    f"does not read it (leave it at {default!r})"
                )
        wanted = HBMSwitchConfig if self.kind == "switch" else RouterConfig
        if not isinstance(self.config, wanted):
            raise ConfigError(
                f"{self.kind} scenarios take a {wanted.__name__}, got "
                f"{type(self.config).__name__}"
            )
        if self.kind == "attack" and (
            self.splitter_kind is None or self.strategy is None
        ):
            raise ConfigError("attack scenarios need splitter_kind and strategy")
        if self.kind == "fabric" and self.topology is None:
            raise ConfigError("fabric scenarios take a FabricTopology, got None")
        if self.workload is not None and self.fidelity != "packet":
            raise ConfigError(
                "workload streaming requires packet fidelity (the "
                "flow engine has no per-packet arrival stream)"
            )

    # -- digesting -----------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """The canonical JSON-safe content the digest hashes: every
        field whose :class:`Param` puts it in the digest.  The config
        and strategy entries are shared with every scenario built on
        the same object; the dict is for reading."""
        data = {}
        for name, _, param in _DIGESTED:
            value = getattr(self, name)
            if value is None:
                if param.digest == "if_set":
                    continue
            elif param.content is not None:
                value = param.content(value)
            data[name] = value
        return data

    def digest(self) -> str:
        """Content hash of :meth:`describe` (hex sha256)."""
        return payload_checksum(self.describe())


#: ``(name, default, Param)`` of every field, in field order.
_PARAMS = tuple(
    (f.name, f.default, f.metadata["param"]) for f in dataclasses.fields(Scenario)
)
_DIGESTED = tuple(p for p in _PARAMS if p[2].digest != "never")

#: The optional fields each kind reads, derived from the field table:
#: every kind also reads ``kind``, ``config``, ``load``,
#: ``duration_ns``, ``seed`` and ``fidelity`` and takes the
#: ``mode``/``workers`` hints.
KIND_FIELDS = {
    kind: tuple(
        name for name, _, param in _PARAMS
        if kind in param.kinds and param.kinds != SCENARIO_KINDS
    )
    for kind in SCENARIO_KINDS
}


# -- builders ------------------------------------------------------------------


def switch_scenario(config: HBMSwitchConfig, **kwargs) -> Scenario:
    """One HBM-switch simulation cell."""
    return Scenario(kind="switch", config=config, **kwargs)


def router_scenario(config: RouterConfig, **kwargs) -> Scenario:
    """One full-router simulation cell."""
    return Scenario(kind="router", config=config, **kwargs)


def degradation_scenario(config: RouterConfig, **kwargs) -> Scenario:
    """One faulted, time-binned router run."""
    return Scenario(kind="degradation", config=config, **kwargs)


def fabric_scenario(
    config: RouterConfig, topology: FabricTopology, **kwargs
) -> Scenario:
    """One multi-router fabric cell."""
    return Scenario(kind="fabric", config=config, topology=topology, **kwargs)


# -- execution -----------------------------------------------------------------


def _size_dist(scenario: Scenario):
    if scenario.packet_size > 0:
        return FixedSize(scenario.packet_size)
    return ImixSize()


def _options(scenario: Scenario) -> PFIOptions:
    return PFIOptions(padding=scenario.padding, bypass=scenario.bypass)


def _source(scenario: Scenario, n_ports: int, port_rate_bps: float):
    """The scenario's arrival source: the streaming ``workload`` family
    when one is set, else the synthetic
    :class:`~repro.traffic.TrafficGenerator`."""
    if scenario.workload is not None:
        from ..traffic.stream import workload_source

        return workload_source(
            scenario.workload,
            n_ports=n_ports,
            port_rate_bps=port_rate_bps,
            load=scenario.load,
            seed=scenario.seed,
            duration_ns=scenario.duration_ns,
            packet_bytes=(
                scenario.packet_size if scenario.packet_size > 0 else 1500
            ),
        )
    return TrafficGenerator(
        n_ports=n_ports,
        port_rate_bps=port_rate_bps,
        matrix=uniform_matrix(n_ports, scenario.load),
        size_dist=_size_dist(scenario),
        process=ArrivalProcess(scenario.process),
        seed=scenario.seed,
    )


def _switch_report(scenario: Scenario, registry, trace):
    config = scenario.config
    if scenario.fidelity == "flow":
        from ..flow import simulate_flow_switch

        return simulate_flow_switch(
            config,
            load=scenario.load,
            duration_ns=scenario.duration_ns,
            drain=scenario.drain,
            mean_packet_bytes=_size_dist(scenario).mean_bytes,
            telemetry=registry,
        )
    from ..core.hbm_switch import HBMSwitch

    telemetry = None
    if registry is not None:
        from ..telemetry import SwitchTelemetry

        telemetry = SwitchTelemetry(registry, config, switch=0)
    switch = HBMSwitch(config, _options(scenario), telemetry=telemetry, trace=trace)
    return switch.run_stream(
        _source(scenario, config.n_ports, config.port_rate_bps).blocks(
            scenario.duration_ns
        ),
        scenario.duration_ns,
        drain=scenario.drain,
    )


def _router_report(scenario: Scenario, registry):
    """``(RouterReport, control summary or None)`` of one router cell."""
    config = scenario.config
    if scenario.fidelity == "flow":
        from ..flow import flow_router_result

        result = flow_router_result(
            config,
            load=scenario.load,
            duration_ns=scenario.duration_ns,
            drain=scenario.drain,
            schedule=scenario.schedule,
            mean_packet_bytes=_size_dist(scenario).mean_bytes,
            telemetry=registry,
            control=scenario.control,
        )
        return result.report, result.control
    from ..core.sps import SplitParallelSwitch

    source = _source(
        scenario,
        config.n_ribbons,
        config.fibers_per_ribbon * config.per_fiber_rate_bps,
    )
    stage = None
    if scenario.control is not None:
        from ..control.packet import PacketControl

        stage = PacketControl(scenario.control)
    report = SplitParallelSwitch(config, options=_options(scenario)).run_stream(
        source.blocks(scenario.duration_ns),
        scenario.duration_ns,
        drain=scenario.drain,
        mode=scenario.mode,
        n_workers=scenario.workers,
        fault_schedule=scenario.schedule,
        telemetry=registry,
        control=stage,
    )
    return report, None if stage is None else stage.loop.summary()


def _degradation_report(scenario: Scenario, registry):
    """The :class:`~repro.faults.report.DegradationReport` of a
    ``degradation`` or ``fault_cell`` scenario."""
    if scenario.fidelity == "flow":
        from ..flow import flow_degradation

        return flow_degradation(
            scenario.config,
            schedule=scenario.schedule,
            load=scenario.load,
            duration_ns=scenario.duration_ns,
            n_intervals=scenario.n_intervals,
            telemetry=registry,
            control=scenario.control,
        )
    from ..faults.report import measure_degradation

    return measure_degradation(
        scenario.config,
        schedule=scenario.schedule,
        load=scenario.load,
        duration_ns=scenario.duration_ns,
        seed=scenario.seed,
        n_intervals=scenario.n_intervals,
        options=_options(scenario),
        telemetry=registry,
        workload=scenario.workload,
        control=scenario.control,
    )


def _fabric_report(scenario: Scenario, registry):
    from ..fabric.engine import simulate_fabric

    return simulate_fabric(
        scenario.config,
        scenario.topology,
        routing=scenario.routing,
        load=scenario.load,
        duration_ns=scenario.duration_ns,
        seed=scenario.seed,
        fidelity=scenario.fidelity,
        schedule=scenario.schedule,
        link_delay_ns=scenario.link_delay_ns,
        pattern=scenario.pattern,
        drain=scenario.drain,
        registry=registry,
    )


def _fault_cell_summary(scenario: Scenario, registry) -> dict:
    """One fault-campaign member: its degradation report, summarised in
    the shape :class:`~repro.faults.campaign.CampaignResult` folds."""
    if scenario.schedule is None:
        raise ConfigError("fault_cell scenarios need a drawn schedule")
    report = _degradation_report(scenario, registry)
    summary = {
        "scenario": scenario.tag if scenario.tag is not None else 0,
        "n_events": len(scenario.schedule),
        "fault_events": scenario.schedule.describe(),
        "delivered_fraction": report.delivered_fraction,
        "loss_fraction": report.loss_fraction,
        "availability": report.availability(),
        "offered_bytes": report.offered_bytes,
        "delivered_bytes": report.delivered_bytes,
        "lost_bytes": report.lost_bytes,
    }
    if report.control is not None:
        summary["control"] = report.control
    return summary


def _attack_run(scenario: Scenario, splitter, weights, registry):
    """The simulated half of an attack trial, the one step that depends
    on fidelity: ``(RouterReport, control summary)``.

    Both fidelities run ``drain=False``: a victim switch with deep HBM
    does not drop, it falls behind, so the overload shows up as
    residual.  At both, a throttled byte is a drop inside the report.
    """
    config = scenario.config
    strategy = scenario.strategy
    control = scenario.control
    windows = None
    if control is not None:
        from ..control.packet import attack_windows_for

        windows = attack_windows_for(strategy, scenario.duration_ns)
    if scenario.fidelity == "flow":
        from ..flow.attack import _strategy_components
        from ..flow.engine import simulate_flow_router

        result = simulate_flow_router(
            config,
            _strategy_components(
                strategy, config, scenario.load, scenario.duration_ns
            ),
            duration_ns=scenario.duration_ns,
            drain=False,
            weights=np.stack(weights),
            splitter=splitter,
            schedule=scenario.schedule,
            telemetry=registry,
            control=control,
            attack_windows=windows,
        )
        return result.report, result.control
    from ..core.sps import SplitParallelSwitch

    # One whole-run block: the strategy weights the whole run.
    block, fibers = strategy.build_workload(
        config,
        splitter,
        scenario.load,
        scenario.duration_ns,
        _traffic_seed(scenario),
        workload=scenario.workload,
    )
    stage = None
    if control is not None:
        from ..control.packet import PacketControl

        stage = PacketControl(control, windows)
    report = SplitParallelSwitch(config, splitter=splitter).run_stream(
        [block],
        scenario.duration_ns,
        fibers_fn=lambda _: fibers,
        drain=False,
        fault_schedule=scenario.schedule,
        telemetry=registry,
        control=stage,
    )
    return report, None if stage is None else stage.loop.summary()


def _traffic_seed(scenario: Scenario) -> int:
    if scenario.traffic_seed is not None:
        return scenario.traffic_seed
    return scenario.seed


def _attack_summary(scenario: Scenario, registry) -> dict:
    """One attack trial: the analytic view (the strategy's fiber weights
    through the split algebra) and the simulated view, in the shape
    :class:`~repro.adversary.campaign.AttackCampaignResult` folds.

    The summary holds no wall-clock or worker information, so campaigns
    serialise byte-identically whether they ran sequentially or on the
    pool.
    """
    from ..adversary.campaign import make_splitter
    from ..core.fiber_split import (
        overload_loss_fraction,
        per_switch_loads,
        per_switch_port_loads,
        split_imbalance,
    )
    from ..telemetry import record_victim_series, tag_attack_window

    config = scenario.config
    splitter = make_splitter(
        scenario.splitter_kind,
        config.fibers_per_ribbon,
        config.n_switches,
        seed=scenario.splitter_seed,
    )
    strategy = scenario.strategy
    victim = strategy.victim_switch(splitter)

    weights = strategy.fiber_weights(splitter, config.n_ribbons)
    fiber_loads = [scenario.load * w for w in weights]
    switch_loads = per_switch_loads(splitter, fiber_loads)
    total = float(switch_loads.sum())
    uniform_share = total / config.n_switches
    worst = int(np.argmax(switch_loads))
    target = victim if victim is not None else worst
    victim_gain = float(switch_loads[target] / uniform_share)
    port_loads = per_switch_port_loads(splitter, fiber_loads)
    # Each switch port serves alpha of the ribbon's F fibers: capacity
    # alpha/F = 1/H of the ribbon line rate, in the same load units.
    overload = overload_loss_fraction(port_loads, 1.0 / config.n_switches)

    if registry is not None:
        tag_attack_window(
            registry,
            strategy=strategy.name,
            splitter=scenario.splitter_kind,
            victim=victim,
            start_ns=0.0,
            end_ns=scenario.duration_ns,
        )
    report, control_summary = _attack_run(
        scenario, splitter, weights, registry
    )
    offered = report.per_switch_offered_bytes
    sim_total = float(sum(offered))
    sim_target = target if victim is not None else (
        int(np.argmax(offered)) if sim_total > 0 else target
    )
    sim_victim_gain = (
        float(offered[sim_target] * config.n_switches / sim_total)
        if sim_total > 0
        else 1.0
    )
    if registry is not None:
        record_victim_series(registry, offered, victim)

    # Offered bytes count the throttled (backpressured) traffic: the
    # control plane may convert losses, never shrink the offer.
    offered_total = int(report.offered_bytes)
    summary = {
        "trial": scenario.tag if scenario.tag is not None else 0,
        "splitter": scenario.splitter_kind,
        "splitter_seed": scenario.splitter_seed,
        "traffic_seed": _traffic_seed(scenario),
        "strategy": strategy.describe(),
        "victim_switch": target,
        "victim_gain": victim_gain,
        "split_imbalance": float(split_imbalance(switch_loads)),
        "overload_loss_fraction": overload,
        "sim_victim_switch": sim_target,
        "sim_victim_gain": sim_victim_gain,
        "sim_offered_bytes": offered_total,
        "sim_delivered_fraction": (
            report.delivered_bytes / offered_total if offered_total > 0 else 1.0
        ),
        "sim_loss_fraction": (
            report.lost_bytes / offered_total
            if offered_total > 0
            else 0.0
        ),
        "sim_residual_bytes": int(report.residual_bytes),
        "fault_events": list(report.fault_events),
        "telemetry": registry.to_dict() if registry is not None else None,
    }
    if control_summary is not None:
        summary["control"] = control_summary
    return summary


def execute_scenario(scenario: Scenario, registry=None, trace=None) -> dict:
    """Run one scenario to completion; returns its JSON-safe payload.

    Module-level (and every scenario picklable) so the runtime can fan
    cells out over the process pool.  ``registry``/``trace`` are
    inline-only extras for callers that need a shared
    :class:`~repro.telemetry.MetricsRegistry` or a
    :class:`~repro.sim.trace.TraceRecorder`; the runtime never passes
    them, so cached payloads stay pure functions of the scenario.
    Without ``registry``, a ``telemetry=True`` scenario gets a fresh one.

    Payload shapes:

    - ``switch``/``router``/``degradation``/``fabric`` -- ``{"report":
      <dict>, "telemetry": <dump|None>}`` (closed-loop router cells add
      ``"control"``) where ``report`` serialises exactly as the
      pre-runtime CLI did;
    - ``fault_cell``/``attack`` -- the flat campaign-member dict the
      campaign aggregators have always consumed; both fidelities give
      the same keys.
    """
    if registry is None and scenario.telemetry:
        from ..telemetry import MetricsRegistry

        registry = MetricsRegistry()
    kind = scenario.kind
    if kind == "fault_cell":
        return _fault_cell_summary(scenario, registry)
    if kind == "attack":
        return _attack_summary(scenario, registry)
    from ..reporting import report_to_dict

    control = None
    if kind == "switch":
        report = report_to_dict(_switch_report(scenario, registry, trace))
    elif kind == "router":
        result, control = _router_report(scenario, registry)
        report = report_to_dict(result)
    elif kind == "degradation":
        report = _degradation_report(scenario, registry).to_dict()
    else:
        report = report_to_dict(_fabric_report(scenario, registry))
    payload = {
        "report": report,
        "telemetry": registry.to_dict() if registry is not None else None,
    }
    if control is not None:
        payload["control"] = control
    return payload
