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

Every scenario kind maps onto the exact per-family execution code that
predates the runtime (``repro.faults.campaign.execute_fault_scenario``,
``repro.adversary.campaign.execute_attack_trial``,
:func:`~repro.faults.report.measure_degradation`, the switch/router
simulation paths the CLI used to inline), so payloads are byte-identical
to the pre-runtime outputs for the same seeds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..config import HBMSwitchConfig, RouterConfig
from ..core.pfi import PFIOptions
from ..errors import ConfigError
from ..fabric.engine import TRAFFIC_PATTERNS
from ..fabric.routing import ROUTING_POLICIES
from ..fabric.topology import FabricTopology, topology_to_dict
from ..traffic import (
    ArrivalProcess,
    FixedSize,
    ImixSize,
    TrafficGenerator,
    uniform_matrix,
)

#: The workload families the runtime can execute.
SCENARIO_KINDS = (
    "switch",
    "router",
    "degradation",
    "fault_cell",
    "attack",
    "fabric",
)


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

    Fields that do not apply to a kind keep their defaults and still
    participate in the digest (they are part of the declarative
    content; defaults hash stably).
    """

    kind: str
    config: object  # HBMSwitchConfig (switch) or RouterConfig (the rest)
    load: float = 0.8
    duration_ns: float = 50_000.0
    seed: int = 0
    #: Fixed packet size in bytes; 0 selects the IMIX mix.
    packet_size: int = 0
    process: str = "poisson"
    padding: bool = True
    bypass: bool = True
    #: Optional fault schedule (``None`` = pristine hardware).
    schedule: Optional[object] = None
    #: ``degradation``/``fault_cell``: time-bin count.
    n_intervals: int = 8
    drain: bool = True
    #: ``attack`` only: splitter family, its manufacturing seed, the
    #: strategy object and the trial's traffic seed.
    splitter_kind: Optional[str] = None
    splitter_seed: int = 0
    strategy: Optional[object] = None
    traffic_seed: Optional[int] = None
    telemetry: bool = False
    #: ``"packet"`` runs the discrete-event pipeline; ``"flow"`` the
    #: numpy fluid engine (:mod:`repro.flow`).  Part of the digest, so
    #: flow and packet cells cache separately.
    fidelity: str = "packet"
    #: Optional streaming workload spec
    #: (:func:`~repro.traffic.stream.workload_source`):
    #: ``"pareto"``/``"lognormal"``/``"diurnal"``/``"flash"`` or
    #: ``"trace:<path>"``.  ``None`` keeps the legacy
    #: :class:`~repro.traffic.TrafficGenerator` traffic -- a conditional
    #: digest key, so pre-existing digests are untouched.  Packet
    #: fidelity and open loop only; the arrivals are consumed as blocks
    #: (bounded memory) on sequential cells.
    workload: Optional[str] = None
    #: Free-form cell tag (campaign index); part of the digest because
    #: campaign payloads embed it.
    tag: Optional[int] = None
    #: Optional closed-loop control plane
    #: (:class:`~repro.control.ControlConfig`); ``None`` = open loop.
    #: Participates in the digest (closed-loop cells cache separately,
    #: and distinct tunings occupy distinct entries).
    control: Optional[object] = None
    #: ``fabric`` only: the topology dataclass, routing policy, demand
    #: pattern and inter-package propagation delay.
    topology: Optional[object] = None
    routing: str = "direct"
    pattern: str = "uniform"
    link_delay_ns: float = 0.0
    #: Execution hints -- excluded from the digest (results are
    #: byte-identical across modes by construction).
    mode: str = "sequential"
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(
                f"kind must be one of {SCENARIO_KINDS}, got {self.kind!r}"
            )
        if self.duration_ns <= 0:
            raise ConfigError(
                f"duration_ns must be positive, got {self.duration_ns}"
            )
        if self.packet_size < 0:
            raise ConfigError(
                f"packet_size must be >= 0 (0 = IMIX), got {self.packet_size}"
            )
        if self.n_intervals < 1:
            raise ConfigError(
                f"n_intervals must be positive, got {self.n_intervals}"
            )
        if self.kind == "switch":
            if not isinstance(self.config, HBMSwitchConfig):
                raise ConfigError(
                    "switch scenarios take an HBMSwitchConfig, got "
                    f"{type(self.config).__name__}"
                )
        elif not isinstance(self.config, RouterConfig):
            raise ConfigError(
                f"{self.kind} scenarios take a RouterConfig, got "
                f"{type(self.config).__name__}"
            )
        if self.kind == "attack":
            if self.splitter_kind is None or self.strategy is None:
                raise ConfigError(
                    "attack scenarios need splitter_kind and strategy"
                )
        if self.kind == "fabric":
            if not isinstance(self.topology, FabricTopology):
                raise ConfigError(
                    "fabric scenarios take a FabricTopology, got "
                    f"{type(self.topology).__name__}"
                )
        if self.routing not in ROUTING_POLICIES:
            raise ConfigError(
                f"routing must be one of {ROUTING_POLICIES}, got "
                f"{self.routing!r}"
            )
        if self.pattern not in TRAFFIC_PATTERNS:
            raise ConfigError(
                f"pattern must be one of {TRAFFIC_PATTERNS}, got "
                f"{self.pattern!r}"
            )
        if self.link_delay_ns < 0:
            raise ConfigError(
                f"link_delay_ns must be >= 0, got {self.link_delay_ns}"
            )
        if self.fidelity not in ("packet", "flow"):
            raise ConfigError(
                f'fidelity must be "packet" or "flow", got {self.fidelity!r}'
            )
        if self.workload is not None:
            from ..traffic.stream import WORKLOAD_KINDS

            if not (
                self.workload in WORKLOAD_KINDS
                or self.workload.startswith("trace:")
            ):
                raise ConfigError(
                    f"workload must be one of {WORKLOAD_KINDS} or "
                    f'"trace:<path>", got {self.workload!r}'
                )
            if self.fidelity != "packet":
                raise ConfigError(
                    "workload streaming requires packet fidelity (the "
                    "flow engine has no per-packet arrival stream)"
                )
            if self.kind not in ("switch", "router", "degradation",
                                 "fault_cell", "attack"):
                raise ConfigError(
                    f"workload is not supported for kind {self.kind!r}"
                )
            if self.control is not None:
                raise ConfigError(
                    "workload streaming composes with open-loop cells "
                    "only (the control prepass materializes the packet "
                    "list)"
                )
        if self.control is not None:
            from ..control.config import ControlConfig

            if not isinstance(self.control, ControlConfig):
                raise ConfigError(
                    "control must be a repro.control.ControlConfig, got "
                    f"{type(self.control).__name__}"
                )
            if self.kind not in ("router", "degradation", "fault_cell", "attack"):
                raise ConfigError(
                    f"control is not supported for kind {self.kind!r}: the "
                    "control plane actuates the H-way fiber split, which "
                    "router/degradation/fault_cell/attack cells have"
                )

    # -- digesting -----------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """The canonical JSON-safe content the digest hashes.

        Excludes ``seed`` (a separate cache-key component) and the
        ``mode``/``workers`` execution hints (results are invariant to
        them).
        """
        data = {
            "kind": self.kind,
            "config": _config_content(self.config),
            "load": self.load,
            "duration_ns": self.duration_ns,
            "packet_size": self.packet_size,
            "process": self.process,
            "padding": self.padding,
            "bypass": self.bypass,
            "schedule": (
                self.schedule.to_dict() if self.schedule is not None else None
            ),
            "n_intervals": self.n_intervals,
            "drain": self.drain,
            "splitter_kind": self.splitter_kind,
            "splitter_seed": self.splitter_seed,
            "strategy": _strategy_content(self.strategy),
            "traffic_seed": self.traffic_seed,
            "telemetry": self.telemetry,
            "fidelity": self.fidelity,
            "tag": self.tag,
            "topology": (
                topology_to_dict(self.topology)
                if self.topology is not None
                else None
            ),
            "routing": self.routing,
            "pattern": self.pattern,
            "link_delay_ns": self.link_delay_ns,
        }
        if self.control is not None:
            # Conditional key: open-loop digests stay exactly what they
            # were before the control plane existed (cache continuity).
            data["control"] = self.control.to_dict()
        if self.workload is not None:
            # Conditional for the same reason: legacy-traffic digests
            # stay exactly what they were before workloads existed.
            data["workload"] = self.workload
        return data

    def digest(self) -> str:
        """Content hash of :meth:`describe` (hex sha256)."""
        text = json.dumps(
            self.describe(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _config_content(config) -> Dict[str, Any]:
    data = dataclasses.asdict(config)
    data["_type"] = type(config).__name__
    return data


def _strategy_content(strategy) -> Optional[Dict[str, Any]]:
    if strategy is None:
        return None
    data = dataclasses.asdict(strategy)
    data["_type"] = type(strategy).__name__
    return data


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


def _workload_source(scenario: Scenario, n_ports: int, port_rate_bps: float):
    """The scenario's streaming source (``scenario.workload`` is set)."""
    from ..traffic.stream import workload_source

    return workload_source(
        scenario.workload,
        n_ports=n_ports,
        port_rate_bps=port_rate_bps,
        load=scenario.load,
        seed=scenario.seed,
        duration_ns=scenario.duration_ns,
        packet_bytes=scenario.packet_size if scenario.packet_size > 0 else 1500,
    )


def _options(scenario: Scenario) -> PFIOptions:
    return PFIOptions(padding=scenario.padding, bypass=scenario.bypass)


def _execute_switch(scenario: Scenario, registry=None, trace=None) -> dict:
    from ..core.hbm_switch import HBMSwitch
    from ..reporting import report_to_dict

    config = scenario.config
    if scenario.fidelity == "flow":
        from ..flow import simulate_flow_switch

        if registry is None and scenario.telemetry:
            from ..telemetry import MetricsRegistry

            registry = MetricsRegistry()
        report = simulate_flow_switch(
            config,
            load=scenario.load,
            duration_ns=scenario.duration_ns,
            drain=scenario.drain,
            mean_packet_bytes=_size_dist(scenario).mean_bytes,
            telemetry=registry,
        )
        return {
            "report": report_to_dict(report),
            "telemetry": registry.to_dict() if registry is not None else None,
        }
    if registry is None and scenario.telemetry:
        from ..telemetry import MetricsRegistry

        registry = MetricsRegistry()
    telemetry = None
    if registry is not None:
        from ..telemetry import SwitchTelemetry

        telemetry = SwitchTelemetry(registry, config, switch=0)
    switch = HBMSwitch(config, _options(scenario), telemetry=telemetry, trace=trace)
    if scenario.workload is not None:
        # Streaming ingest: the switch pulls arrival blocks and never
        # sees the whole workload at once.
        source = _workload_source(
            scenario, config.n_ports, config.port_rate_bps
        )
        report = switch.run_stream(
            source.blocks(scenario.duration_ns),
            scenario.duration_ns,
            drain=scenario.drain,
        )
    else:
        generator = TrafficGenerator(
            n_ports=config.n_ports,
            port_rate_bps=config.port_rate_bps,
            matrix=uniform_matrix(config.n_ports, scenario.load),
            size_dist=_size_dist(scenario),
            process=ArrivalProcess(scenario.process),
            seed=scenario.seed,
        )
        packets = generator.materialize(scenario.duration_ns)
        report = switch.run(packets, scenario.duration_ns, drain=scenario.drain)
    return {
        "report": report_to_dict(report),
        "telemetry": registry.to_dict() if registry is not None else None,
    }


def _execute_router(scenario: Scenario, registry=None) -> dict:
    from ..core.sps import SplitParallelSwitch
    from ..reporting import report_to_dict

    config = scenario.config
    if scenario.fidelity == "flow":
        from ..flow import flow_router_result

        if registry is None and scenario.telemetry:
            from ..telemetry import MetricsRegistry

            registry = MetricsRegistry()
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
        payload = {
            "report": report_to_dict(result.report),
            "telemetry": registry.to_dict() if registry is not None else None,
        }
        if result.control is not None:
            payload["control"] = result.control
        return payload
    if registry is None and scenario.telemetry:
        from ..telemetry import MetricsRegistry

        registry = MetricsRegistry()
    router = SplitParallelSwitch(config, options=_options(scenario))
    if scenario.workload is not None:
        # Streaming ingest (open loop by validation).  Sequential cells
        # pull blocks straight through run_stream; parallel cells
        # materialize once and take the pooled path -- byte-identical
        # results either way (the repo invariant), so both land on the
        # same cache entry.
        source = _workload_source(
            scenario,
            config.n_ribbons,
            config.fibers_per_ribbon * config.per_fiber_rate_bps,
        )
        if scenario.mode == "sequential":
            report = router.run_stream(
                source.blocks(scenario.duration_ns),
                scenario.duration_ns,
                drain=scenario.drain,
                fault_schedule=scenario.schedule,
                telemetry=registry,
            )
        else:
            report = router.run(
                source.materialize(scenario.duration_ns),
                scenario.duration_ns,
                drain=scenario.drain,
                fault_schedule=scenario.schedule,
                mode=scenario.mode,
                n_workers=scenario.workers,
                telemetry=registry,
            )
        return {
            "report": report_to_dict(report),
            "telemetry": registry.to_dict() if registry is not None else None,
        }
    generator = TrafficGenerator(
        n_ports=config.n_ribbons,
        port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
        matrix=uniform_matrix(config.n_ribbons, scenario.load),
        size_dist=_size_dist(scenario),
        process=ArrivalProcess(scenario.process),
        seed=scenario.seed,
    )
    packets = generator.materialize(scenario.duration_ns)
    control_summary = None
    fibers = None
    if scenario.control is not None:
        from ..control.packet import packet_control_prepass
        from ..core.sps import assign_fibers

        fibers = assign_fibers(packets, config.fibers_per_ribbon)
        fibers, throttled, loop = packet_control_prepass(
            config,
            scenario.control,
            packets,
            fibers,
            router.splitter,
            scenario.duration_ns,
            schedule=scenario.schedule,
            telemetry=registry,
        )
        packets = [p for p, t in zip(packets, throttled) if not t]
        fibers = [f for f, t in zip(fibers, throttled) if not t]
        control_summary = loop.summary()
    report = router.run(
        packets,
        scenario.duration_ns,
        fibers=fibers,
        drain=scenario.drain,
        fault_schedule=scenario.schedule,
        mode=scenario.mode,
        n_workers=scenario.workers,
        telemetry=registry,
    )
    payload = {
        "report": report_to_dict(report),
        "telemetry": registry.to_dict() if registry is not None else None,
    }
    if control_summary is not None:
        payload["control"] = control_summary
    return payload


def _execute_degradation(scenario: Scenario, registry=None) -> dict:
    from ..faults.report import measure_degradation

    if scenario.fidelity == "flow":
        from ..flow import flow_degradation

        if registry is None and scenario.telemetry:
            from ..telemetry import MetricsRegistry

            registry = MetricsRegistry()
        report = flow_degradation(
            scenario.config,
            schedule=scenario.schedule,
            load=scenario.load,
            duration_ns=scenario.duration_ns,
            n_intervals=scenario.n_intervals,
            telemetry=registry,
            control=scenario.control,
        )
        return {
            "report": report.to_dict(),
            "telemetry": registry.to_dict() if registry is not None else None,
        }
    if registry is None and scenario.telemetry:
        from ..telemetry import MetricsRegistry

        registry = MetricsRegistry()
    if scenario.control is not None:
        from ..control.packet import measure_degradation_controlled

        report, _ = measure_degradation_controlled(
            scenario.config,
            scenario.control,
            schedule=scenario.schedule,
            load=scenario.load,
            duration_ns=scenario.duration_ns,
            seed=scenario.seed,
            n_intervals=scenario.n_intervals,
            options=_options(scenario),
            telemetry=registry,
        )
    else:
        report = measure_degradation(
            scenario.config,
            schedule=scenario.schedule,
            load=scenario.load,
            duration_ns=scenario.duration_ns,
            seed=scenario.seed,
            n_intervals=scenario.n_intervals,
            options=_options(scenario),
            telemetry=registry,
            workload=scenario.workload,
        )
    return {
        "report": report.to_dict(),
        "telemetry": registry.to_dict() if registry is not None else None,
    }


def _execute_fault_cell(scenario: Scenario) -> dict:
    from ..faults.campaign import FaultScenario, execute_fault_scenario

    if scenario.schedule is None:
        raise ConfigError("fault_cell scenarios need a drawn schedule")
    cell = FaultScenario(
        index=scenario.tag if scenario.tag is not None else 0,
        config=scenario.config,
        schedule=scenario.schedule,
        load=scenario.load,
        duration_ns=scenario.duration_ns,
        seed=scenario.seed,
        n_intervals=scenario.n_intervals,
        control=scenario.control,
        workload=scenario.workload,
    )
    if scenario.fidelity == "flow":
        from ..flow import execute_fault_scenario_flow

        return execute_fault_scenario_flow(cell)
    return execute_fault_scenario(cell)


def _execute_attack(scenario: Scenario) -> dict:
    from ..adversary.campaign import AttackTrial, execute_attack_trial

    if scenario.fidelity == "flow":
        from ..flow import execute_attack_trial_flow

        executor = execute_attack_trial_flow
    else:
        executor = execute_attack_trial
    return executor(
        AttackTrial(
            index=scenario.tag if scenario.tag is not None else 0,
            config=scenario.config,
            splitter_kind=scenario.splitter_kind,
            splitter_seed=scenario.splitter_seed,
            strategy=scenario.strategy,
            load=scenario.load,
            duration_ns=scenario.duration_ns,
            traffic_seed=(
                scenario.traffic_seed
                if scenario.traffic_seed is not None
                else scenario.seed
            ),
            fault_schedule=scenario.schedule,
            telemetry=scenario.telemetry,
            control=scenario.control,
            workload=scenario.workload,
        )
    )


def _execute_fabric(scenario: Scenario, registry=None) -> dict:
    from ..fabric.engine import simulate_fabric
    from ..reporting import report_to_dict

    if registry is None and scenario.telemetry:
        from ..telemetry import MetricsRegistry

        registry = MetricsRegistry()
    report = simulate_fabric(
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
    return {
        "report": report_to_dict(report),
        "telemetry": registry.to_dict() if registry is not None else None,
    }


def execute_scenario(scenario: Scenario, registry=None, trace=None) -> dict:
    """Run one scenario to completion; returns its JSON-safe payload.

    Module-level (and every scenario picklable) so the runtime can fan
    cells out over the process pool.  ``registry``/``trace`` are
    inline-only extras for callers that need a shared
    :class:`~repro.telemetry.MetricsRegistry` or a
    :class:`~repro.sim.trace.TraceRecorder`; the runtime never passes
    them, so cached payloads stay pure functions of the scenario.

    Payload shapes:

    - ``switch``/``router``/``degradation`` -- ``{"report": <dict>,
      "telemetry": <dump|None>}`` where ``report`` serialises exactly as
      the pre-runtime CLI did;
    - ``fault_cell``/``attack`` -- the flat campaign-member dict the
      campaign aggregators have always consumed.
    """
    if scenario.kind == "switch":
        return _execute_switch(scenario, registry=registry, trace=trace)
    if scenario.kind == "router":
        return _execute_router(scenario, registry=registry)
    if scenario.kind == "degradation":
        return _execute_degradation(scenario, registry=registry)
    if scenario.kind == "fault_cell":
        return _execute_fault_cell(scenario)
    if scenario.kind == "attack":
        return _execute_attack(scenario)
    if scenario.kind == "fabric":
        return _execute_fabric(scenario, registry=registry)
    raise ConfigError(f"unknown scenario kind {scenario.kind!r}")
