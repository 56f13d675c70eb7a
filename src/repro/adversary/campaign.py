"""Seeded multi-trial attack campaigns over the process pool.

A campaign pits one :class:`~repro.adversary.strategies.AttackStrategy`
against one splitter family for ``n_trials`` independent trials.  Trial
``i`` derives its traffic seed and its splitter seed from
``np.random.SeedSequence((seed, i))`` -- stable across platforms and
processes -- so the same params always produce the same trials no
matter how they are scheduled.  Dispatch, caching and sharding live in
the scenario runtime (:mod:`repro.runtime`, entry point
:class:`repro.runtime.AttackCampaign`); this module keeps the domain
pieces -- seed derivation, the per-trial executor, the aggregate.  The
unit of parallelism is the *trial* (each worker simulates its whole
attacked router sequentially), exactly as the fault campaign
parallelises over scenarios.

Per trial we report two views of the same attack:

- **analytic** -- the strategy's fiber weights pushed through
  :func:`~repro.core.fiber_split.per_switch_loads`: ``victim_gain`` (the
  victim switch's load over the uniform share, the paper's exposure
  quantity), ``split_imbalance`` and the first-order
  ``overload_loss_fraction`` at per-port capacity 1/H;
- **simulated** -- the full SPS -> PFI -> HBM pipeline run on the
  strategy's packet stream (``drain=False``: a victim switch with huge
  HBM buffers doesn't drop, it *falls behind*, so the overload shows up
  as undelivered residual), composed with any fault schedule.

Campaign aggregates carry 95% confidence intervals; trial telemetry
registries are merged in trial-index order, so sequential and parallel
campaign dumps are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..config import RouterConfig
from ..core.fiber_split import (
    ContiguousSplitter,
    FiberSplitter,
    PseudoRandomSplitter,
    overload_loss_fraction,
    per_switch_loads,
    per_switch_port_loads,
    split_imbalance,
)
from ..core.sps import SplitParallelSwitch
from ..errors import ConfigError
from ..telemetry import (
    MetricsRegistry,
    record_victim_series,
    tag_attack_window,
)
from .strategies import AttackStrategy

SPLITTER_KINDS = ("contiguous", "pseudo-random")


def make_splitter(
    kind: str, n_fibers: int, n_switches: int, seed: int = 0
) -> FiberSplitter:
    """Instantiate a splitter by campaign kind name."""
    if kind == "contiguous":
        return ContiguousSplitter(n_fibers, n_switches)
    if kind == "pseudo-random":
        return PseudoRandomSplitter(n_fibers, n_switches, seed=seed)
    raise ConfigError(
        f"unknown splitter kind {kind!r} (expected one of {SPLITTER_KINDS})"
    )


@dataclass(frozen=True)
class AttackCampaignParams:
    """What to attack and how hard.

    ``load`` is each ribbon's offered load as a fraction of its line
    rate; the strategy decides how that load is spread over fibers.
    """

    strategy: AttackStrategy
    splitter: str = "pseudo-random"
    n_trials: int = 8
    seed: int = 0
    load: float = 0.6
    duration_ns: float = 10_000.0
    telemetry: bool = False

    def __post_init__(self) -> None:
        if self.splitter not in SPLITTER_KINDS:
            raise ConfigError(
                f"splitter must be one of {SPLITTER_KINDS}, got {self.splitter!r}"
            )
        if self.n_trials <= 0:
            raise ConfigError(f"n_trials must be positive, got {self.n_trials}")
        if not 0.0 < self.load <= 1.0:
            raise ConfigError(f"load must be in (0, 1], got {self.load}")
        if self.duration_ns <= 0:
            raise ConfigError(
                f"duration_ns must be positive, got {self.duration_ns}"
            )


@dataclass(frozen=True)
class AttackTrial:
    """One picklable, self-contained campaign member."""

    index: int
    config: RouterConfig
    splitter_kind: str
    splitter_seed: int
    strategy: AttackStrategy
    load: float
    duration_ns: float
    traffic_seed: int
    fault_schedule: object = None
    telemetry: bool = False
    #: Optional :class:`~repro.control.ControlConfig`; ``None`` = open
    #: loop (the historical behaviour, byte-identical payloads).
    control: object = None
    #: Optional carrier-traffic spec
    #: (:func:`~repro.traffic.stream.workload_source`); ``None`` keeps
    #: the historical fixed-size Poisson carrier.
    workload: Optional[str] = None


def trial_seeds(seed: int, index: int) -> tuple:
    """(traffic_seed, splitter_seed) for trial ``index`` -- drawn from a
    :class:`numpy.random.SeedSequence`, stable across platforms."""
    state = np.random.SeedSequence((seed, index)).generate_state(2)
    return int(state[0]), int(state[1])


def execute_attack_trial(trial: AttackTrial) -> dict:
    """Run one trial; returns its JSON-safe summary (module-level so it
    pickles for worker processes).

    The summary deliberately contains no wall-clock or worker
    information: campaigns must serialise byte-identically whether they
    ran sequentially or on the pool.
    """
    config = trial.config
    splitter = make_splitter(
        trial.splitter_kind,
        config.fibers_per_ribbon,
        config.n_switches,
        seed=trial.splitter_seed,
    )
    strategy = trial.strategy
    victim = strategy.victim_switch(splitter)

    # Analytic view: fiber weights through the split algebra.
    weights = strategy.fiber_weights(splitter, config.n_ribbons)
    fiber_loads = [trial.load * w for w in weights]
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

    registry = MetricsRegistry() if trial.telemetry else None
    if registry is not None:
        tag_attack_window(
            registry,
            strategy=strategy.name,
            splitter=trial.splitter_kind,
            victim=victim,
            start_ns=0.0,
            end_ns=trial.duration_ns,
        )

    # Simulated view: the full pipeline on the strategy's packet stream.
    workload = getattr(trial, "workload", None)
    packets, fibers = strategy.build_workload(
        config,
        splitter,
        trial.load,
        trial.duration_ns,
        trial.traffic_seed,
        workload=workload,
    )
    control = getattr(trial, "control", None)
    control_summary = None
    throttled_bytes = 0
    if control is not None:
        from ..control.packet import attack_windows_for, packet_control_prepass

        fibers, throttled, loop = packet_control_prepass(
            config,
            control,
            packets,
            list(fibers),
            splitter,
            trial.duration_ns,
            schedule=trial.fault_schedule,
            attack_windows=attack_windows_for(strategy, trial.duration_ns),
            telemetry=registry,
        )
        packets = [p for p, t in zip(packets, throttled) if not t]
        fibers = [f for f, t in zip(fibers, throttled) if not t]
        throttled_bytes = int(round(loop.throttled_bytes))
        control_summary = loop.summary()
    router = SplitParallelSwitch(config, splitter=splitter)
    report = router.run(
        packets,
        trial.duration_ns,
        fibers=fibers,
        drain=False,
        fault_schedule=trial.fault_schedule,
        telemetry=registry,
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

    # Offered bytes always count the throttled (backpressured) traffic:
    # the control plane may convert losses, never shrink the offer.
    offered_total = int(report.offered_bytes) + throttled_bytes
    summary = {
        "trial": trial.index,
        "splitter": trial.splitter_kind,
        "splitter_seed": trial.splitter_seed,
        "traffic_seed": trial.traffic_seed,
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
            (report.lost_bytes + throttled_bytes) / offered_total
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


def _confidence(values: List[float]) -> dict:
    """Mean with a normal-approximation 95% CI, plus the range."""
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    half = float(1.96 * std / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return {
        "mean": mean,
        "ci95_low": mean - half,
        "ci95_high": mean + half,
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


#: Trial metrics aggregated with confidence intervals.
AGGREGATED_METRICS = (
    "victim_gain",
    "split_imbalance",
    "overload_loss_fraction",
    "sim_victim_gain",
    "sim_delivered_fraction",
    "sim_loss_fraction",
)


@dataclass
class AttackCampaignResult:
    """Aggregate of one (strategy, splitter) campaign."""

    params: AttackCampaignParams
    trials: List[dict] = field(default_factory=list)
    #: Merged telemetry dump (trial-index merge order), or ``None``.
    telemetry: Optional[dict] = None

    def metric(self, name: str) -> List[float]:
        return [t[name] for t in self.trials]

    @property
    def victim_gain(self) -> dict:
        return _confidence(self.metric("victim_gain"))

    def to_dict(self) -> dict:
        summary = {
            name: _confidence(self.metric(name)) for name in AGGREGATED_METRICS
        }
        return {
            "strategy": self.params.strategy.describe(),
            "splitter": self.params.splitter,
            "n_trials": self.params.n_trials,
            "seed": self.params.seed,
            "load": self.params.load,
            "duration_ns": self.params.duration_ns,
            "summary": summary,
            "trials": [
                {k: v for k, v in t.items() if k != "telemetry"}
                for t in self.trials
            ],
        }


def compare_splitters(
    config: RouterConfig,
    strategy: AttackStrategy,
    n_trials: int = 8,
    seed: int = 0,
    load: float = 0.6,
    duration_ns: float = 10_000.0,
    telemetry: bool = False,
    fault_schedule=None,
    failed_switches: Optional[List[int]] = None,
    n_workers: Optional[int] = None,
    runtime=None,
    fidelity: str = "packet",
    workload: Optional[str] = None,
) -> dict:
    """The headline experiment: one strategy vs both splitter families.

    Returns both campaign dicts plus the exposure comparison -- the
    ratio of mean victim gains, which the paper's Idea 4 predicts is
    ~H for a design-knowledge attacker.

    ``runtime`` (a :class:`repro.runtime.Runtime`) supplies the
    scheduler and result cache; by default a cacheless runtime with
    ``n_workers`` workers is used, matching the legacy behaviour.
    """
    from ..runtime import AttackCampaign, Runtime

    if runtime is None:
        runtime = Runtime(n_workers=n_workers)
    campaigns = {}
    for kind in SPLITTER_KINDS:
        params = AttackCampaignParams(
            strategy=strategy,
            splitter=kind,
            n_trials=n_trials,
            seed=seed,
            load=load,
            duration_ns=duration_ns,
            telemetry=telemetry,
        )
        campaigns[kind] = runtime.run_campaign(
            AttackCampaign(
                config=config,
                params=params,
                fault_schedule=fault_schedule,
                failed_switches=failed_switches,
                fidelity=fidelity,
                workload=workload,
            )
        )
    contiguous = campaigns["contiguous"].victim_gain["mean"]
    pseudo = campaigns["pseudo-random"].victim_gain["mean"]
    return {
        "strategy": strategy.describe(),
        "n_switches": config.n_switches,
        "contiguous": campaigns["contiguous"].to_dict(),
        "pseudo-random": campaigns["pseudo-random"].to_dict(),
        "exposure_ratio": contiguous / pseudo if pseudo > 0 else float("inf"),
        "_campaigns": campaigns,
    }
