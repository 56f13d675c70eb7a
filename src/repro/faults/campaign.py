"""Seeded Monte-Carlo fault campaigns.

A campaign draws ``n_scenarios`` random fault schedules from MTBF/MTTR
parameters, simulates each faulted router run, and aggregates the
capacity / loss / availability distributions.  Everything is seeded:
scenario ``i`` of a campaign with seed S is drawn from ``default_rng(S,
i)``, so the same (params, config) always produces the same schedules
and -- because each scenario is itself a deterministic sequential
simulation -- the same distributions, no matter how many workers run it.

Scenarios are independent, so the fan-out parallelises *between*
scenarios (each worker simulates its whole faulted router
sequentially), the natural unit here just as the switch is for one run.
Dispatch, caching and sharding live in the scenario runtime
(:mod:`repro.runtime`), and each cell is a ``fault_cell``
:class:`~repro.runtime.Scenario` the runtime executes; this module keeps
the domain pieces -- the MTBF/MTTR drawing recipe and the aggregate; run
a campaign through :class:`repro.runtime.FaultCampaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..config import RouterConfig
from ..errors import ConfigError
from .model import (
    FOREVER_NS,
    FiberCut,
    HBMChannelLoss,
    OEODegradation,
    SwitchFailure,
)
from .report import AVAILABILITY_THRESHOLD
from .schedule import FaultSchedule


@dataclass(frozen=True)
class CampaignParams:
    """What to draw and how to simulate it.

    MTBF values are per *component* (one switch, one switch's HBM
    subsystem, one switch's OEO stage, one fiber); a component fails
    within the run with probability ``1 - exp(-duration / mtbf)``.
    ``inf`` disables a fault class.  MTTR is the mean of the
    exponential repair time; repairs running past the horizon simply
    never recover within the run.
    """

    n_scenarios: int = 50
    seed: int = 0
    load: float = 0.6
    duration_ns: float = 40_000.0
    n_intervals: int = 8
    switch_mtbf_ns: float = 200_000.0
    switch_mttr_ns: float = 10_000.0
    channel_mtbf_ns: float = 200_000.0
    channel_mttr_ns: float = 10_000.0
    max_channels_lost: int = 4
    oeo_mtbf_ns: float = 200_000.0
    oeo_mttr_ns: float = 10_000.0
    fiber_mtbf_ns: float = float("inf")
    fiber_mttr_ns: float = 10_000.0

    def __post_init__(self) -> None:
        if self.n_scenarios <= 0:
            raise ConfigError(
                f"n_scenarios must be positive, got {self.n_scenarios}"
            )
        if not self.duration_ns > 0:  # also catches NaN
            raise ConfigError(
                f"duration_ns must be positive, got {self.duration_ns}"
            )
        if self.max_channels_lost < 1:
            raise ConfigError(
                f"max_channels_lost must be >= 1, got {self.max_channels_lost}"
            )
        for name in (
            "switch_mtbf_ns",
            "switch_mttr_ns",
            "channel_mtbf_ns",
            "channel_mttr_ns",
            "oeo_mtbf_ns",
            "oeo_mttr_ns",
            "fiber_mtbf_ns",
            "fiber_mttr_ns",
        ):
            # inf is legal (an MTBF of inf means "never"); NaN is not.
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")


def _draw_window(rng, duration_ns: float, mttr_ns: float):
    """A failure window: uniform onset, exponential repair time.

    Repairs that would finish after the horizon are reported as
    permanent (``inf``) -- within this run they never recover, and the
    schedule stays horizon-independent.
    """
    start = float(rng.uniform(0.0, duration_ns))
    end = start + float(rng.exponential(mttr_ns))
    if end >= duration_ns:
        end = FOREVER_NS
    return start, end


def draw_fault_schedule(
    config: RouterConfig, params: CampaignParams, rng
) -> FaultSchedule:
    """One random schedule: every component flips an exponential coin."""
    duration = params.duration_ns
    events: List = []

    def fails(mtbf_ns: float) -> bool:
        if np.isinf(mtbf_ns):
            return False
        return bool(rng.random() < -np.expm1(-duration / mtbf_ns))

    total_channels = config.switch.total_channels
    for h in range(config.n_switches):
        if fails(params.switch_mtbf_ns):
            start, end = _draw_window(rng, duration, params.switch_mttr_ns)
            events.append(SwitchFailure(switch=h, start_ns=start, end_ns=end))
        if fails(params.channel_mtbf_ns):
            start, end = _draw_window(rng, duration, params.channel_mttr_ns)
            lost = int(
                rng.integers(1, min(params.max_channels_lost, total_channels) + 1)
            )
            events.append(
                HBMChannelLoss(
                    switch=h, n_channels=lost, start_ns=start, end_ns=end
                )
            )
        if fails(params.oeo_mtbf_ns):
            start, end = _draw_window(rng, duration, params.oeo_mttr_ns)
            factor = float(rng.uniform(0.5, 0.95))
            events.append(
                OEODegradation(
                    switch=h, rate_factor=factor, start_ns=start, end_ns=end
                )
            )
    for ribbon in range(config.n_ribbons):
        for fiber in range(config.fibers_per_ribbon):
            if fails(params.fiber_mtbf_ns):
                start, end = _draw_window(rng, duration, params.fiber_mttr_ns)
                events.append(
                    FiberCut(
                        ribbon=ribbon, fiber=fiber, start_ns=start, end_ns=end
                    )
                )
    return FaultSchedule(events)


def _distribution(values: List[float]) -> dict:
    arr = np.asarray(values, dtype=float)
    return {
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "p10": float(np.percentile(arr, 10)),
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
        "max": float(arr.max()),
    }


@dataclass
class CampaignResult:
    """Aggregate of a whole campaign."""

    params: CampaignParams
    scenarios: List[dict] = field(default_factory=list)

    @property
    def delivered_fractions(self) -> List[float]:
        return [s["delivered_fraction"] for s in self.scenarios]

    @property
    def availabilities(self) -> List[float]:
        return [s["availability"] for s in self.scenarios]

    @property
    def n_faulted(self) -> int:
        """Scenarios in which at least one fault was drawn."""
        return sum(1 for s in self.scenarios if s["n_events"] > 0)

    def to_dict(self) -> dict:
        return {
            "n_scenarios": self.params.n_scenarios,
            "seed": self.params.seed,
            "load": self.params.load,
            "duration_ns": self.params.duration_ns,
            "availability_threshold": AVAILABILITY_THRESHOLD,
            "n_faulted_scenarios": self.n_faulted,
            "delivered_fraction": _distribution(self.delivered_fractions),
            "availability": _distribution(self.availabilities),
            "loss_fraction": _distribution(
                [s["loss_fraction"] for s in self.scenarios]
            ),
            "scenarios": self.scenarios,
        }
