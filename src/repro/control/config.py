"""Controller configuration: frozen, validated, digest-participating.

A :class:`ControlConfig` is the complete declarative description of one
closed-loop run's control plane.  It is carried on the
:class:`~repro.runtime.Scenario` (the new ``control=`` field) and
hashed into the scenario digest, so closed-loop cells cache, resume and
shard exactly like open-loop cells -- and two cells that differ only in
controller tuning occupy different cache entries.

Each of the three controllers shares one parameter shape
(:class:`ControllerParams`), modelled on the wanctl CAKE controller:

- ``ewma_alpha`` smooths the raw per-tick signal (the same fold as
  :func:`repro.telemetry.ewma_step` -- one implementation repo-wide);
- ``yellow``/``soft_red``/``red`` are escalation thresholds on the
  smoothed signal, with ``hysteresis`` subtracted before a state may
  step back down (no GREEN<->RED flapping on a boundary-hovering
  signal);
- the actuated value (admit fraction or split-weight multiplier) lives
  in ``[floor, ceiling]``, and :class:`ControlConfig` holds every
  ceiling to at most 1: GREEN recovers additively by ``step_up``,
  SOFT_RED decreases multiplicatively by ``(1+factor_down)/2``, RED by
  ``factor_down``, YELLOW holds.

What each controller's *signal* is, is fixed by the loop
(:mod:`repro.control.loop`):

- **admission** -- per-switch occupancy as a fraction of the switch's
  buffer limit (the closed-loop view of
  ``repro_window_occupancy_bytes`` against the SRAM/HBM ceilings);
- **reweight** -- per-switch goodput deficit ``1 - delivered/offered``
  per tick (a dead or degraded switch shows deficit ~1, so its split
  weight collapses toward ``floor`` -- the canary share that keeps
  probing for recovery);
- **mitigation** -- per-switch offered-share gain over the uniform
  ``1/H`` share (the victim of a synchronized attack shows gain >> 1),
  evaluated only while an attack window is active.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..errors import ConfigError


@dataclass(frozen=True)
class ControllerParams:
    """One controller's thresholds and actuation constants."""

    ewma_alpha: float = 0.3
    yellow: float = 0.5
    soft_red: float = 0.7
    red: float = 0.9
    hysteresis: float = 0.05
    floor: float = 0.1
    ceiling: float = 1.0
    step_up: float = 0.1
    factor_down: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if not self.yellow <= self.soft_red <= self.red:
            raise ConfigError(
                f"thresholds must satisfy yellow <= soft_red <= red, got "
                f"({self.yellow}, {self.soft_red}, {self.red})"
            )
        if not self.hysteresis >= 0:  # also catches NaN
            raise ConfigError(
                f"hysteresis must be >= 0, got {self.hysteresis}"
            )
        if not 0.0 < self.floor <= self.ceiling:
            raise ConfigError(
                f"need 0 < floor <= ceiling, got "
                f"({self.floor}, {self.ceiling})"
            )
        if not self.step_up > 0:
            raise ConfigError(f"step_up must be positive, got {self.step_up}")
        if not 0.0 < self.factor_down < 1.0:
            raise ConfigError(
                f"factor_down must be in (0, 1), got {self.factor_down}"
            )


#: Admission/backpressure defaults: thresholds are occupancy fractions
#: of the per-switch buffer limit; throttle no lower than 20% so the
#: ingress never starves completely.
DEFAULT_ADMISSION = ControllerParams(
    yellow=0.5, soft_red=0.7, red=0.85, floor=0.2,
)

#: Split-reweighting defaults: thresholds are goodput-deficit fractions
#: (a healthy switch sits near 0, a dead one at 1); the 5% floor is the
#: canary share that keeps probing a degraded switch for recovery.
DEFAULT_REWEIGHT = ControllerParams(
    yellow=0.15, soft_red=0.35, red=0.6, floor=0.05, step_up=0.2,
    factor_down=0.25,
)

#: Attack-mitigation defaults: thresholds are offered-share gains over
#: the uniform 1/H share (~1 benign, >2 under a synchronized burst).
DEFAULT_MITIGATION = ControllerParams(
    yellow=1.5, soft_red=2.0, red=3.0, floor=0.25,
)


@dataclass(frozen=True)
class ControlConfig:
    """The full control plane of one closed-loop scenario.

    ``tick_ns`` is the control period: the loop observes and actuates
    on those window boundaries in both fidelities.  Each controller is
    individually optional (``None`` disables it); an all-``None``
    config is rejected -- use ``control=None`` on the scenario for a
    plain open-loop run.
    """

    tick_ns: float = 1_000.0
    admission: Optional[ControllerParams] = DEFAULT_ADMISSION
    reweight: Optional[ControllerParams] = DEFAULT_REWEIGHT
    mitigation: Optional[ControllerParams] = DEFAULT_MITIGATION

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tick_ns) and self.tick_ns > 0):
            raise ConfigError(
                f"tick_ns must be finite and positive, got {self.tick_ns}"
            )
        if (
            self.admission is None
            and self.reweight is None
            and self.mitigation is None
        ):
            raise ConfigError(
                "ControlConfig with every controller disabled; use "
                "control=None for an open-loop scenario"
            )
        for name in ("admission", "reweight", "mitigation"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, ControllerParams):
                raise ConfigError(
                    f"{name} must be ControllerParams or None, got "
                    f"{type(value).__name__}"
                )
            # The actuators are fractions: an admit or weight above 1
            # would admit more than is offered (a negative throttle).
            if value.ceiling > 1.0:
                raise ConfigError(
                    f"{name} ceiling must be <= 1 (admit and weight are "
                    f"fractions), got {value.ceiling}"
                )

    # -- digest / serialisation ----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe content for the scenario digest and CLI documents."""
        return {
            "_type": type(self).__name__,
            "tick_ns": self.tick_ns,
            "admission": _params_dict(self.admission),
            "reweight": _params_dict(self.reweight),
            "mitigation": _params_dict(self.mitigation),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ControlConfig":
        """Inverse of :meth:`to_dict` (round-trips exactly)."""
        return cls(
            tick_ns=float(data["tick_ns"]),
            admission=_params_from(data.get("admission")),
            reweight=_params_from(data.get("reweight")),
            mitigation=_params_from(data.get("mitigation")),
        )


def _params_dict(params: Optional[ControllerParams]) -> Optional[Dict[str, Any]]:
    return dataclasses.asdict(params) if params is not None else None


def _params_from(data: Optional[Dict[str, Any]]) -> Optional[ControllerParams]:
    return ControllerParams(**data) if data is not None else None
