"""Deterministic fault schedules and their per-switch projections.

A :class:`FaultSchedule` is an immutable, time-sorted collection of
fault events (:mod:`repro.faults.model`).  The router consumes it in two
places:

- :meth:`~repro.core.sps.SplitParallelSwitch.run` filters fiber-cut
  traffic at the passive split and skips switches that are dead for the
  whole run (the degenerate schedule
  :meth:`FaultSchedule.from_failed_switches` builds);
- every surviving switch receives a :class:`SwitchFaultView` -- the
  picklable projection of the schedule onto that switch -- which the
  :class:`~repro.core.hbm_switch.HBMSwitch`, the PFI engine and the
  output ports query mid-run.

Both the schedule and the views are free of simulation state, so the
same schedule can drive many runs (the Monte-Carlo campaigns of
:mod:`repro.faults.campaign`) and ships to process-pool workers
unchanged.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from .model import (
    FiberCut,
    HBMChannelLoss,
    OEODegradation,
    SwitchFailure,
    event_from_dict,
    event_to_dict,
)


def _sort_key(event) -> Tuple[float, str]:
    return (event.start_ns, event.describe())


class SwitchFaultView:
    """One switch's slice of a fault schedule (picklable, read-only).

    ``total_channels`` is the switch's T, needed to turn an absolute
    channel-loss count into the drain-rate fraction PFI applies.
    """

    __slots__ = (
        "switch",
        "total_channels",
        "failures",
        "channel_losses",
        "oeo_events",
    )

    def __init__(
        self,
        switch: int,
        total_channels: int,
        failures: Sequence[SwitchFailure] = (),
        channel_losses: Sequence[HBMChannelLoss] = (),
        oeo_events: Sequence[OEODegradation] = (),
    ) -> None:
        if total_channels <= 0:
            raise ConfigError(
                f"total_channels must be positive, got {total_channels}"
            )
        self.switch = switch
        self.total_channels = total_channels
        self.failures = tuple(sorted(failures, key=_sort_key))
        self.channel_losses = tuple(sorted(channel_losses, key=_sort_key))
        self.oeo_events = tuple(sorted(oeo_events, key=_sort_key))

    # -- hot-path queries (called per packet / per PFI phase) ----------------

    @property
    def is_trivial(self) -> bool:
        return not (self.failures or self.channel_losses or self.oeo_events)

    @property
    def has_channel_faults(self) -> bool:
        return bool(self.channel_losses)

    @property
    def has_oeo_faults(self) -> bool:
        return bool(self.oeo_events)

    @property
    def dead_whole_run(self) -> bool:
        """Dead from t = 0 with no recovery: the degenerate schedule
        :meth:`FaultSchedule.from_failed_switches` builds."""
        return any(f.whole_run for f in self.failures)

    def dead_at(self, t_ns: float) -> bool:
        """Whether the switch is down at ``t_ns``."""
        for failure in self.failures:
            if failure.active_at(t_ns):
                return True
        return False

    def channels_lost(self, t_ns: float) -> int:
        """Memory channels unavailable at ``t_ns`` (capped at T)."""
        lost = sum(
            e.n_channels for e in self.channel_losses if e.active_at(t_ns)
        )
        return min(lost, self.total_channels)

    def channel_fraction(self, t_ns: float) -> float:
        """Surviving fraction of the T channels at ``t_ns`` (0.0 .. 1.0)."""
        return (self.total_channels - self.channels_lost(t_ns)) / self.total_channels

    def oeo_rate_factor(self, t_ns: float) -> float:
        """Compound egress-rate factor at ``t_ns`` (1.0 = nominal).

        Concurrent degradations multiply: two independent 80% stages
        give 64% of the nominal line rate.
        """
        factor = 1.0
        for event in self.oeo_events:
            if event.active_at(t_ns):
                factor *= event.rate_factor
        return factor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SwitchFaultView(switch={self.switch}, "
            f"failures={len(self.failures)}, "
            f"channel_losses={len(self.channel_losses)}, "
            f"oeo={len(self.oeo_events)})"
        )


class FaultSchedule:
    """An immutable, time-sorted set of fault events."""

    def __init__(self, events: Iterable = ()) -> None:
        self.events = tuple(sorted(events, key=_sort_key))

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_failed_switches(cls, failed: Iterable[int]) -> "FaultSchedule":
        """The degenerate schedule for a list of dead switches: every
        listed switch dead from t = 0 forever."""
        return cls(SwitchFailure(switch=h) for h in failed)

    def with_failed_switches(self, failed: Iterable[int]) -> "FaultSchedule":
        """This schedule plus whole-run deaths for ``failed`` switches."""
        extra = [SwitchFailure(switch=h) for h in failed]
        if not extra:
            return self
        return FaultSchedule(list(self.events) + extra)

    def merged(self, other: "FaultSchedule") -> "FaultSchedule":
        return FaultSchedule(list(self.events) + list(other.events))

    # -- queries --------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def fiber_cuts(self) -> Tuple[FiberCut, ...]:
        return tuple(e for e in self.events if isinstance(e, FiberCut))

    @property
    def has_fiber_cuts(self) -> bool:
        return any(isinstance(e, FiberCut) for e in self.events)

    def fiber_cut_active(self, ribbon: int, fiber: int, t_ns: float) -> bool:
        """Whether traffic on (ribbon, fiber) is lost at ``t_ns``."""
        for cut in self.events:
            if (
                isinstance(cut, FiberCut)
                and cut.ribbon == ribbon
                and cut.fiber == fiber
                and cut.active_at(t_ns)
            ):
                return True
        return False

    def switch_events(self, switch: int) -> List:
        """Every switch-scoped event targeting ``switch``."""
        return [
            e
            for e in self.events
            if isinstance(e, (SwitchFailure, HBMChannelLoss, OEODegradation))
            and e.switch == switch
        ]

    def switch_view(
        self, switch: int, total_channels: int
    ) -> Optional[SwitchFaultView]:
        """The projection onto ``switch``, or ``None`` when it has no
        events (so fault-free switches keep the exact unfaulted path)."""
        failures = []
        losses = []
        oeo = []
        for event in self.events:
            if isinstance(event, SwitchFailure) and event.switch == switch:
                failures.append(event)
            elif isinstance(event, HBMChannelLoss) and event.switch == switch:
                losses.append(event)
            elif isinstance(event, OEODegradation) and event.switch == switch:
                oeo.append(event)
        if not (failures or losses or oeo):
            return None
        return SwitchFaultView(
            switch,
            total_channels,
            failures=failures,
            channel_losses=losses,
            oeo_events=oeo,
        )

    def whole_run_dead_switches(self) -> List[int]:
        """Switches dead from t = 0 with no recovery, sorted."""
        dead = {
            e.switch
            for e in self.events
            if isinstance(e, SwitchFailure) and e.whole_run
        }
        return sorted(dead)

    # -- validation -----------------------------------------------------------

    def validate(self, config) -> None:
        """Check every event against a :class:`~repro.config.RouterConfig`.

        Raises :class:`~repro.errors.ConfigError` on out-of-range scopes
        or overlapping channel-loss windows on one switch (overlaps are
        rejected so the analytic drain stretch and the command-level
        validation agree on which channels are gone).
        """
        from .model import FABRIC_FAULT_TYPES

        h = config.n_switches
        total_channels = config.switch.total_channels
        losses_by_switch = {}
        for event in self.events:
            if isinstance(event, FABRIC_FAULT_TYPES):
                raise ConfigError(
                    f"{event.describe()} is fabric-scoped; it applies to "
                    "fabric scenarios, not a single router"
                )
            if isinstance(event, (SwitchFailure, HBMChannelLoss, OEODegradation)):
                if not 0 <= event.switch < h:
                    raise ConfigError(
                        f"fault targets switch {event.switch}, router has H={h}"
                    )
            if isinstance(event, HBMChannelLoss):
                if event.n_channels > total_channels:
                    raise ConfigError(
                        f"cannot lose {event.n_channels} channels; switch has "
                        f"T={total_channels}"
                    )
                losses_by_switch.setdefault(event.switch, []).append(event)
            if isinstance(event, FiberCut):
                if not 0 <= event.ribbon < config.n_ribbons:
                    raise ConfigError(
                        f"fiber cut targets ribbon {event.ribbon}, router has "
                        f"{config.n_ribbons}"
                    )
                if not 0 <= event.fiber < config.fibers_per_ribbon:
                    raise ConfigError(
                        f"fiber cut targets fiber {event.fiber}, ribbons have "
                        f"{config.fibers_per_ribbon} fibers"
                    )
        for switch, losses in losses_by_switch.items():
            ordered = sorted(losses, key=lambda e: e.start_ns)
            for a, b in zip(ordered, ordered[1:]):
                if b.start_ns < a.end_ns:
                    raise ConfigError(
                        f"overlapping HBM channel losses on switch {switch}: "
                        f"{a.describe()} and {b.describe()}"
                    )

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> dict:
        return {"events": [event_to_dict(e) for e in self.events]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        return cls(event_from_dict(e) for e in data.get("events", ()))

    def describe(self) -> List[str]:
        """One human-readable line per event, in time order."""
        return [e.describe() for e in self.events]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule({len(self.events)} events)"
