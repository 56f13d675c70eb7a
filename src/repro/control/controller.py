"""The per-resource state machine: EWMA signal in, actuated value out.

One :class:`Controller` governs one controlled resource (one switch's
admission fraction, one switch's split-weight multiplier, ...).  Each
tick it folds the raw signal into an EWMA (the algebra of the shared
:func:`repro.telemetry.ewma_step`, the same one the timeseries
renderer uses), classifies the smoothed signal into one of four states,
and nudges its actuated value:

====== ======================================== =======================
state  entered when (smoothed signal)            actuation on the value
====== ======================================== =======================
GREEN  below ``yellow``                          ``+step_up`` (additive
                                                 recovery, clamped to
                                                 ``ceiling``)
YELLOW ``>= yellow``                             hold
SOFT   ``>= soft_red``                           ``* (1+factor_down)/2``
RED    ``>= red``                                ``* factor_down``
====== ======================================== =======================

Multiplicative decrease with a ``floor`` and additive recovery with a
``ceiling`` is the wanctl/CAKE shape (and AIMD's): overload collapses
the value geometrically, recovery is gentle and linear, and the floor
guarantees the resource is never starved outright (a throttled port
keeps trickling; a downweighted switch keeps a canary share so its
recovery is observable).

Hysteresis: escalation is immediate (any tick whose EWMA crosses a
threshold steps the state up, possibly multiple levels), but
de-escalation happens one level per tick and only once the EWMA has
fallen ``hysteresis`` *below* the current level's entry threshold.  A
signal hovering exactly at a boundary therefore escalates once and
stays -- no GREEN<->RED flapping (unit-tested in
``tests/test_control.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..telemetry.timeseries import ewma_fold
from .config import ControllerParams

#: State names, in escalation order (indexes are the wire encoding the
#: ``repro_control_state`` time series and the action stream carry).
STATES = ("GREEN", "YELLOW", "SOFT_RED", "RED")

GREEN, YELLOW, SOFT_RED, RED = range(4)


class Controller:
    """One resource's EWMA + state machine + floor/ceiling actuator."""

    __slots__ = ("params", "state", "value", "smoothed", "_entry")

    def __init__(
        self, params: ControllerParams, initial_value: float = 1.0
    ) -> None:
        self.params = params
        self.state = GREEN
        self.value = min(max(initial_value, params.floor), params.ceiling)
        self.smoothed: Optional[float] = None
        #: Entry threshold of each state, indexed by state.
        self._entry = (params.yellow, params.yellow, params.soft_red, params.red)

    def update(self, signal: float) -> Tuple[int, float, bool]:
        """Fold one tick's raw signal; returns (state, value, changed).

        ``changed`` is True when the state moved this tick -- what the
        action stream logs as a ``state_change``.  The EWMA fold skips
        the alpha check: :class:`ControllerParams` made it once.
        """
        p = self.params
        smoothed = self.smoothed = ewma_fold(self.smoothed, signal, p.ewma_alpha)
        state = self.state
        if smoothed >= p.red:
            new_state = RED
        elif smoothed >= p.soft_red:
            new_state = SOFT_RED
        elif smoothed >= p.yellow:
            new_state = YELLOW
        else:
            new_state = GREEN
        if new_state < state:
            # Escalation is immediate; de-escalation goes one level per
            # tick, and only with hysteresis margin below the current
            # level's entry threshold.
            if smoothed < self._entry[state] - p.hysteresis:
                new_state = state - 1
            else:
                new_state = state
        self.state = new_state
        # The clamps are min(ceiling, v) and max(floor, v), spelled as
        # comparisons (the same result, without two builtin calls).
        if new_state == GREEN:
            value = self.value + p.step_up
            self.value = value if value < p.ceiling else p.ceiling
        elif new_state == SOFT_RED:
            value = self.value * 0.5 * (1.0 + p.factor_down)
            self.value = value if value > p.floor else p.floor
        elif new_state == RED:
            value = self.value * p.factor_down
            self.value = value if value > p.floor else p.floor
        # YELLOW holds.
        return new_state, self.value, new_state != state
