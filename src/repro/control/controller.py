"""The per-resource state machine: EWMA signal in, actuated value out.

One controller governs one controlled resource (one switch's
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

The controllers of one family (one per switch) share their parameters,
so they are held and folded together as a :class:`ControllerBank`; a
lone :class:`Controller` is a bank of one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..telemetry.timeseries import ewma_fold
from .config import ControllerParams

#: State names, in escalation order (indexes are the wire encoding the
#: ``repro_control_state`` time series and the action stream carry).
STATES = ("GREEN", "YELLOW", "SOFT_RED", "RED")

GREEN, YELLOW, SOFT_RED, RED = range(4)


class ControllerBank:
    """``n`` controllers that share one :class:`ControllerParams`.

    The per-controller state lives in three Python lists indexed by
    controller (``states``, ``values``, ``smoothed``), so a control
    tick folds a whole bank in one pass and reads the shared parameters
    once.  :meth:`fold` is the one implementation of the EWMA and state
    machine algebra; :class:`Controller` is a bank of one.
    """

    __slots__ = ("params", "states", "values", "smoothed", "_entry")

    def __init__(
        self, params: ControllerParams, n: int, initial_value: float = 1.0
    ) -> None:
        self.params = params
        self.states = [GREEN] * n
        self.values = [min(max(initial_value, params.floor), params.ceiling)] * n
        self.smoothed: List[Optional[float]] = [None] * n
        #: Entry threshold of each state, indexed by state.
        self._entry = (params.yellow, params.yellow, params.soft_red, params.red)

    def fold(self, signals: Sequence[float]) -> List[Tuple[int, int, float]]:
        """Fold one tick's raw signal per controller, in index order.

        Returns ``(index, state before, value before)`` for each
        controller whose state or value moved, in index order; the new
        state, value and EWMA are in the bank's lists.  The EWMA fold
        skips the alpha check: :class:`ControllerParams` made it once.
        """
        p = self.params
        alpha = p.ewma_alpha
        yellow, soft_red, red = p.yellow, p.soft_red, p.red
        hysteresis, entry = p.hysteresis, self._entry
        floor, ceiling, step_up = p.floor, p.ceiling, p.step_up
        factor_down, soft_factor = p.factor_down, 1.0 + p.factor_down
        states, values, smoothed_all = self.states, self.values, self.smoothed
        moved = []
        for i, signal in enumerate(signals):
            smoothed = smoothed_all[i] = ewma_fold(smoothed_all[i], signal, alpha)
            state = states[i]
            if smoothed >= red:
                new_state = RED
            elif smoothed >= soft_red:
                new_state = SOFT_RED
            elif smoothed >= yellow:
                new_state = YELLOW
            else:
                new_state = GREEN
            if new_state < state:
                # Escalation is immediate; de-escalation goes one level
                # per tick, and only with hysteresis margin below the
                # current level's entry threshold.
                if smoothed < entry[state] - hysteresis:
                    new_state = state - 1
                else:
                    new_state = state
            before = values[i]
            # The clamps are min(ceiling, v) and max(floor, v), spelled
            # as comparisons (the same result, without two builtin calls).
            if new_state == GREEN:
                value = before + step_up
                value = value if value < ceiling else ceiling
            elif new_state == SOFT_RED:
                value = before * 0.5 * soft_factor
                value = value if value > floor else floor
            elif new_state == RED:
                value = before * factor_down
                value = value if value > floor else floor
            else:  # YELLOW holds.
                value = before
            if new_state != state or value != before:
                states[i] = new_state
                values[i] = value
                moved.append((i, state, before))
        return moved


class Controller:
    """One resource's EWMA + state machine + floor/ceiling actuator: a
    :class:`ControllerBank` of one."""

    __slots__ = ("_bank",)

    def __init__(
        self, params: ControllerParams, initial_value: float = 1.0
    ) -> None:
        self._bank = ControllerBank(params, 1, initial_value)

    @property
    def params(self) -> ControllerParams:
        return self._bank.params

    @property
    def state(self) -> int:
        return self._bank.states[0]

    @property
    def value(self) -> float:
        return self._bank.values[0]

    @property
    def smoothed(self) -> Optional[float]:
        return self._bank.smoothed[0]

    def update(self, signal: float) -> Tuple[int, float, bool]:
        """Fold one tick's raw signal; returns (state, value, changed).

        ``changed`` is True when the state moved this tick -- what the
        action stream logs as a ``state_change``.
        """
        before = self.state
        self._bank.fold((signal,))
        return self.state, self.value, self.state != before
