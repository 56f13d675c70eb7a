"""The closed loop: per-switch controllers driven on window ticks.

One :class:`ControlLoop` instance governs one router run.  The engine
(fluid, or the packet control split) calls :meth:`tick` at every
control period boundary with the per-switch signals observed over the
*previous* tick window -- offered bytes, delivered bytes and buffer
backlog -- plus the attack-window flag.  The loop folds them through
the three controller families (:mod:`repro.control.config`) and
exposes two actuator arrays the engine applies to the *next* window
(decisions are causal: the control plane only ever sees the past):

- ``admit``  -- per-switch ingress admission fraction in
  ``[floor, 1]``: the fraction of traffic addressed to switch ``h``
  that is let through; the rest is backpressured (counted, not
  silently vanished).  Driven down by the admission controller
  (occupancy vs. the buffer limit) and the mitigation controller
  (offered-share gain during attack windows) -- the effective admit is
  the min of the two.
- ``weight`` -- per-switch split-weight multiplier in ``[floor, 1]``:
  scales the switch's share of the H-way fiber split (renormalised by
  the engine), so a RED switch sheds load to its healthy siblings.
  Driven by the reweight controller (goodput deficit).

Every decision lands in the :class:`~repro.control.actions.ActionLog`
and -- when a telemetry registry is attached -- in the
``repro_control_state`` / ``repro_control_throttle_fraction`` time
series, windowed at the control period.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from .actions import ActionLog
from .config import ControlConfig
from .controller import STATES, ControllerBank

#: Control-plane time-series names.
CONTROL_STATE = "repro_control_state"
CONTROL_THROTTLE = "repro_control_throttle_fraction"

#: Controller bank names, in log order per switch.
_BANK_NAMES = ("admission", "reweight", "mitigation")

#: Offered bytes below which a tick carries no reweight information
#: (an idle switch is not a broken switch).
_SIGNAL_EPS = 1.0


class ControlLoop:
    """Drives one run's controllers; owns the actuator state."""

    def __init__(
        self,
        config: ControlConfig,
        n_switches: int,
        occupancy_limit_bytes: float,
        log: Optional[ActionLog] = None,
        telemetry=None,
    ) -> None:
        self.config = config
        self.n_switches = n_switches
        self.occupancy_limit = float(occupancy_limit_bytes)
        self.log = log if log is not None else ActionLog()
        self.telemetry = telemetry
        self.ticks = 0
        self.n_state_changes = 0
        self.throttled_bytes = 0.0
        #: The admission, reweight and mitigation banks (``None`` when
        #: disabled), in the order a switch's actions are logged.
        self._banks = tuple(
            None if params is None else ControllerBank(params, n_switches)
            for params in (config.admission, config.reweight, config.mitigation)
        )
        #: The actuators.  Each array is replaced, never written in
        #: place, and only on a tick that moves one of its values, so an
        #: engine may cache what it derives from one by identity.  The
        #: lists hold the same values for the tick's comparison.
        self.admit = np.ones(n_switches)
        self.weight = np.ones(n_switches)
        self._admit = [1.0] * n_switches
        self._weight = [1.0] * n_switches
        #: Telemetry series, looked up on first use and then held.
        self._series: Dict[tuple, Any] = {}
        self.log.emit(
            "control_start",
            t_ns=0.0,
            tick_ns=config.tick_ns,
            n_switches=n_switches,
            controllers=[
                name for name, bank in zip(_BANK_NAMES, self._banks)
                if bank is not None
            ],
        )

    # -- the tick ------------------------------------------------------------

    def tick(
        self,
        t_ns: float,
        offered: np.ndarray,
        delivered: np.ndarray,
        backlog: np.ndarray,
        attack_active: bool = False,
    ) -> None:
        """Fold one window's per-switch signals; update the actuators.

        ``offered``/``delivered``/``backlog`` are (H,) byte arrays for
        the window that just closed.  Decisions apply from ``t_ns`` on.
        The tick folds each controller bank in one pass on Python
        floats; the actions are then logged by switch, and per switch in
        the order admission, reweight, mitigation.
        """
        index = self.ticks
        self.ticks += 1
        moves = []  # (switch, bank rank, state before, value before)
        admission, reweight, mitigation = self._banks
        if admission is not None:
            limit = self.occupancy_limit
            signals = [b / limit for b in backlog.tolist()]
            moves += [(h, 0, s, v) for h, s, v in admission.fold(signals)]
        if reweight is not None or mitigation is not None:
            offered_list = offered.tolist()
        if reweight is not None:
            deficits = []
            for o, d in zip(offered_list, delivered.tolist()):
                if o > _SIGNAL_EPS:
                    x = 1.0 - d / o
                    deficits.append(x if x > 0.0 else 0.0)
                else:
                    deficits.append(0.0)
            moves += [(h, 1, s, v) for h, s, v in reweight.fold(deficits)]
        if mitigation is not None:
            total = float(offered.sum()) if attack_active else 0.0
            if total > _SIGNAL_EPS:
                n = self.n_switches
                gains = [o * n / total for o in offered_list]
            else:
                gains = [0.0] * self.n_switches
            moves += [(h, 2, s, v) for h, s, v in mitigation.fold(gains)]
        if moves:
            # (switch, rank) is unique, so the sort never compares further.
            moves.sort()
            for h, rank, before_state, before_value in moves:
                self._log(rank, h, index, t_ns, before_state, before_value)
        if moves or index == 0:
            # The first tick applies the banks' initial values, which a
            # ceiling below 1 clamps.
            self._actuate()
        if self.telemetry is not None:
            self._observe(t_ns)

    def _actuate(self) -> None:
        """Replace an actuator array whose values moved: the effective
        admit is the min of admission and mitigation."""
        admission, reweight, mitigation = self._banks
        if admission is None or mitigation is None:
            bank = admission if mitigation is None else mitigation
            admit = [1.0] * self.n_switches if bank is None else bank.values
        else:
            admit = [
                m if m < a else a
                for a, m in zip(admission.values, mitigation.values)
            ]
        if admit != self._admit:
            self._admit = list(admit)
            self.admit = np.array(admit)
        if reweight is not None and reweight.values != self._weight:
            self._weight = list(reweight.values)
            self.weight = np.array(self._weight)

    def _log(
        self,
        rank: int,
        switch: int,
        index: int,
        t_ns: float,
        before_state: int,
        before_value: float,
    ) -> None:
        """A controller's state change and/or actuation, in that order."""
        name = _BANK_NAMES[rank]
        bank = self._banks[rank]
        state = bank.states[switch]
        value = bank.values[switch]
        if state != before_state:
            self.n_state_changes += 1
            self.log.emit(
                "state_change",
                t_ns=t_ns,
                tick=index,
                switch=switch,
                controller=name,
                from_state=STATES[before_state],
                to_state=STATES[state],
                signal=round(float(bank.smoothed[switch]), 9),
            )
        if value != before_value:
            self.log.emit(
                "actuation",
                t_ns=t_ns,
                tick=index,
                switch=switch,
                controller=name,
                value=round(float(value), 9),
            )

    def _observe(self, t_ns: float) -> None:
        """The tick's controller states and throttle fractions, one
        sample per series."""
        banks = [
            (name, bank) for name, bank in zip(_BANK_NAMES, self._banks)
            if bank is not None
        ]
        for h in range(self.n_switches):
            for name, bank in banks:
                self._timeseries(
                    CONTROL_STATE,
                    "controller state per control tick (0=GREEN..3=RED)",
                    controller=name,
                    switch=str(h),
                ).observe(t_ns, float(bank.states[h]))
        for h, admit in enumerate(self._admit):
            self._timeseries(
                CONTROL_THROTTLE,
                "ingress throttle fraction per control tick",
                switch=str(h),
            ).observe(t_ns, 1.0 - admit)

    def _timeseries(self, name: str, help: str, **labels: str):
        key = (name, *labels.values())
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = self.telemetry.timeseries(
                name, help, window_ns=self.config.tick_ns, agg="max", **labels
            )
        return series

    # -- wrap-up -------------------------------------------------------------

    def finish(self, t_ns: float) -> None:
        self.log.emit(
            "control_finish",
            t_ns=t_ns,
            ticks=self.ticks,
            n_state_changes=self.n_state_changes,
            throttled_bytes=int(round(self.throttled_bytes)),
        )

    def summary(self) -> Dict[str, Any]:
        """Compact JSON-safe digest of the run's control activity --
        what campaign cell payloads embed (byte-identical across
        sequential/parallel/cached runs)."""
        return {
            "ticks": self.ticks,
            "n_actions": len(self.log),
            "n_state_changes": self.n_state_changes,
            "throttled_bytes": int(round(self.throttled_bytes)),
            "final_admit": [round(float(v), 9) for v in self.admit],
            "final_weight": [round(float(v), 9) for v in self.weight],
        }
