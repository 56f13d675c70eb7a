"""The closed loop: per-switch controllers driven on window ticks.

One :class:`ControlLoop` instance governs one router run.  The engine
(fluid or packet pre-pass) calls :meth:`tick` at every control period
boundary with the per-switch signals observed over the *previous* tick
window -- offered bytes, delivered bytes and buffer backlog -- plus the
attack-window flag.  The loop folds them through the three controller
families (:mod:`repro.control.config`) and exposes two actuator arrays
the engine applies to the *next* window (decisions are causal: the
control plane only ever sees the past):

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

from typing import Any, Dict, List, Optional

import numpy as np

from .actions import ActionLog
from .config import ControlConfig
from .controller import STATES, Controller

#: Control-plane time-series names.
CONTROL_STATE = "repro_control_state"
CONTROL_THROTTLE = "repro_control_throttle_fraction"

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
        self._admission = _bank(config.admission, n_switches)
        self._reweight = _bank(config.reweight, n_switches)
        self._mitigation = _bank(config.mitigation, n_switches)
        #: The actuators.  Each array is replaced, never written in
        #: place, and only on a tick that moves one of its values, so an
        #: engine may cache what it derives from one by identity.
        self.admit = np.ones(n_switches)
        self.weight = np.ones(n_switches)
        #: Telemetry series, looked up on first use and then held.
        self._series: Dict[tuple, Any] = {}
        self.log.emit(
            "control_start",
            t_ns=0.0,
            tick_ns=config.tick_ns,
            n_switches=n_switches,
            controllers=[
                name
                for name, bank in (
                    ("admission", self._admission),
                    ("reweight", self._reweight),
                    ("mitigation", self._mitigation),
                )
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
        The tick is one pass over the switches, on Python floats; each
        switch's controllers run in the order admission, reweight,
        mitigation, which is the order of its actions in the log.
        """
        index = self.ticks
        self.ticks += 1
        n = self.n_switches
        total = float(offered.sum())
        offered = offered.tolist()
        banks = []  # (name, controllers, signal per switch)
        if self._admission is not None:
            limit = self.occupancy_limit
            banks.append(
                ("admission", self._admission, [b / limit for b in backlog.tolist()])
            )
        if self._reweight is not None:
            banks.append(
                (
                    "reweight",
                    self._reweight,
                    [
                        max(0.0, 1.0 - d / o) if o > _SIGNAL_EPS else 0.0
                        for o, d in zip(offered, delivered.tolist())
                    ],
                )
            )
        if self._mitigation is not None:
            if attack_active and total > _SIGNAL_EPS:
                gains = [o * n / total for o in offered]
            else:
                gains = [0.0] * n
            banks.append(("mitigation", self._mitigation, gains))
        values = {name: [1.0] * n for name in ("admission", "mitigation")}
        values["reweight"] = self.weight.tolist()
        telemetry = self.telemetry
        for h in range(n):
            for name, controllers, signals in banks:
                controller = controllers[h]
                before_state = controller.state
                before_value = controller.value
                state, value, changed = controller.update(signals[h])
                if changed or value != before_value:
                    self._log(
                        name, controller, h, index, t_ns, before_state,
                        changed, value != before_value,
                    )
                if telemetry is not None:
                    self._timeseries(
                        CONTROL_STATE,
                        "controller state per control tick (0=GREEN..3=RED)",
                        controller=name,
                        switch=str(h),
                    ).observe(t_ns, float(state))
                values[name][h] = value
        admit = [min(a, m) for a, m in zip(values["admission"], values["mitigation"])]
        if admit != self.admit.tolist():
            self.admit = np.array(admit)
        if values["reweight"] != self.weight.tolist():
            self.weight = np.array(values["reweight"])
        if telemetry is not None:
            for h in range(n):
                self._timeseries(
                    CONTROL_THROTTLE,
                    "ingress throttle fraction per control tick",
                    switch=str(h),
                ).observe(t_ns, 1.0 - admit[h])

    def _log(
        self,
        name: str,
        controller: Controller,
        switch: int,
        index: int,
        t_ns: float,
        before_state: int,
        changed: bool,
        actuated: bool,
    ) -> None:
        """A controller's state change and/or actuation, in that order."""
        if changed:
            self.n_state_changes += 1
            self.log.emit(
                "state_change",
                t_ns=t_ns,
                tick=index,
                switch=switch,
                controller=name,
                from_state=STATES[before_state],
                to_state=STATES[controller.state],
                signal=round(float(controller.smoothed), 9),
            )
        if actuated:
            self.log.emit(
                "actuation",
                t_ns=t_ns,
                tick=index,
                switch=switch,
                controller=name,
                value=round(float(controller.value), 9),
            )

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


def _bank(params, n_switches: int) -> Optional[List[Controller]]:
    if params is None:
        return None
    return [Controller(params) for _ in range(n_switches)]
