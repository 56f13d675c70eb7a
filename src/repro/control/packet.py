"""Packet-fidelity control: the causal control split.

The packet engine (:class:`~repro.core.sps.SplitParallelSwitch`) lets
the control plane act where a real SPS control plane would: at the
split, before packets commit to a fiber.  :class:`PacketControl` is a
stage of :meth:`~repro.core.sps.SplitParallelSwitch.run_stream`
(``control=``): each arrival block and its fibers pass through it in
arrival order, on the same tick cadence as the fluid loop -- tick
``k``'s actuation is computed purely from tick ``k-1``'s signals:

- **reweight** -- a packet bound for a down-weighted switch is
  deterministically redirected (error diffusion per switch, smooth
  weighted round-robin over the healthier switches, round-robin over
  the ribbon's fibers feeding the new switch via
  :meth:`~repro.core.fiber_split.FiberSplitter.fibers_to`);
- **admission / mitigation** -- a throttled packet never reaches its
  switch.  ``run_stream`` charges it to that switch's report as a
  ``backpressure-throttled`` drop, the flow engine's convention (a
  throttled byte is an explicit backpressure loss, never a vanished
  offer).

Signals are what switch hardware can actually report per tick: offered
bytes at the split, a leaky-bucket occupancy estimate drained at the
switch's aggregate egress rate, and the loss-of-light indication of a
dead switch (``delivered = 0`` while its fault window covers the tick).
The stage carries its buckets, credits, fiber cursors, round-robin and
current tick across blocks and closes every tick, empty ones included,
so the loop sees the same ticks however the run is chunked.  It is pure
and deterministic -- no RNG, no clock -- and runs in the parent before
the per-switch partition, so the repo-wide sequential == parallel byte
identity is untouched.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import RouterConfig
from ..core.sps import check_split_range
from ..traffic.stream import ArrivalBlock
from ..units import rate_to_bytes_per_ns
from .config import ControlConfig
from .loop import ControlLoop

#: Multiplier below which a switch's weight counts as actuated (floats
#: recover to exactly ``ceiling=1.0`` via the clamped step-up).
_WEIGHT_EPS = 1e-9


def attack_windows_for(strategy, duration_ns: float) -> Tuple[Tuple[float, float], ...]:
    """The windows during which ``repro_attack_active_window`` fires.

    Burst strategies expose their ON windows; every other strategy
    shapes the whole run, so the window is the full horizon (matching
    :func:`repro.telemetry.tag_attack_window`'s 0..duration tag).
    """
    from ..adversary.strategies import BurstSynchronizedAttack

    if isinstance(strategy, BurstSynchronizedAttack):
        on_ns = strategy.duty * strategy.period_ns
        windows: List[Tuple[float, float]] = []
        index = 0
        while index * strategy.period_ns < duration_ns:
            start = index * strategy.period_ns
            windows.append((start, min(start + on_ns, duration_ns)))
            index += 1
        return tuple(windows)
    return ((0.0, duration_ns),)


class _SmoothWRR:
    """Deterministic smooth weighted round-robin over the switches."""

    def __init__(self, n: int) -> None:
        self.credit = np.zeros(n)

    def pick(self, weights: np.ndarray) -> int:
        self.credit += weights
        choice = int(np.argmax(self.credit))
        self.credit[choice] -= float(weights.sum())
        return choice


class PacketControl:
    """The closed-loop stage of one packet-fidelity router run.

    ``control`` configures the loop; ``attack_windows`` are the spans
    in which the mitigation controller sees an attack
    (:func:`attack_windows_for`).  ``run_stream`` calls :meth:`start`,
    then :meth:`apply` on every block, then :meth:`finish`.  Afterwards
    :attr:`loop` is the finished :class:`ControlLoop` (its action log
    carries the ``repro-control-v1`` stream, its ``throttled_bytes``
    the backpressured total) and :attr:`throttled_bytes` /
    :attr:`throttled_packets` hold what each switch was denied.
    """

    def __init__(
        self,
        control: ControlConfig,
        attack_windows: Optional[Sequence[Tuple[float, float]]] = None,
    ) -> None:
        self.control = control
        self.attack_windows = tuple(attack_windows) if attack_windows else ()
        self.loop: Optional[ControlLoop] = None

    def start(
        self,
        config: RouterConfig,
        splitter,
        duration_ns: float,
        schedule=None,
        telemetry=None,
    ) -> None:
        """Bind the stage to one run: fresh loop, buckets and cursors."""
        from ..flow.engine import buffer_limit_bytes

        n_switches = config.n_switches
        n_ribbons = config.n_ribbons
        switch = config.switch
        tick_ns = self.control.tick_ns
        self._config = config
        self._duration_ns = duration_ns
        self._n_ticks = max(int(np.ceil(duration_ns / tick_ns - 1e-9)), 1)
        self._capacity_per_tick = (
            rate_to_bytes_per_ns(switch.port_rate_bps) * switch.n_ports * tick_ns
        )
        self.loop = ControlLoop(
            self.control, n_switches, buffer_limit_bytes(switch), telemetry=telemetry
        )
        self._assignments = [splitter.assignment_array(r) for r in range(n_ribbons)]
        self._fibers_by_switch = [
            [splitter.fibers_to(r, h) for h in range(n_switches)]
            for r in range(n_ribbons)
        ]
        self._fiber_cursor = np.zeros((n_ribbons, n_switches), dtype=np.int64)
        self._dead_always = (
            set(schedule.whole_run_dead_switches()) if schedule is not None else set()
        )
        self._views = (
            {
                h: schedule.switch_view(h, switch.total_channels)
                for h in range(n_switches)
                if h not in self._dead_always
            }
            if schedule is not None
            else {}
        )
        self._tick = 0  # the open tick
        self._bucket = np.zeros(n_switches)  # leaky-bucket occupancy estimate
        self._offered = np.zeros(n_switches)  # the open tick's offer
        self._keep_credit = np.zeros(n_switches)  # reweight error diffusion
        self._admit_credit = np.zeros(n_switches)  # admission error diffusion
        self._wrr = _SmoothWRR(n_switches)
        self.throttled_bytes = [0] * n_switches
        self.throttled_packets = [0] * n_switches

    def _dead_in_tick(self, h: int, tick: int) -> bool:
        if h in self._dead_always:
            return True
        view = self._views.get(h)
        return view is not None and view.dead_at((tick + 0.5) * self.control.tick_ns)

    def _advance(self, tick: int) -> None:
        """Close every tick before ``tick``: served bytes per switch
        (zero while its loss-of-light indication is up), then actuate
        the next."""
        tick_ns = self.control.tick_ns
        while self._tick < tick:
            closing = self._tick
            self._tick += 1
            served = np.minimum(self._bucket, self._capacity_per_tick)
            for h in range(len(served)):
                if self._dead_in_tick(h, closing):
                    served[h] = 0.0
            self._bucket -= served
            start, end = closing * tick_ns, self._tick * tick_ns
            self.loop.tick(
                end,
                self._offered,
                served,
                self._bucket.copy(),
                attack_active=any(
                    s < end and e > start for s, e in self.attack_windows
                ),
            )
            self._offered = np.zeros(len(served))

    def apply(
        self, block: ArrivalBlock, fibers: np.ndarray
    ) -> Tuple[ArrivalBlock, np.ndarray]:
        """The admitted rows of ``block`` and their (possibly
        reassigned) fibers -- what the switches run.

        ``fibers`` are the arrivals' fibers within each ribbon, aligned
        with ``block``; a ribbon beyond the router's or a fiber outside
        ``[0, fibers_per_ribbon)`` raises
        :class:`~repro.errors.ConfigError`.
        """
        check_split_range(self._config, block.inputs, fibers)
        tick_ns = self.control.tick_ns
        loop = self.loop
        keep_credit = self._keep_credit
        admit_credit = self._admit_credit
        # The walk is sequential (its error-diffusion credits are
        # order-dependent floats); it reads plain lists taken from the
        # block's time-sorted arrays.
        ticks_of = np.minimum(
            (block.times / tick_ns).astype(np.int64), self._n_ticks - 1
        ).tolist()
        new_fibers = fibers.tolist()
        throttled = np.zeros(len(block), dtype=bool)
        for i, (tick, ribbon, size) in enumerate(
            zip(ticks_of, block.inputs.tolist(), block.sizes.tolist())
        ):
            if tick > self._tick:
                self._advance(tick)
            target = int(self._assignments[ribbon][new_fibers[i]])
            if loop.weight[target] < 1.0 - _WEIGHT_EPS:
                keep_credit[target] += loop.weight[target]
                if keep_credit[target] >= 1.0:
                    keep_credit[target] -= 1.0
                else:
                    target = self._wrr.pick(loop.weight)
                    lanes = self._fibers_by_switch[ribbon][target]
                    cursor = self._fiber_cursor[ribbon, target]
                    new_fibers[i] = lanes[cursor % len(lanes)]
                    self._fiber_cursor[ribbon, target] = cursor + 1
            self._offered[target] += size
            admit_credit[target] += float(loop.admit[target])
            if admit_credit[target] >= 1.0:
                admit_credit[target] -= 1.0
                if not self._dead_in_tick(target, tick):
                    self._bucket[target] += size
            else:
                throttled[i] = True
                self.throttled_bytes[target] += size
                self.throttled_packets[target] += 1
        kept = ~throttled
        return block.select(kept), np.asarray(new_fibers, dtype=np.int64)[kept]

    def finish(self) -> None:
        """Close the run's remaining ticks and the action log."""
        self._advance(self._n_ticks - 1)
        self.loop.throttled_bytes = float(sum(self.throttled_bytes))
        self.loop.finish(self._duration_ns)
