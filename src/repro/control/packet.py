"""Packet-fidelity control: a causal split-level pre-pass.

The packet engine (:class:`~repro.core.sps.SplitParallelSwitch`)
consumes a complete workload up front, so the control plane acts where
a real SPS control plane would: at the split, before packets commit to
a fiber.  :func:`packet_control_prepass` walks the run's arrival block
in arrival order through the same tick cadence as the fluid loop --
tick ``k``'s actuation is computed purely from tick ``k-1``'s signals
-- and produces a *modified* workload:

- **reweight** -- a packet bound for a down-weighted switch is
  deterministically redirected (error diffusion per switch, smooth
  weighted round-robin over the healthier switches, round-robin over
  the ribbon's fibers feeding the new switch via
  :meth:`~repro.core.fiber_split.FiberSplitter.fibers_to`);
- **admission / mitigation** -- a throttled packet is excluded from
  the simulation; its bytes stay in the offered accounting through
  the loop's ``throttled_bytes`` (a throttled byte is an explicit
  backpressure loss, never a vanished offer).

Signals are what switch hardware can actually report per tick: offered
bytes at the split, a leaky-bucket occupancy estimate drained at the
switch's aggregate egress rate, and the loss-of-light indication of a
dead switch (``delivered = 0`` while its fault window covers the tick).
The pre-pass is pure and deterministic -- no RNG, no clock -- and runs
before the (sequential or parallel) engine pass, so the repo-wide
sequential == parallel byte-identity is untouched.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import RouterConfig
from ..core.sps import check_split_range
from ..errors import ConfigError
from ..traffic.stream import ArrivalBlock
from ..units import rate_to_bytes_per_ns
from .actions import ActionLog
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


def packet_control_prepass(
    config: RouterConfig,
    control: ControlConfig,
    block: ArrivalBlock,
    fibers: np.ndarray,
    splitter,
    duration_ns: float,
    schedule=None,
    attack_windows: Optional[Sequence[Tuple[float, float]]] = None,
    telemetry=None,
    log: Optional[ActionLog] = None,
) -> Tuple[ArrivalBlock, np.ndarray, ControlLoop]:
    """Run the control loop over a whole-run arrival block before the
    engine.

    ``block`` is the run's time-sorted arrivals and ``fibers`` their
    arrival fibers within each ribbon.  Returns ``(block, fibers,
    loop)``: the admitted rows of ``block``, their (possibly
    reassigned) fibers -- the workload the engine runs -- and the
    finished :class:`ControlLoop` (its action log carries the
    ``repro-control-v1`` stream, its ``throttled_bytes`` the
    backpressured total).  A fiber array of the wrong length, a ribbon
    beyond the router's or a fiber outside ``[0, fibers_per_ribbon)``
    raises :class:`~repro.errors.ConfigError`.
    """
    from ..flow.engine import buffer_limit_bytes

    n_switches = config.n_switches
    n_ribbons = config.n_ribbons
    switch = config.switch
    fibers = np.asarray(fibers, dtype=np.int64)
    if fibers.shape != (len(block),):
        raise ConfigError(
            f"fibers must align with the block: {fibers.size} fibers for "
            f"{len(block)} arrivals"
        )
    check_split_range(config, block.inputs, fibers)
    tick_ns = control.tick_ns
    n_ticks = max(int(np.ceil(duration_ns / tick_ns - 1e-9)), 1)
    capacity_per_tick = (
        rate_to_bytes_per_ns(switch.port_rate_bps) * switch.n_ports * tick_ns
    )

    loop = ControlLoop(
        control,
        n_switches,
        buffer_limit_bytes(switch),
        log=log,
        telemetry=telemetry,
    )

    assignments = [splitter.assignment_array(r) for r in range(n_ribbons)]
    fibers_by_switch = [
        [splitter.fibers_to(r, h) for h in range(n_switches)]
        for r in range(n_ribbons)
    ]
    fiber_cursor = np.zeros((n_ribbons, n_switches), dtype=np.int64)

    dead_always = (
        set(schedule.whole_run_dead_switches()) if schedule is not None else set()
    )
    views = (
        {
            h: schedule.switch_view(h, switch.total_channels)
            for h in range(n_switches)
            if h not in dead_always
        }
        if schedule is not None
        else {}
    )

    def dead_in_tick(h: int, tick: int) -> bool:
        if h in dead_always:
            return True
        view = views.get(h)
        if view is None:
            return False
        return view.dead_at((tick + 0.5) * tick_ns)

    spans = tuple(attack_windows) if attack_windows else ()

    def attack_active_in(start: float, end: float) -> bool:
        return any(s < end and e > start for s, e in spans)

    # The walk is sequential (its error-diffusion credits are
    # order-dependent floats); it reads plain lists taken from the
    # block's time-sorted arrays.
    ticks_of = np.minimum(
        (block.times / tick_ns).astype(np.int64), n_ticks - 1
    ).tolist()
    ribbons = block.inputs.tolist()
    sizes = block.sizes.tolist()
    new_fibers = fibers.tolist()
    throttled = np.zeros(len(block), dtype=bool)
    throttled_bytes = 0
    bucket = np.zeros(n_switches)  # leaky-bucket occupancy estimate
    offered_now = np.zeros(n_switches)
    keep_credit = np.zeros(n_switches)  # reweight error diffusion
    admit_credit = np.zeros(n_switches)  # admission error diffusion
    wrr = _SmoothWRR(n_switches)

    i = 0
    for tick in range(n_ticks):
        if tick > 0:
            # Close tick-1's window: served bytes per switch (zero while
            # its loss-of-light indication is up), then actuate tick.
            served = np.minimum(bucket, capacity_per_tick)
            for h in range(n_switches):
                if dead_in_tick(h, tick - 1):
                    served[h] = 0.0
            bucket -= served
            loop.tick(
                tick * tick_ns,
                offered_now,
                served,
                bucket.copy(),
                attack_active=attack_active_in(
                    (tick - 1) * tick_ns, tick * tick_ns
                ),
            )
            offered_now = np.zeros(n_switches)
        while i < len(ticks_of) and ticks_of[i] == tick:
            ribbon = ribbons[i]
            size = sizes[i]
            target = int(assignments[ribbon][new_fibers[i]])
            if loop.weight[target] < 1.0 - _WEIGHT_EPS:
                keep_credit[target] += loop.weight[target]
                if keep_credit[target] >= 1.0:
                    keep_credit[target] -= 1.0
                else:
                    target = wrr.pick(loop.weight)
                    lanes = fibers_by_switch[ribbon][target]
                    cursor = fiber_cursor[ribbon, target]
                    new_fibers[i] = lanes[cursor % len(lanes)]
                    fiber_cursor[ribbon, target] = cursor + 1
            offered_now[target] += size
            admit = float(loop.admit[target])
            admit_credit[target] += admit
            if admit_credit[target] >= 1.0:
                admit_credit[target] -= 1.0
                if not dead_in_tick(target, tick):
                    bucket[target] += size
            else:
                throttled[i] = True
                throttled_bytes += size
            i += 1

    loop.throttled_bytes = float(throttled_bytes)
    loop.finish(duration_ns)
    kept = ~throttled
    return (
        block.select(kept),
        np.asarray(new_fibers, dtype=np.int64)[kept],
        loop,
    )
