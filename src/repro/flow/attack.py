"""Attack trials at flow fidelity: the strategy as rate components.

An attack trial (:class:`~repro.runtime.Scenario` kind ``"attack"``)
computes its analytic half once for both fidelities; at flow fidelity
the simulated half replaces the packet pipeline with
:func:`repro.flow.engine.simulate_flow_router` fed the rate components
:func:`_strategy_components` derives from the strategy:

- the default strategies offer a uniform matrix at ``load`` whose fiber
  spread *is* the strategy's mixed weight vector -- at flow fidelity
  that becomes one always-on :class:`~repro.flow.engine.RateComponent`
  routed with those weights;
- :class:`~repro.adversary.strategies.BurstSynchronizedAttack` becomes a
  background component at ``load - attack_load`` plus an ON-window
  component whose rate reproduces the packet builder's quantisation
  (``per_window`` packets of ``packet_bytes`` over each ON window), so
  the fluid burst carries exactly the bytes the packet burst does.

Like the packet trial, the run uses ``drain=False``: a victim switch
with deep HBM does not drop, it falls behind, and the overload shows up
as undelivered ``sim_residual_bytes``.  The fluid model has no arrival
jitter, so ``traffic_seed`` does not influence the result (recorded in
the summary for shape parity); burst-phase collision effects inside a
window are below its resolution -- the documented place fidelity="flow"
is an approximation (see ``docs/flow_engine.md``).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..adversary.strategies import AttackStrategy, BurstSynchronizedAttack
from ..config import RouterConfig
from ..traffic import uniform_matrix
from ..units import rate_to_bytes_per_ns
from .engine import RateComponent


def _strategy_components(
    strategy: AttackStrategy,
    config: RouterConfig,
    load: float,
    duration_ns: float,
    packet_bytes: float = 1500.0,
) -> List[RateComponent]:
    """Rate components equivalent to ``strategy.build_workload``."""
    n = config.n_ribbons
    ribbon_rate = rate_to_bytes_per_ns(
        config.fibers_per_ribbon * config.per_fiber_rate_bps
    )
    if not isinstance(strategy, BurstSynchronizedAttack):
        # Every non-burst strategy shapes the *split*, not the offered
        # stream: uniform matrix at the full load.
        return [
            RateComponent(
                uniform_matrix(n, load) * ribbon_rate,
                ((0.0, duration_ns),),
            )
        ]
    components: List[RateComponent] = []
    attack_load = strategy.attack_fraction * load
    background_load = load - attack_load
    if background_load > 0:
        components.append(
            RateComponent(
                uniform_matrix(n, background_load) * ribbon_rate,
                ((0.0, duration_ns),),
            )
        )
    on_rate = min(1.0, attack_load / strategy.duty) * ribbon_rate
    if attack_load > 0 and on_rate > 0:
        # Reproduce the packet builder's quantisation: per ON window each
        # ribbon emits per_window packets of packet_bytes, spread
        # uniformly over the ribbon's outputs by the (r + w + k) % N
        # round-robin.
        gap_ns = packet_bytes / on_rate
        on_ns = strategy.duty * strategy.period_ns
        per_window = max(int(on_ns / gap_ns), 1)
        rate = per_window * packet_bytes / on_ns
        matrix = np.full((n, n), rate / n)
        windows: List[Tuple[float, float]] = []
        window = 0
        while window * strategy.period_ns < duration_ns:
            start = window * strategy.period_ns
            windows.append((start, min(start + on_ns, duration_ns)))
            window += 1
        components.append(RateComponent(matrix, tuple(windows)))
    return components
