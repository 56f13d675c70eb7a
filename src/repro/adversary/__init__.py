"""Adversarial workload engine (Challenge 4 / Idea 4).

Attackers and hostile operators as first-class workload generators:

- :mod:`~repro.adversary.strategies` -- typed attack strategies
  (known-assignment, oblivious probing, operator skew, synchronized
  bursts) that produce per-fiber weights and packet streams for the
  full SPS -> PFI -> HBM pipeline;
- :mod:`~repro.adversary.campaign` -- seeded multi-trial campaigns over
  the process pool, pitting each strategy against contiguous vs
  pseudo-random splits (and live fault schedules) with confidence
  intervals;
- :mod:`~repro.adversary.hardening` -- exposure scores per splitter and
  the pseudo-random seed-sensitivity sweep.
"""

from .strategies import (
    PROBE_PORT_CAPACITY,
    STRATEGIES,
    AttackStrategy,
    BurstSynchronizedAttack,
    KnownAssignmentAttack,
    ObliviousProbeAttack,
    OperatorSkew,
    make_strategy,
    probe_loss,
    weighted_fibers,
)
from .campaign import (
    AGGREGATED_METRICS,
    SPLITTER_KINDS,
    AttackCampaignParams,
    AttackCampaignResult,
    compare_splitters,
    make_splitter,
    trial_seeds,
)
from .hardening import (
    attacker_gain,
    default_strategy_catalogue,
    exposure_score,
    seed_sensitivity_sweep,
)

__all__ = [
    "AGGREGATED_METRICS",
    "AttackCampaignParams",
    "AttackCampaignResult",
    "AttackStrategy",
    "BurstSynchronizedAttack",
    "KnownAssignmentAttack",
    "ObliviousProbeAttack",
    "OperatorSkew",
    "PROBE_PORT_CAPACITY",
    "SPLITTER_KINDS",
    "STRATEGIES",
    "attacker_gain",
    "compare_splitters",
    "default_strategy_catalogue",
    "exposure_score",
    "make_splitter",
    "make_strategy",
    "probe_loss",
    "seed_sensitivity_sweep",
    "trial_seeds",
    "weighted_fibers",
]
