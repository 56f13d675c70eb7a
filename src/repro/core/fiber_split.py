"""Fiber splitting: how SPS assigns fibers to internal switches.

The "poor man's load balancing" of Design 4: each ribbon's F fibers are
split so that alpha = F/H of them feed each of the H switches, with no
electronics.  Two strategies:

- :class:`ContiguousSplitter` -- the straightforward pattern (first
  F/H fibers to switch 0, ...).  Challenge 4 points out its two flaws:
  operators load the first fibers first, skewing the first switch, and
  an attacker who knows the pattern can target one switch.
- :class:`PseudoRandomSplitter` -- Idea 4: a seeded pseudo-random
  balanced assignment per ribbon, decorrelating fiber position from
  switch identity.

:func:`per_switch_loads` and :func:`split_imbalance` quantify the
difference under the fiber-load profiles of
:func:`repro.traffic.generators.fiber_load_profile` (experiment E10).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ConfigError


class FiberSplitter(ABC):
    """Assigns each of a ribbon's F fibers to one of H switches."""

    def __init__(self, n_fibers: int, n_switches: int):
        if n_fibers <= 0 or n_switches <= 0:
            raise ConfigError(
                f"need positive counts, got F={n_fibers}, H={n_switches}"
            )
        if n_fibers % n_switches != 0:
            raise ConfigError(
                f"F={n_fibers} fibers must split evenly across H={n_switches}"
            )
        self.n_fibers = n_fibers
        self.n_switches = n_switches
        self._assignment_arrays: dict = {}

    @property
    def alpha(self) -> int:
        """Fibers per (ribbon, switch) pair: F/H."""
        return self.n_fibers // self.n_switches

    @abstractmethod
    def assignment(self, ribbon: int) -> List[int]:
        """Switch index for each fiber of ``ribbon`` (length F).

        Every switch must appear exactly alpha times -- validated by
        :meth:`check_balanced`.
        """

    def check_balanced(self, ribbon: int) -> None:
        """Assert the assignment is an exact alpha-regular split."""
        counts = np.bincount(self.assignment(ribbon), minlength=self.n_switches)
        if not (counts == self.alpha).all():
            raise ConfigError(
                f"ribbon {ribbon} assignment is unbalanced: {counts.tolist()}"
            )

    def assignment_array(self, ribbon: int) -> np.ndarray:
        """The assignment as a cached read-only int64 array.

        Adversary campaigns evaluate per-switch loads in an inner loop;
        caching here means each ribbon's assignment (a PRNG draw for the
        pseudo-random splitter) is materialised once per splitter.
        """
        cached = self._assignment_arrays.get(ribbon)
        if cached is None:
            cached = np.asarray(self.assignment(ribbon), dtype=np.int64)
            cached.setflags(write=False)
            self._assignment_arrays[ribbon] = cached
        return cached

    def fibers_to(self, ribbon: int, switch: int) -> List[int]:
        """The alpha fibers of ``ribbon`` that feed ``switch``."""
        return [f for f, s in enumerate(self.assignment(ribbon)) if s == switch]


class ContiguousSplitter(FiberSplitter):
    """The straightforward split: fiber f -> switch f // alpha."""

    def assignment(self, ribbon: int) -> List[int]:
        return [f // self.alpha for f in range(self.n_fibers)]


class PseudoRandomSplitter(FiberSplitter):
    """Idea 4: a seeded pseudo-random balanced split, distinct per ribbon.

    The assignment is a random permutation of the balanced multiset
    {0 x alpha, 1 x alpha, ...}, drawn from a PRNG keyed by (seed,
    ribbon) -- deterministic for manufacturing, unpredictable to an
    attacker who does not know the seed.
    """

    def __init__(self, n_fibers: int, n_switches: int, seed: int = 0xF1BE2):
        super().__init__(n_fibers, n_switches)
        self.seed = seed

    def assignment(self, ribbon: int) -> List[int]:
        return list(_balanced_permutation(self.seed, ribbon, self.n_fibers, self.n_switches))


@lru_cache(maxsize=4096)
def _balanced_permutation(
    seed: int, ribbon: int, n_fibers: int, n_switches: int
) -> Tuple[int, ...]:
    """The seeded permutation of the balanced multiset, drawn once per
    ``(seed, ribbon, F, H)`` and shared by every splitter that asks."""
    rng = np.random.default_rng((seed, ribbon))
    balanced = np.repeat(np.arange(n_switches), n_fibers // n_switches)
    return tuple(rng.permutation(balanced).tolist())


def _checked_profile(
    splitter: FiberSplitter, ribbon: int, profile: np.ndarray
) -> np.ndarray:
    profile = np.asarray(profile, dtype=np.float64)
    if profile.shape != (splitter.n_fibers,):
        raise ConfigError(
            f"ribbon {ribbon} profile has shape {profile.shape}, "
            f"expected ({splitter.n_fibers},)"
        )
    if np.any(profile < 0):
        raise ConfigError(f"ribbon {ribbon} profile has negative fiber loads")
    return profile


def per_switch_loads(
    splitter: FiberSplitter,
    fiber_loads: Sequence[np.ndarray],
) -> np.ndarray:
    """Load arriving at each switch, given per-ribbon per-fiber loads.

    ``fiber_loads[r][f]`` is ribbon r's load on fiber f (any consistent
    unit).  Returns an (H,)-array of per-switch totals.

    ``np.add.at`` scatters each ribbon's profile through the (cached)
    assignment array unbuffered and in fiber order, so the float
    accumulation order -- and therefore the result, bit for bit -- is
    the same as the per-fiber loop this replaced.
    """
    loads = np.zeros(splitter.n_switches)
    for ribbon, profile in enumerate(fiber_loads):
        profile = _checked_profile(splitter, ribbon, profile)
        np.add.at(loads, splitter.assignment_array(ribbon), profile)
    return loads


def per_switch_port_loads(
    splitter: FiberSplitter,
    fiber_loads: Sequence[np.ndarray],
) -> np.ndarray:
    """(H, R) matrix: load on switch h's port r (ribbon r's share).

    A switch port is overloaded -- and loses traffic -- when its entry
    exceeds the port capacity (alpha fibers' worth).
    """
    result = np.zeros((splitter.n_switches, len(fiber_loads)))
    for ribbon, profile in enumerate(fiber_loads):
        profile = _checked_profile(splitter, ribbon, profile)
        np.add.at(result[:, ribbon], splitter.assignment_array(ribbon), profile)
    return result


def split_imbalance(loads: np.ndarray) -> float:
    """Max-over-mean load ratio: 1.0 is perfect balance."""
    loads = np.asarray(loads, dtype=np.float64)
    if np.any(loads < 0):
        raise ConfigError(
            f"per-switch loads must be >= 0, got min {loads.min():g}"
        )
    if loads.size == 0 or loads.mean() <= 0:
        return 1.0
    return float(loads.max() / loads.mean())


def overload_loss_fraction(port_loads: np.ndarray, port_capacity: float) -> float:
    """Fraction of total offered load exceeding per-port capacity.

    SPS accepts that "the uneven distribution across smaller switches
    operating at a reduced capacity may potentially lead to packet
    losses" (Design 4); this is that loss, to first order.
    """
    if port_capacity < 0:
        raise ConfigError(
            f"port capacity must be >= 0, got {port_capacity}"
        )
    port_loads = np.asarray(port_loads, dtype=np.float64)
    if np.any(port_loads < 0):
        raise ConfigError(
            f"port loads must be >= 0, got min {port_loads.min():g}"
        )
    total = port_loads.sum()
    if total <= 0:
        return 0.0
    excess = np.clip(port_loads - port_capacity, 0.0, None).sum()
    return float(excess / total)
