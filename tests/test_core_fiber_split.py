"""Fiber splitting: balance, determinism, load skew, adversaries (E10)."""

import numpy as np
import pytest

from repro.core.fiber_split import (
    _balanced_permutation,
    ContiguousSplitter,
    PseudoRandomSplitter,
    overload_loss_fraction,
    per_switch_loads,
    per_switch_port_loads,
    split_imbalance,
)
from repro.errors import ConfigError
from repro.traffic.generators import fiber_load_profile


class TestContiguousSplitter:
    def test_blocks_of_alpha(self):
        splitter = ContiguousSplitter(n_fibers=8, n_switches=2)
        assert splitter.assignment(0) == [0, 0, 0, 0, 1, 1, 1, 1]
        assert splitter.alpha == 4

    def test_balanced(self):
        splitter = ContiguousSplitter(64, 16)
        for ribbon in range(4):
            splitter.check_balanced(ribbon)

    def test_fibers_to(self):
        splitter = ContiguousSplitter(8, 4)
        assert splitter.fibers_to(0, 1) == [2, 3]


class TestPseudoRandomSplitter:
    def test_balanced_for_every_ribbon(self):
        splitter = PseudoRandomSplitter(64, 16, seed=99)
        for ribbon in range(16):
            splitter.check_balanced(ribbon)

    def test_deterministic_per_seed(self):
        a = PseudoRandomSplitter(16, 4, seed=5)
        b = PseudoRandomSplitter(16, 4, seed=5)
        assert a.assignment(3) == b.assignment(3)

    def test_ribbons_differ(self):
        splitter = PseudoRandomSplitter(64, 16, seed=1)
        assert splitter.assignment(0) != splitter.assignment(1)

    def test_seeds_differ(self):
        a = PseudoRandomSplitter(64, 16, seed=1)
        b = PseudoRandomSplitter(64, 16, seed=2)
        assert a.assignment(0) != b.assignment(0)

    def test_not_contiguous(self):
        splitter = PseudoRandomSplitter(64, 16, seed=0)
        contiguous = ContiguousSplitter(64, 16)
        assert splitter.assignment(0) != contiguous.assignment(0)


class TestValidation:
    def test_uneven_split_rejected(self):
        with pytest.raises(ConfigError):
            ContiguousSplitter(10, 4)

    def test_positive_counts_required(self):
        with pytest.raises(ConfigError):
            ContiguousSplitter(0, 4)


class TestLoadAccounting:
    def test_even_profile_is_balanced_for_both(self):
        profiles = [np.full(8, 1.0 / 8) for _ in range(4)]
        for splitter in (ContiguousSplitter(8, 2), PseudoRandomSplitter(8, 2)):
            loads = per_switch_loads(splitter, profiles)
            assert loads.sum() == pytest.approx(4.0)
            assert split_imbalance(loads) == pytest.approx(1.0, abs=1e-9)

    def test_first_connected_skew_hurts_contiguous_more(self):
        # Challenge 4 (1): operators load the first fibers first.
        rng = np.random.default_rng(0)
        profiles = [
            fiber_load_profile(64, "first-connected", total_load=1.0, skew=8.0, rng=rng)
            for _ in range(16)
        ]
        contiguous = split_imbalance(per_switch_loads(ContiguousSplitter(64, 16), profiles))
        random = split_imbalance(per_switch_loads(PseudoRandomSplitter(64, 16), profiles))
        assert contiguous > random
        assert contiguous > 1.3  # the first switch is clearly overloaded

    def test_adversary_saturates_contiguous_switch(self):
        # Challenge 4 (2): an attacker who knows the pattern fills the
        # fibers of one internal switch.
        contiguous = ContiguousSplitter(64, 16)
        target = contiguous.fibers_to(0, 0)  # fibers of switch 0
        profiles = [
            fiber_load_profile(64, "adversarial", total_load=1.0, target_fibers=target)
            for _ in range(16)
        ]
        loads = per_switch_loads(contiguous, profiles)
        # Everything lands on switch 0: worst possible imbalance.
        assert loads[0] == pytest.approx(16.0)
        assert split_imbalance(loads) == pytest.approx(16.0)
        # The same attack against a secret pseudo-random split spreads out.
        random = PseudoRandomSplitter(64, 16, seed=0xDEAD)
        spread = split_imbalance(per_switch_loads(random, profiles))
        assert spread < 4.0

    def test_port_loads_shape(self):
        splitter = ContiguousSplitter(8, 2)
        profiles = [np.full(8, 0.125) for _ in range(4)]
        port_loads = per_switch_port_loads(splitter, profiles)
        assert port_loads.shape == (2, 4)
        assert port_loads.sum() == pytest.approx(4.0)

    def test_profile_shape_checked(self):
        splitter = ContiguousSplitter(8, 2)
        with pytest.raises(ConfigError):
            per_switch_loads(splitter, [np.ones(7)])


class TestOverloadLoss:
    def test_no_loss_within_capacity(self):
        assert overload_loss_fraction(np.array([0.9, 0.8]), 1.0) == 0.0

    def test_excess_counts_as_loss(self):
        loads = np.array([1.5, 0.5])
        assert overload_loss_fraction(loads, 1.0) == pytest.approx(0.25)

    def test_empty_loads(self):
        assert overload_loss_fraction(np.zeros(4), 1.0) == 0.0

    def test_imbalance_of_empty(self):
        assert split_imbalance(np.zeros(4)) == 1.0


def _pseudo_random_assignment(key):
    """Module-level so it pickles for the cross-process determinism test."""
    seed, ribbon = key
    return PseudoRandomSplitter(64, 16, seed=seed).assignment(ribbon)


class TestSplitterProperties:
    """Property tests: regularity, determinism, distinctness (satellite)."""

    def test_alpha_regular_across_seeds_and_ribbons(self):
        for seed in range(25):
            splitter = PseudoRandomSplitter(64, 16, seed=seed)
            for ribbon in range(8):
                counts = np.bincount(splitter.assignment(ribbon), minlength=16)
                assert (counts == splitter.alpha).all(), (seed, ribbon)

    def test_deterministic_across_processes(self):
        from repro.sim.parallel import run_parallel_tasks

        keys = [(seed, ribbon) for seed in (1, 7, 0xF1BE2) for ribbon in range(3)]
        parent = [_pseudo_random_assignment(k) for k in keys]
        workers = run_parallel_tasks(_pseudo_random_assignment, keys, n_workers=2)
        assert list(workers) == parent

    def test_ribbons_distinct_across_many_seeds(self):
        for seed in range(25):
            splitter = PseudoRandomSplitter(64, 16, seed=seed)
            assignments = {tuple(splitter.assignment(r)) for r in range(8)}
            # 64!/(4!)^16 possibilities: any collision means a PRNG bug.
            assert len(assignments) == 8, seed

    def test_contiguous_matches_closed_form(self):
        for n_fibers, n_switches in [(8, 2), (64, 16), (12, 3), (16, 16)]:
            splitter = ContiguousSplitter(n_fibers, n_switches)
            for ribbon in (0, 1, 5):
                assert splitter.assignment(ribbon) == [
                    f // splitter.alpha for f in range(n_fibers)
                ]

    def test_assignment_array_cached_and_read_only(self):
        splitter = PseudoRandomSplitter(64, 16, seed=3)
        array = splitter.assignment_array(2)
        assert array is splitter.assignment_array(2)
        assert array.tolist() == splitter.assignment(2)
        with pytest.raises(ValueError):
            array[0] = 5


class TestVectorizedBitCompat:
    """The np.add.at helpers must match the per-fiber loop bit for bit."""

    @staticmethod
    def _loop_loads(splitter, fiber_loads):
        loads = np.zeros(splitter.n_switches)
        for ribbon, profile in enumerate(fiber_loads):
            assignment = splitter.assignment(ribbon)
            for fiber, share in enumerate(np.asarray(profile, dtype=np.float64)):
                loads[assignment[fiber]] += share
        return loads

    @staticmethod
    def _loop_port_loads(splitter, fiber_loads):
        result = np.zeros((splitter.n_switches, len(fiber_loads)))
        for ribbon, profile in enumerate(fiber_loads):
            assignment = splitter.assignment(ribbon)
            for fiber, share in enumerate(np.asarray(profile, dtype=np.float64)):
                result[assignment[fiber], ribbon] += share
        return result

    def test_bit_identical_to_loop(self):
        rng = np.random.default_rng(11)
        for splitter in (
            ContiguousSplitter(64, 16),
            PseudoRandomSplitter(64, 16, seed=4),
        ):
            profiles = [rng.random(64) for _ in range(6)]
            vec = per_switch_loads(splitter, profiles)
            assert (vec == self._loop_loads(splitter, profiles)).all()
            vec_ports = per_switch_port_loads(splitter, profiles)
            assert (vec_ports == self._loop_port_loads(splitter, profiles)).all()

    def test_irregular_profiles_bit_identical(self):
        splitter = PseudoRandomSplitter(12, 3, seed=9)
        profiles = [
            np.array([1e-300, 1e300, 3.0, 0.1, 0.2, 0.3, 7.0, 1e-9, 2.0, 5.0, 0.0, 1.0]),
            np.geomspace(1e-6, 1e6, 12),
        ]
        assert (
            per_switch_loads(splitter, profiles)
            == self._loop_loads(splitter, profiles)
        ).all()


class TestInputValidation:
    """Negative loads/capacities raise ConfigError (satellite)."""

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            overload_loss_fraction(np.ones(4), -1.0)

    def test_negative_port_loads_rejected(self):
        with pytest.raises(ConfigError):
            overload_loss_fraction(np.array([0.5, -0.1]), 1.0)

    def test_negative_switch_loads_rejected(self):
        with pytest.raises(ConfigError):
            split_imbalance(np.array([1.0, -2.0]))

    def test_negative_profile_rejected(self):
        splitter = ContiguousSplitter(8, 2)
        with pytest.raises(ConfigError):
            per_switch_loads(splitter, [np.array([1.0] * 7 + [-1.0])])
        with pytest.raises(ConfigError):
            per_switch_port_loads(splitter, [np.array([-1.0] + [1.0] * 7)])

    def test_zero_capacity_allowed(self):
        # Zero capacity is legal (a fully-failed port): everything is lost.
        assert overload_loss_fraction(np.array([1.0, 1.0]), 0.0) == 1.0


class TestSharedDraw:
    """Every pseudo-random splitter with the same (seed, F, H) shares
    one draw per ribbon."""

    def test_assignment_is_the_seeded_permutation(self):
        for seed, ribbon in ((0xF1BE2, 0), (7, 3)):
            rng = np.random.default_rng((seed, ribbon))
            expected = rng.permutation(np.repeat(np.arange(4), 4)).tolist()
            assert PseudoRandomSplitter(16, 4, seed=seed).assignment(ribbon) == expected

    def test_splitters_share_the_draw_not_the_list(self):
        first = PseudoRandomSplitter(16, 4, seed=11).assignment(2)
        hits = _balanced_permutation.cache_info().hits
        second = PseudoRandomSplitter(16, 4, seed=11).assignment(2)
        assert _balanced_permutation.cache_info().hits == hits + 1
        assert second == first and second is not first
        first[0] = -1
        assert PseudoRandomSplitter(16, 4, seed=11).assignment(2)[0] != -1
