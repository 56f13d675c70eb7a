"""Property-based tests on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.address import OutputRegionFifo
from repro.core.crossbar import CyclicalCrossbar
from repro.core.fiber_split import ContiguousSplitter, PseudoRandomSplitter, per_switch_loads
from repro.core.frames import BatchAssembler, FrameAssembler
from repro.hbm import HBMTiming, bank_group_for_frame, derive_gamma
from tests.test_core_frames import completing_pids, offer
from repro.hbm.interleaving import open_span
from repro.sim import Engine
from repro.traffic import FiveTuple, hash_to_choice, is_admissible, random_admissible_matrix, uniform_matrix

sizes = st.integers(min_value=1, max_value=5000)


class TestBatchAssemblerProperties:
    @given(st.lists(sizes, min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_bytes_conserved(self, packet_sizes):
        asm = BatchAssembler(output=0, batch_bytes=1024)
        emitted = []
        for i, size in enumerate(packet_sizes):
            emitted += offer(asm, [size], pids=[i])
        assert sum(b.payload_bytes for b in emitted) + asm.fill_bytes == sum(packet_sizes)

    @given(st.lists(sizes, min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_every_packet_completes_exactly_once(self, packet_sizes):
        asm = BatchAssembler(output=0, batch_bytes=1024)
        emitted = []
        for i, size in enumerate(packet_sizes):
            emitted += offer(asm, [size], pids=[i])
        final = asm.flush(0.0)
        if final is not None:
            emitted.append(final)
        completed = [pid for b in emitted for pid in completing_pids(b)]
        assert completed == sorted(completed)
        assert completed == list(range(len(packet_sizes)))

    @given(st.lists(sizes, min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_all_batches_are_full_size(self, packet_sizes):
        asm = BatchAssembler(output=0, batch_bytes=512)
        emitted = offer(asm, packet_sizes)
        assert all(b.size_bytes == 512 for b in emitted)


class TestFrameAssemblerProperties:
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_frames_hold_exact_batch_count(self, per_frame, n_batches):
        from repro.core.frames import Batch

        fasm = FrameAssembler(0, 256, per_frame)
        frames = []
        for i in range(n_batches):
            frame = fasm.add(Batch(0, i, 256, 256, [], 0.0), 0.0)
            if frame:
                frames.append(frame)
        assert len(frames) == n_batches // per_frame
        assert all(len(f.batches) == per_frame for f in frames)
        assert fasm.pending_batches == n_batches % per_frame


class TestCrossbarProperties:
    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=80, deadline=None)
    def test_every_slot_is_permutation(self, n, slot):
        xbar = CyclicalCrossbar(n)
        assert sorted(xbar.connection_pattern(slot)) == list(range(n))

    @given(st.integers(min_value=2, max_value=32))
    @settings(max_examples=30, deadline=None)
    def test_n_slots_cover_all_modules(self, n):
        xbar = CyclicalCrossbar(n)
        for i in range(n):
            assert {xbar.module_for(i, t) for t in range(n)} == set(range(n))


class TestAddressProperties:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_fifo_pop_replays_push(self, groups, rows, n_ops):
        region = OutputRegionFifo(0, n_groups=groups, gamma=4, rows_per_bank=rows)
        n_ops = min(n_ops, region.capacity_frames)
        pushed = [region.push() for _ in range(n_ops)]
        popped = [region.pop() for _ in range(n_ops)]
        assert [(a.group.index, a.row) for a in pushed] == [
            (a.group.index, a.row) for a in popped
        ]

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_group_rule_is_mod(self, frame_index, n_groups):
        assert bank_group_for_frame(frame_index, n_groups) == frame_index % n_groups

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_live_frames_never_collide(self, groups, rows):
        """While a frame is in the FIFO, no other live frame shares its
        (group, row) slot -- the no-bookkeeping scheme never overwrites."""
        region = OutputRegionFifo(0, n_groups=groups, gamma=4, rows_per_bank=rows)
        live = set()
        for _ in range(region.capacity_frames):
            addr = region.push()
            key = (addr.group.index, addr.row)
            assert key not in live
            live.add(key)


class TestSplitterProperties:
    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=16),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_random_split_always_balanced(self, alpha, n_switches, seed):
        n_fibers = alpha * n_switches
        splitter = PseudoRandomSplitter(n_fibers, n_switches, seed=seed)
        for ribbon in (0, 1):
            counts = np.bincount(splitter.assignment(ribbon), minlength=n_switches)
            assert (counts == alpha).all()

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_total_load_preserved(self, alpha, n_switches):
        n_fibers = alpha * n_switches
        rng = np.random.default_rng(0)
        profiles = [rng.random(n_fibers) for _ in range(3)]
        for splitter in (ContiguousSplitter(n_fibers, n_switches),
                         PseudoRandomSplitter(n_fibers, n_switches)):
            loads = per_switch_loads(splitter, profiles)
            assert loads.sum() == pytest.approx(sum(p.sum() for p in profiles))


class TestTrafficProperties:
    @given(st.integers(min_value=1, max_value=32),
           st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_uniform_matrices_admissible(self, n, load):
        assert is_admissible(uniform_matrix(n, load))

    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_random_matrices_admissible(self, n, seed):
        m = random_admissible_matrix(n, 1.0, np.random.default_rng(seed))
        assert is_admissible(m)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**16 - 1),
        st.integers(min_value=0, max_value=2**16 - 1),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_ecmp_hash_in_range_and_stable(self, sip, dip, sport, dport, lanes):
        flow = FiveTuple(sip, dip, sport, dport)
        choice = hash_to_choice(flow, lanes)
        assert 0 <= choice < lanes
        assert hash_to_choice(flow, lanes) == choice


class TestGammaProperties:
    @given(st.floats(min_value=0.5, max_value=60.0))
    @settings(max_examples=80, deadline=None)
    def test_derived_gamma_is_minimal_and_sufficient(self, segment_time):
        timing = HBMTiming()
        span = open_span(timing, segment_time)
        try:
            gamma = derive_gamma(timing, segment_time)
        except Exception:
            # No legal gamma <= 4: the segment really is too short.
            assert 4 * segment_time < span
            return
        # The group covers a bank's open span (ACT to precharged),
        # and one bank fewer would not.
        assert gamma * segment_time >= span
        if gamma > 1:
            assert (gamma - 1) * segment_time < span


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_events_always_fire_in_order(self, times):
        eng = Engine()
        fired = []
        for t in times:
            eng.schedule(t, lambda t=t: fired.append(t))
        eng.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)
