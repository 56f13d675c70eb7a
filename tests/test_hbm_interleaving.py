"""Bank interleaving groups, the gamma derivation, frame schedules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.hbm import (
    BankGroup,
    Command,
    HBMTiming,
    Op,
    bank_group_for_frame,
    derive_gamma,
    first_legal_start,
    generate_frame_schedule,
    max_concurrent_activations,
)
from repro.hbm.interleaving import frame_schedule_block
from repro.hbm.verify import CODE

T = HBMTiming()
SEGMENT_TIME = 12.8  # 1 KB over 80 B/ns


class TestDeriveGamma:
    def test_reference_design_gamma_is_4(self):
        # The paper's derivation: gamma = 4 for 1 KB segments (E16).
        assert derive_gamma(T, SEGMENT_TIME) == 4

    def test_longer_segments_need_smaller_gamma(self):
        # A 4 KB segment (51.2 ns) outlasts tRAS - tRCD, so its bank stays
        # open for 15 + 51.2 + 15 = 81.2 ns: two segments cover it, one
        # does not (the command-level check agrees: gamma = 1 re-opens
        # the bank before its precharge, gamma = 2 runs clean).
        assert derive_gamma(T, 51.2) == 2

    def test_half_trc_segments_need_gamma_three(self):
        # 22.5 ns segments hold a bank open 15 + 22.5 + 15 = 52.5 ns,
        # more than two segments: gamma = 3 (the command-level check
        # gives 3 for the nearest burst-aligned segment, 22.4 ns).
        assert derive_gamma(T, T.t_rc / 2) == 3

    def test_too_short_segments_have_no_legal_gamma(self):
        # Shorter than tRC/4 per segment: would need gamma > 4.
        with pytest.raises(ConfigError):
            derive_gamma(T, T.t_rc / 5)

    def test_rejects_nonpositive_segment_time(self):
        with pytest.raises(ConfigError):
            derive_gamma(T, 0.0)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_rejects_activation_limit_below_one(self, limit):
        # One segment alone covers tRC here, which used to return 1
        # without ever checking the limit.
        with pytest.raises(ConfigError, match="max_activations"):
            derive_gamma(T, 51.2, max_activations=limit)


class TestConcurrentActivations:
    def test_reference_pattern_keeps_four_banks(self):
        assert max_concurrent_activations(T, SEGMENT_TIME) == 4

    def test_long_segments_keep_fewer(self):
        assert max_concurrent_activations(T, 100.0) <= 2


class TestBankGroupMapping:
    def test_no_bookkeeping_rule(self):
        # h = n mod (L/gamma) (PFI step 4).
        assert bank_group_for_frame(0, 16) == 0
        assert bank_group_for_frame(15, 16) == 15
        assert bank_group_for_frame(16, 16) == 0
        assert bank_group_for_frame(37, 16) == 5

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            bank_group_for_frame(-1, 16)
        with pytest.raises(ConfigError):
            bank_group_for_frame(0, 0)

    def test_group_banks_are_consecutive(self):
        group = BankGroup(index=2, gamma=4)
        assert group.banks == [8, 9, 10, 11]
        assert group.first_bank == 8

    def test_group_validation(self):
        with pytest.raises(ConfigError):
            BankGroup(index=-1, gamma=4)
        with pytest.raises(ConfigError):
            BankGroup(index=0, gamma=0)


class TestFrameSchedule:
    def make(self, start=None, channels=4, gamma=4, segment=1024):
        start = first_legal_start(T) if start is None else start
        return generate_frame_schedule(
            op=Op.WR,
            channels=range(channels),
            group=BankGroup(0, gamma),
            segment_bytes=segment,
            row=0,
            data_start=start,
            timing=T,
            channel_bytes_per_ns=80.0,
        )

    def test_command_count(self):
        # gamma banks x channels x (ACT + WR + PRE).
        sched = self.make()
        assert len(sched.commands) == 4 * 4 * 3

    def test_data_window(self):
        sched = self.make()
        assert sched.duration_ns == pytest.approx(4 * SEGMENT_TIME)
        assert sched.payload_bytes == 4 * 4 * 1024

    def test_acts_precede_data_by_trcd(self):
        sched = self.make()
        acts = sorted(c.time for c in sched.commands if c.op is Op.ACT)
        writes = sorted(c.time for c in sched.commands if c.op is Op.WR)
        # Each distinct ACT time is tRCD before a distinct WR time.
        distinct_acts = sorted(set(acts))
        distinct_writes = sorted(set(writes))
        for act_time, wr_time in zip(distinct_acts, distinct_writes):
            assert wr_time - act_time == pytest.approx(T.t_rcd)

    def test_banks_staggered_one_segment_apart(self):
        sched = self.make()
        wr_by_bank = {}
        for cmd in sched.commands:
            if cmd.op is Op.WR and cmd.channel == 0:
                wr_by_bank[cmd.bank] = cmd.time
        times = [wr_by_bank[b] for b in sorted(wr_by_bank)]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == pytest.approx(SEGMENT_TIME) for g in gaps)

    def test_rejects_non_data_op(self):
        with pytest.raises(ConfigError):
            generate_frame_schedule(
                op=Op.ACT,
                channels=[0],
                group=BankGroup(0, 4),
                segment_bytes=1024,
                row=0,
                data_start=20.0,
                timing=T,
                channel_bytes_per_ns=80.0,
            )

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            self.make(segment=0)

    def test_read_schedule_mirrors_write(self):
        wr = self.make()
        rd = generate_frame_schedule(
            op=Op.RD,
            channels=range(4),
            group=BankGroup(0, 4),
            segment_bytes=1024,
            row=0,
            data_start=first_legal_start(T),
            timing=T,
            channel_bytes_per_ns=80.0,
        )
        assert len(rd.commands) == len(wr.commands)
        assert rd.duration_ns == wr.duration_ns


def frame_by_loop(op, channels, group, segment_bytes, row, data_start, timing, rate):
    """One frame's commands built command by command: the reference the
    array form must match bit for bit."""
    segment_time = segment_bytes / rate
    commands = []
    for position, bank in enumerate(group.banks):
        slot_start = data_start + position * segment_time
        act_time = slot_start - timing.t_rcd
        pre_time = max(act_time + timing.t_ras, slot_start + segment_time)
        for channel in channels:
            commands.append(Command(Op.ACT, channel, bank, row, act_time))
            commands.append(Command(op, channel, bank, row, slot_start, segment_bytes))
            commands.append(Command(Op.PRE, channel, bank, row, pre_time))
    commands.sort(key=lambda c: (c.time, c.op is not Op.PRE, c.op is not Op.ACT))
    return commands


frames = st.tuples(
    st.sampled_from([Op.WR, Op.RD]),
    st.integers(1, 6),  # channels
    st.integers(0, 3),  # group
    st.integers(0, 7),  # row
    st.floats(0.0, 1e6, allow_nan=False),  # data start
)


class TestOneScheduleFormula:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(frames, min_size=1, max_size=5),
        st.integers(1, 4),  # gamma
        st.integers(1, 64).map(lambda bursts: 32 * bursts),  # segment bytes
        st.sampled_from([20.0, 80.0, 33.3]),  # channel rate
        st.floats(15.0, 60.0),  # t_ras
    )
    def test_block_matches_per_command_loop(self, frame_list, gamma, segment, rate, t_ras):
        timing = HBMTiming(t_ras=t_ras)
        block = frame_schedule_block(
            [CODE[op] for op, *_ in frame_list],
            [n for _, n, *_ in frame_list],
            [group * gamma for _, _, group, *_ in frame_list],
            [row for *_, row, _ in frame_list],
            [start for *_, start in frame_list],
            [gamma] * len(frame_list),
            [segment] * len(frame_list),
            timing,
            rate,
        )
        expected = []
        for op, n, group, row, start in frame_list:
            frame = frame_by_loop(
                op, range(n), BankGroup(group, gamma), segment, row, start, timing, rate
            )
            wrapped = generate_frame_schedule(
                op, range(n), BankGroup(group, gamma), segment, row, start, timing, rate
            )
            assert wrapped.commands == frame
            expected += frame

        def key(c):
            return (c.time, c.op.value, c.channel, c.bank)

        assert sorted(block.commands(), key=key) == sorted(expected, key=key)
