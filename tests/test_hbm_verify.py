"""The vectorised verifier against the Bank/Channel oracle, and PFI's
legality across the design space."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import HBMStackConfig, HBMSwitchConfig
from repro.errors import ConfigError, TimingViolation
from repro.hbm import (
    BankGroup,
    Command,
    HBMController,
    HBMStack,
    HBMTiming,
    Op,
    derive_gamma,
    first_legal_start,
    generate_frame_schedule,
    plan_refreshes,
)
from repro.hbm.controller import BLOCK_COMMANDS
from repro.hbm.interleaving import open_span
from repro.hbm.verify import CommandBlock, TimingState

#: Refresh due every 400 ns, 30 ns each, so short trains need it.
TIMING = HBMTiming(refresh_interval_ns=400.0, refresh_duration_ns=30.0)
CHANNELS = 4
BANKS = 16
GAMMA = 4


def small_stack() -> HBMStackConfig:
    # 20 B/ns channels: a 256 B segment takes the reference 12.8 ns.
    return HBMStackConfig(
        channels=CHANNELS, gbps_per_bit=2.5e9, banks_per_channel=BANKS,
        capacity_bytes=2**28, row_bytes=256,
    )


RATE = small_stack().channel_bytes_per_ns
_RANK = {Op.PRE: 0, Op.REF: 1, Op.ACT: 2, Op.WR: 3, Op.RD: 3}


def controller_order(cmd):
    return (cmd.time, _RANK[cmd.op], cmd.channel, cmd.bank)


# -- the oracle ------------------------------------------------------------------


def oracle_run(blocks, loss, timing):
    """Apply each block, sorted like ``HBMController.execute``, command by
    command to plain :class:`Channel` state machines."""
    channels = HBMStack(small_stack(), timing).channels
    if loss is not None:
        n, start, end = loss
        for channel in channels[CHANNELS - n:]:
            channel.fail(start, end)
    applied = []
    for block in blocks:
        for cmd in sorted(block, key=controller_order):
            try:
                channels[cmd.channel].apply(cmd)
            except TimingViolation as violation:
                return violation, applied, channels
            applied.append(cmd)
    return None, applied, channels


def sweep_peak(applied, timing):
    """Most banks open at once on one channel: ACT to PRE + tRP."""
    points = {}
    opened = {}
    for cmd in applied:
        key = (cmd.channel, cmd.bank)
        if cmd.op is Op.ACT:
            opened[key] = cmd.time
        elif cmd.op is Op.PRE:
            points.setdefault(cmd.channel, []).extend(
                [(opened.pop(key), 1), (cmd.time + timing.t_rp, -1)]
            )
    for (channel, _), start in opened.items():
        points.setdefault(channel, []).append((start, 1))
    peak = 0
    for channel_points in points.values():
        count = 0
        for _, delta in sorted(channel_points):
            count += delta
            peak = max(peak, count)
    return peak


def verifier_run(blocks, loss, timing, as_arrays):
    ctrl = HBMController(small_stack(), 1, timing)
    if loss is not None:
        n, start, end = loss
        ctrl.apply_channel_loss(n, start, end)
    try:
        for block in blocks:
            ctrl.execute(CommandBlock.from_commands(block) if as_arrays else block)
    except TimingViolation as violation:
        return violation, ctrl
    return None, ctrl


def assert_agree(blocks, loss=None, timing=TIMING, as_arrays=False):
    expected, applied, channels = oracle_run(blocks, loss, timing)
    got, ctrl = verifier_run(blocks, loss, timing, as_arrays)
    if expected is None:
        assert got is None, got
        for index, channel in enumerate(channels):
            view = ctrl.channel(index)
            assert view.bytes_moved == channel.bytes_moved
            assert view.data_end_time == channel.data_end_time
    else:
        assert got is not None, f"verifier accepted; oracle raised {expected}"
        assert (got.rule, got.command, got.issued_at, got.legal_at) == (
            expected.rule, expected.command, expected.issued_at, expected.legal_at
        )
    assert ctrl._executed == len(applied)
    assert ctrl.peak_open_banks() == sweep_peak(applied, timing)
    return expected


# -- trains ----------------------------------------------------------------------


@st.composite
def frame_trains(draw):
    """A legal PFI-like frame train plus its planned refreshes.

    Two segment sizes put the PRE on the tRAS bound (256 B) or the data
    bound (512 B); a tFAW of 50 ns leaves the 256 B train 1.2 ns of
    slack, so small shifts break it.
    """
    timing = replace(TIMING, t_faw=draw(st.sampled_from([35.0, 50.0])))
    segment = draw(st.sampled_from([256, 512]))
    n_channels = draw(st.integers(1, CHANNELS))
    start = first_legal_start(timing)
    commands = []
    for _ in range(draw(st.integers(1, 10))):
        schedule = generate_frame_schedule(
            draw(st.sampled_from([Op.WR, Op.RD])),
            range(n_channels),
            BankGroup(draw(st.integers(0, BANKS // GAMMA - 1)), GAMMA),
            segment,
            row=draw(st.integers(0, 3)),
            data_start=start,
            timing=timing,
            channel_bytes_per_ns=RATE,
        )
        commands.extend(schedule.commands)
        # Back to back, or after an idle gap.
        start = schedule.data_end + draw(st.sampled_from([0.0, 0.0, 3.2, 40.0]))
    commands += plan_refreshes(commands, timing, n_channels, BANKS, start)
    return timing, sorted(commands, key=controller_order)


def split(commands, data):
    """``commands`` cut into consecutive blocks at random seams."""
    n = len(commands)
    seams = sorted(data.draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=4)))
    bounds = [0] + [s for s in seams if s < n] + [n]
    return [commands[a:b] for a, b in zip(bounds, bounds[1:])]


SHIFTS = [-25.6, -12.8, -12.7, -5.0, -1.5, -1.0, -2e-6, -5e-7, 5e-7, 2e-6, 1.0, 5.0, 12.8, 25.6]


def mutate(commands, data):
    """The same train one rule short, or a dead window over it."""
    kind = data.draw(st.sampled_from(["shift", "bank", "row", "drop", "dead"]))
    if kind == "dead":
        end = commands[-1].time
        start = data.draw(st.floats(0.0, end))
        n = data.draw(st.integers(1, CHANNELS))
        return commands, (n, start, data.draw(st.floats(start, end + 1.0)))
    if kind == "drop":
        candidates = [i for i, c in enumerate(commands) if c.op in (Op.ACT, Op.PRE)]
        index = data.draw(st.sampled_from(candidates))
        return commands[:index] + commands[index + 1:], None
    # Pick the op first, so the rarer REFs are hit as often as the rest.
    op = data.draw(st.sampled_from(sorted({c.op for c in commands}, key=str)))
    index = data.draw(st.sampled_from([i for i, c in enumerate(commands) if c.op is op]))
    cmd = commands[index]
    if kind == "shift":
        changed = replace(cmd, time=cmd.time + data.draw(st.sampled_from(SHIFTS)))
    elif kind == "bank":
        bank = data.draw(st.integers(0, BANKS).filter(lambda b: b != cmd.bank))
        changed = replace(cmd, bank=bank)  # BANKS itself is out of range
    else:
        changed = replace(cmd, row=data.draw(st.integers(0, 4).filter(lambda r: r != cmd.row)))
    mutated = commands[:index] + [changed] + commands[index + 1:]
    return sorted(mutated, key=controller_order), None


class TestDifferential:
    @settings(max_examples=100, deadline=None)
    @given(frame_trains(), st.data())
    def test_legal_trains_agree(self, train, data):
        timing, commands = train
        blocks = split(commands, data)
        as_arrays = data.draw(st.booleans())
        assert assert_agree(blocks, timing=timing, as_arrays=as_arrays) is None

    @settings(max_examples=300, deadline=None)
    @given(frame_trains(), st.data())
    def test_trains_one_rule_short_agree(self, train, data):
        timing, commands = train
        commands, loss = mutate(commands, data)
        as_arrays = data.draw(st.booleans())
        assert_agree(split(commands, data), loss, timing, as_arrays)

    @pytest.mark.parametrize(
        "segment, t_faw, op, nth, shift, rule",
        [
            (256, 35.0, Op.WR, 0, -1.0, "tRCD"),
            (256, 35.0, Op.WR, 1, -12.7, "tCCD"),
            (256, 35.0, Op.WR, 1, -5.0, "bus-busy"),
            (256, 50.0, Op.ACT, 4, -1.5, "tFAW"),
            (256, 35.0, Op.PRE, 0, -1.0, "tRAS"),
            (512, 35.0, Op.PRE, 0, -5.0, "data-in-flight"),
            (256, 35.0, Op.ACT, 4, -25.6, "ACT-on-open-bank"),
            (256, 35.0, Op.ACT, 4, -7.0, "tRP"),
        ],
    )
    def test_each_rule_is_caught(self, segment, t_faw, op, nth, shift, rule):
        # The differential is only worth something if mutants get
        # rejected: one shifted command of a two-frame train, per rule.
        # The bank rules need the second frame on the first one's group.
        timing = replace(TIMING, t_faw=t_faw)
        commands = []
        start = first_legal_start(timing)
        for group in (0, 0 if rule in ("ACT-on-open-bank", "tRP") else 1):
            schedule = generate_frame_schedule(
                Op.WR, range(1), BankGroup(group, GAMMA), segment, 0, start, timing, RATE
            )
            commands += schedule.commands
            start = schedule.data_end
        commands.sort(key=controller_order)
        index = [i for i, c in enumerate(commands) if c.op is op][nth]
        mutant = replace(commands[index], time=commands[index].time + shift)
        commands[index] = mutant
        commands.sort(key=controller_order)
        # In one block, and with a seam just before the mutant, so the
        # state it meets was carried over from the previous block.
        seam = commands.index(mutant)
        for blocks in ([commands], [commands[:seam], commands[seam:]]):
            violation = assert_agree(blocks, timing=timing)
            assert violation.rule == rule

    def test_out_of_range_channel_is_a_config_error(self):
        ctrl = HBMController(small_stack(), 1, TIMING)
        with pytest.raises(ConfigError, match="out of range"):
            ctrl.execute([Command(Op.ACT, CHANNELS, 0, 0, 0.0)])

    def test_violation_keeps_the_legal_prefix(self):
        ctrl = HBMController(small_stack(), 1, TIMING)
        with pytest.raises(TimingViolation, match="ACT-on-open-bank"):
            ctrl.execute([
                Command(Op.ACT, 0, 0, 0, 0.0),
                Command(Op.ACT, 0, 1, 0, 1.0),
                Command(Op.ACT, 0, 0, 0, 2.0),
            ])
        assert ctrl._executed == 2
        assert ctrl.peak_open_banks() == 2
        # ``apply`` sees the same state ``execute`` left behind.
        ctrl.apply(Command(Op.WR, 0, 1, 0, 1.0 + TIMING.t_rcd, 256))
        assert ctrl.channel(0).bytes_moved == 256


# -- PFI's queued frames ------------------------------------------------------------


def pfi_frames(n_frames):
    """(op, group, row, data_start) of a back-to-back PFI train."""
    start = first_legal_start(TIMING)
    segment_time = 256 / RATE
    frames = []
    for i in range(n_frames):
        frames.append((Op.WR if i % 2 == 0 else Op.RD, BankGroup(i % 4, GAMMA), i // 4, start))
        start += GAMMA * segment_time + 0.3
    return frames


class TestQueuedFrames:
    def test_blocks_match_per_frame_execution(self):
        """Queued frames, checked a block at a time, leave the state that
        executing every frame's schedule on its own did."""
        n_frames = 2 * BLOCK_COMMANDS // (3 * GAMMA) + 3
        queued = HBMController(small_stack(), 1, TIMING)
        direct = HBMController(small_stack(), 1, TIMING)
        for op, group, row, start in pfi_frames(n_frames):
            queued.queue_frame(op, CHANNELS, group, row, start, 256)
            direct.execute(generate_frame_schedule(
                op, range(CHANNELS), group, 256, row, start, TIMING, RATE
            ).commands)
        assert queued.bytes_moved == direct.bytes_moved
        assert queued._executed == direct._executed == n_frames * 3 * GAMMA * CHANNELS
        assert queued.peak_open_banks() == direct.peak_open_banks() <= 4
        assert not queued._queued
        for index in range(CHANNELS):
            assert queued.channel(index).data_end_time == direct.channel(index).data_end_time

    def test_reading_state_flushes(self):
        ctrl = HBMController(small_stack(), 1, TIMING)
        op, group, row, start = pfi_frames(1)[0]
        ctrl.queue_frame(op, CHANNELS, group, row, start, 256)
        assert ctrl._executed == 0
        assert ctrl.bytes_moved == GAMMA * CHANNELS * 256
        assert ctrl._executed == 3 * GAMMA * CHANNELS

    def test_violation_surfaces_at_the_flush(self):
        ctrl = HBMController(small_stack(), 1, TIMING)
        op, group, row, start = pfi_frames(1)[0]
        ctrl.queue_frame(op, CHANNELS, group, row, start, 256)
        # The same group again, one segment later: its first bank is
        # still open.  Nothing is checked until the queue is flushed.
        ctrl.queue_frame(op, CHANNELS, group, row + 1, start + 256 / RATE, 256)
        with pytest.raises(TimingViolation) as caught:
            ctrl.peak_open_banks()
        assert caught.value.rule == "ACT-on-open-bank"


# -- PFI legality across the design space (E16's worst case) ----------------------


def same_group_train(gamma, segment_bytes, n_channels, timing, n_frames=4):
    """E16's worst case: every frame lands on the same bank group."""
    config = HBMSwitchConfig()
    start = first_legal_start(timing)
    commands = []
    for i in range(n_frames):
        schedule = generate_frame_schedule(
            Op.WR if i % 2 == 0 else Op.RD, range(n_channels), BankGroup(0, gamma),
            segment_bytes, row=i, data_start=start, timing=timing,
            channel_bytes_per_ns=config.stack.channel_bytes_per_ns,
        )
        commands.extend(schedule.commands)
        start = schedule.data_end
    ctrl = HBMController(config.stack, config.n_stacks, timing)
    return ctrl.execute(commands), commands


@settings(max_examples=60, deadline=None)
@given(
    n_channels=st.integers(1, 8),
    bursts=st.integers(22, 160),  # 704..5120 B: 8.8..64 ns at 80 B/ns
    ras_slack=st.floats(-60.0, 30.0),
    t_rp=st.floats(1.0, 30.0),
)
def test_pfi_train_legal_at_derived_gamma(n_channels, bursts, ras_slack, t_rp):
    """At ``derive_gamma``'s gamma the same-group train runs clean; at
    gamma - 1 the group's first bank is re-activated before its open
    span ends.

    Drawn in both regimes of the derivation: a PRE bound by tRAS (the
    segment fits between ACT + tRCD and ACT + tRAS) and a PRE that waits
    for a longer segment's data.  Segments are whole 32 B bursts, and
    four ACTs a segment apart span tFAW.
    """
    config = HBMSwitchConfig()
    segment_bytes = 32 * bursts
    segment_time = segment_bytes / config.stack.channel_bytes_per_ns
    base = HBMTiming()
    t_ras = max(base.t_rcd + 1.0, base.t_rcd + segment_time + ras_slack)
    timing = HBMTiming(t_ras=t_ras, t_rp=t_rp)
    assume(4 * segment_time >= timing.t_faw)
    try:
        gamma = derive_gamma(timing, segment_time)
    except ConfigError:
        assume(False)
    assert gamma >= 2  # one segment never covers its own open span
    result, _ = same_group_train(gamma, segment_bytes, n_channels, timing)
    assert result.payload_bytes == 4 * gamma * segment_bytes * n_channels

    with pytest.raises(TimingViolation) as caught:
        same_group_train(gamma - 1, segment_bytes, n_channels, timing)
    violation = caught.value
    # The second frame's first ACT, on the group's first bank, is the
    # first illegal command: it comes before the first frame's open
    # span on that bank has ended.  The bank is either still open
    # (ACT-on-open-bank) or still precharging (tRP); the oracle quotes
    # the row-cycle bound for the first and the precharge end for the
    # second.
    first_act = first_legal_start(timing) - timing.t_rcd
    closed = first_act + open_span(timing, segment_time)
    assert violation.command.startswith("ACT ch0 bank0 row1")
    assert violation.issued_at < closed
    if violation.rule == "tRP":
        assert violation.legal_at == pytest.approx(closed)
    else:
        assert violation.rule == "ACT-on-open-bank"
        assert violation.legal_at == pytest.approx(first_act + timing.t_rc)


@pytest.mark.parametrize(
    "segment_time, gamma",
    [(12.8, 4), (15.2, 3), (22.4, 3), (25.6, 3), (32.0, 2), (38.4, 2), (51.2, 2)],
)
def test_derived_gamma_is_the_smallest_legal_one(segment_time, gamma):
    """With the reference timing, across both regimes, ``derive_gamma``
    is exactly the smallest gamma the command-level check accepts."""
    timing = HBMTiming()
    segment_bytes = round(segment_time * HBMSwitchConfig().stack.channel_bytes_per_ns)
    assert derive_gamma(timing, segment_time) == gamma
    same_group_train(gamma, segment_bytes, 2, timing)
    with pytest.raises(TimingViolation):
        same_group_train(gamma - 1, segment_bytes, 2, timing)


# -- lanes: one check per run of identical channels ------------------------------


class PerChannel(HBMController):
    """The reference: every queued frame checked one row per channel."""

    def execute(self, commands):
        if isinstance(commands, CommandBlock):
            commands = commands.expand()
        return super().execute(commands)


STATE = (
    "recent_acts", "last_column", "bus_free", "bytes_moved", "data_end",
    "is_open", "open_row", "last_act", "precharged_at", "bank_data_end",
)


@st.composite
def lane_scripts(draw):
    """Steps on a controller: PFI frames over mixed channel counts, some
    early enough to be illegal, plus flushes, generic ``execute`` calls on
    a few channels, and channel-loss windows."""
    n_stacks = draw(st.integers(1, 2))
    channels = CHANNELS * n_stacks
    segment_time = 256 / RATE
    start = first_legal_start(TIMING)
    group = 0
    steps = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["frame"] * 8 + ["bad", "flush", "execute", "loss"]))
        op = draw(st.sampled_from([Op.WR, Op.RD]))
        row = draw(st.integers(0, 3))
        if kind in ("frame", "bad", "execute"):
            # The next group in turn; a bad frame may reuse the last one.
            if kind != "bad" or draw(st.booleans()):
                group = (group + 1) % (BANKS // GAMMA)
            at = start - (draw(st.sampled_from([1.0, 12.8, 30.0])) if kind == "bad" else 0.0)
            if kind == "execute":
                where = sorted(draw(st.sets(st.integers(0, channels - 1), min_size=1)))
            else:
                where = draw(st.sampled_from([channels, channels, channels - 1, 2, 1]))
            steps.append((kind, op, where, BankGroup(group, GAMMA), row, at))
            start += GAMMA * segment_time + draw(st.sampled_from([0.0, 0.0, 0.3, 45.0]))
        elif kind == "loss":
            # Often over earlier frames only: a past window still cuts lanes.
            lo = start + draw(st.floats(-600.0, 200.0))
            hi = lo + draw(st.floats(0.0, 400.0))
            steps.append(("loss", draw(st.integers(1, channels)), lo, hi))
        else:
            steps.append(("flush",))
    return n_stacks, steps


def run_script(ctrl, steps):
    """Run ``steps``; the index of the step that raised and its violation."""
    for index, step in enumerate(steps + [("flush",)]):
        kind = step[0]
        try:
            if kind in ("frame", "bad"):
                _, op, n_channels, group, row, at = step
                ctrl.queue_frame(op, n_channels, group, row, at, 256)
            elif kind == "execute":
                _, op, channels, group, row, at = step
                ctrl.execute(generate_frame_schedule(
                    op, channels, group, 256, row, at, TIMING, RATE
                ).commands)
            elif kind == "loss":
                ctrl.apply_channel_loss(*step[1:])
            else:
                ctrl.flush()
        except TimingViolation as violation:
            return index, violation
    return None, None


class TestLanes:
    @settings(max_examples=300, deadline=None)
    @given(lane_scripts(), st.booleans())
    def test_lanes_match_per_channel_check(self, script, sweep):
        """Checking each lane once leaves exactly the state, counts, audit
        and first violation of checking every channel."""
        n_stacks, steps = script
        lanes = HBMController(small_stack(), n_stacks, TIMING)
        reference = PerChannel(small_stack(), n_stacks, TIMING)
        if sweep:
            lanes._incremental = reference._incremental = False
        at, got = run_script(lanes, steps)
        expected_at, expected = run_script(reference, steps)
        assert at == expected_at
        if expected is None:
            assert got is None
        else:
            assert (got.rule, got.command, got.issued_at, got.legal_at) == (
                expected.rule, expected.command, expected.issued_at, expected.legal_at
            )
        for name in STATE:
            assert np.array_equal(
                getattr(lanes._state, name), getattr(reference._state, name)
            ), name
        for index in range(lanes.n_channels):
            assert lanes.channel(index).bytes_moved == reference.channel(index).bytes_moved
            assert lanes.channel(index).data_end_time == reference.channel(index).data_end_time
        assert lanes._executed == reference._executed
        assert lanes._incremental == reference._incremental == (not sweep)
        assert lanes.peak_open_banks() == reference.peak_open_banks()
        assert lanes._sweep_peak() == reference._sweep_peak() == reference.peak_open_banks()
        if not sweep:
            assert sorted(zip(*map(list, lanes._pending))) == sorted(
                zip(*map(list, reference._pending))
            )

    def test_one_lane_is_checked_once(self, monkeypatch):
        """Frames striped over every channel are checked on one channel,
        and counted on all of them."""
        checked_rows = []
        check = TimingState._check

        def counting_check(self, block, owner=None):
            checked_rows.append(len(block))
            return check(self, block, owner)

        monkeypatch.setattr(TimingState, "_check", counting_check)
        ctrl = HBMController(small_stack(), 1, TIMING)
        n_frames = 10
        for op, group, row, start in pfi_frames(n_frames):
            ctrl.queue_frame(op, CHANNELS, group, row, start, 256)
        ctrl.flush()
        assert checked_rows == [n_frames * 3 * GAMMA]
        assert ctrl._executed == n_frames * 3 * GAMMA * CHANNELS
        assert ctrl.bytes_moved == n_frames * GAMMA * 256 * CHANNELS
