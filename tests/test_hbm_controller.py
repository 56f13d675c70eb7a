"""Controller: schedule execution, auditing, bandwidth accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HBMStackConfig
from repro.core import HBMSwitch, PFIOptions
from repro.errors import ConfigError, TimingViolation
from repro.hbm import (
    BankGroup,
    Command,
    HBMController,
    HBMTiming,
    Op,
    first_legal_start,
    generate_frame_schedule,
)
from repro.faults import HBMChannelLoss
from repro.faults.schedule import SwitchFaultView
from tests.conftest import make_traffic

T = HBMTiming()


def small_stack() -> HBMStackConfig:
    # 2.5 Gb/s pins keep the 256 B segment at the reference 12.8 ns.
    return HBMStackConfig(
        channels=4,
        gbps_per_bit=2.5e9,
        banks_per_channel=16,
        capacity_bytes=2**30,
        row_bytes=256,
    )


def make_controller(n_stacks=1) -> HBMController:
    return HBMController(small_stack(), n_stacks, T)


def frame_commands(ctrl, group_index, row, start, segment=256):
    sched = generate_frame_schedule(
        op=Op.WR,
        channels=range(ctrl.n_channels),
        group=BankGroup(group_index, 4),
        segment_bytes=segment,
        row=row,
        data_start=start,
        timing=T,
        channel_bytes_per_ns=ctrl.stack_config.channel_bytes_per_ns,
    )
    return sched


class TestGeometry:
    def test_flat_channel_count(self):
        assert make_controller(n_stacks=2).n_channels == 8

    def test_channel_lookup_bounds(self):
        ctrl = make_controller()
        with pytest.raises(ConfigError):
            ctrl.channel(4)
        with pytest.raises(ConfigError):
            ctrl.channel(-1)

    def test_rejects_zero_stacks(self):
        with pytest.raises(ConfigError):
            HBMController(small_stack(), 0, T)

    def test_peak_bandwidth(self):
        ctrl = make_controller(n_stacks=2)
        assert ctrl.peak_bandwidth_bps == pytest.approx(2 * 4 * 64 * 2.5e9)


class TestExecution:
    def test_empty_schedule(self):
        result = make_controller().execute([])
        assert result.payload_bytes == 0
        assert result.commands_executed == 0

    def test_single_frame_moves_payload(self):
        ctrl = make_controller()
        sched = frame_commands(ctrl, 0, 0, first_legal_start(T))
        result = ctrl.execute(sched.commands)
        # gamma * channels * segment bytes.
        assert result.payload_bytes == 4 * 4 * 256
        assert result.peak_open_banks_per_channel <= 4

    def test_violating_schedule_raises(self):
        ctrl = make_controller()
        bad = [
            Command(Op.ACT, 0, 0, 0, 0.0),
            Command(Op.WR, 0, 0, 0, 1.0, size_bytes=256),  # before tRCD
        ]
        with pytest.raises(TimingViolation):
            ctrl.execute(bad)

    def test_bytes_moved_accumulates_across_executes(self):
        ctrl = make_controller()
        start = first_legal_start(T)
        s1 = frame_commands(ctrl, 0, 0, start)
        ctrl.execute(s1.commands)
        s2 = frame_commands(ctrl, 1, 0, s1.data_end)
        ctrl.execute(s2.commands)
        assert ctrl.bytes_moved == 2 * 4 * 4 * 256


class TestPeakRate:
    def test_back_to_back_frames_hit_peak_bandwidth(self):
        """The E4 property at small scale: consecutive staggered frames
        keep every channel's bus saturated."""
        ctrl = make_controller()
        start = first_legal_start(T)
        commands = []
        n_frames = 8
        for i in range(n_frames):
            sched = frame_commands(ctrl, group_index=i % 4, row=i // 4, start=start)
            commands.extend(sched.commands)
            start = sched.data_end
        result = ctrl.execute(commands)
        assert result.achieved_bandwidth_bps == pytest.approx(
            ctrl.peak_bandwidth_bps, rel=1e-6
        )
        assert result.peak_open_banks_per_channel <= 4

    def test_efficiency_accounting(self):
        ctrl = make_controller()
        sched = frame_commands(ctrl, 0, 0, first_legal_start(T))
        ctrl.execute(sched.commands)
        assert ctrl.efficiency(sched.duration_ns) == pytest.approx(1.0, rel=1e-6)
        assert ctrl.efficiency(0.0) == 0.0


class TestAudit:
    def test_open_bank_audit_counts_live_banks(self):
        ctrl = make_controller()
        # Open two banks, never close them.
        ctrl.apply(Command(Op.ACT, 0, 0, 0, 0.0))
        ctrl.apply(Command(Op.ACT, 0, 1, 0, 1.0))
        assert ctrl.peak_open_banks() == 2

    def test_empty_execute_reports_cumulative_peak(self):
        ctrl = make_controller()
        sched = frame_commands(ctrl, 0, 0, first_legal_start(T))
        peak = ctrl.execute(sched.commands).peak_open_banks_per_channel
        assert peak >= 1
        assert ctrl.execute([]).peak_open_banks_per_channel == peak

    def test_out_of_order_act_falls_back_exactly(self):
        ctrl = make_controller()
        ctrl.apply(Command(Op.ACT, 0, 0, 0, 10.0))
        ctrl.apply(Command(Op.ACT, 0, 1, 0, 0.0))  # earlier than the last ACT
        assert ctrl.peak_open_banks() == ctrl._sweep_peak() == 2

    def test_close_before_counted_act_falls_back_exactly(self):
        ctrl = make_controller()
        ctrl.apply(Command(Op.ACT, 0, 0, 0, 0.0))
        ctrl.apply(Command(Op.ACT, 0, 1, 0, 100.0))
        # Bank 0 closed at 45 + tRP = 60, before the ACT at 100 that
        # already counted it as open.
        ctrl.apply(Command(Op.PRE, 0, 0, 0, 45.0))
        assert ctrl.peak_open_banks() == ctrl._sweep_peak() == 1


# -- incremental open-bank audit vs the reference sweep -------------------------

#: tFAW at zero, so that ACTs on different banks may tie and arrive out
#: of order.  The channel still rejects an ACT earlier than the fourth
#: latest ACT it applied; ``test_shuffled_order_matches_sweep`` keeps to
#: that.  Every bank-level rule applies unchanged.
NO_FAW = HBMTiming(t_faw=0.0)
AUDIT_CHANNELS = 3
AUDIT_BANKS = 5


@st.composite
def bank_streams(draw):
    """Per-bank ACT/PRE sequences, each legal on its own bank.

    Times sit on a 5 ns grid so commands on different banks tie, and a
    zero slack makes a close land exactly on the bank's next ACT.
    """
    streams = []
    for channel in range(AUDIT_CHANNELS):
        for bank in range(AUDIT_BANKS):
            time = 5.0 * draw(st.integers(0, 12))
            commands = []
            for _ in range(draw(st.integers(0, 3))):
                commands.append(Command(Op.ACT, channel, bank, 0, time))
                if draw(st.booleans()) or len(commands) < 2:
                    time += NO_FAW.t_ras + 5.0 * draw(st.integers(0, 4))
                    commands.append(Command(Op.PRE, channel, bank, 0, time))
                    time += NO_FAW.t_rp + 5.0 * draw(st.integers(0, 4))
                else:
                    break  # leave this bank open
            streams.append(commands)
    return streams


def audited_apply(commands):
    """Apply ``commands`` one by one, checking the audit after each.

    The incremental peak must equal the sweep, and the controller must
    leave the incremental path exactly when a channel first sees an ACT
    earlier than its latest ACT or a close no later than it.
    """
    ctrl = HBMController(small_stack(), 1, NO_FAW)
    last_act = [-float("inf")] * AUDIT_CHANNELS
    in_order = True
    for cmd in commands:
        ctrl.apply(cmd)
        if cmd.op is Op.ACT:
            in_order = in_order and cmd.time >= last_act[cmd.channel]
            last_act[cmd.channel] = max(last_act[cmd.channel], cmd.time)
        else:
            in_order = in_order and cmd.time + NO_FAW.t_rp > last_act[cmd.channel]
        assert ctrl._incremental == in_order
        assert ctrl.peak_open_banks() == ctrl._sweep_peak()
    return ctrl


def faw_ok(cmd, channel_acts):
    """Whether ``cmd`` passes tFAW after ``channel_acts`` (apply order)."""
    if cmd.op is not Op.ACT or len(channel_acts) < 4:
        return True
    return cmd.time >= channel_acts[-4] + NO_FAW.t_faw


class TestIncrementalAudit:
    @settings(max_examples=150, deadline=None)
    @given(bank_streams())
    def test_time_order_matches_sweep_without_fallback(self, streams):
        ordered = sorted(
            (cmd for stream in streams for cmd in stream),
            key=lambda c: (c.time, c.op is not Op.PRE, c.channel, c.bank),
        )
        ctrl = audited_apply(ordered)
        assert ctrl._incremental

    @settings(max_examples=150, deadline=None)
    @given(bank_streams(), st.data())
    def test_shuffled_order_matches_sweep(self, streams, data):
        # Interleave the banks at random, keeping each bank's own order
        # (the bank rules reject anything else) and never issuing an ACT
        # before its channel's fourth latest one (tFAW).  A bank whose
        # next ACT can no longer go out is dropped with its remainder.
        # Picking among the three earliest heads keeps most streams
        # close to time order, where the two audits are easiest to part.
        queues = [list(stream) for stream in streams if stream]
        acts = {channel: [] for channel in range(AUDIT_CHANNELS)}
        shuffled = []
        while queues:
            queues = sorted(
                (q for q in queues if faw_ok(q[0], acts[q[0].channel])),
                key=lambda q: q[0].time,
            )
            if not queues:
                break
            queue = queues[data.draw(st.integers(0, min(2, len(queues) - 1)))]
            cmd = queue.pop(0)
            if cmd.op is Op.ACT:
                acts[cmd.channel].append(cmd.time)
            shuffled.append(cmd)
            queues = [q for q in queues if q]
        audited_apply(shuffled)


def validated_run(small_switch, monkeypatch, faults=None, **options):
    def no_sweep(self):
        raise AssertionError("validated PFI run left the incremental audit")

    monkeypatch.setattr(HBMController, "_sweep_peak", no_sweep)
    switch = HBMSwitch(
        small_switch,
        PFIOptions(validate_hbm_timing=True, **options),
        faults=faults,
    )
    report = switch.run(make_traffic(small_switch, 0.8, 20_000.0), 20_000.0)
    controller = switch.pfi.controller
    assert controller._executed > 0
    assert 1 <= controller.peak_open_banks() <= 4
    return report


class TestValidatedRunsStayIncremental:
    @pytest.mark.parametrize("bypass", [True, False])
    @pytest.mark.parametrize("padding", [True, False])
    def test_pfi_options(self, small_switch, monkeypatch, bypass, padding):
        validated_run(small_switch, monkeypatch, bypass=bypass, padding=padding)

    def test_channel_loss_window(self, small_switch, monkeypatch):
        faults = SwitchFaultView(
            switch=0,
            total_channels=small_switch.total_channels,
            channel_losses=[
                HBMChannelLoss(
                    switch=0, n_channels=2, start_ns=5_000.0, end_ns=12_000.0
                )
            ],
        )
        report = validated_run(
            small_switch, monkeypatch, faults=faults, padding=True, bypass=False
        )
        assert report.delivered_bytes > 0


@pytest.mark.xfail(
    strict=True,
    raises=TimingViolation,
    reason="a phase still in flight when a channel loss begins uses a dying "
    "channel; passes once PFI paces its phases around the loss",
)
def test_validated_run_honours_channel_loss_windows(small_switch):
    faults = SwitchFaultView(
        switch=0,
        total_channels=small_switch.total_channels,
        channel_losses=[
            HBMChannelLoss(switch=0, n_channels=2, start_ns=5_000.0, end_ns=12_000.0)
        ],
    )
    switch = HBMSwitch(
        small_switch,
        PFIOptions(validate_hbm_timing=True, padding=True),
        faults=faults,
    )
    switch.pfi.controller.apply_channel_loss(2, 5_000.0, 12_000.0)
    try:
        switch.run(make_traffic(small_switch, 0.8, 20_000.0), 20_000.0)
    except TimingViolation as violation:
        # Pin the known failure, so any other violation fails the test.
        assert violation.rule == "channel-dead"
        assert violation.command == "RD ch6 bank6 row24578 256B"
        assert violation.issued_at == pytest.approx(5001.88)
        raise
