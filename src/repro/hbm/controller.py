"""HBM group controller: validates schedules and measures bandwidth.

The controller owns the ``B`` stacks of one HBM switch as a flat channel
space (channel ``i`` of stack ``s`` is flat index ``s * channels + i``).
It does **no scheduling of its own** -- PFI's whole claim is that a
deterministic, pre-computed schedule can hit peak rate, so the controller
only (a) enforces every timing rule, (b) audits the concurrent-activation
(current-draw) limit, and (c) accounts payload bytes against elapsed
time.

The rules are checked a block at a time by
:class:`~repro.hbm.verify.TimingState`, which holds the state of every
channel and bank as arrays; the :class:`~repro.hbm.channel.Channel` and
:class:`~repro.hbm.bank.Bank` state machines are the reference it is
tested against.  :meth:`HBMController.apply` is a one-command block, so
it and :meth:`HBMController.execute` share that one state.

PFI queues one row per phase (:meth:`HBMController.queue_frame`) instead
of building its commands.  The queue is checked once it holds about
:data:`BLOCK_COMMANDS` commands per lane, and whenever controller state
is read, so a violation surfaces at the next flush rather than in the
phase that issued it.  A phase stripes the same schedule over channels
``0 .. n - 1``, so a flush hands the verifier one row per command with
the channels it spans, and the verifier checks each lane of identical
channels once (:mod:`repro.hbm.verify`); every count and audit still
covers every channel.

Write/read phase turnarounds (bus direction reversal, DQS preambles) are
not modelled per-command; they are the "about 2%" transition overhead of
SS 4 (*Frame interleaving cycle*), applied by the PFI engine as a phase
gap and measured in E4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from ..config import HBMStackConfig
from ..errors import ConfigError
from ..units import bytes_per_ns_to_rate
from .commands import Command, Op
from .interleaving import BankGroup, frame_schedule_block
from .bank import TIMING_EPSILON_NS as EPS
from .timing import HBMTiming
from .verify import (
    CODE, WR, Checked, CommandBlock, TimingState, application_order, spread,
)

#: Checked rows per lane in one block of a PFI run: a frame adds
#: ``3 * gamma``, so 128 frames at gamma 4.  The budget bounds the
#: verifier's temporaries, and so peak RSS, at the 16 frames x 96
#: commands the per-channel check took on the 8-channel
#: ``switch_hbm_checked`` bench switch.  A block whose frames stripe
#: over different channel counts, or whose channels carry different
#: state, has more than one lane and checks that many rows per lane.
BLOCK_COMMANDS = 1536


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of executing a command schedule."""

    payload_bytes: int
    start_ns: float
    end_ns: float
    commands_executed: int
    #: The controller's :meth:`HBMController.peak_open_banks` after this
    #: schedule: cumulative over its lifetime, not this schedule alone.
    peak_open_banks_per_channel: int

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns

    @property
    def achieved_bandwidth_bps(self) -> float:
        """Payload over wall-clock across the whole group."""
        if self.duration_ns <= 0:
            return 0.0
        return bytes_per_ns_to_rate(self.payload_bytes / self.duration_ns)


@dataclass(frozen=True)
class ChannelView:
    """Read-only view of one channel of a controller."""

    controller: "HBMController"
    index: int

    @property
    def bytes_moved(self) -> int:
        """Total payload bytes transferred over this channel's bus."""
        return int(self.controller._timing_state().bytes_moved[self.index])

    @property
    def data_end_time(self) -> float:
        """Completion time of the last data transfer on this channel."""
        return float(self.controller._timing_state().data_end[self.index])

    def available_at(self, t_ns: float) -> bool:
        """Whether the channel responds to commands at ``t_ns``."""
        return self.controller._state.available_at(self.index, t_ns)


class HBMController:
    """Command-level controller for a group of HBM stacks."""

    def __init__(
        self,
        stack_config: HBMStackConfig,
        n_stacks: int,
        timing: HBMTiming = HBMTiming(),
    ) -> None:
        if n_stacks <= 0:
            raise ConfigError(f"n_stacks must be positive, got {n_stacks}")
        self.stack_config = stack_config
        self.timing = timing
        self.n_stacks = n_stacks
        self._state = TimingState(
            timing,
            n_channels=n_stacks * stack_config.channels,
            n_banks=stack_config.banks_per_channel,
            bytes_per_ns=stack_config.channel_bytes_per_ns,
            width_bits=stack_config.channel_width_bits,
        )
        # PFI phases not yet checked, one row each (``queue_frame``),
        # and the rows per lane they expand to.
        self._queued: List[Tuple[int, int, int, int, float, int, int]] = []
        self._queued_rows = 0
        # Open-bank intervals ``(channel, span, open, close)`` closed so
        # far, one array tuple per block: each interval holds on
        # channels ``channel .. channel + span - 1``.  The reference
        # sweep's input.
        self._intervals: List[Tuple[np.ndarray, ...]] = []
        # Incremental form of the same audit (see ``_track``): the close
        # times ``(channel, close)`` later than their channel's latest
        # ACT, plus the running peak.  ``_incremental`` drops to False
        # for good once a caller breaks its ordering preconditions; the
        # audit then falls back to ``_sweep_peak``.
        self._pending = (np.zeros(0, dtype=np.int64), np.zeros(0))
        self._peak = 0
        self._incremental = True
        self._executed = 0

    # -- geometry -------------------------------------------------------------

    @property
    def n_channels(self) -> int:
        """T: flat channel count across all stacks."""
        return self._state.n_channels

    @property
    def peak_bandwidth_bps(self) -> float:
        """Aggregate peak rate of all channels (81.92 Tb/s reference)."""
        return self.n_stacks * self.stack_config.stack_bandwidth_bps

    @property
    def bytes_moved(self) -> int:
        return int(self._timing_state().bytes_moved.sum())

    def channel(self, flat_index: int) -> ChannelView:
        """The channel at flat index 0 <= i < T."""
        if not 0 <= flat_index < self.n_channels:
            raise ConfigError(
                f"channel {flat_index} out of range (T = {self.n_channels})"
            )
        return ChannelView(self, flat_index)

    # -- fault injection -------------------------------------------------------

    def apply_channel_loss(
        self,
        n_channels: int,
        start_ns: float = 0.0,
        end_ns: float = float("inf"),
    ) -> None:
        """Mark the *last* ``n_channels`` channels dead during the window.

        Survivors are the first T - n flat channels, which is exactly
        the set the PFI engine keeps striping over under a
        :class:`~repro.faults.model.HBMChannelLoss` -- so a validated
        (command-level) run and the analytic drain stretch agree on
        which channels are gone.  Commands addressed to a dead channel
        inside the window raise :class:`~repro.errors.TimingViolation`
        with rule ``channel-dead``.  Frames already queued are checked
        first, against the windows in force when they were queued.
        """
        if not 0 < n_channels <= self.n_channels:
            raise ConfigError(
                f"channel loss must take 1..{self.n_channels} channels, "
                f"got {n_channels}"
            )
        self.flush()
        for channel in range(self.n_channels - n_channels, self.n_channels):
            self._state.fail(channel, start_ns, end_ns)

    # -- execution ------------------------------------------------------------

    def apply(self, cmd: Command) -> None:
        """Apply one command, enforcing all timing rules."""
        self.flush()
        self._run(CommandBlock.from_commands([cmd]))

    def queue_frame(
        self,
        op: Op,
        n_channels: int,
        group: BankGroup,
        row: int,
        data_start: float,
        segment_bytes: int,
    ) -> None:
        """Queue one frame's schedule for the next flush.

        The frame is :func:`~repro.hbm.interleaving.generate_frame_schedule`'s
        over channels ``0 .. n_channels - 1`` at this controller's
        timing and channel rate.  The queue is checked once its frames
        expand to :data:`BLOCK_COMMANDS` rows per lane.
        """
        self._queued.append(
            (CODE[op], n_channels, group.first_bank, row, data_start,
             group.gamma, segment_bytes)
        )
        self._queued_rows += 3 * group.gamma
        if self._queued_rows >= BLOCK_COMMANDS:
            self.flush()

    def flush(self) -> None:
        """Check every queued frame, through :meth:`execute`.

        Raises :class:`~repro.errors.TimingViolation` on the first
        illegal command among them.
        """
        if not self._queued:
            return
        rows, self._queued, self._queued_rows = self._queued, [], 0
        block = frame_schedule_block(
            *zip(*rows), self.timing, self.stack_config.channel_bytes_per_ns
        )
        self.execute(block)

    def execute(self, commands: Union[CommandBlock, Iterable[Command]]) -> ScheduleResult:
        """Execute a whole schedule in time order and audit it.

        ``commands`` is a :class:`~repro.hbm.verify.CommandBlock` (whose
        rows may span channels) or any iterable of :class:`Command`.
        They are sorted by ``(time, op-priority, channel, bank)`` -- at
        equal timestamps PRE applies before ACT before column commands,
        which matches how a real controller pipelines same-cycle
        commands.  Raises
        :class:`TimingViolation` on the first illegal command; the
        commands before it stay applied.
        """
        self.flush()
        block = (
            commands if isinstance(commands, CommandBlock)
            else CommandBlock.from_commands(commands)
        )
        if not len(block):
            return ScheduleResult(0, 0.0, 0.0, 0, self.peak_open_banks())
        block = block.take(application_order(block))
        self._run(block)
        column = block.op >= WR
        payload = int((block.size * block.span)[column].sum())
        if payload:
            time, size = block.time[column], block.size[column]
            data_start = float(time.min())
            data_end = float((time + self._state.transfer_time(size)).max())
        else:
            data_start = float(block.time[0])
            data_end = float(block.time[-1])
        return ScheduleResult(
            payload_bytes=payload,
            start_ns=data_start,
            end_ns=data_end,
            commands_executed=block.n_commands,
            peak_open_banks_per_channel=self.peak_open_banks(),
        )

    def _run(self, block: CommandBlock) -> Checked:
        """Check and apply ``block`` in its given order, then audit it."""
        open_before = self._state.open_counts()
        wide = (block.span != 1).any()
        checked, error = self._state.apply(block, self._carried() if wide else None)
        self._executed += checked.block.n_commands
        self._track(checked, open_before)
        if error is not None:
            raise error
        return checked

    def _carried(self) -> Optional[np.ndarray]:
        """The audit's pending closes per channel, sorted, padded with inf.

        Two channels share a lane only if these rows agree too: the
        incremental audit counts each lane once.
        """
        channel, close = self._pending
        if not self._incremental or not len(channel):
            return None
        order = np.lexsort((close, channel))
        channel, close = channel[order], close[order]
        rank = np.arange(len(channel)) - np.searchsorted(channel, channel)
        rows = np.full((self.n_channels, int(rank.max()) + 1), np.inf)
        rows[channel, rank] = close
        return rows

    def _timing_state(self) -> TimingState:
        """The state of record, after every queued frame is applied."""
        self.flush()
        return self._state

    # -- audits ---------------------------------------------------------------

    def _track(self, checked: Checked, open_before: np.ndarray) -> None:
        """Fold one applied block into the open-bank audit.

        Every PRE closes an interval ``(its bank's ACT, PRE + tRP)`` of
        the sweep's history.  While every channel sees non-decreasing
        ACT times and every close later than its channel's latest ACT,
        the banks open at an ACT are the ones still without a PRE plus
        the closed ones whose close is later -- no later command can
        change that count -- so the running maximum over ACTs equals
        the sweep's.  With ACTs and closes sorted per channel (a close
        at an ACT's own time first, as in the sweep), the count at each
        ACT is the channel's banks open before the block, plus its
        pending closes, plus the ACTs so far, minus the closes so far.

        A row that stands for a lane counts for each of its channels:
        they started with the same open banks and pending closes and
        met the same commands, so each channel's count is its lane's.
        """
        # The PREs, in the per-bank order the bank state is kept in.
        by_bank = checked.by_bank
        pre = checked.is_pre[by_bank]
        pres = by_bank[pre]
        p_ch, p_close = checked.ch[pres], checked.block.time[pres] + self.timing.t_rp
        if len(p_ch):
            opened = checked.bank_state["last_act"][pre]
            self._intervals.append((p_ch, checked.block.span[pres], opened, p_close))
        if not self._incremental:
            return
        # An ACT within the timing rules' tolerance of its channel's
        # previous one counts as simultaneous: trains laid out with
        # accumulated float times land an ulp either side.  Only a
        # channel's first ACT in a block can be early (blocks apply in
        # time order), and every close is later than that previous ACT
        # (pending ones by ``keep``, earlier PREs by the check below,
        # later ones by tRP), so its count is the sweep's at that ACT.
        if np.any(checked.a_t < checked.a_prev - EPS) or np.any(
            p_close <= checked.channel_last_act[pres]
        ):
            self._incremental = False
            return
        pend_ch, pend_close = self._pending
        if len(checked.acts):
            channel = np.concatenate((pend_ch, p_ch, checked.a_ch))
            time = np.concatenate((pend_close, p_close, checked.a_t))
            is_act = np.arange(len(channel)) >= len(pend_ch) + len(p_ch)
            order = np.lexsort((is_act, time, channel))
            channel, is_act = channel[order], is_act[order]
            net = np.cumsum(np.where(is_act, 1, -1))
            # Net count within each channel: subtract the running total
            # at the channel's first event.
            first = np.searchsorted(channel, channel, side="left")
            net = net - (net[first] - np.where(is_act[first], 1, -1))
            base = open_before + np.bincount(pend_ch, minlength=self.n_channels)
            counts = base[channel] + net
            self._peak = max(self._peak, int(counts[is_act].max()))
        latest = self._state.recent_acts[:, 3]
        channel = np.concatenate((pend_ch, p_ch))
        close = np.concatenate((pend_close, p_close))
        keep = close > latest[channel]
        channel, close = channel[keep], close[keep]
        owner = checked.owner
        if owner is not None:
            # The rest of each lane now holds its owner's pending closes.
            mine = owner[channel] == channel
            width = np.bincount(owner, minlength=self.n_channels)
            rows, channel = spread(channel[mine], width[channel[mine]])
            close = close[mine][rows]
        self._pending = (channel, close)

    def peak_open_banks(self) -> int:
        """Maximum simultaneously open banks seen on any channel.

        The paper bounds this by four (the four-activation window /
        instantaneous-current argument that fixes gamma).  Cumulative
        over the controller's lifetime, including banks still open.
        Kept incrementally, a sort per applied block, while every
        channel sees non-decreasing ACT times and closes later than its
        latest ACT -- true of PFI's frame trains even though a frame's
        leading ACT precedes the previous frame's trailing PRE.  Other
        ``apply`` orders fall back to the exact sweep for good.
        """
        self.flush()
        if self._incremental:
            return self._peak
        return self._sweep_peak()

    def _sweep_peak(self) -> int:
        """Reference audit: a sweep over every recorded open interval."""
        state = self._state
        open_banks = np.flatnonzero(state.is_open)
        channels, starts, ends = [], [], []
        for first, span, start, end in self._intervals:
            rows, channel = spread(first, span)
            channels.append(channel)
            starts.append(start[rows])
            ends.append(end[rows])
        n_closed = sum(len(c) for c in channels)
        channel = np.concatenate(channels * 2 + [open_banks // state.n_banks])
        time = np.concatenate(starts + ends + [state.last_act[open_banks]])
        delta = np.repeat([1, -1, 1], [n_closed, n_closed, len(open_banks)])
        if not len(delta):
            return 0
        order = np.lexsort((delta, time, channel))
        channel, delta = channel[order], delta[order]
        running = np.cumsum(delta)
        # Count within each channel: drop the total before its first point.
        first = np.searchsorted(channel, channel, side="left")
        running = running - (running[first] - delta[first])
        return max(0, int(running.max()))

    def publish_telemetry(self, registry, switch: str) -> None:
        """Snapshot command-level counters into a telemetry registry.

        Called once at report time by validated (``validate_hbm_timing``)
        runs: the command-level byte counts cross-check the analytic
        per-channel counters the PFI engine records
        (``repro_hbm_channel_bytes_total``).
        """
        state = self._timing_state()
        registry.gauge(
            "repro_hbm_controller_commands",
            "DRAM commands executed by the timing-checked controller",
            switch=switch,
        ).set(float(self._executed))
        registry.gauge(
            "repro_hbm_controller_bytes_moved",
            "payload bytes moved through the command-level model",
            switch=switch,
        ).set(float(self.bytes_moved))
        registry.gauge(
            "repro_hbm_peak_open_banks",
            "max simultaneously open banks on any channel (bound: 4)",
            switch=switch,
        ).set(float(self.peak_open_banks()))
        moved = state.bytes_moved > 0
        elapsed = float(state.data_end[moved].max()) if moved.any() else 0.0
        rate = self.stack_config.channel_bytes_per_ns
        for index, moved_bytes in enumerate(state.bytes_moved.tolist()):
            registry.gauge(
                "repro_hbm_channel_utilisation",
                "fraction of channel peak rate used (command-level model)",
                channel=str(index), switch=switch,
            ).set(moved_bytes / (rate * elapsed) if elapsed > 0 else 0.0)

    def efficiency(self, elapsed_ns: float) -> float:
        """Fraction of group peak bandwidth achieved over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        achieved = bytes_per_ns_to_rate(self.bytes_moved / elapsed_ns)
        return achieved / self.peak_bandwidth_bps
