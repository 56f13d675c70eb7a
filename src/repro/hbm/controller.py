"""HBM group controller: validates schedules and measures bandwidth.

The controller owns the ``B`` stacks of one HBM switch as a flat channel
space (channel ``i`` of stack ``s`` is flat index ``s * channels + i``).
It does **no scheduling of its own** -- PFI's whole claim is that a
deterministic, pre-computed schedule can hit peak rate, so the controller
only (a) enforces every timing rule by delegating to the channel/bank
state machines, (b) audits the concurrent-activation (current-draw)
limit, and (c) accounts payload bytes against elapsed time.

Write/read phase turnarounds (bus direction reversal, DQS preambles) are
not modelled per-command; they are the "about 2%" transition overhead of
SS 4 (*Frame interleaving cycle*), applied by the PFI engine as a phase
gap and measured in E4.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..config import HBMStackConfig
from ..errors import ConfigError, TimingViolation
from ..units import bytes_per_ns_to_rate
from .commands import Command, Op
from .channel import Channel
from .stack import HBMStack
from .timing import HBMTiming


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
        self.stacks: List[HBMStack] = [
            HBMStack(stack_config, timing, base_channel=s * stack_config.channels)
            for s in range(n_stacks)
        ]
        self._channels: List[Channel] = [
            channel for stack in self.stacks for channel in stack.channels
        ]
        # Open-bank intervals per channel for the current-draw audit:
        # channel -> {bank: act_time}; closed intervals accumulate below.
        self._open_since: List[Dict[int, float]] = [dict() for _ in self._channels]
        self._intervals: List[List[Tuple[float, float]]] = [[] for _ in self._channels]
        # Incremental form of the same audit (see ``_track_act``): per
        # channel the latest ACT time and a min-heap of close times later
        # than it, plus the running peak.  ``_incremental`` drops to
        # False for good once a caller breaks its ordering preconditions;
        # the audit then falls back to ``_sweep_peak``.
        self._last_act: List[float] = [-float("inf")] * len(self._channels)
        self._pending_closes: List[List[float]] = [[] for _ in self._channels]
        self._peak = 0
        self._incremental = True
        self._executed = 0

    # -- geometry -------------------------------------------------------------

    @property
    def n_channels(self) -> int:
        """T: flat channel count across all stacks."""
        return len(self._channels)

    @property
    def peak_bandwidth_bps(self) -> float:
        """Aggregate peak rate of all channels (81.92 Tb/s reference)."""
        return sum(stack.peak_bandwidth_bps for stack in self.stacks)

    @property
    def bytes_moved(self) -> int:
        return sum(stack.bytes_moved for stack in self.stacks)

    def channel(self, flat_index: int) -> Channel:
        """The channel at flat index 0 <= i < T."""
        if not 0 <= flat_index < self.n_channels:
            raise ConfigError(
                f"channel {flat_index} out of range (T = {self.n_channels})"
            )
        return self._channels[flat_index]

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
        with rule ``channel-dead``.
        """
        if not 0 < n_channels <= self.n_channels:
            raise ConfigError(
                f"channel loss must take 1..{self.n_channels} channels, "
                f"got {n_channels}"
            )
        for channel in self._channels[self.n_channels - n_channels:]:
            channel.fail(start_ns, end_ns)

    # -- execution ------------------------------------------------------------

    def apply(self, cmd: Command) -> None:
        """Apply one command, enforcing all timing rules."""
        channel = self.channel(cmd.channel)
        channel.apply(cmd)
        self._executed += 1
        if cmd.op is Op.ACT:
            self._open_since[cmd.channel][cmd.bank] = cmd.time
            if self._incremental:
                self._track_act(cmd.channel, cmd.time)
        elif cmd.op is Op.PRE:
            opened = self._open_since[cmd.channel].pop(cmd.bank, None)
            if opened is not None:
                closes = cmd.time + self.timing.t_rp
                self._intervals[cmd.channel].append((opened, closes))
                if self._incremental:
                    self._track_close(cmd.channel, closes)

    def _track_act(self, channel: int, time: float) -> None:
        """Raise the running peak by the banks open on ``channel`` at ``time``.

        With ACT times non-decreasing and every close later than the
        latest ACT (``_track_close``), the banks open at ``time`` are the
        ones still without a PRE plus the closed ones whose close is
        later than ``time``; no later command can change that count, so
        the maximum over ACTs equals the sweep's.
        """
        if time < self._last_act[channel]:
            self._incremental = False
            return
        self._last_act[channel] = time
        pending = self._pending_closes[channel]
        # A close at exactly ``time`` comes first, as in the sweep's sort.
        while pending and pending[0] <= time:
            heapq.heappop(pending)
        count = len(self._open_since[channel]) + len(pending)
        if count > self._peak:
            self._peak = count

    def _track_close(self, channel: int, closes: float) -> None:
        """Record a bank close time for the incremental peak."""
        if closes <= self._last_act[channel]:
            # The interval ended at or before an ACT already counted it.
            self._incremental = False
            return
        heapq.heappush(self._pending_closes[channel], closes)

    def execute(self, commands: Iterable[Command]) -> ScheduleResult:
        """Execute a whole schedule in time order and audit it.

        Commands are sorted by ``(time, op-priority)`` -- at equal
        timestamps PRE applies before ACT before column commands, which
        matches how a real controller pipelines same-cycle commands.
        Raises :class:`TimingViolation` on the first illegal command.
        """
        ordered = sorted(
            commands,
            key=lambda c: (c.time, _OP_ORDER[c.op], c.channel, c.bank),
        )
        if not ordered:
            return ScheduleResult(0, 0.0, 0.0, 0, self.peak_open_banks())
        payload = 0
        data_start = float("inf")
        data_end = -float("inf")
        for cmd in ordered:
            self.apply(cmd)
            if cmd.op in (Op.WR, Op.RD):
                payload += cmd.size_bytes
                data_start = min(data_start, cmd.time)
                data_end = max(
                    data_end,
                    cmd.time + self.channel(cmd.channel).transfer_time_ns(cmd.size_bytes),
                )
        if payload == 0:
            data_start = ordered[0].time
            data_end = ordered[-1].time
        return ScheduleResult(
            payload_bytes=payload,
            start_ns=data_start,
            end_ns=data_end,
            commands_executed=len(ordered),
            peak_open_banks_per_channel=self.peak_open_banks(),
        )

    # -- audits ---------------------------------------------------------------

    def peak_open_banks(self) -> int:
        """Maximum simultaneously open banks seen on any channel.

        The paper bounds this by four (the four-activation window /
        instantaneous-current argument that fixes gamma).  Cumulative
        over the controller's lifetime, including banks still open.
        Kept incrementally, O(1) amortised per ACT, while every channel
        sees non-decreasing ACT times and closes later than its latest
        ACT -- true of PFI's frame trains even though a frame's leading
        ACT precedes the previous frame's trailing PRE.  Other ``apply``
        orders fall back to the exact sweep for good.
        """
        if self._incremental:
            return self._peak
        return self._sweep_peak()

    def _sweep_peak(self) -> int:
        """Reference audit: a sweep over every recorded open interval."""
        peak = 0
        for channel_index, intervals in enumerate(self._intervals):
            points: List[Tuple[float, int]] = []
            for start, end in intervals:
                points.append((start, 1))
                points.append((end, -1))
            for start in self._open_since[channel_index].values():
                points.append((start, 1))
            points.sort(key=lambda p: (p[0], p[1]))
            count = 0
            for _, delta in points:
                count += delta
                peak = max(peak, count)
        return peak

    def publish_telemetry(self, registry, switch: str) -> None:
        """Snapshot command-level counters into a telemetry registry.

        Called once at report time by validated (``validate_hbm_timing``)
        runs: the command-level byte counts cross-check the analytic
        per-channel counters the PFI engine records
        (``repro_hbm_channel_bytes_total``).
        """
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
        elapsed = max(
            (c.data_end_time for c in self._channels if c.bytes_moved), default=0.0
        )
        for channel in self._channels:
            registry.gauge(
                "repro_hbm_channel_utilisation",
                "fraction of channel peak rate used (command-level model)",
                channel=str(channel.index), switch=switch,
            ).set(channel.utilisation(elapsed))

    def efficiency(self, elapsed_ns: float) -> float:
        """Fraction of group peak bandwidth achieved over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        achieved = bytes_per_ns_to_rate(self.bytes_moved / elapsed_ns)
        return achieved / self.peak_bandwidth_bps


#: Same-timestamp application order: close banks, then open, then move data.
_OP_ORDER = {Op.PRE: 0, Op.REF: 1, Op.ACT: 2, Op.WR: 3, Op.RD: 3}
