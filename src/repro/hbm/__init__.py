"""HBM4 memory substrate.

This package models what the paper's PFI algorithm must respect: DRAM
timing.  The model is command-level, not cycle-level -- commands carry
absolute nanosecond timestamps and every bank/channel checks the JEDEC-
style rules (tRCD, tRP, tRAS, tRC, tFAW, bus occupancy, open-row) and
raises :class:`~repro.errors.TimingViolation` on an illegal schedule.

The contract with the rest of the system:

- :mod:`~repro.hbm.timing` -- the timing parameter set, tuned so that the
  paper's quoted numbers fall out (30 ns random-access overhead, gamma = 4
  minimal legal interleaving group).
- :mod:`~repro.hbm.commands` -- ACT / WR / RD / PRE / REF command records.
- :mod:`~repro.hbm.bank` / :mod:`~repro.hbm.channel` /
  :mod:`~repro.hbm.stack` -- the state machines.
- :mod:`~repro.hbm.verify` -- the same rules checked over blocks of
  commands held as numpy arrays, with state carried between blocks.
- :mod:`~repro.hbm.controller` -- validates whole schedules (through
  :mod:`~repro.hbm.verify`) and measures achieved bandwidth.
- :mod:`~repro.hbm.interleaving` -- bank interleaving groups, the gamma
  derivation, and the staggered frame schedule generator (the heart of
  PFI's memory access pattern).
"""

from .bank import Bank, BankState
from .channel import Channel
from .commands import Command, Op
from .controller import HBMController, ScheduleResult
from .interleaving import (
    FOUR_ACTIVATION_LIMIT,
    BankGroup,
    FrameSchedule,
    bank_group_for_frame,
    derive_gamma,
    first_legal_start,
    frame_schedule_block,
    generate_frame_schedule,
    max_concurrent_activations,
)
from .refresh import busy_intervals, free_gaps, plan_refreshes, refresh_slack_report
from .stack import HBMStack
from .timing import HBMTiming
from .verify import CommandBlock

__all__ = [
    "HBMTiming",
    "Command",
    "CommandBlock",
    "Op",
    "Bank",
    "BankState",
    "Channel",
    "HBMStack",
    "HBMController",
    "ScheduleResult",
    "BankGroup",
    "FrameSchedule",
    "FOUR_ACTIVATION_LIMIT",
    "first_legal_start",
    "derive_gamma",
    "bank_group_for_frame",
    "frame_schedule_block",
    "generate_frame_schedule",
    "max_concurrent_activations",
    "plan_refreshes",
    "refresh_slack_report",
    "busy_intervals",
    "free_gaps",
]
