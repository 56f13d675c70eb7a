"""Bank interleaving groups and the staggered frame schedule (PFI step 3).

This module is the heart of the paper's memory-access contribution:

- Banks are partitioned into disjoint *bank interleaving groups* of
  ``gamma`` consecutive banks.
- A frame is written 1/gamma at a time: segment into bank ``l`` across
  all T channels, then bank ``l+1``, ... with each bank's activate and
  the previous bank's precharge overlapped with the current bank's data
  transfer ("perfectly staggered bank interleaving").
- The n-th frame of an output goes to group ``n mod (L/gamma)``
  deterministically -- no bookkeeping (PFI step 4).

:func:`derive_gamma` reproduces the paper's derivation of gamma = 4: the
smallest group size whose per-bank cycle (gamma segment-times) covers the
row cycle tRC, subject to the four-activation limit.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, replace
from typing import List, Sequence

import numpy as np

from ..errors import ConfigError
from .commands import Command, Op
from .timing import HBMTiming
from .verify import ACT, CODE, PRE, CommandBlock

#: The current-draw limit the paper cites: "at most four concurrent bank
#: activations, to prevent the memory from drawing too much instantaneous
#: current" (SS 3.2 step 3).
FOUR_ACTIVATION_LIMIT = 4


def derive_gamma(
    timing: HBMTiming,
    segment_time_ns: float,
    max_activations: int = FOUR_ACTIVATION_LIMIT,
) -> int:
    """Smallest legal interleaving group size for a given segment time.

    Condition (i) of the paper: the precharge of the first bank in one
    group must complete before that bank (or its successor group's first
    bank) is activated again, i.e. the group must spread a bank's reuse
    over the bank's whole open span -- ACT, tRCD, then the later of
    tRAS and the end of the segment's data, then tRP:
    ``gamma * segment_time >= t_rcd + max(t_ras - t_rcd, segment_time)
    + t_rp``.  While a segment fits inside tRAS - tRCD the span is one
    row cycle (``t_rc``); a longer segment holds the row open until its
    data is done, so the precharge waits for the data.

    Condition (ii): at most ``max_activations`` banks may be activated
    concurrently, bounding gamma from above.

    >>> derive_gamma(HBMTiming(), segment_time_ns=12.8)
    4
    """
    if segment_time_ns <= 0:
        raise ConfigError(f"segment time must be positive, got {segment_time_ns}")
    if max_activations < 1:
        raise ConfigError(f"max_activations must be >= 1, got {max_activations}")
    span = open_span(timing, segment_time_ns)
    gamma = 1
    while gamma * segment_time_ns < span:
        gamma += 1
        if gamma > max_activations:
            raise ConfigError(
                f"no legal gamma <= {max_activations}: segment time "
                f"{segment_time_ns:.3f} ns is too short to hide the "
                f"{span:.3f} ns open span of a bank"
            )
    return gamma


def open_span(timing: HBMTiming, segment_time_ns: float) -> float:
    """How long one bank stays busy per segment: from its ACT until its
    precharge completes (tRCD, then the later of tRAS and the data's
    end, then tRP)."""
    return timing.t_rcd + max(timing.t_ras - timing.t_rcd, segment_time_ns) + timing.t_rp


def max_concurrent_activations(timing: HBMTiming, segment_time_ns: float) -> int:
    """Banks simultaneously open under the staggered schedule.

    A bank is open from its ACT (t_rcd before its data phase) until its
    precharge completes (t_rp after PRE).  With one ACT per segment time,
    the number of overlapping open intervals is ``ceil(open_span /
    segment_time)``.
    """
    if segment_time_ns <= 0:
        raise ConfigError(f"segment time must be positive, got {segment_time_ns}")
    return math.ceil(open_span(timing, segment_time_ns) / segment_time_ns)


def bank_group_for_frame(frame_index: int, n_groups: int) -> int:
    """PFI step 4, the no-bookkeeping rule: h = n mod (L / gamma)."""
    if n_groups <= 0:
        raise ConfigError(f"n_groups must be positive, got {n_groups}")
    if frame_index < 0:
        raise ConfigError(f"frame_index must be >= 0, got {frame_index}")
    return frame_index % n_groups


@dataclass(frozen=True)
class BankGroup:
    """Group ``index`` of ``gamma`` consecutive banks."""

    index: int
    gamma: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigError(f"group index must be >= 0, got {self.index}")
        if self.gamma <= 0:
            raise ConfigError(f"gamma must be positive, got {self.gamma}")

    @property
    def first_bank(self) -> int:
        return self.index * self.gamma

    @property
    def banks(self) -> List[int]:
        """The consecutive banks l .. l + gamma - 1 of this group."""
        return list(range(self.first_bank, self.first_bank + self.gamma))


@dataclass(frozen=True)
class FrameSchedule:
    """A complete timed command sequence moving one frame.

    ``data_start``/``data_end`` delimit the bus-occupancy window; the
    first ACT precedes ``data_start`` by tRCD (pipelined into the
    previous phase) and the last PRE trails ``data_end``.
    """

    commands: List[Command]
    data_start: float
    data_end: float
    payload_bytes: int

    @property
    def duration_ns(self) -> float:
        """Length of the data phase (what the frame costs in bus time)."""
        return self.data_end - self.data_start


def first_legal_start(timing: HBMTiming) -> float:
    """Earliest data-phase start so the leading ACT is at t >= 0."""
    return timing.t_rcd


def frame_schedule_block(
    ops: Sequence[int],
    n_channels: Sequence[int],
    first_banks: Sequence[int],
    rows: Sequence[int],
    data_starts: Sequence[float],
    gammas: Sequence[int],
    segment_bytes: Sequence[int],
    timing: HBMTiming,
    channel_bytes_per_ns: float,
) -> CommandBlock:
    """The staggered-interleaved commands of many frames, as one block.

    Frame ``i`` moves data with op code ``ops[i]`` (``verify.WR`` or
    ``verify.RD``) over channels ``0 .. n_channels[i] - 1`` and banks
    ``first_banks[i] .. first_banks[i] + gammas[i] - 1``, starting its
    data phase at ``data_starts[i]``.  Every channel gets the same
    commands, so each command is one row spanning the frame's channels
    (see :class:`~repro.hbm.verify.CommandBlock`).  Rows come frame by
    frame, then bank position, then ACT, WR/RD, PRE.

    For the bank in position ``p``, the data slot starts at ``data_start
    + p * segment_time``, its ACT leads the slot by tRCD and its PRE
    issues at ``max(act + t_ras, slot + segment_time)``: the per-frame
    expressions, evaluated in the same float64 order, so times match
    :func:`generate_frame_schedule` bit for bit.
    """
    per_frame = 3 * np.asarray(gammas, dtype=np.int64)
    frame = np.repeat(np.arange(len(per_frame)), per_frame)
    offset = np.repeat(np.cumsum(per_frame) - per_frame, per_frame)
    index = np.arange(len(frame)) - offset
    kind = index % 3  # 0 ACT, 1 WR/RD, 2 PRE
    position = index // 3
    segment = np.asarray(segment_bytes, dtype=np.int64)[frame]
    segment_time = segment / channel_bytes_per_ns
    slot = np.asarray(data_starts, dtype=np.float64)[frame] + position * segment_time
    act = slot - timing.t_rcd
    pre = np.maximum(act + timing.t_ras, slot + segment_time)
    data = kind == 1
    return CommandBlock(
        time=np.where(kind == 0, act, np.where(data, slot, pre)),
        channel=np.zeros(len(frame), dtype=np.int64),
        bank=np.asarray(first_banks, dtype=np.int64)[frame] + position,
        row=np.asarray(rows, dtype=np.int64)[frame],
        op=np.where(
            kind == 0, ACT, np.where(data, np.asarray(ops, dtype=np.int64)[frame], PRE)
        ),
        size=np.where(data, segment, 0),
        span=np.asarray(n_channels, dtype=np.int64)[frame],
    )


def generate_frame_schedule(
    op: Op,
    channels: Sequence[int],
    group: BankGroup,
    segment_bytes: int,
    row: int,
    data_start: float,
    timing: HBMTiming,
    channel_bytes_per_ns: float,
) -> FrameSchedule:
    """Emit the staggered-interleaved command stream for one frame.

    For each of the ``gamma`` banks in ``group``, and on every channel in
    ``channels`` in parallel:

    - ACT is issued tRCD before the bank's data slot so the row is open
      exactly when its segment's transfer begins;
    - the WR/RD column command starts the segment transfer;
    - PRE closes the bank as soon as tRAS and the data transfer allow.

    Segments on consecutive banks butt against each other on the data
    bus, so the bus never idles inside a frame -- that is the "peak data
    rate" property E4 measures.  The times come from
    :func:`frame_schedule_block`; commands are sorted by time, PRE
    before ACT before data at equal times.
    """
    if op not in (Op.WR, Op.RD):
        raise ConfigError(f"frame schedules move data; got {op}")
    if segment_bytes <= 0:
        raise ConfigError(f"segment_bytes must be positive, got {segment_bytes}")
    if channel_bytes_per_ns <= 0:
        raise ConfigError(f"channel rate must be positive, got {channel_bytes_per_ns}")

    block = frame_schedule_block(
        [CODE[op]], [len(channels)], [group.first_bank], [row], [data_start],
        [group.gamma], [segment_bytes], timing, channel_bytes_per_ns,
    ).expand()
    block = replace(block, channel=np.asarray(channels, dtype=np.int64)[block.channel])
    order = np.lexsort((block.op != ACT, block.op != PRE, block.time))
    segment_time = segment_bytes / channel_bytes_per_ns
    return FrameSchedule(
        commands=block.take(order).commands(),
        data_start=data_start,
        data_end=data_start + group.gamma * segment_time,
        payload_bytes=group.gamma * segment_bytes * len(channels),
    )
