"""Vectorised HBM timing verifier: whole blocks of commands as numpy arrays.

:class:`~repro.hbm.bank.Bank` and :class:`~repro.hbm.channel.Channel`
check one :class:`~repro.hbm.commands.Command` at a time; they remain
the reference oracle.  This module checks the same rules over a
:class:`CommandBlock` -- parallel arrays ``(time, channel, bank, row,
op, size)`` -- with grouped differences instead of per-command state
machines.  :class:`TimingState` holds every channel's and bank's state
as arrays and carries it from one block to the next, so the seams
between blocks are checked exactly like the inside of a block.

A row may stand for one command on a run of channels (its ``span``):
PFI stripes each frame over channels ``0 .. n - 1`` with the same
schedule on every one.  Every rule is per channel or per ``(channel,
bank)``, so channels that start a block in the same state and receive
the same commands -- a *lane* -- end it in the same state.
:meth:`TimingState.apply` cuts the block into lanes, checks each lane
on its first channel, and writes the result to the rest of the lane.

A block is checked in the order it is given (the controller sorts it
first).  Each command meets the oracle's checks in the oracle's order:
channel-dead, bank range, tFAW, tCCD and bus-busy, then the per-bank
rules -- ACT-on-open-bank, tRC/tRP, closed-bank, row-mismatch, tRCD,
PRE-on-closed, tRAS/data-in-flight, REF-on-open and REF's tRP.  The
state a command meets is its predecessors': the latest ACT, PRE or REF
earlier in its ``(channel, bank)`` group, the latest column command and
the fourth-latest ACT earlier on its channel, or the carried state when
the block has none.  Every command before the first illegal one is
legal, so that command sees exactly the state the oracle would; it
raises the oracle's :class:`~repro.errors.TimingViolation`, with the
same rule, command text, ``issued_at`` and ``legal_at``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError, TimingViolation
from .bank import TIMING_EPSILON_NS as EPS
from .commands import Command, Op
from .timing import HBMTiming

#: Block op codes.  PRE < REF < ACT < WR = RD is also the controller's
#: application order at equal timestamps (WR and RD share a rank).
PRE, REF, ACT, WR, RD = range(5)
OPS = (Op.PRE, Op.REF, Op.ACT, Op.WR, Op.RD)
CODE = {op: code for code, op in enumerate(OPS)}

_INF = float("inf")


def spread(first: np.ndarray, span: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every value ``first[i] .. first[i] + span[i] - 1``, entry by entry.

    Returns the entry each value belongs to and the value itself.
    """
    rows = np.repeat(np.arange(len(span)), span)
    start = np.repeat(np.cumsum(span) - span, span)
    return rows, first[rows] + (np.arange(len(rows)) - start)


@dataclass(frozen=True)
class CommandBlock:
    """Commands as parallel arrays, one entry (row) per command.

    A row with ``span`` s stands for the same command on channels
    ``channel .. channel + s - 1``; rows are one channel wide unless a
    ``span`` is given.
    """

    time: np.ndarray  # float64, ns
    channel: np.ndarray  # int64, flat channel index
    bank: np.ndarray  # int64
    row: np.ndarray  # int64
    op: np.ndarray  # int64 op codes (PRE, REF, ACT, WR, RD)
    size: np.ndarray  # int64 payload bytes, 0 for ACT/PRE/REF
    span: Optional[np.ndarray] = None  # int64 channels per row

    def __post_init__(self) -> None:
        if self.span is None:
            object.__setattr__(self, "span", np.ones(len(self.time), dtype=np.int64))

    def __len__(self) -> int:
        return len(self.time)

    @property
    def n_commands(self) -> int:
        """Commands the block stands for, one per channel of each row."""
        return int(self.span.sum())

    @classmethod
    def from_commands(cls, commands: Iterable[Command]) -> "CommandBlock":
        rows = [
            (c.time, c.channel, c.bank, c.row, CODE[c.op], c.size_bytes)
            for c in commands
        ]
        time, channel, bank, row, op, size = zip(*rows) if rows else ((),) * 6
        ints = (np.asarray(a, dtype=np.int64) for a in (channel, bank, row, op, size))
        return cls(np.asarray(time, dtype=np.float64), *ints)

    def take(self, index) -> "CommandBlock":
        """The commands at ``index`` (an index array or a slice)."""
        return CommandBlock(
            self.time[index], self.channel[index], self.bank[index],
            self.row[index], self.op[index], self.size[index], self.span[index],
        )

    def expand(self) -> "CommandBlock":
        """One row per channel: each row repeated over its span, in place."""
        if (self.span == 1).all():
            return self
        rows, channel = spread(self.channel, self.span)
        return replace(self.take(rows), channel=channel, span=None)

    def commands(self) -> List[Command]:
        """The block as :class:`Command` records, one per channel, in block order."""
        b = self.expand()
        return [
            Command(OPS[op], channel, bank, row, time, size)
            for time, channel, bank, row, op, size in zip(
                b.time.tolist(), b.channel.tolist(), b.bank.tolist(),
                b.row.tolist(), b.op.tolist(), b.size.tolist(),
            )
        ]


def application_order(block: CommandBlock) -> np.ndarray:
    """Indices sorting ``block`` by ``(time, PRE<REF<ACT<WR/RD, channel, bank)``.

    Stable, like the controller's sort of :class:`Command` lists, so
    exact ties keep their input order.
    """
    rank = np.minimum(block.op, WR)
    return np.lexsort((block.bank, block.channel, rank, block.time))


def _group_starts(keys: np.ndarray) -> np.ndarray:
    """For sorted ``keys``, the index where each entry's group begins."""
    head = np.empty(len(keys), dtype=bool)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return np.maximum.accumulate(np.where(head, np.arange(len(keys)), 0))


def _last_marked(mask: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Latest index ``<= i`` in ``i``'s group where ``mask`` holds, else -1."""
    latest = np.maximum.accumulate(np.where(mask, np.arange(len(mask)), -1))
    return np.where(latest >= starts, latest, -1)


def _before(latest: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Exclusive form of :func:`_last_marked`: latest index ``< i``."""
    shifted = np.concatenate(([-1], latest[:-1]))
    return np.where(shifted >= starts, shifted, -1)


def _group_cummax(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Running maximum of ``values`` that restarts at every group."""
    n = len(values)
    order = np.argsort(values)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    # Lift each group's ranks above every earlier group's, so the
    # running maximum never carries a value across a group boundary.
    lift = (np.cumsum(starts == np.arange(n)) - 1) * n
    return values[order[np.maximum.accumulate(rank + lift) - lift]]


class Checked:
    """One block as checked: the state each command met, and derived arrays.

    Per-command arrays are in block order.  ``acts``/``cols`` index the
    block's ACTs and column commands grouped by channel, each group in
    block order; ``by_bank`` groups every command by ``(channel,
    bank)`` the same way, and the ``last_*`` fills, ``done`` and
    ``end_max`` are in that grouped order.
    """

    block: CommandBlock
    ch: np.ndarray  # channel, clipped into range
    is_act: np.ndarray
    is_pre: np.ndarray
    is_col: np.ndarray
    xfer: np.ndarray  # bus occupancy of each WR/RD, 0 elsewhere
    acts: np.ndarray
    a_ch: np.ndarray
    a_t: np.ndarray
    a_prev: np.ndarray  # the channel's ACT before each ACT
    cols: np.ndarray
    c_ch: np.ndarray
    faw_legal: np.ndarray  # earliest legal ACT under tFAW, -inf elsewhere
    ccd_legal: np.ndarray  # earliest legal WR/RD under tCCD, -inf elsewhere
    bus_free: np.ndarray  # when the bus frees before each WR/RD
    channel_last_act: np.ndarray  # the channel's latest ACT before each command
    by_bank: np.ndarray
    bank_key: np.ndarray  # ``channel * n_banks + bank`` in grouped order
    last_ap: np.ndarray  # latest ACT or PRE at or before each entry, or -1
    last_a: np.ndarray  # latest ACT
    last_pr: np.ndarray  # latest PRE or REF
    done: np.ndarray  # when each PRE's precharge / REF's refresh completes
    end_max: np.ndarray  # latest transfer end so far in the bank
    #: The bank state each command met, in ``by_bank`` order: is_open,
    #: open_row, last_act, precharged, data_end.
    bank_state: Dict[str, np.ndarray]
    first_bad: Optional[int]  # first illegal entry, if any
    #: Per channel, the first channel of its lane when the block has
    #: lanes wider than one channel, else ``None``.
    owner: Optional[np.ndarray]

    def __init__(self, block: CommandBlock, owner: Optional[np.ndarray] = None) -> None:
        self.block = block
        self.owner = owner


class TimingState:
    """Every channel's and bank's timing state, advanced a block at a time.

    Per channel: the last four ACT times (tFAW), the last column command
    and when the data bus frees, payload bytes and data end.  Per bank
    (flat index ``channel * n_banks + bank``): open flag and row, last
    ACT, when its precharge (or refresh) completes, and when its last
    transfer ends.
    """

    def __init__(
        self,
        timing: HBMTiming,
        n_channels: int,
        n_banks: int,
        bytes_per_ns: float,
        width_bits: int,
    ) -> None:
        self.timing = timing
        self.n_channels = n_channels
        self.n_banks = n_banks
        self.bytes_per_ns = bytes_per_ns
        self.burst_bytes = timing.burst_bytes(width_bits)
        self.recent_acts = np.full((n_channels, 4), -_INF)  # oldest first
        self.last_column = np.full(n_channels, -_INF)
        self.bus_free = np.full(n_channels, -_INF)
        self.bytes_moved = np.zeros(n_channels, dtype=np.int64)
        self.data_end = np.full(n_channels, -_INF)
        self.dead: List[Tuple[int, float, float]] = []
        n = n_channels * n_banks
        self.is_open = np.zeros(n, dtype=bool)
        self.open_row = np.full(n, -1, dtype=np.int64)
        self.last_act = np.full(n, -_INF)
        self.precharged_at = np.full(n, -_INF)
        self.bank_data_end = np.full(n, -_INF)

    # -- geometry and faults -----------------------------------------------------

    def transfer_time(self, size: np.ndarray) -> np.ndarray:
        """Bus occupancy per payload, quantised to whole bursts."""
        burst = self.burst_bytes
        quantised = np.where(size > 0, (size + burst - 1) // burst * burst, 0)
        return quantised / self.bytes_per_ns

    def fail(self, channel: int, start_ns: float, end_ns: float) -> None:
        """Channel ``channel`` rejects every command in ``[start_ns, end_ns)``."""
        self.dead.append((channel, start_ns, end_ns))

    def available_at(self, channel: int, t_ns: float) -> bool:
        return not any(
            c == channel and start <= t_ns < end for c, start, end in self.dead
        )

    def open_counts(self) -> np.ndarray:
        """Open banks per channel."""
        return self.is_open.reshape(self.n_channels, self.n_banks).sum(axis=1)

    # -- checking ------------------------------------------------------------------

    def apply(
        self, block: CommandBlock, carried: Optional[np.ndarray] = None
    ) -> Tuple[Checked, Optional[Exception]]:
        """Check ``block`` in order and advance the state past it.

        Returns the applied commands and ``None``, or -- when a command
        is illegal -- the legal prefix before it (applied) and the
        exception that command raises.  A channel outside ``0..T-1``
        gives the controller's :class:`~repro.errors.ConfigError`.

        Rows wider than one channel are cut into lanes (see
        :meth:`_lanes`; ``carried`` is the caller's own per-channel
        state, one row per channel) and checked once per lane.  If a
        lane is illegal, the block is checked again one row per channel
        in application order, so the legal prefix and the exception are
        exactly a per-channel check's.
        """
        wide = bool((block.span != 1).any())
        lanes = self._lanes(block, carried) if wide else (block, None)
        if lanes is not None:
            checked = self._check(*lanes)
            if checked.first_bad is None:
                self._commit(checked)
                return checked, None
        if wide:
            block = block.expand()
            block = block.take(application_order(block))
            checked = self._check(block)
        k = checked.first_bad
        error = self._violation(checked, k)
        checked = self._check(block.take(slice(0, k)))
        self._commit(checked)
        return checked, error

    def _lanes(
        self, block: CommandBlock, carried: Optional[np.ndarray]
    ) -> Optional[Tuple[CommandBlock, Optional[np.ndarray]]]:
        """``block`` with every row cut into lanes, and each channel's lane owner.

        Lanes are cut wherever a row starts or ends, and between any two
        adjacent channels whose carried state differs: rule state, dead
        windows or ``carried``.  Each row becomes one row per lane it
        covers, addressed to the lane's first channel (its owner) with
        the lane's width as span.  ``None`` when a row reaches outside
        ``0..T-1``: that block is checked channel by channel.
        """
        T = self.n_channels
        start, stop = block.channel, block.channel + block.span
        if start.min() < 0 or stop.max() > T:
            return None
        cut = self._state_cuts(carried)
        cut[start[start < T]] = True
        cut[stop[stop < T]] = True
        bounds = np.append(np.flatnonzero(cut), T)
        first = np.searchsorted(bounds, start)
        rows, piece = spread(first, np.searchsorted(bounds, stop) - first)
        lane, width = bounds[piece], bounds[piece + 1] - bounds[piece]
        lanes = replace(block.take(rows), channel=lane, span=width)
        if not (width > 1).any():
            return lanes, None
        owner = np.arange(T)
        heads, index = np.unique(lane, return_index=True)
        members, channel = spread(heads, width[index])
        owner[channel] = heads[members]
        return lanes, owner

    def _state_cuts(self, carried: Optional[np.ndarray]) -> np.ndarray:
        """Per channel, whether its carried state differs from the channel before."""
        T = self.n_channels
        windows = [[] for _ in range(T)]
        for channel, start, end in self.dead:
            if 0 <= channel < T:
                windows[channel].append((start, end))
        windows = [sorted(w) for w in windows]
        cut = np.array([i == 0 or windows[i] != windows[i - 1] for i in range(T)])
        state = self._rule_state()
        if carried is not None:
            state.append(carried)
        for values in state:
            values = values.reshape(T, -1)
            cut[1:] |= (values[1:] != values[:-1]).any(axis=1)
        return cut

    def _rule_state(self) -> List[np.ndarray]:
        """The state arrays the rules read, each per channel or per bank."""
        return [
            self.recent_acts, self.last_column, self.bus_free, self.is_open,
            self.open_row, self.last_act, self.precharged_at, self.bank_data_end,
        ]

    def _check(self, b: CommandBlock, owner: Optional[np.ndarray] = None) -> Checked:
        """Every command's state and legality, assuming its predecessors legal.

        A row wider than one channel is checked on its first channel.
        """
        T, L = self.n_channels, self.n_banks
        ck = Checked(b, owner)
        ck.ch = np.clip(b.channel, 0, T - 1)
        ck.is_act = b.op == ACT
        ck.is_pre = b.op == PRE
        ck.is_col = b.op >= WR
        ck.xfer = np.where(ck.is_col, self.transfer_time(b.size), 0.0)
        bad = (b.channel < 0) | (b.channel >= T) | (b.bank < 0) | (b.bank >= L)
        for channel, start, end in self.dead:
            bad |= (b.channel == channel) & (start <= b.time) & (b.time < end)
        bad |= self._channel_rules(ck)
        bad |= self._bank_rules(ck, np.clip(b.bank, 0, L - 1))
        hits = np.flatnonzero(bad)
        ck.first_bad = int(hits[0]) if len(hits) else None
        return ck

    def _channel_rules(self, ck: Checked) -> np.ndarray:
        """tFAW, tCCD and bus-busy, over each channel's commands in order."""
        t, ch, n = ck.block.time, ck.ch, len(ck.block)
        timing = self.timing
        by_channel = np.argsort(ch, kind="stable")

        ck.acts = acts = by_channel[ck.is_act[by_channel]]
        ck.a_ch, ck.a_t = a_ch, a_t = ch[acts], t[acts]
        index = np.arange(len(acts))
        rank = index - _group_starts(a_ch)
        oldest = np.where(
            rank >= 4,
            a_t[np.maximum(index - 4, 0)],
            self.recent_acts[a_ch, np.minimum(rank, 3)],
        )
        ck.faw_legal = np.full(n, -_INF)
        ck.faw_legal[acts] = oldest + timing.t_faw
        ck.a_prev = np.where(
            rank >= 1, a_t[np.maximum(index - 1, 0)], self.recent_acts[a_ch, 3]
        )

        ck.cols = cols = by_channel[ck.is_col[by_channel]]
        ck.c_ch = c_ch = ch[cols]
        first = np.arange(len(cols)) == _group_starts(c_ch)
        previous = cols[np.maximum(np.arange(len(cols)) - 1, 0)]
        ck.ccd_legal = np.full(n, -_INF)
        ck.ccd_legal[cols] = (
            np.where(first, self.last_column[c_ch], t[previous]) + timing.t_ccd
        )
        ck.bus_free = np.full(n, -_INF)
        ck.bus_free[cols] = np.where(
            first, self.bus_free[c_ch], t[previous] + ck.xfer[previous]
        )

        # The latest ACT on each command's channel before it: the
        # controller's open-bank audit reads it at every PRE.
        grouped = ch[by_channel]
        starts = _group_starts(grouped)
        prior = _before(_last_marked(ck.is_act[by_channel], starts), starts)
        ck.channel_last_act = np.empty(n)
        ck.channel_last_act[by_channel] = np.where(
            prior >= 0, t[by_channel][prior], self.recent_acts[grouped, 3]
        )
        return (
            (t < ck.faw_legal - EPS) | (t < ck.ccd_legal - EPS) | (t < ck.bus_free - EPS)
        )

    def _bank_rules(self, ck: Checked, bank: np.ndarray) -> np.ndarray:
        """The per-bank rules, over each bank's commands in order."""
        b, timing = ck.block, self.timing
        key = ck.ch * self.n_banks + bank
        ck.by_bank = by_bank = np.argsort(key, kind="stable")
        ck.bank_key = keys = key[by_bank]
        starts = _group_starts(keys)
        op, t, row = b.op[by_bank], b.time[by_bank], b.row[by_bank]
        act, pre, col = ck.is_act[by_bank], ck.is_pre[by_bank], ck.is_col[by_bank]
        ck.last_ap = _last_marked(act | pre, starts)
        ck.last_a = _last_marked(act, starts)
        ck.last_pr = _last_marked(pre | (op == REF), starts)
        ck.done = np.where(pre, t + timing.t_rp, t + timing.refresh_duration_ns)
        ck.end_max = _group_cummax(np.where(col, t + ck.xfer[by_bank], -_INF), starts)

        # The state before each command: its predecessor in the group,
        # or the carried state at the group's head.
        ap = _before(ck.last_ap, starts)
        is_open = np.where(ap >= 0, op[ap] == ACT, self.is_open[keys])
        open_row = np.where(ap >= 0, row[ap], self.open_row[keys])
        a = _before(ck.last_a, starts)
        last_act = np.where(a >= 0, t[a], self.last_act[keys])
        pr = _before(ck.last_pr, starts)
        precharged = np.where(pr >= 0, ck.done[pr], self.precharged_at[keys])
        data_end = np.concatenate(([-_INF], ck.end_max[:-1]))
        head = np.arange(len(keys)) == starts
        data_end = np.maximum(np.where(head, -_INF, data_end), self.bank_data_end[keys])

        activate = np.maximum(last_act + timing.t_rc, precharged)
        close = np.maximum(last_act + timing.t_ras, data_end)
        grouped_bad = np.where(
            act, is_open | (t < activate - EPS),
            np.where(
                col,
                ~is_open | (row != open_row) | (t < last_act + timing.t_rcd - EPS),
                np.where(
                    pre, ~is_open | (t < close - EPS),
                    is_open | (t < precharged - EPS),  # REF
                ),
            ),
        )
        ck.bank_state = dict(
            is_open=is_open, open_row=open_row, last_act=last_act,
            precharged=precharged, data_end=data_end,
        )
        bad = np.empty_like(grouped_bad)
        bad[by_bank] = grouped_bad
        return bad

    def _violation(self, ck: Checked, k: int) -> Exception:
        """The exception the oracle raises at block entry ``k``."""
        b = ck.block
        channel, bank, row = int(b.channel[k]), int(b.bank[k]), int(b.row[k])
        op, time, size = int(b.op[k]), float(b.time[k]), int(b.size[k])
        if not 0 <= channel < self.n_channels:
            return ConfigError(
                f"channel {channel} out of range (T = {self.n_channels})"
            )
        text = Command(OPS[op], channel, bank, row, time, size).describe()

        def violation(legal: float, rule: str) -> TimingViolation:
            return TimingViolation(text, time, float(legal), rule)

        if not self.available_at(channel, time):
            return violation(_INF, "channel-dead")
        if not 0 <= bank < self.n_banks:
            return violation(_INF, f"bank-out-of-range(<{self.n_banks})")
        if op == ACT and time < ck.faw_legal[k] - EPS:
            return violation(ck.faw_legal[k], "tFAW")
        if op >= WR:
            if time < ck.ccd_legal[k] - EPS:
                return violation(ck.ccd_legal[k], "tCCD")
            if time < ck.bus_free[k] - EPS:
                return violation(ck.bus_free[k], "bus-busy")
        grouped = int(np.flatnonzero(ck.by_bank == k)[0])
        state = {name: values[grouped] for name, values in ck.bank_state.items()}
        last_act, precharged = state["last_act"], state["precharged"]
        timing = self.timing
        if op == ACT:
            legal = max(last_act + timing.t_rc, precharged)
            if state["is_open"]:
                return violation(legal, "ACT-on-open-bank")
            return violation(legal, "tRC" if time >= precharged else "tRP")
        if op >= WR:
            if not state["is_open"]:
                return violation(_INF, "closed-bank")
            if row != state["open_row"]:
                return violation(_INF, f"row-mismatch(open={int(state['open_row'])})")
            return violation(last_act + timing.t_rcd, "tRCD")
        if op == PRE:
            if not state["is_open"]:
                return violation(_INF, "PRE-on-closed")
            legal = max(last_act + timing.t_ras, state["data_end"])
            ras = time < last_act + timing.t_ras
            return violation(legal, "tRAS" if ras else "data-in-flight")
        if state["is_open"]:
            return violation(_INF, "REF-on-open")
        return violation(precharged, "tRP")

    def _commit(self, ck: Checked) -> None:
        """Advance the state past a block that checked clean."""
        b = ck.block
        if not len(b):
            return
        T, t = self.n_channels, b.time
        if len(ck.acts):
            # Append each channel's ACTs to its last four and keep the
            # last four (carried entries sort ahead of the block's).
            times = np.concatenate((self.recent_acts.ravel(), ck.a_t))
            owner = np.concatenate((np.repeat(np.arange(T), 4), ck.a_ch))
            order = np.argsort(owner, kind="stable")
            ends = np.cumsum(np.bincount(owner, minlength=T)) - 1
            self.recent_acts = times[order][ends[:, None] - np.arange(3, -1, -1)]
        if len(ck.cols):
            last = np.flatnonzero(np.diff(ck.c_ch, append=-1))
            last_cols, channels = ck.cols[last], ck.c_ch[last]
            self.last_column[channels] = t[last_cols]
            self.bus_free[channels] = t[last_cols] + ck.xfer[last_cols]
            heads = np.flatnonzero(np.diff(ck.c_ch, prepend=-1))
            moved = np.zeros(T, dtype=np.int64)
            moved[channels] = np.add.reduceat(b.size[ck.cols], heads)
            ends = np.full(T, -_INF)
            ends[channels] = np.maximum.reduceat(t[ck.cols] + ck.xfer[ck.cols], heads)
            if ck.owner is not None:
                # Every channel of a lane moves its owner's bytes.
                moved, ends = moved[ck.owner], ends[ck.owner]
            self.bytes_moved += moved
            np.maximum(self.data_end, ends, out=self.data_end)
        # Each bank group's last entry holds its running results.
        last = np.flatnonzero(np.diff(ck.bank_key, append=-1))
        keys = ck.bank_key[last]
        op, t, row = b.op[ck.by_bank], b.time[ck.by_bank], b.row[ck.by_bank]

        def latest(marked):
            pos = marked[last]
            hit = pos >= 0
            return keys[hit], pos[hit]

        opened, pos = latest(ck.last_ap)
        is_act = op[pos] == ACT
        self.is_open[opened] = is_act
        self.open_row[opened] = np.where(is_act, row[pos], -1)
        activated, pos = latest(ck.last_a)
        self.last_act[activated] = t[pos]
        precharged, pos = latest(ck.last_pr)
        self.precharged_at[precharged] = ck.done[pos]
        self.bank_data_end[keys] = np.maximum(
            self.bank_data_end[keys], ck.end_max[last]
        )
        if ck.owner is not None:
            # The rest of each lane started in its owner's state and met
            # the same commands, so it ends in its owner's state.
            members = np.flatnonzero(ck.owner != np.arange(T))
            owners = ck.owner[members]
            for values in self._rule_state():
                per_channel = values.reshape(T, -1)
                per_channel[members] = per_channel[owners]
