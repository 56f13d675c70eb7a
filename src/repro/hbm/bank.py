"""Per-bank DRAM state machine.

A bank is either closed (precharged) or has one open row.  The machine
tracks the timestamps needed to enforce tRCD, tRAS, tRP and tRC, and
raises :class:`~repro.errors.TimingViolation` naming the violated rule
and the earliest legal time -- PFI schedules are supposed to be legal by
construction, so a violation is a scheduler bug.
"""

from __future__ import annotations

import enum
from typing import Optional

from ..errors import TimingViolation
from .commands import Command, Op
from .timing import HBMTiming

#: Tolerance (ns) for floating-point drift when comparing command times.
TIMING_EPSILON_NS = 1e-6


class BankState(enum.Enum):
    """Observable bank state."""

    CLOSED = "closed"
    OPEN = "open"


class Bank:
    """One DRAM bank within one channel."""

    def __init__(self, timing: HBMTiming, channel: int, index: int) -> None:
        self._timing = timing
        self._channel = channel
        self._index = index
        self._state = BankState.CLOSED
        self._open_row: Optional[int] = None
        self._last_act = -float("inf")
        self._precharged_at = -float("inf")  # time PRE completes
        self._data_end = -float("inf")  # last column access data completion
        self._last_refresh = 0.0

    # -- introspection -------------------------------------------------------

    @property
    def state(self) -> BankState:
        return self._state

    @property
    def open_row(self) -> Optional[int]:
        return self._open_row

    def earliest_activate(self) -> float:
        """Earliest time the next ACT on this bank is legal (tRC, tRP)."""
        return max(self._last_act + self._timing.t_rc, self._precharged_at)

    # -- command application ---------------------------------------------------

    def apply(self, cmd: Command, data_time_ns: float = 0.0) -> None:
        """Apply ``cmd`` to this bank, enforcing bank-local timing rules.

        ``data_time_ns`` is the bus occupancy of a WR/RD payload, used to
        know when data finishes so PRE cannot cut a transfer short.
        """
        # An identity chain, not a dict: ``Enum.__hash__`` runs in Python
        # and this is called once per DRAM command.
        op = cmd.op
        if op is Op.ACT:
            self._apply_act(cmd)
        elif op is Op.WR or op is Op.RD:
            self._apply_column(cmd, data_time_ns)
        elif op is Op.PRE:
            self._apply_pre(cmd)
        elif op is Op.REF:
            self._apply_ref(cmd)
        else:
            raise KeyError(op)

    def _apply_act(self, cmd: Command) -> None:
        if self._state is BankState.OPEN:
            raise TimingViolation(
                cmd.describe(), cmd.time, self.earliest_activate(), "ACT-on-open-bank"
            )
        legal = self.earliest_activate()
        if cmd.time < legal - TIMING_EPSILON_NS:
            rule = "tRC" if cmd.time >= self._precharged_at else "tRP"
            raise TimingViolation(cmd.describe(), cmd.time, legal, rule)
        self._state = BankState.OPEN
        self._open_row = cmd.row
        self._last_act = cmd.time

    def _apply_column(self, cmd: Command, data_time: float) -> None:
        if self._state is not BankState.OPEN:
            raise TimingViolation(cmd.describe(), cmd.time, float("inf"), "closed-bank")
        if cmd.row != self._open_row:
            raise TimingViolation(
                cmd.describe(),
                cmd.time,
                float("inf"),
                f"row-mismatch(open={self._open_row})",
            )
        legal = self._last_act + self._timing.t_rcd
        if cmd.time < legal - TIMING_EPSILON_NS:
            raise TimingViolation(cmd.describe(), cmd.time, legal, "tRCD")
        self._data_end = max(self._data_end, cmd.time + data_time)

    def _apply_pre(self, cmd: Command) -> None:
        if self._state is not BankState.OPEN:
            raise TimingViolation(cmd.describe(), cmd.time, float("inf"), "PRE-on-closed")
        legal = max(self._last_act + self._timing.t_ras, self._data_end)
        if cmd.time < legal - TIMING_EPSILON_NS:
            rule = "tRAS" if cmd.time < self._last_act + self._timing.t_ras else "data-in-flight"
            raise TimingViolation(cmd.describe(), cmd.time, legal, rule)
        self._state = BankState.CLOSED
        self._open_row = None
        self._precharged_at = cmd.time + self._timing.t_rp

    def _apply_ref(self, cmd: Command) -> None:
        if self._state is not BankState.CLOSED:
            raise TimingViolation(cmd.describe(), cmd.time, float("inf"), "REF-on-open")
        if cmd.time < self._precharged_at - TIMING_EPSILON_NS:
            raise TimingViolation(cmd.describe(), cmd.time, self._precharged_at, "tRP")
        self._last_refresh = cmd.time
        # A refresh occupies the bank like a row cycle; model it as a
        # precharge completing after the refresh duration.
        self._precharged_at = cmd.time + self._timing.refresh_duration_ns
