"""HBM4 timing parameters.

The defaults are chosen so that the paper's quoted figures are emergent,
not hard-coded:

- ``t_rcd + t_rp = 30 ns`` reproduces "about 30 ns just to activate and
  close (precharge) banks" (SS 3.1 Challenge 6, citing [34]), which in turn
  yields the 2.6x / 39x / ~1250x random-access throughput-reduction
  factors of E3.
- ``t_rc = t_ras + t_rp = 45 ns`` makes gamma = 4 the *smallest* legal
  interleaving group for 1 KB segments at 80 B/ns per channel
  (segment time 12.8 ns; 3 x 12.8 = 38.4 < 45 <= 4 x 12.8 = 51.2), matching
  the reference design's derivation (E16).
- ``t_faw = 35 ns`` allows the steady-state PFI pattern (one ACT per
  channel every 12.8 ns -> four ACTs per 38.4 ns) while enforcing the
  four-activation window the paper cites for choosing S and gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class HBMTiming:
    """DRAM timing rule set, all values in nanoseconds.

    Attributes
    ----------
    t_rcd:
        ACT-to-RD/WR delay (row to column).
    t_rp:
        PRE duration (precharge to next ACT on the same bank).
    t_ras:
        Minimum ACT-to-PRE time (row must stay open at least this long).
    t_faw:
        Four-activation window: a 5th ACT on a channel must come at least
        ``t_faw`` after the 4th-most-recent ACT.
    t_ccd:
        Minimum spacing between column commands on one channel.
    burst_length:
        Beats per column access; with a 64-bit channel at double data
        rate this quantises transfers to ``burst_bytes``.
    refresh_interval_ns:
        Average per-bank refresh spacing (single-bank refresh, hidden).
    refresh_duration_ns:
        Time one single-bank refresh occupies that bank.
    """

    t_rcd: float = 15.0
    t_rp: float = 15.0
    t_ras: float = 30.0
    t_faw: float = 35.0
    t_ccd: float = 0.2
    burst_length: int = 4
    refresh_interval_ns: float = 3_900.0
    refresh_duration_ns: float = 60.0

    def __post_init__(self) -> None:
        # A refresh interval of 0 means "no refresh"; a negative one, or
        # a negative duration, would plan refreshes of negative length.
        for name in (
            "t_rcd", "t_rp", "t_ras", "t_faw", "t_ccd",
            "refresh_interval_ns", "refresh_duration_ns",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
        if self.burst_length < 1:
            raise ConfigError(f"burst_length must be >= 1, got {self.burst_length}")
        if self.t_ras < self.t_rcd:
            raise ConfigError(
                f"t_ras ({self.t_ras}) must cover at least t_rcd ({self.t_rcd})"
            )

    @property
    def t_rc(self) -> float:
        """Row cycle: minimum ACT-to-ACT spacing on one bank (tRAS + tRP)."""
        return self.t_ras + self.t_rp

    @property
    def random_access_overhead_ns(self) -> float:
        """Per-access overhead of a closed-page random access (tRCD + tRP).

        This is the "about 30 ns" the paper charges approaches that are
        oblivious to HBM access rules (Challenge 6).
        """
        return self.t_rcd + self.t_rp

    def burst_bytes(self, channel_width_bits: int) -> int:
        """Bytes moved by one burst on a channel of the given width."""
        return channel_width_bits * self.burst_length // 8

    def quantise_to_bursts(self, size_bytes: int, channel_width_bits: int) -> int:
        """Round ``size_bytes`` up to a whole number of bursts.

        Random small accesses pay for full bursts -- part of why 64-byte
        packets are so much worse than 1500-byte ones in E3.
        """
        burst = self.burst_bytes(channel_width_bits)
        if size_bytes <= 0:
            return 0
        return ((size_bytes + burst - 1) // burst) * burst

    def refresh_overhead_fraction(self, banks_per_channel: int) -> float:
        """Fraction of a bank's time spent in single-bank refresh.

        HBM4 single-bank refresh lets PFI refresh banks in groups that
        are not currently in the write/read rotation; the paper states
        this "can be hidden without affecting the cycle time" (SS 4).  The
        fraction being tiny (<< the idle fraction of any one bank, which
        is idle for (L/gamma - 1)/(L/gamma) of the time) is what makes
        that claim hold; E4 asserts it.
        """
        if self.refresh_interval_ns <= 0:
            return 0.0
        per_bank = self.refresh_duration_ns / self.refresh_interval_ns
        return per_bank * banks_per_channel / max(banks_per_channel, 1)
