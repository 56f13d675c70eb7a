"""HBM timing parameter set and its derived quantities."""

import pytest

from repro.errors import ConfigError
from repro.hbm import HBMTiming


class TestDefaults:
    def test_random_access_overhead_is_30ns(self):
        # Challenge 6's "about 30 ns just to activate and close banks".
        assert HBMTiming().random_access_overhead_ns == pytest.approx(30.0)

    def test_row_cycle(self):
        t = HBMTiming()
        assert t.t_rc == pytest.approx(t.t_ras + t.t_rp)

    def test_gamma_window(self):
        # The defaults must make gamma = 4 minimal for 12.8 ns segments:
        # 3 segments must not cover tRC, 4 must.
        t = HBMTiming()
        assert 3 * 12.8 < t.t_rc <= 4 * 12.8


class TestValidation:
    def test_rejects_negative_timing(self):
        with pytest.raises(ConfigError):
            HBMTiming(t_rcd=-1.0)

    def test_rejects_zero_burst(self):
        with pytest.raises(ConfigError):
            HBMTiming(burst_length=0)

    def test_rejects_ras_below_rcd(self):
        with pytest.raises(ConfigError):
            HBMTiming(t_rcd=20.0, t_ras=10.0)

    @pytest.mark.parametrize("field", ["refresh_interval_ns", "refresh_duration_ns"])
    def test_rejects_negative_refresh(self, field):
        with pytest.raises(ConfigError, match=field):
            HBMTiming(**{field: -1.0})

    def test_zero_refresh_interval_means_no_refresh(self):
        timing = HBMTiming(refresh_interval_ns=0.0)
        assert timing.refresh_overhead_fraction(64) == 0.0


class TestBursts:
    def test_burst_bytes_64bit_bl4(self):
        assert HBMTiming().burst_bytes(64) == 32

    def test_quantise_rounds_up(self):
        t = HBMTiming()
        assert t.quantise_to_bursts(1, 64) == 32
        assert t.quantise_to_bursts(32, 64) == 32
        assert t.quantise_to_bursts(33, 64) == 64
        assert t.quantise_to_bursts(0, 64) == 0

    def test_segment_is_whole_bursts(self):
        # The 1 KB segment is an integer multiple of the burst (SS 3.2).
        t = HBMTiming()
        assert t.quantise_to_bursts(1024, 64) == 1024


class TestRefresh:
    def test_refresh_overhead_is_small(self):
        # Single-bank refresh must be hideable: per-bank duty far below
        # the idle fraction of any bank under PFI.
        t = HBMTiming()
        assert t.refresh_overhead_fraction(64) < 0.05

    def test_disabled_refresh(self):
        t = HBMTiming(refresh_interval_ns=0.0)
        assert t.refresh_overhead_fraction(64) == 0.0
