"""Design-space sensitivity: segment/gamma/frame scaling laws."""

import pytest

from repro.analysis.sensitivity import (
    gamma_frontier,
    generation_sweep,
    required_segment_bytes,
)
from repro.config import HBMSwitchConfig
from repro.errors import ConfigError
from repro.hbm import HBMTiming

T = HBMTiming()


class TestRequiredSegment:
    def test_reference_derivation_gives_1kb(self):
        # The paper's S = 1 KB falls out of tRC, the channel rate, the
        # burst length and the row-divisor rule.
        assert required_segment_bytes(T, 80.0) == 1024

    def test_faster_pins_need_bigger_segments(self):
        assert required_segment_bytes(T, 160.0) == 2048
        assert required_segment_bytes(T, 320.0) == 4096

    def test_slow_channels_allow_small_segments(self):
        assert required_segment_bytes(T, 20.0) <= 256

    def test_result_is_burst_aligned(self):
        for rate in (20.0, 80.0, 160.0, 320.0):
            segment = required_segment_bytes(T, rate)
            assert segment % T.burst_bytes(64) == 0

    def test_result_divides_or_multiplies_row(self):
        for rate in (20.0, 80.0):
            segment = required_segment_bytes(T, rate, row_bytes=1024)
            assert 1024 % segment == 0 or segment % 1024 == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            required_segment_bytes(T, 0.0)
        with pytest.raises(ConfigError):
            required_segment_bytes(T, 80.0, gamma_max=0)
        with pytest.raises(ConfigError):
            required_segment_bytes(T, 80.0, row_bytes=0)


class TestGammaFrontier:
    def test_reference_frontier(self):
        points = gamma_frontier(T, 80.0, [256, 512, 1024, 2048], 128)
        by_segment = {p.segment_bytes: p for p in points}
        assert not by_segment[256].legal
        assert not by_segment[512].legal
        assert by_segment[1024].gamma == 4
        assert by_segment[1024].frame_bytes == 512 * 1024
        # 2 KB segments (25.6 ns) hold a bank open 15 + 25.6 + 15 =
        # 55.6 ns, more than two segments: gamma = 3, the smallest the
        # command-level check accepts (tests/test_hbm_verify.py).
        assert by_segment[2048].gamma == 3

    def test_illegal_points_have_no_frame(self):
        points = gamma_frontier(T, 80.0, [128], 128)
        assert points[0].frame_bytes is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            gamma_frontier(T, 0.0, [1024], 128)
        with pytest.raises(ConfigError):
            gamma_frontier(T, 80.0, [0], 128)


class TestGenerationSweep:
    def test_frames_double_per_generation(self):
        points = generation_sweep(HBMSwitchConfig())
        frames = [p.frame_bytes for p in points]
        assert frames == [512 * 1024, 1024 * 1024, 2048 * 1024]

    def test_gamma_stays_at_four(self):
        # The four-activation limit binds at every generation; S absorbs
        # the scaling.
        assert all(p.gamma == 4 for p in generation_sweep(HBMSwitchConfig()))

    def test_fill_latency_is_the_price(self):
        points = generation_sweep(HBMSwitchConfig())
        fills = [p.frame_fill_ns for p in points]
        assert fills[1] == pytest.approx(2 * fills[0])
        assert fills[2] == pytest.approx(4 * fills[0])

    def test_validation(self):
        with pytest.raises(ConfigError):
            generation_sweep(HBMSwitchConfig(), generations=[("bad", 0.0)])
