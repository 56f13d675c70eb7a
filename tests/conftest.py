"""Shared fixtures: small, fast configurations with the same structure
as the paper's reference design."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import HBMStackConfig, HBMSwitchConfig, RouterConfig, scaled_router
from repro.traffic import FixedSize, TrafficGenerator, uniform_matrix
from repro.units import gbps


@pytest.fixture
def small_stack() -> HBMStackConfig:
    """A shrunk HBM stack: 8 channels, 16 banks, 256 B rows.

    The pin rate is 2.5 Gb/s so a 256 B segment takes the reference
    12.8 ns -- every timing relationship matches the full design.
    """
    return HBMStackConfig(
        channels=8,
        gbps_per_bit=gbps(2.5),
        banks_per_channel=16,
        capacity_bytes=2**30,
        row_bytes=256,
    )


@pytest.fixture
def small_switch(small_stack) -> HBMSwitchConfig:
    """A 4-port switch whose memory bandwidth is exactly twice the
    aggregate line rate, like the reference design."""
    return HBMSwitchConfig(
        n_ports=4,
        n_stacks=1,
        batch_bytes=1024,
        segment_bytes=256,
        gamma=4,
        port_rate_bps=gbps(160),
        stack=small_stack,
    )


@pytest.fixture
def small_router() -> RouterConfig:
    """The scaled_router() factory output: 4 ribbons, 2 switches."""
    return scaled_router()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_traffic(config: HBMSwitchConfig, load: float, duration_ns: float,
                 size: int = 1500, seed: int = 0, **kwargs):
    """Uniform-matrix traffic at the given load for a switch config."""
    gen = TrafficGenerator(
        n_ports=config.n_ports,
        port_rate_bps=config.port_rate_bps,
        matrix=uniform_matrix(config.n_ports, load),
        size_dist=FixedSize(size),
        seed=seed,
        **kwargs,
    )
    return gen.materialize(duration_ns)
