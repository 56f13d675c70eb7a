"""Power estimate (SS 4, *Power estimate*).

The paper's first-order model, reproduced exactly:

- **Processing + SRAM buffering**: scaled linearly from the Broadcom
  Tomahawk 5 (51.2 Tb/s at 500 W): each HBM switch handles ~41 Tb/s of
  incoming traffic, so at most 500 * (41/51.2) = 400 W.
- **HBM**: ~75 W per HBM4 stack, B = 4 stacks -> 300 W.
- **OEO**: ~1.15 pJ/bit over 81.92 Tb/s of I/O -> ~94 W.

Total ~794 W per switch, ~12.7 kW for H = 16 -- just above half a
Cerebras WSE-3's 23 kW, whose cooling would therefore suffice.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import HBMSwitchConfig, RouterConfig
from ..constants import (
    CEREBRAS_WSE3_POWER_W,
    HBM4_STACK_POWER_W,
    OEO_ENERGY_PJ_PER_BIT,
    TOMAHAWK5_CAPACITY,
    TOMAHAWK5_POWER_W,
)
from ..photonics.oeo import oeo_power_watts


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-HBM-switch (or per-router) power, by component."""

    processing_w: float
    hbm_w: float
    oeo_w: float

    @property
    def total_w(self) -> float:
        return self.processing_w + self.hbm_w + self.oeo_w

    @property
    def processing_share(self) -> float:
        """SS 5 quotes ~50% for the processing chiplets."""
        return self.processing_w / self.total_w if self.total_w else 0.0

    @property
    def hbm_share(self) -> float:
        """SS 5 quotes ~40% for HBM."""
        return self.hbm_w / self.total_w if self.total_w else 0.0

    def scaled(self, factor: float) -> "PowerBreakdown":
        return PowerBreakdown(
            self.processing_w * factor, self.hbm_w * factor, self.oeo_w * factor
        )


def hbm_switch_power(
    config: HBMSwitchConfig,
    hbm_stack_power_w: float = HBM4_STACK_POWER_W,
    oeo_pj_per_bit: float = OEO_ENERGY_PJ_PER_BIT,
    oeo_stages: int = 1,
) -> PowerBreakdown:
    """First-order power of one HBM switch.

    ``oeo_stages`` lets the Clos baseline charge its three conversion
    stages through the same model (Challenge 3).
    """
    incoming = config.aggregate_port_rate_bps  # one direction, ~41 Tb/s
    processing = TOMAHAWK5_POWER_W * (incoming / TOMAHAWK5_CAPACITY)
    hbm = config.n_stacks * hbm_stack_power_w
    oeo = oeo_power_watts(config.total_io_bps, oeo_stages, oeo_pj_per_bit)
    return PowerBreakdown(processing_w=processing, hbm_w=hbm, oeo_w=oeo)


def router_power(config: RouterConfig, oeo_stages: int = 1) -> PowerBreakdown:
    """Power of the whole SPS package: H switches."""
    per_switch = hbm_switch_power(config.switch, oeo_stages=oeo_stages)
    return per_switch.scaled(config.n_switches)


def cerebras_power_ratio(config: RouterConfig) -> float:
    """Router power over the Cerebras WSE-3's 23 kW (the paper: ~0.55,
    'just above half', so WSE-3-class cooling suffices)."""
    return router_power(config).total_w / CEREBRAS_WSE3_POWER_W


def energy_per_bit_pj(breakdown: PowerBreakdown, delivered_bps: float) -> float:
    """Energy efficiency: picojoules per delivered bit.

    The cross-architecture figure of merit: SPS at 794 W per switch
    moving 40.96 Tb/s of delivered traffic spends ~19.4 pJ/bit, vs the
    Tomahawk 5's ~9.8 pJ/bit for processing alone -- the difference is
    the deep HBM buffering and the optical I/O that a 1RU box does not
    carry.
    """
    if delivered_bps <= 0:
        raise ValueError(f"delivered rate must be positive, got {delivered_bps}")
    return breakdown.total_w / delivered_bps * 1e12


def efficiency_comparison(config: RouterConfig) -> "dict[str, float]":
    """pJ/bit for the SPS switch and its reference points."""
    switch = hbm_switch_power(config.switch)
    return {
        "sps_hbm_switch": energy_per_bit_pj(
            switch, config.switch.aggregate_port_rate_bps
        ),
        "tomahawk5_processing_only": TOMAHAWK5_POWER_W / TOMAHAWK5_CAPACITY * 1e12,
        "oeo_only": OEO_ENERGY_PJ_PER_BIT * 2.0,  # O/E + E/O per delivered bit
    }
