"""O/E and E/O conversion: where the optical power budget is spent.

SPS's defining property is that every packet crosses exactly **one**
O/E/O conversion pair (inside its HBM switch), versus three for a Clos /
load-balanced organisation and O(sqrt(H)) hops for a mesh.  The energy
model is linear in bits at the cited ~1.15 pJ/bit, so architecture
comparisons reduce to counting conversions -- which is exactly how the
paper argues (SS 2.1 Challenge 3, SS 4 *Power estimate*).
"""

from __future__ import annotations

from ..constants import OEO_ENERGY_PJ_PER_BIT


class OEOConverter:
    """Accumulates O/E + E/O conversion energy over converted bits."""

    def __init__(self, energy_pj_per_bit: float = OEO_ENERGY_PJ_PER_BIT):
        if energy_pj_per_bit < 0:
            raise ValueError(f"energy must be >= 0, got {energy_pj_per_bit}")
        self.energy_pj_per_bit = energy_pj_per_bit
        self._bits = 0.0
        # Optional telemetry counter (attach_telemetry); ``None`` keeps
        # convert() at one extra pointer check.
        self._bits_counter = None

    def attach_telemetry(self, registry) -> None:
        """Mirror converted bits into ``repro_oeo_bits_total``.

        The energy follows linearly (the whole point of the SS 2.1
        conversion-counting argument), so one counter suffices -- the
        exporter side derives joules from the constant.
        """
        self._bits_counter = registry.counter(
            "repro_oeo_bits_total", "bits through O/E + E/O conversion pairs"
        )

    def convert(self, n_bits: float) -> float:
        """Record ``n_bits`` converted; returns the energy spent (J)."""
        if n_bits < 0:
            raise ValueError(f"bits must be >= 0, got {n_bits}")
        self._bits += n_bits
        if self._bits_counter is not None:
            self._bits_counter.inc(n_bits)
        return n_bits * self.energy_pj_per_bit * 1e-12

    @property
    def total_bits(self) -> float:
        return self._bits


def oeo_power_watts(
    io_rate_bps: float,
    conversion_stages: int = 1,
    energy_pj_per_bit: float = OEO_ENERGY_PJ_PER_BIT,
) -> float:
    """Steady-state OEO power for a stream of ``io_rate_bps``.

    ``conversion_stages`` counts O/E/O pairs the data crosses: 1 for SPS,
    3 for a three-stage Clos (Challenge 3).  At 81.92 Tb/s of I/O and one
    stage this is the paper's ~94 W per HBM switch.
    """
    if io_rate_bps < 0:
        raise ValueError(f"rate must be >= 0, got {io_rate_bps}")
    if conversion_stages < 0:
        raise ValueError(f"stages must be >= 0, got {conversion_stages}")
    return io_rate_bps * energy_pj_per_bit * 1e-12 * conversion_stages
