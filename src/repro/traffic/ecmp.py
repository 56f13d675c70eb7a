"""ECMP / LAG hashing.

Two places in the paper hash flows across parallel lanes:

- upstream routers hash across the fibers of a link bundle, which is why
  per-fiber loads (and therefore per-HBM-switch loads under SPS) are
  typically even (SS 4, *Traffic matrix at HBM switches*);
- the output port hashes departing packets across the alpha fibers and W
  wavelengths of its ribbon (SS 3.2 step 6).

Both use the same primitive: a salted, flow-stable hash mapped to one of
``n`` choices.
"""

from __future__ import annotations

from typing import Tuple

from .flows import FiveTuple


def hash_to_choice(flow: FiveTuple, n_choices: int, salt: int = 0) -> int:
    """Map a flow to one of ``n_choices`` lanes, deterministically.

    The same flow always maps to the same lane (no intra-flow
    reordering); different salts decorrelate independent hashing points
    (e.g. the upstream router's LAG hash vs our egress hash).
    """
    if n_choices <= 0:
        raise ValueError(f"n_choices must be positive, got {n_choices}")
    return flow.stable_hash(salt) % n_choices


class EcmpSelector:
    """Egress lane selection across fibers and wavelengths (step 6).

    The output ribbon offers ``n_fibers`` fibers x ``n_wavelengths``
    wavelengths; a flow is pinned to one (fiber, wavelength) lane.
    """

    def __init__(self, n_fibers: int, n_wavelengths: int, salt: int = 0x5B5):
        if n_fibers <= 0 or n_wavelengths <= 0:
            raise ValueError(
                f"need positive lane counts, got {n_fibers} x {n_wavelengths}"
            )
        self._n_fibers = n_fibers
        self._n_wavelengths = n_wavelengths
        self._salt = salt

    @property
    def n_lanes(self) -> int:
        return self._n_fibers * self._n_wavelengths

    @property
    def n_wavelengths(self) -> int:
        return self._n_wavelengths

    def lane_index(self, flow: FiveTuple) -> int:
        """The flat lane index ``fiber * n_wavelengths + wavelength``."""
        return hash_to_choice(flow, self.n_lanes, self._salt)

    def select(self, flow: FiveTuple) -> Tuple[int, int]:
        """Return the (fiber, wavelength) lane for ``flow``."""
        return divmod(self.lane_index(flow), self._n_wavelengths)

    def lane_loads(self, flows_with_bytes) -> "dict[Tuple[int, int], int]":
        """Aggregate bytes per lane for a ``(flow, bytes)`` iterable.

        Used by E10 to show hashing evens lane loads.
        """
        loads: dict = {}
        for flow, nbytes in flows_with_bytes:
            lane = self.select(flow)
            loads[lane] = loads.get(lane, 0) + nbytes
        return loads
