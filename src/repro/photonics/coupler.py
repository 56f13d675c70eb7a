"""Passive optical couplers: the splitter's physical layer.

"At each fiber ribbon, wavelengths coming through the F optical fibers
are passively coupled to the corresponding wavelengths in the F internal
WDM waveguides" (SS 2.2, *Operation*).  A coupler consumes no power and
performs no processing; its only job here is to materialise a fiber-to-
waveguide mapping chosen by the splitter (:mod:`repro.core.fiber_split`)
and let tests assert structural properties (every fiber coupled exactly
once, alpha waveguides per (ribbon, switch) pair).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..errors import ConfigError
from .waveguide import Waveguide


class OpticalCoupler:
    """The passive coupling stage of one ribbon.

    Builds the waveguides for a ribbon given the switch assignment of
    each of its fibers (``assignment[f]`` = switch receiving fiber ``f``).
    """

    def __init__(
        self,
        ribbon: int,
        assignment: Sequence[int],
        n_switches: int,
        n_wavelengths: int,
        rate_bps: float,
    ) -> None:
        if ribbon < 0:
            raise ConfigError(f"ribbon must be >= 0, got {ribbon}")
        if n_switches <= 0:
            raise ConfigError(f"n_switches must be positive, got {n_switches}")
        counts: Dict[int, int] = {}
        self.waveguides: List[Waveguide] = []
        for fiber, switch in enumerate(assignment):
            if not 0 <= switch < n_switches:
                raise ConfigError(
                    f"fiber {fiber} assigned to switch {switch}, "
                    f"valid range is [0, {n_switches})"
                )
            lane = counts.get(switch, 0)
            counts[switch] = lane + 1
            self.waveguides.append(
                Waveguide(
                    ribbon=ribbon,
                    fiber=fiber,
                    switch=switch,
                    lane=lane,
                    n_wavelengths=n_wavelengths,
                    rate_bps=rate_bps,
                )
            )
        self._per_switch = counts

    def waveguides_to(self, switch: int) -> List[Waveguide]:
        """The waveguides this ribbon sends to ``switch`` (alpha of them)."""
        return [w for w in self.waveguides if w.switch == switch]

    def lanes_per_switch(self) -> Dict[int, int]:
        """How many waveguides go to each switch (should all be alpha)."""
        return dict(self._per_switch)

    def fiber_of(self, switch: int, lane: int) -> int:
        """Inverse lookup: which fiber feeds (switch, lane)."""
        for w in self.waveguides:
            if w.switch == switch and w.lane == lane:
                return w.fiber
        raise ConfigError(f"no waveguide for switch {switch} lane {lane}")


def validate_split(coupler: OpticalCoupler, n_switches: int, alpha: int) -> None:
    """Assert the ribbon feeds exactly alpha waveguides to every switch."""
    lanes = coupler.lanes_per_switch()
    for switch in range(n_switches):
        got = lanes.get(switch, 0)
        if got != alpha:
            raise ConfigError(
                f"ribbon feeds {got} waveguides to switch {switch}, expected {alpha}"
            )
