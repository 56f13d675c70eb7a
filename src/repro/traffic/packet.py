"""The packet: the unit of traffic entering and leaving the router.

Packets are deliberately lightweight (``__slots__``) because simulations
at line rate create hundreds of thousands of them.  Sizes are in bytes;
times in nanoseconds.  ``input_port`` / ``output_port`` are the HBM
switch's N-port space (= the router's fiber-ribbon space).
"""

from __future__ import annotations

from typing import Optional

from .flows import FiveTuple

#: Smallest packet the model accepts (Ethernet minimum frame payload view
#: used by the paper's worst case: 64 bytes).
MIN_PACKET_BYTES = 40

#: Largest packet (standard Ethernet MTU frame, the paper's 1500 B case).
MAX_PACKET_BYTES = 9_216  # jumbo frames allowed; paper's cases are 64/1500


class Packet:
    """One variable-length packet.

    Attributes
    ----------
    pid:
        Unique id, assigned by the generator in arrival order (so flow
        order checks can compare pids).
    size_bytes:
        Packet length on the wire.
    input_port / output_port:
        Ribbon indices in the N x N switch fabric.
    flow:
        The 5-tuple used for ECMP/LAG hashing and ordering checks.
    arrival_ns:
        When the packet's last byte arrived at the switch input.
    departure_ns:
        When the packet's last byte left, written back by
        :meth:`~repro.core.hbm_switch.HBMSwitch.run` once the run ends
        (``None`` if it was not delivered).
    fiber / wavelength:
        Egress lane chosen by the output-port hash (SS 3.2 step 6),
        written back with ``departure_ns``.
    """

    __slots__ = (
        "pid",
        "size_bytes",
        "input_port",
        "output_port",
        "flow",
        "arrival_ns",
        "departure_ns",
        "fiber",
        "wavelength",
    )

    def __init__(
        self,
        pid: int,
        size_bytes: int,
        input_port: int,
        output_port: int,
        flow: FiveTuple,
        arrival_ns: float,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        self.pid = pid
        self.size_bytes = size_bytes
        self.input_port = input_port
        self.output_port = output_port
        self.flow = flow
        self.arrival_ns = arrival_ns
        self.departure_ns: Optional[float] = None
        self.fiber: Optional[int] = None
        self.wavelength: Optional[int] = None

    @property
    def latency_ns(self) -> float:
        """Departure minus arrival; raises if the packet has not departed."""
        if self.departure_ns is None:
            raise ValueError(f"packet {self.pid} has not departed")
        return self.departure_ns - self.arrival_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(pid={self.pid}, {self.size_bytes}B, "
            f"{self.input_port}->{self.output_port}, t={self.arrival_ns:.1f})"
        )
