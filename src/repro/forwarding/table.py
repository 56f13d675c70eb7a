"""Route tables and the FIB.

:func:`synthesize_route_table` builds a core-router-like table: prefix
lengths drawn from the classic BGP distribution (mass at /24, ridges at
/16..../22), next hops spread over the router's N output ribbons.
:class:`Fib` wraps the trie with the packet-facing API the input port's
processing chiplet implements: 5-tuple in, output port out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..traffic.packet import Packet
from .trie import PrefixTrie

#: A coarse BGP-like prefix-length mix (length -> weight): most of the
#: table is /24, with ridges at /16 and the /19../23 band.
BGP_LENGTH_MIX: Dict[int, float] = {
    8: 0.01,
    12: 0.01,
    16: 0.10,
    18: 0.04,
    19: 0.06,
    20: 0.08,
    21: 0.08,
    22: 0.12,
    23: 0.08,
    24: 0.40,
    28: 0.02,
}


@dataclass(frozen=True)
class RouteTable:
    """A synthesized set of routes: (prefix, length, next_hop)."""

    routes: Tuple[Tuple[int, int, int], ...]
    n_next_hops: int

    def __len__(self) -> int:
        return len(self.routes)


def synthesize_route_table(
    n_routes: int,
    n_next_hops: int,
    seed: int = 0,
    length_mix: Optional[Dict[int, float]] = None,
) -> RouteTable:
    """A random route table with a realistic prefix-length mix.

    Prefixes are distinct; next hops cycle over the ``n_next_hops``
    output ribbons (so every output is reachable).
    """
    if n_routes <= 0:
        raise ConfigError(f"n_routes must be positive, got {n_routes}")
    if n_next_hops <= 0:
        raise ConfigError(f"n_next_hops must be positive, got {n_next_hops}")
    mix = BGP_LENGTH_MIX if length_mix is None else length_mix
    lengths = np.array(sorted(mix))
    weights = np.array([mix[l] for l in lengths], dtype=np.float64)
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    seen = set()
    routes: List[Tuple[int, int, int]] = []
    while len(routes) < n_routes:
        length = int(rng.choice(lengths, p=weights))
        bits = int(rng.integers(0, 1 << length)) if length else 0
        prefix = bits << (32 - length)
        if (prefix, length) in seen:
            continue
        seen.add((prefix, length))
        routes.append((prefix, length, len(routes) % n_next_hops))
    return RouteTable(routes=tuple(routes), n_next_hops=n_next_hops)


class Fib:
    """The forwarding information base of one input's processing chiplet."""

    def __init__(self, table: RouteTable, default_next_hop: Optional[int] = None):
        self.trie = PrefixTrie(width=32)
        for prefix, length, next_hop in table.routes:
            self.trie.insert(prefix, length, next_hop)
        self.n_next_hops = table.n_next_hops
        self.default_next_hop = default_next_hop
        self.lookups = 0
        self.misses = 0

    def lookup(self, dst_ip: int) -> Optional[int]:
        """Next hop for an address; falls back to the default route."""
        self.lookups += 1
        hop = self.trie.lookup(dst_ip)
        if hop is None:
            self.misses += 1
            return self.default_next_hop
        return hop

    def classify(self, packet: Packet) -> Optional[int]:
        """The SS 3.2 step-1 operation: packet -> output port."""
        return self.lookup(packet.flow.dst_ip)

    def classify_array(self, dst_ips: np.ndarray) -> np.ndarray:
        """:meth:`classify` for an array of destination addresses: one
        trie walk per distinct address, lookup and miss counts per
        packet; -1 where no route (and no default) applies."""
        unique, inverse = np.unique(np.asarray(dst_ips, dtype=np.int64), return_inverse=True)
        hops = [self.trie.lookup(int(address)) for address in unique.tolist()]
        missed = np.array([hop is None for hop in hops], dtype=bool)
        default = -1 if self.default_next_hop is None else self.default_next_hop
        table = np.array(
            [default if hop is None else hop for hop in hops], dtype=np.int64
        )
        self.lookups += inverse.size
        self.misses += int(np.count_nonzero(missed[inverse]))
        return table[inverse].reshape(-1)

    @property
    def miss_fraction(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.misses / self.lookups


def fib_matching_generator(n_ports: int) -> Fib:
    """A FIB whose routes match :class:`~repro.traffic.flows.FlowGenerator`.

    The flow generator synthesizes destination addresses as
    ``192.<output>.<flow>.0``-style values (192 << 24 | output << 16 |
    flow-index), so routes ``192.<j>.0.0/16 -> j`` make FIB
    classification reproduce the generator's intended outputs exactly --
    letting the full switch simulation run with real lookups in the
    datapath and verifiably identical results.
    """
    if n_ports <= 0:
        raise ConfigError(f"n_ports must be positive, got {n_ports}")
    routes = tuple(
        ((192 << 24) | (j << 16), 16, j) for j in range(n_ports)
    )
    return Fib(RouteTable(routes=routes, n_next_hops=n_ports))
