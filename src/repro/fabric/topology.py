"""Declarative fabric topologies: routers-in-a-package as network nodes.

The paper positions the petabit package as the building block of
next-generation DCN and internet fabrics; this module wires many of
them into the topologies the optical-DCN literature evaluates
(Unified Routing; Switch-Less Dragonfly):

- :class:`ClosTopology` -- k-ary leaf/spine (2-stage) or
  leaf/aggregation/core (3-stage) folded Clos; endpoints are leaves.
- :class:`ExpanderTopology` -- a d-regular random circulant graph: the
  offsets are drawn by a seeded RNG, so adjacency is a pure function of
  the frozen fields (digest-friendly, identical in every process).
- :class:`RotationTopology` -- Opera-style round-robin rotation: the
  N-1 round-robin matchings visit every pair exactly once per cycle, so
  the cycle-averaged fabric is the complete graph with per-link
  capacity 1/(N-1) of a node's line rate.
- :class:`DragonflyTopology` -- groups of routers, complete graphs
  inside each group, exactly one global link per group pair
  (the switch-less wafer-scale layout).

Every topology is a validated frozen dataclass.  Adjacency is derived
deterministically from the fields alone -- no hidden state -- which is
what lets a topology participate in a :class:`~repro.runtime.Scenario`
digest and makes fabric cells cacheable.

Capacity convention: a router's package egress (``RouterConfig.
io_per_direction_bps``) is divided evenly over its out-links, so the
directed link ``u -> v`` carries ``io_per_direction_bps / degree(u)``.
The rotation topology's 1/(N-1) per-link share falls out of the same
rule applied to the cycle-averaged complete graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..errors import ConfigError

__all__ = [
    "TOPOLOGY_TYPES",
    "ClosTopology",
    "DragonflyTopology",
    "ExpanderTopology",
    "FabricTopology",
    "RotationTopology",
    "topology_from_dict",
    "topology_to_dict",
]


class FabricTopology:
    """Base class: deterministic adjacency over ``n_routers`` nodes.

    Subclasses implement :meth:`_build_adjacency` (called lazily, result
    memoised on the instance) and :meth:`endpoints`.  All graphs here
    are undirected at the physical level; :meth:`neighbors` returns the
    sorted out-neighbourhood used for both directions.
    """

    @property
    def n_routers(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def _build_adjacency(self) -> Dict[int, Tuple[int, ...]]:  # pragma: no cover
        raise NotImplementedError

    def endpoints(self) -> Tuple[int, ...]:
        """Routers that source and sink fabric traffic (default: all)."""
        return tuple(range(self.n_routers))

    def adjacency(self) -> Dict[int, Tuple[int, ...]]:
        """``router -> sorted tuple of neighbours`` (memoised)."""
        cached = getattr(self, "_adjacency_cache", None)
        if cached is None:
            cached = self._build_adjacency()
            object.__setattr__(self, "_adjacency_cache", cached)
        return cached

    def neighbors(self, router: int) -> Tuple[int, ...]:
        adjacency = self.adjacency()
        if router not in adjacency:
            raise ConfigError(
                f"router {router} out of range (fabric has {self.n_routers})"
            )
        return adjacency[router]

    def out_degree(self, router: int) -> int:
        return len(self.neighbors(router))

    def links(self) -> Tuple[Tuple[int, int], ...]:
        """Every directed link ``(u, v)``, sorted."""
        return tuple(
            (u, v) for u in sorted(self.adjacency()) for v in self.neighbors(u)
        )

    def has_link(self, u: int, v: int) -> bool:
        return 0 <= u < self.n_routers and v in self.adjacency()[u]

    def is_connected(self) -> bool:
        adjacency = self.adjacency()
        if not adjacency:
            return False
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for peer in adjacency[node]:
                if peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        return len(seen) == self.n_routers

    def link_capacity_fraction(self, u: int, v: int) -> float:
        """Fraction of ``u``'s line rate carried by the link ``u -> v``."""
        if not self.has_link(u, v):
            raise ConfigError(f"no link {u} -> {v} in {type(self).__name__}")
        return 1.0 / self.out_degree(u)

    # -- digest content -------------------------------------------------------

    def describe(self) -> Dict:
        """JSON-safe content for scenario digests and CLI output."""
        return topology_to_dict(self)


def _check_positive(value: int, name: str) -> None:
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class ClosTopology(FabricTopology):
    """k-ary folded Clos; endpoints are the leaves.

    ``stages = 2``: ``k`` leaves fully meshed with ``k`` spines (the
    leaf/spine fabric; ``k = 2`` is the 4-router acceptance cell).

    ``stages = 3``: ``k`` pods, each of ``k`` leaves and ``k``
    aggregation routers (leaves join every aggregation router *of their
    pod*), plus ``k`` cores joined to every aggregation router -- so
    inter-pod paths run leaf-agg-core-agg-leaf while intra-pod traffic
    turns around at the aggregation tier.

    Router ids: leaves first (pod-major), then aggregations
    (pod-major), then cores.
    """

    k: int = 2
    stages: int = 2

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ConfigError(f"Clos arity k must be >= 2, got {self.k}")
        if self.stages not in (2, 3):
            raise ConfigError(f"stages must be 2 or 3, got {self.stages}")

    @property
    def n_leaves(self) -> int:
        return self.k if self.stages == 2 else self.k * self.k

    @property
    def n_routers(self) -> int:
        if self.stages == 2:
            return 2 * self.k
        return 2 * self.k * self.k + self.k

    def endpoints(self) -> Tuple[int, ...]:
        return tuple(range(self.n_leaves))

    def _build_adjacency(self) -> Dict[int, Tuple[int, ...]]:
        k = self.k
        adjacency = {r: set() for r in range(self.n_routers)}

        def join(u: int, v: int) -> None:
            adjacency[u].add(v)
            adjacency[v].add(u)

        if self.stages == 2:
            for leaf in range(k):
                for spine in range(k, 2 * k):
                    join(leaf, spine)
        else:
            aggs_base = k * k
            cores_base = 2 * k * k
            for pod in range(k):
                for i in range(k):
                    leaf = pod * k + i
                    for j in range(k):
                        join(leaf, aggs_base + pod * k + j)
            for agg in range(aggs_base, cores_base):
                for core in range(cores_base, cores_base + k):
                    join(agg, core)
        return {r: tuple(sorted(peers)) for r, peers in adjacency.items()}


@dataclass(frozen=True)
class ExpanderTopology(FabricTopology):
    """A ``degree``-regular random circulant graph on ``n_routers`` nodes.

    Node ``i`` joins ``i +- o (mod N)`` for each drawn offset ``o``; an
    offset ``o < N/2`` contributes 2 to the degree and ``o = N/2`` (even
    N) contributes 1.  Offsets are drawn by ``numpy``'s seeded generator
    from the frozen ``seed`` field, and redrawn (bounded, deterministic)
    until the offset set generates a connected graph -- random circulants
    are strong expanders with probability approaching 1, and regularity
    holds by construction.
    """

    n_routers: int = 8
    degree: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        _check_positive(self.n_routers, "n_routers")
        _check_positive(self.degree, "degree")
        if self.degree >= self.n_routers:
            raise ConfigError(
                f"degree {self.degree} needs more than {self.n_routers} routers"
            )
        if self.degree % 2 and self.n_routers % 2:
            raise ConfigError(
                "odd degree requires an even router count "
                f"(got degree {self.degree}, n_routers {self.n_routers})"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def _build_adjacency(self) -> Dict[int, Tuple[int, ...]]:
        n = self.n_routers
        half = n // 2
        for attempt in range(64):
            rng = np.random.default_rng(
                np.random.SeedSequence((self.n_routers, self.degree, self.seed, attempt))
            )
            # Draw distinct offsets until their degree contributions sum
            # to exactly `degree`: the half-offset (even n) counts once,
            # everything else twice.
            pool = list(rng.permutation(np.arange(1, half + 1)))
            offsets = []
            remaining = self.degree
            for offset in pool:
                offset = int(offset)
                contribution = 1 if (n % 2 == 0 and offset == half) else 2
                if contribution <= remaining:
                    offsets.append(offset)
                    remaining -= contribution
                if remaining == 0:
                    break
            if remaining != 0:
                continue
            if math.gcd(n, *offsets) != 1:
                continue  # disconnected circulant; redraw
            adjacency = {}
            for i in range(n):
                peers = set()
                for offset in offsets:
                    peers.add((i + offset) % n)
                    peers.add((i - offset) % n)
                adjacency[i] = tuple(sorted(peers))
            return adjacency
        raise ConfigError(
            f"could not draw a connected {self.degree}-regular circulant on "
            f"{n} routers from seed {self.seed}"
        )


@dataclass(frozen=True)
class RotationTopology(FabricTopology):
    """Opera-style round-robin rotation over ``n_routers`` nodes.

    The physical fabric realises one perfect matching per time slot and
    rotates through the N-1 round-robin (circle-method) matchings; over
    a full cycle every pair is directly connected exactly once.  The
    rate-level model used by the fabric engine is the cycle average: the
    complete graph with each link at 1/(N-1) of a node's line rate
    (exactly the even-division capacity rule applied to K_N).

    ``slot_ns`` is the duration of one matching slot; hop-on-hop-off
    routing charges each hop the mean wait for its slot,
    ``slot_ns * (N-1) / 2``.
    """

    n_routers: int = 4
    slot_ns: float = 1_000.0

    def __post_init__(self) -> None:
        _check_positive(self.n_routers, "n_routers")
        if self.n_routers % 2 or self.n_routers < 4:
            raise ConfigError(
                "rotation needs an even router count >= 4, got "
                f"{self.n_routers}"
            )
        if not self.slot_ns > 0:  # also catches NaN
            raise ConfigError(f"slot_ns must be positive, got {self.slot_ns}")

    def _build_adjacency(self) -> Dict[int, Tuple[int, ...]]:
        n = self.n_routers
        return {
            i: tuple(j for j in range(n) if j != i) for i in range(n)
        }

    def matchings(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """The N-1 round-robin matchings (circle method), in slot order.

        Each matching is a tuple of ``(low, high)`` pairs sorted by the
        low endpoint; over the full cycle every unordered pair appears
        exactly once (a perfect matching decomposition of K_N).
        """
        n = self.n_routers
        ring = list(range(1, n))
        rounds = []
        for _ in range(n - 1):
            table = [0] + ring
            pairs = []
            for k in range(n // 2):
                u, v = table[k], table[n - 1 - k]
                pairs.append((min(u, v), max(u, v)))
            rounds.append(tuple(sorted(pairs)))
            ring = ring[-1:] + ring[:-1]
        return tuple(rounds)

    def mean_slot_wait_ns(self) -> float:
        """Mean wait until a given pair's slot comes around."""
        return self.slot_ns * (self.n_routers - 1) / 2.0


@dataclass(frozen=True)
class DragonflyTopology(FabricTopology):
    """Groups of routers: complete intra-group graphs, one global link
    per group pair (the canonical "absolute" arrangement).

    Group ``g`` owns global ports ``0 .. n_groups-2``; port ``p`` leads
    to group ``p`` if ``p < g`` else ``p + 1``, and is attached to
    router ``p mod routers_per_group`` of the group.  Every group pair
    gets exactly one global link, and the assignment is a pure function
    of the fields.
    """

    n_groups: int = 3
    routers_per_group: int = 2

    def __post_init__(self) -> None:
        _check_positive(self.n_groups, "n_groups")
        _check_positive(self.routers_per_group, "routers_per_group")
        if self.n_groups < 2:
            raise ConfigError("dragonfly needs at least 2 groups")
        if self.routers_per_group < 2 and self.n_groups > 2:
            # With one router per group the topology degenerates to a
            # complete graph over groups; allow it only for 2 groups.
            raise ConfigError(
                "dragonfly needs >= 2 routers per group (or exactly 2 groups)"
            )

    @property
    def n_routers(self) -> int:
        return self.n_groups * self.routers_per_group

    def router_id(self, group: int, local: int) -> int:
        return group * self.routers_per_group + local

    def _build_adjacency(self) -> Dict[int, Tuple[int, ...]]:
        a = self.routers_per_group
        adjacency = {r: set() for r in range(self.n_routers)}
        for g in range(self.n_groups):
            members = [self.router_id(g, i) for i in range(a)]
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    adjacency[u].add(v)
                    adjacency[v].add(u)
        for g in range(self.n_groups):
            for port in range(self.n_groups - 1):
                peer_group = port if port < g else port + 1
                if peer_group < g:
                    continue  # each unordered pair once, from the lower group
                u = self.router_id(g, port % a)
                back_port = g if g < peer_group else g - 1
                v = self.router_id(peer_group, back_port % a)
                adjacency[u].add(v)
                adjacency[v].add(u)
        return {r: tuple(sorted(peers)) for r, peers in adjacency.items()}


#: Every concrete topology type, for (de)serialisation and validation.
TOPOLOGY_TYPES = (
    ClosTopology,
    ExpanderTopology,
    RotationTopology,
    DragonflyTopology,
)


def topology_to_dict(topology: FabricTopology) -> Dict:
    """JSON-safe dict of a topology (its frozen fields plus ``kind``)."""
    import dataclasses

    if not isinstance(topology, TOPOLOGY_TYPES):
        raise ConfigError(
            f"unknown topology type {type(topology).__name__}"
        )
    data = dataclasses.asdict(topology)
    data["kind"] = type(topology).__name__
    return data


def topology_from_dict(data: Dict) -> FabricTopology:
    """Inverse of :func:`topology_to_dict`."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    by_name = {cls.__name__: cls for cls in TOPOLOGY_TYPES}
    if kind not in by_name:
        raise ConfigError(f"unknown topology kind {kind!r}")
    return by_name[kind](**payload)
