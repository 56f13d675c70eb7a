"""Per-hop routing policies over a fabric topology.

A policy turns one (src, dst) endpoint pair into a weighted set of
:class:`FlowPath` values -- router sequences whose weights sum to 1.
The engine (:mod:`repro.fabric.engine`) then pushes each path's rate
share through the per-router packet/flow engines hop by hop.

Three policies (the Unified-Routing trio):

- ``direct`` -- uniform split over *all* equal-cost shortest paths
  (ECMP).  Deterministic: paths are enumerated in lexicographic order.
- ``vlb`` -- Valiant load balancing.  The classic scheme picks one
  uniformly random intermediate per flow; here every intermediate is
  materialised with weight 1/N (the fluid limit of the random choice),
  each leg splitting uniformly over its shortest paths.  This keeps
  both fidelities deterministic and byte-identical across processes
  while matching the random scheme's expected link loads exactly.
- ``hoho`` -- hop-on-hop-off for rotation topologies: a flow rides the
  direct slot when its pair is matched (weight 1/(N-1)) and otherwise
  hops off at the next matched intermediate (each 2-hop path also
  weight 1/(N-1)); only valid on :class:`~repro.fabric.topology.
  RotationTopology`, whose cycle average makes every pair adjacent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ConfigError
from .topology import FabricTopology, RotationTopology

#: Valid routing policy names, in CLI order.
ROUTING_POLICIES = ("direct", "vlb", "hoho")


@dataclass(frozen=True)
class FlowPath:
    """One weighted router sequence serving a (src, dst) flow."""

    routers: Tuple[int, ...]
    weight: float


def shortest_paths(
    topology: FabricTopology, src: int, dst: int
) -> List[Tuple[int, ...]]:
    """All shortest router sequences src -> dst, lexicographically sorted.

    BFS builds the predecessor DAG; enumeration walks it in sorted
    neighbour order, so the result is identical in every process.
    """
    if src == dst:
        return [(src,)]
    adjacency = topology.adjacency()
    if src not in adjacency or dst not in adjacency:
        raise ConfigError(
            f"endpoints ({src}, {dst}) out of range for "
            f"{type(topology).__name__}"
        )
    dist = {src: 0}
    predecessors: Dict[int, List[int]] = {}
    frontier = [src]
    while frontier and dst not in dist:
        next_frontier = []
        for node in frontier:
            for peer in adjacency[node]:
                if peer not in dist:
                    dist[peer] = dist[node] + 1
                    predecessors[peer] = [node]
                    next_frontier.append(peer)
                elif dist[peer] == dist[node] + 1:
                    predecessors[peer].append(node)
        frontier = next_frontier
    if dst not in dist:
        raise ConfigError(
            f"no path {src} -> {dst} in {type(topology).__name__}"
        )
    paths: List[Tuple[int, ...]] = []

    def walk(node: int, suffix: Tuple[int, ...]) -> None:
        if node == src:
            paths.append((src,) + suffix)
            return
        for parent in sorted(predecessors[node]):
            walk(parent, (node,) + suffix)

    walk(dst, ())
    return sorted(paths)


def _merge(paths: Dict[Tuple[int, ...], float]) -> Tuple[FlowPath, ...]:
    """Weighted path dict -> sorted, normalised FlowPath tuple."""
    total = sum(paths.values())
    return tuple(
        FlowPath(routers, weight / total)
        for routers, weight in sorted(paths.items())
    )


def _direct(topology: FabricTopology, src: int, dst: int) -> Tuple[FlowPath, ...]:
    routes = shortest_paths(topology, src, dst)
    share = 1.0 / len(routes)
    return tuple(FlowPath(r, share) for r in routes)


def _vlb(topology: FabricTopology, src: int, dst: int) -> Tuple[FlowPath, ...]:
    merged: Dict[Tuple[int, ...], float] = {}
    n = topology.n_routers
    for mid in range(n):
        if mid == src or mid == dst:
            # Degenerate intermediates reduce to the direct leg.
            legs = [(p, 1.0) for p in shortest_paths(topology, src, dst)]
            for path, w in legs:
                merged[path] = merged.get(path, 0.0) + w / (n * len(legs))
            continue
        first = shortest_paths(topology, src, mid)
        second = shortest_paths(topology, mid, dst)
        share = 1.0 / (n * len(first) * len(second))
        for a in first:
            for b in second:
                path = a + b[1:]
                merged[path] = merged.get(path, 0.0) + share
    return _merge(merged)


def _hoho(topology: FabricTopology, src: int, dst: int) -> Tuple[FlowPath, ...]:
    if not isinstance(topology, RotationTopology):
        raise ConfigError(
            "hop-on-hop-off routing requires a RotationTopology, got "
            f"{type(topology).__name__}"
        )
    n = topology.n_routers
    share = 1.0 / (n - 1)
    merged: Dict[Tuple[int, ...], float] = {(src, dst): share}
    for mid in range(n):
        if mid in (src, dst):
            continue
        merged[(src, mid, dst)] = share
    return _merge(merged)


_POLICIES = {"direct": _direct, "vlb": _vlb, "hoho": _hoho}


def compute_paths(
    topology: FabricTopology, src: int, dst: int, policy: str
) -> Tuple[FlowPath, ...]:
    """The weighted path set for one flow under ``policy``.

    Weights always sum to 1 (each flow's offered rate is fully
    assigned); the tuple is sorted by router sequence, so the engine's
    iteration order -- and therefore every payload byte -- is
    deterministic.
    """
    if policy not in _POLICIES:
        raise ConfigError(
            f"routing policy must be one of {ROUTING_POLICIES}, got {policy!r}"
        )
    if src == dst:
        raise ConfigError(f"flow endpoints must differ, got {src}")
    return _POLICIES[policy](topology, src, dst)
