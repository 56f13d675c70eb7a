"""Arrival processes and the traffic generator.

The generator turns (traffic matrix, packet-size distribution, arrival
process) into a time-sorted packet list for a switch simulation.  Three
processes cover the paper's regimes:

- ``POISSON``: memoryless arrivals, the standard admissible-traffic
  benchmark.
- ``DETERMINISTIC``: evenly spaced arrivals, the smoothest case (isolates
  algorithmic delay from burstiness).
- ``ONOFF``: bursty arrivals -- packets arrive in back-to-back bursts at
  the full pair rate with idle gaps, stressing frame aggregation.

It also provides :func:`fiber_load_profile`, the per-fiber load shapes
used by the SPS splitting experiment (E10): the "first fiber connected
first, therefore more loaded" skew of Challenge 4, the ECMP/LAG-hashed
even profile of SS 4, and an adversarial profile that concentrates load
on the fibers feeding one internal switch.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..units import rate_to_bytes_per_ns
from .admissibility import assert_admissible
from .flows import FlowGenerator
from .packet import Packet
from .sizes import PacketSizeDistribution
from .stream import DEFAULT_BLOCK_NS, ArrivalBlock, TrafficSource, block_edges


class ArrivalProcess(enum.Enum):
    """Supported arrival processes."""

    POISSON = "poisson"
    DETERMINISTIC = "deterministic"
    ONOFF = "onoff"


class TrafficGenerator(TrafficSource):
    """Generates packet arrivals for an N-port switch.

    A :class:`~repro.traffic.stream.TrafficSource`: consume
    :meth:`blocks` incrementally, or :meth:`materialize` for an eager
    list.  Note the compatibility trade-off: this
    generator's draw order (one shared RNG, pairs consumed
    sequentially, flows assigned after a global sort) cannot be
    produced incrementally, so :meth:`blocks` computes the run's
    arrival *arrays* once and slices them per block.  That still bounds
    the expensive part -- ``Packet`` objects (~10x the bytes of their
    array rows) exist one block at a time -- but truly flat memory
    needs a natively streaming source
    (:class:`~repro.traffic.stream.HeavyTailSource`).

    Parameters
    ----------
    n_ports:
        Switch port count (N).
    port_rate_bps:
        Line rate of one port; matrix entries are fractions of it.
    matrix:
        N x N admissible load matrix.
    size_dist:
        Packet-size distribution shared by all pairs.
    process:
        Arrival process, see :class:`ArrivalProcess`.
    burst_packets:
        Mean burst length (packets) for the ON/OFF process.
    seed:
        RNG seed; identical seeds give identical packet sequences, which
        the OQ-mimicry experiment relies on.
    """

    def __init__(
        self,
        n_ports: int,
        port_rate_bps: float,
        matrix: np.ndarray,
        size_dist: PacketSizeDistribution,
        process: ArrivalProcess = ArrivalProcess.POISSON,
        burst_packets: int = 16,
        flows_per_pair: int = 64,
        seed: int = 0,
    ) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (n_ports, n_ports):
            raise ConfigError(
                f"matrix shape {matrix.shape} does not match n_ports={n_ports}"
            )
        assert_admissible(matrix)
        if port_rate_bps <= 0:
            raise ConfigError(f"port rate must be positive, got {port_rate_bps}")
        if burst_packets <= 0:
            raise ConfigError(f"burst_packets must be positive, got {burst_packets}")
        self.n_ports = n_ports
        self.port_rate_bps = port_rate_bps
        self.matrix = matrix
        self.size_dist = size_dist
        self.process = process
        self.burst_packets = burst_packets
        self._rng = np.random.default_rng(seed)
        self._flows = FlowGenerator(np.random.default_rng(seed + 1), flows_per_pair)

    def _arrays(self, duration_ns: float):
        """(times, sizes, inputs, outputs, flows) for ``[0, duration_ns)``.

        Arrival times and sizes are drawn with vectorized numpy
        sampling per (input, output) pair and merged with one stable
        argsort; ties across pairs resolve in pair order, exactly as
        the old per-packet heap-merge did.  Flow headers are assigned
        after the global sort (one batched draw), so the draw order --
        and therefore every byte of output -- matches the historical
        eager generator.
        """
        if duration_ns <= 0:
            raise ConfigError(f"duration must be positive, got {duration_ns}")
        times_parts: List[np.ndarray] = []
        sizes_parts: List[np.ndarray] = []
        inputs_parts: List[np.ndarray] = []
        outputs_parts: List[np.ndarray] = []
        for i in range(self.n_ports):
            for j in range(self.n_ports):
                load = self.matrix[i, j]
                if load <= 0:
                    continue
                times, sizes = self._pair_stream(i, j, load, duration_ns)
                if times.size == 0:
                    continue
                times_parts.append(times)
                sizes_parts.append(sizes)
                inputs_parts.append(np.full(times.size, i, dtype=np.int64))
                outputs_parts.append(np.full(times.size, j, dtype=np.int64))
        if not times_parts:
            empty = np.empty(0)
            return (
                empty,
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                (),
            )
        times = np.concatenate(times_parts)
        sizes = np.concatenate(sizes_parts)
        inputs = np.concatenate(inputs_parts)
        outputs = np.concatenate(outputs_parts)
        order = np.argsort(times, kind="stable")
        times, sizes = times[order], sizes[order]
        inputs, outputs = inputs[order], outputs[order]
        flows = self._flows.flows_for_batch(inputs, outputs)
        return times, sizes, inputs, outputs, flows

    def blocks(
        self, duration_ns: float, block_ns: float = DEFAULT_BLOCK_NS
    ) -> Iterator[ArrivalBlock]:
        """Arrival blocks covering ``[0, duration_ns)``.

        Byte-identical to slicing :meth:`materialize`'s output at the
        block boundaries (see the class docstring for why the arrays
        are computed eagerly for this legacy generator).
        """
        times, sizes, inputs, outputs, flows = self._arrays(duration_ns)
        for start, end in block_edges(duration_ns, block_ns):
            lo = int(np.searchsorted(times, start, side="left"))
            hi = int(np.searchsorted(times, end, side="left"))
            yield ArrivalBlock(
                times[lo:hi],
                sizes[lo:hi],
                inputs[lo:hi],
                outputs[lo:hi],
                flows[lo:hi],
                start,
                end,
                pid_offset=lo,
            )

    def materialize(
        self, duration_ns: float, block_ns: float = DEFAULT_BLOCK_NS
    ) -> List[Packet]:
        """All packets arriving in ``[0, duration_ns)``, time-sorted.

        Packet ids are assigned in global arrival order.  Built
        straight from the arrays (``block_ns`` is irrelevant here --
        block content never depends on it).
        """
        times, sizes, inputs, outputs, flows = self._arrays(duration_ns)
        return [
            Packet(pid, int(size), int(i), int(j), flow, float(time_ns))
            for pid, (time_ns, size, i, j, flow) in enumerate(
                zip(times, sizes, inputs, outputs, flows)
            )
        ]

    # -- per-pair streams -------------------------------------------------------

    def _pair_stream(self, i: int, j: int, load: float, duration_ns: float):
        """(times, sizes) arrays for one (input, output) pair."""
        pair_rate = load * rate_to_bytes_per_ns(self.port_rate_bps)  # bytes/ns
        if self.process is ArrivalProcess.POISSON:
            return self._poisson(pair_rate, duration_ns)
        if self.process is ArrivalProcess.DETERMINISTIC:
            return self._deterministic(pair_rate, duration_ns)
        return self._onoff(pair_rate, duration_ns)

    def _poisson(self, pair_rate, duration_ns):
        mean_gap = self.size_dist.mean_bytes / pair_rate
        # Draw gaps in blocks sized to overshoot the horizon slightly;
        # top up in the (rare) light-tail case where they fall short.
        expected = duration_ns / mean_gap
        chunk = max(int(expected * 1.05) + 16, 64)
        times = np.cumsum(self._rng.exponential(mean_gap, size=chunk))
        while times.size and times[-1] < duration_ns:
            more = np.cumsum(self._rng.exponential(mean_gap, size=chunk)) + times[-1]
            times = np.concatenate([times, more])
        times = times[times < duration_ns]
        return times, self.size_dist.sample_many(self._rng, times.size)

    def _deterministic(self, pair_rate, duration_ns):
        mean_gap = self.size_dist.mean_bytes / pair_rate
        # Random phase so pairs do not arrive in lockstep.
        phase = float(self._rng.uniform(0, mean_gap))
        count = max(int(np.ceil((duration_ns - phase) / mean_gap)), 0)
        times = phase + mean_gap * np.arange(count)
        times = times[times < duration_ns]
        return times, self.size_dist.sample_many(self._rng, times.size)

    def _onoff(self, pair_rate, duration_ns):
        """Bursts at full line rate, geometric burst lengths, idle gaps
        sized so the long-run rate equals ``pair_rate``."""
        line_rate = rate_to_bytes_per_ns(self.port_rate_bps)
        times_parts: List[np.ndarray] = []
        sizes_parts: List[np.ndarray] = []
        time = float(self._rng.exponential(self.size_dist.mean_bytes / pair_rate))
        while time < duration_ns:
            burst_len = 1 + int(self._rng.geometric(1.0 / self.burst_packets))
            sizes = self.size_dist.sample_many(self._rng, burst_len)
            # Packet n starts after packets 0..n-1 went out at line rate.
            starts = time + np.concatenate(
                ([0.0], np.cumsum(sizes[:-1]))
            ) / line_rate
            emitted = starts < duration_ns
            sizes = sizes[emitted]
            starts = starts[emitted]
            if starts.size:
                times_parts.append(starts)
                sizes_parts.append(sizes)
            burst_bytes = int(sizes.sum())
            time = float(starts[-1] + sizes[-1] / line_rate) if starts.size else duration_ns
            # Idle long enough that the average rate is pair_rate.
            on_time = burst_bytes / line_rate
            target_cycle = burst_bytes / pair_rate
            off_mean = max(target_cycle - on_time, 1e-9)
            time += float(self._rng.exponential(off_mean))
        if not times_parts:
            empty = np.empty(0)
            return empty, np.empty(0, dtype=np.int64)
        return np.concatenate(times_parts), np.concatenate(sizes_parts)

    def offered_bytes(self, duration_ns: float) -> float:
        """Expected offered load in bytes over ``duration_ns``."""
        total_load = float(self.matrix.sum())
        return total_load * rate_to_bytes_per_ns(self.port_rate_bps) * duration_ns


# --------------------------------------------------------------------------
# Per-fiber load profiles for the SPS splitting experiment (E10)
# --------------------------------------------------------------------------


def fiber_load_profile(
    n_fibers: int,
    kind: str = "ecmp",
    total_load: float = 1.0,
    skew: float = 2.0,
    target_fibers: Optional[Sequence[int]] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Per-fiber load shares for one ribbon, summing to ``total_load``.

    Kinds:

    - ``"ecmp"``: hashed even spread (SS 4's typical case) with small
      multiplicative noise.
    - ``"first-connected"``: Challenge 4's skew -- operators populate the
      first fibers first, so load decays geometrically (ratio given by
      ``skew`` between the first and last fiber).
    - ``"adversarial"``: all load on ``target_fibers`` (the attacker who
      knows a contiguous split can pick the fibers of one internal
      switch).
    """
    if n_fibers <= 0:
        raise ConfigError(f"n_fibers must be positive, got {n_fibers}")
    if total_load < 0:
        raise ConfigError(f"total_load must be >= 0, got {total_load}")
    rng = rng if rng is not None else np.random.default_rng(0)

    if kind == "ecmp":
        weights = 1.0 + 0.02 * rng.standard_normal(n_fibers)
        weights = np.clip(weights, 0.5, 1.5)
    elif kind == "first-connected":
        if skew <= 0:
            raise ConfigError(f"skew must be positive, got {skew}")
        # Geometric decay: fiber 0 carries `skew` times fiber F-1's load.
        ratio = skew ** (-1.0 / max(n_fibers - 1, 1))
        weights = ratio ** np.arange(n_fibers)
    elif kind == "adversarial":
        if not target_fibers:
            raise ConfigError("adversarial profile needs target_fibers")
        weights = np.zeros(n_fibers)
        for f in target_fibers:
            if not 0 <= f < n_fibers:
                raise ConfigError(f"target fiber {f} out of range")
            weights[f] = 1.0
    else:
        raise ConfigError(f"unknown fiber load profile kind: {kind!r}")

    weights = np.asarray(weights, dtype=np.float64)
    return total_load * weights / weights.sum()
