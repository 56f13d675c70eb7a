"""Streaming traffic substrate: bounded-memory arrival blocks.

The eager path (:meth:`TrafficSource.materialize`) builds one
``List[Packet]`` per run -- fine at 15k packets, fatal at 10^8.  This
module is the streaming replacement: a :class:`TrafficSource` yields
:class:`ArrivalBlock` chunks (structured numpy arrays, time-sorted
within a block) that every engine consumes incrementally, so memory is
bounded by the block span rather than the run length.

Block protocol invariants, relied on by every consumer:

- Blocks partition ``[0, duration_ns)`` into half-open spans
  ``[k*block_ns, (k+1)*block_ns)``; an arrival at exactly a boundary
  belongs to the *later* block, so no packet ever straddles two blocks
  and equal arrival times never split across a boundary.
- Arrivals are non-decreasing in time within a block, and packet ids
  (``pid_offset + index``) continue the global arrival order across
  blocks -- concatenating every block's packets reproduces the eager
  packet list exactly.
- Block content is invariant to ``block_ns``: the same source with the
  same seed yields bitwise-identical packets however the run is
  chunked.  :class:`HeavyTailSource` guarantees this by drawing flows
  in fixed-size chunks per (input, output) pair from per-pair
  independent RNG streams, so the draw sequence never depends on where
  block boundaries fall.

On top of the protocol sit the realistic internet workloads of ROADMAP
item 1: heavy-tailed mice-and-elephants flow sizes (Pareto/lognormal),
diurnal load curves and flash-crowd ramps (both by thinning flow
arrivals against a peak-rate envelope, which preserves chunk
invariance), and -- in :mod:`repro.traffic.replay` -- a chunked trace
reader (:func:`~repro.traffic.replay.stream_trace`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..units import rate_to_bytes_per_ns
from .admissibility import assert_admissible
from .flows import FiveTuple
from .packet import MAX_PACKET_BYTES, MIN_PACKET_BYTES, Packet

#: Default block span (ns).  Small enough that a block holds thousands
#: -- not millions -- of arrivals at the reference rates, large enough
#: that per-block overhead is amortised.
DEFAULT_BLOCK_NS = 10_000.0

#: Flows drawn per RNG call in :class:`HeavyTailSource`.  Fixed so the
#: per-pair draw sequence is independent of ``block_ns`` (chunk
#: invariance); the value only trades RNG-call overhead against queue
#: depth.
FLOW_CHUNK = 256


def block_edges(
    duration_ns: float, block_ns: float
) -> Iterator[Tuple[float, float]]:
    """Yield the half-open block spans partitioning ``[0, duration_ns)``.

    Every span is ``[k*block_ns, min((k+1)*block_ns, duration_ns))``;
    the half-open convention means an arrival at exactly a boundary
    belongs to the later block.
    """
    if duration_ns <= 0:
        raise ConfigError(f"duration must be positive, got {duration_ns}")
    if block_ns <= 0:
        raise ConfigError(f"block span must be positive, got {block_ns}")
    k = 0
    while True:
        start = k * block_ns
        if start >= duration_ns:
            return
        yield start, min(start + block_ns, duration_ns)
        k += 1


class ArrivalBlock:
    """One time-sorted chunk of arrivals as structured numpy arrays.

    ``times``/``sizes``/``inputs``/``outputs`` are aligned arrays (one
    row per packet); ``flows`` is the aligned tuple of
    :class:`~repro.traffic.flows.FiveTuple` headers.  ``pid_offset`` is
    the global arrival index of the block's first packet, so
    :meth:`to_packets` continues the eager pid sequence across blocks.
    """

    __slots__ = (
        "times",
        "sizes",
        "inputs",
        "outputs",
        "flows",
        "start_ns",
        "end_ns",
        "pid_offset",
    )

    def __init__(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        inputs: np.ndarray,
        outputs: np.ndarray,
        flows: Sequence[FiveTuple],
        start_ns: float,
        end_ns: float,
        pid_offset: int = 0,
    ) -> None:
        times = np.asarray(times, dtype=np.float64)
        sizes = np.asarray(sizes, dtype=np.int64)
        inputs = np.asarray(inputs, dtype=np.int64)
        outputs = np.asarray(outputs, dtype=np.int64)
        n = times.size
        if not (sizes.size == inputs.size == outputs.size == len(flows) == n):
            raise ConfigError(
                "misaligned block arrays: "
                f"times={times.size} sizes={sizes.size} inputs={inputs.size} "
                f"outputs={outputs.size} flows={len(flows)}"
            )
        if start_ns >= end_ns:
            raise ConfigError(
                f"empty block span [{start_ns}, {end_ns}) is invalid"
            )
        if n:
            if np.any(times[1:] < times[:-1]):
                raise ConfigError("block arrivals are not time-sorted")
            if times[0] < start_ns or times[-1] >= end_ns:
                raise ConfigError(
                    f"arrivals [{times[0]}, {times[-1]}] escape the block "
                    f"span [{start_ns}, {end_ns})"
                )
        self.times = times
        self.sizes = sizes
        self.inputs = inputs
        self.outputs = outputs
        self.flows = tuple(flows)
        self.start_ns = float(start_ns)
        self.end_ns = float(end_ns)
        self.pid_offset = int(pid_offset)

    def __len__(self) -> int:
        return self.times.size

    @property
    def total_bytes(self) -> int:
        """Sum of packet sizes in the block."""
        return int(self.sizes.sum()) if self.times.size else 0

    def to_packets(self) -> List[Packet]:
        """Materialize the block as :class:`Packet` objects.

        Pids continue the global arrival order (``pid_offset + index``).
        """
        offset = self.pid_offset
        return [
            Packet(offset + k, int(size), int(i), int(j), flow, float(t))
            for k, (t, size, i, j, flow) in enumerate(
                zip(self.times, self.sizes, self.inputs, self.outputs, self.flows)
            )
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArrivalBlock(n={len(self)}, span=[{self.start_ns:.1f}, "
            f"{self.end_ns:.1f}), pid_offset={self.pid_offset})"
        )


class TrafficSource(ABC):
    """Iterator API over arrival blocks -- the streaming generator surface.

    Implementations yield one :class:`ArrivalBlock` per span of
    :func:`block_edges`, honouring the block-protocol invariants above.
    :meth:`materialize` is the bridge back to the eager world: it
    concatenates every block's packets into one list.
    """

    @abstractmethod
    def blocks(
        self, duration_ns: float, block_ns: float = DEFAULT_BLOCK_NS
    ) -> Iterator[ArrivalBlock]:
        """Yield time-ordered arrival blocks covering ``[0, duration_ns)``."""

    def materialize(
        self, duration_ns: float, block_ns: float = DEFAULT_BLOCK_NS
    ) -> List[Packet]:
        """Collect every block into one eager packet list."""
        packets: List[Packet] = []
        for block in self.blocks(duration_ns, block_ns):
            packets.extend(block.to_packets())
        return packets


# --------------------------------------------------------------------------
# Load profiles: diurnal curves and flash crowds
# --------------------------------------------------------------------------


class LoadProfile(ABC):
    """Time-varying load envelope, as a fraction of the peak rate.

    :class:`HeavyTailSource` thins flow arrivals against the profile
    (a flow arriving at ``t`` survives with probability ``scale(t)``),
    so the instantaneous offered rate tracks ``peak_rate * scale(t)``
    while the per-pair draw sequence stays chunk-invariant.
    """

    @abstractmethod
    def scale(self, t_ns: float) -> float:
        """Load fraction in ``[0, 1]`` at time ``t_ns``."""

    def mean_scale(self, duration_ns: float, n: int = 1024) -> float:
        """Average of ``scale`` over ``[0, duration_ns)`` (trapezoid-free
        midpoint estimate -- good enough for offered-load expectations)."""
        ts = (np.arange(n) + 0.5) * (duration_ns / n)
        return float(np.mean([self.scale(float(t)) for t in ts]))


class DiurnalProfile(LoadProfile):
    """Sinusoidal time-of-day curve between ``floor`` and the peak.

    ``scale(0) == floor`` (night trough) and the peak lands mid-period,
    mirroring a one-day utilization curve compressed to ``period_ns``.
    """

    def __init__(self, period_ns: float, floor: float = 0.3) -> None:
        if period_ns <= 0:
            raise ConfigError(f"period must be positive, got {period_ns}")
        if not 0.0 <= floor <= 1.0:
            raise ConfigError(f"floor must be in [0, 1], got {floor}")
        self.period_ns = float(period_ns)
        self.floor = float(floor)

    def scale(self, t_ns: float) -> float:
        phase = 0.5 * (1.0 - math.cos(2.0 * math.pi * t_ns / self.period_ns))
        return self.floor + (1.0 - self.floor) * phase


class FlashCrowdProfile(LoadProfile):
    """A base load with a linear ramp to the peak at ``start_ns``.

    Models the flash-crowd onset: quiet at ``base`` until ``start_ns``,
    then offered load ramps to the peak over ``ramp_ns`` and holds --
    the transient that stresses SPS split imbalance hardest.
    """

    def __init__(
        self, start_ns: float, ramp_ns: float, base: float = 0.2
    ) -> None:
        if start_ns < 0:
            raise ConfigError(f"start must be >= 0, got {start_ns}")
        if ramp_ns <= 0:
            raise ConfigError(f"ramp must be positive, got {ramp_ns}")
        if not 0.0 <= base <= 1.0:
            raise ConfigError(f"base must be in [0, 1], got {base}")
        self.start_ns = float(start_ns)
        self.ramp_ns = float(ramp_ns)
        self.base = float(base)

    def scale(self, t_ns: float) -> float:
        if t_ns <= self.start_ns:
            return self.base
        frac = min((t_ns - self.start_ns) / self.ramp_ns, 1.0)
        return self.base + (1.0 - self.base) * frac


# --------------------------------------------------------------------------
# Heavy-tailed flow workloads (mice and elephants)
# --------------------------------------------------------------------------


class _FlowTrain:
    """One in-flight flow: back-to-back MTU packets at line rate.

    Emission is lazy -- a block only materializes the packets whose
    arrival falls inside its span -- so a multi-gigabyte elephant costs
    one train record, not a million buffered packets.  Times are always
    computed as ``start + gap * absolute_index`` (never accumulated),
    so the emitted timestamps are bitwise identical however the train
    is split across blocks.
    """

    __slots__ = ("start", "gap", "n_packets", "last_size", "flow", "emitted")

    def __init__(
        self,
        start: float,
        gap: float,
        n_packets: int,
        last_size: int,
        flow: FiveTuple,
    ) -> None:
        self.start = start
        self.gap = gap
        self.n_packets = n_packets
        self.last_size = last_size
        self.flow = flow
        self.emitted = 0

    @property
    def next_time(self) -> float:
        return self.start + self.gap * self.emitted

    def emit(self, end: float) -> Tuple[np.ndarray, np.ndarray]:
        """(times, sizes) of packets arriving before ``end``; advances."""
        remaining = self.n_packets - self.emitted
        if remaining <= 0 or self.next_time >= end:
            return (
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.int64),
            )
        # Upper-bound the count, then mask: the +1 slack absorbs any
        # float rounding in the ceil.
        bound = int(math.ceil((end - self.next_time) / self.gap)) + 1
        count = min(remaining, max(bound, 0))
        idx = np.arange(self.emitted, self.emitted + count, dtype=np.float64)
        times = self.start + self.gap * idx
        keep = times < end
        times = times[keep]
        count = times.size
        sizes = np.full(count, _MTU_SENTINEL, dtype=np.int64)
        if count and self.emitted + count == self.n_packets:
            sizes[-1] = self.last_size
        self.emitted += count
        return times, sizes

    @property
    def done(self) -> bool:
        return self.emitted >= self.n_packets


#: Placeholder filled with the source's MTU after emission (kept out of
#: the inner loop; replaced in one vectorized assignment).
_MTU_SENTINEL = -1


class _PairState:
    """Per-(input, output) generation state for :class:`HeavyTailSource`."""

    __slots__ = ("rng", "clock", "flow_idx", "queue", "trains")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.clock = 0.0  # arrival time of the last drawn flow
        self.flow_idx = 0  # accepted flows so far (FiveTuple counter)
        #: Drawn flows not yet started: (arrival_ns, size_bytes, accept_u).
        self.queue: Deque[Tuple[float, float, float]] = deque()
        self.trains: List[_FlowTrain] = []


class HeavyTailSource(TrafficSource):
    """Streaming mice-and-elephants workload with bounded memory.

    Flows arrive per (input, output) pair as a Poisson process whose
    rate matches the pair's byte rate (``matrix[i, j]`` of the port
    line rate) divided by the mean flow size; each flow's bytes are
    drawn from a heavy-tailed distribution and transmitted as a train
    of back-to-back ``packet_bytes`` packets at line rate.  Families:

    - ``"pareto"``: shifted Pareto (Lomax) with tail index ``alpha``
      (infinite variance below 2 -- true elephants).
    - ``"lognormal"``: lognormal with shape ``sigma``.

    A :class:`LoadProfile` (diurnal curve, flash crowd) thins flow
    arrivals so the offered rate tracks ``scale(t)`` of the peak.

    Unlike the legacy :class:`~repro.traffic.generators.TrafficGenerator`
    (one shared RNG consumed pair-sequentially, which forces eager
    generation), every pair here owns an independent seeded RNG stream
    and draws flows in fixed :data:`FLOW_CHUNK` batches, so block
    content is bitwise invariant to ``block_ns`` and memory stays flat:
    state per pair is one RNG, a small flow queue, and the in-flight
    trains.
    """

    def __init__(
        self,
        n_ports: int,
        port_rate_bps: float,
        matrix: np.ndarray,
        family: str = "pareto",
        mean_flow_bytes: float = 100_000.0,
        alpha: float = 1.5,
        sigma: float = 1.0,
        packet_bytes: int = 1500,
        profile: Optional[LoadProfile] = None,
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
        if family not in ("pareto", "lognormal"):
            raise ConfigError(
                f"unknown flow-size family {family!r} "
                "(expected 'pareto' or 'lognormal')"
            )
        if alpha <= 1.0:
            raise ConfigError(
                f"pareto alpha must exceed 1 (finite mean), got {alpha}"
            )
        if sigma <= 0:
            raise ConfigError(f"lognormal sigma must be positive, got {sigma}")
        if not MIN_PACKET_BYTES <= packet_bytes <= MAX_PACKET_BYTES:
            raise ConfigError(
                f"packet_bytes must be in [{MIN_PACKET_BYTES}, "
                f"{MAX_PACKET_BYTES}], got {packet_bytes}"
            )
        if mean_flow_bytes < packet_bytes:
            raise ConfigError(
                f"mean flow size {mean_flow_bytes} below one packet "
                f"({packet_bytes} B)"
            )
        self.n_ports = n_ports
        self.port_rate_bps = port_rate_bps
        self.matrix = matrix
        self.family = family
        self.mean_flow_bytes = float(mean_flow_bytes)
        self.alpha = float(alpha)
        self.sigma = float(sigma)
        self.packet_bytes = int(packet_bytes)
        self.profile = profile
        self.seed = seed
        self._line_rate = rate_to_bytes_per_ns(port_rate_bps)  # bytes/ns
        self._gap_ns = self.packet_bytes / self._line_rate

    # -- flow-size draws ---------------------------------------------------

    def _flow_sizes(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.family == "pareto":
            # Shifted Pareto (Lomax + scale): mean = scale*alpha/(alpha-1).
            scale = self.mean_flow_bytes * (self.alpha - 1.0) / self.alpha
            return (rng.pareto(self.alpha, n) + 1.0) * scale
        mu = math.log(self.mean_flow_bytes) - 0.5 * self.sigma**2
        return rng.lognormal(mu, self.sigma, n)

    def _make_train(self, start: float, size: float, flow: FiveTuple) -> _FlowTrain:
        size_bytes = max(int(size), MIN_PACKET_BYTES)
        n_full, rem = divmod(size_bytes, self.packet_bytes)
        if n_full == 0:
            return _FlowTrain(start, self._gap_ns, 1, size_bytes, flow)
        if rem >= MIN_PACKET_BYTES:
            return _FlowTrain(start, self._gap_ns, n_full + 1, rem, flow)
        # A sub-minimum tail rides in the last full packet (folded away).
        return _FlowTrain(start, self._gap_ns, n_full, self.packet_bytes, flow)

    def _flow_tuple(self, i: int, j: int, idx: int) -> FiveTuple:
        key = idx & 0xFFFF
        return FiveTuple(
            src_ip=(10 << 24) | (i << 16) | key,
            dst_ip=(192 << 24) | (j << 16) | key,
            src_port=1024 + (idx % 61440),
            dst_port=443,
            protocol=6,
        )

    # -- the block iterator ------------------------------------------------

    def blocks(
        self, duration_ns: float, block_ns: float = DEFAULT_BLOCK_NS
    ) -> Iterator[ArrivalBlock]:
        pairs: List[Tuple[int, int, float, _PairState]] = []
        for i in range(self.n_ports):
            for j in range(self.n_ports):
                load = float(self.matrix[i, j])
                if load <= 0:
                    continue
                rng = np.random.default_rng(
                    np.random.SeedSequence((self.seed, i, j))
                )
                pairs.append((i, j, load, _PairState(rng)))
        pid = 0
        for start, end in block_edges(duration_ns, block_ns):
            times_parts: List[np.ndarray] = []
            sizes_parts: List[np.ndarray] = []
            inputs_parts: List[np.ndarray] = []
            outputs_parts: List[np.ndarray] = []
            flows_parts: List[List[FiveTuple]] = []
            for i, j, load, st in pairs:
                self._advance_flows(st, i, j, load, end, duration_ns)
                live: List[_FlowTrain] = []
                for train in st.trains:
                    t_times, t_sizes = train.emit(end)
                    if t_times.size:
                        t_sizes[t_sizes == _MTU_SENTINEL] = self.packet_bytes
                        times_parts.append(t_times)
                        sizes_parts.append(t_sizes)
                        inputs_parts.append(
                            np.full(t_times.size, i, dtype=np.int64)
                        )
                        outputs_parts.append(
                            np.full(t_times.size, j, dtype=np.int64)
                        )
                        flows_parts.append([train.flow] * t_times.size)
                    if not train.done:
                        live.append(train)
                st.trains = live
            if times_parts:
                times = np.concatenate(times_parts)
                sizes = np.concatenate(sizes_parts)
                inputs = np.concatenate(inputs_parts)
                outputs = np.concatenate(outputs_parts)
                flows: List[FiveTuple] = [
                    f for part in flows_parts for f in part
                ]
                order = np.argsort(times, kind="stable")
                times, sizes = times[order], sizes[order]
                inputs, outputs = inputs[order], outputs[order]
                flows = [flows[k] for k in order]
            else:
                times = np.empty(0, dtype=np.float64)
                sizes = np.empty(0, dtype=np.int64)
                inputs = np.empty(0, dtype=np.int64)
                outputs = np.empty(0, dtype=np.int64)
                flows = []
            block = ArrivalBlock(
                times, sizes, inputs, outputs, flows, start, end,
                pid_offset=pid,
            )
            pid += len(block)
            yield block

    def _advance_flows(
        self,
        st: _PairState,
        i: int,
        j: int,
        load: float,
        end: float,
        duration_ns: float,
    ) -> None:
        """Draw flow arrivals past ``end`` and start the ones inside."""
        pair_rate = load * self._line_rate  # peak bytes/ns for the pair
        mean_gap = self.mean_flow_bytes / pair_rate  # ns between flows
        while st.clock < end and st.clock < duration_ns:
            gaps = st.rng.exponential(mean_gap, FLOW_CHUNK)
            arrivals = st.clock + np.cumsum(gaps)
            sizes = self._flow_sizes(st.rng, FLOW_CHUNK)
            us = (
                st.rng.random(FLOW_CHUNK)
                if self.profile is not None
                else np.zeros(FLOW_CHUNK)
            )
            st.clock = float(arrivals[-1])
            for t, s, u in zip(arrivals, sizes, us):
                if t < duration_ns:
                    st.queue.append((float(t), float(s), float(u)))
        while st.queue and st.queue[0][0] < end:
            t, s, u = st.queue.popleft()
            if self.profile is not None and u >= self.profile.scale(t):
                continue
            flow = self._flow_tuple(i, j, st.flow_idx)
            st.flow_idx += 1
            st.trains.append(self._make_train(t, s, flow))

    def offered_bytes(self, duration_ns: float) -> float:
        """Expected offered load in bytes over ``duration_ns``."""
        total_load = float(self.matrix.sum())
        peak = total_load * self._line_rate * duration_ns
        if self.profile is None:
            return peak
        return peak * self.profile.mean_scale(duration_ns)


# --------------------------------------------------------------------------
# Workload factory (the CLI's --workload surface)
# --------------------------------------------------------------------------

#: Named workload families accepted by :func:`workload_source` (plus
#: ``trace:<path>``).
WORKLOAD_KINDS = ("pareto", "lognormal", "diurnal", "flash")


def workload_source(
    spec: str,
    n_ports: int,
    port_rate_bps: float,
    load: float,
    seed: int = 0,
    duration_ns: Optional[float] = None,
    packet_bytes: int = 1500,
) -> TrafficSource:
    """Build a :class:`TrafficSource` from a ``--workload`` spec string.

    Specs mirror the ``--fidelity`` precedent: a bare family name
    (``pareto``, ``lognormal``, ``diurnal``, ``flash``) builds a
    :class:`HeavyTailSource` over a uniform matrix at ``load``, and
    ``trace:<path>`` streams an external packet trace through
    :func:`~repro.traffic.replay.stream_trace`.  ``diurnal`` and
    ``flash`` shape a Pareto mice-and-elephants mix with the matching
    :class:`LoadProfile` (the ``duration_ns`` hint sets the profile's
    time base; defaults to 100 us).
    """
    from .matrices import uniform_matrix

    if spec.startswith("trace:"):
        path = spec[len("trace:"):]
        if not path:
            raise ConfigError("trace workload needs a path: trace:<path>")
        from .replay import TraceSource

        return TraceSource(path)
    horizon = duration_ns if duration_ns is not None else 100_000.0
    profiles: Dict[str, Optional[LoadProfile]] = {
        "pareto": None,
        "lognormal": None,
        "diurnal": DiurnalProfile(period_ns=horizon),
        "flash": FlashCrowdProfile(
            start_ns=horizon / 4.0, ramp_ns=horizon / 8.0
        ),
    }
    if spec not in profiles:
        raise ConfigError(
            f"unknown workload {spec!r} (expected one of "
            f"{', '.join(WORKLOAD_KINDS)}, or trace:<path>)"
        )
    family = "lognormal" if spec == "lognormal" else "pareto"
    return HeavyTailSource(
        n_ports=n_ports,
        port_rate_bps=port_rate_bps,
        matrix=uniform_matrix(n_ports, load),
        family=family,
        packet_bytes=packet_bytes,
        profile=profiles[spec],
        seed=seed,
    )
