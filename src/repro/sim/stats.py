"""Measurement instruments for simulations.

All recorders are passive: simulation components call ``record`` /
``add`` / ``observe`` and the benches read summary properties afterwards.
Latency percentiles use numpy's linear interpolation; throughput is
bytes-over-wallclock with an explicit observation window so partially
warm runs do not skew rates.

Statistics of an empty recorder are ``NaN``.  They stay ``NaN`` in
Python; the reports map them to ``None`` (JSON ``null``) when they
serialise (:func:`nan_to_none`, called from ``SwitchReport.to_dict``
and ``RouterReport.to_dict``), because ``json.dumps`` would otherwise
emit a bare ``NaN`` literal that no JSON parser accepts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..units import bytes_per_ns_to_rate


class ThroughputMeter:
    """Counts bytes delivered and converts to a rate over a window."""

    def __init__(self) -> None:
        self._bytes = 0
        self._count = 0
        self._first_time: Optional[float] = None
        self._last_time: Optional[float] = None

    def record(self, size_bytes: int, time_ns: float) -> None:
        """Record ``size_bytes`` delivered at ``time_ns``."""
        self.record_many(size_bytes, 1, time_ns, time_ns)

    def record_many(
        self, size_bytes: int, count: int, first_ns: float, last_ns: float
    ) -> None:
        """Record ``count`` deliveries of ``size_bytes`` in all, the
        first at ``first_ns`` and the last at ``last_ns``."""
        self._bytes += size_bytes
        self._count += count
        if self._first_time is None:
            self._first_time = first_ns
        self._last_time = last_ns

    @property
    def total_bytes(self) -> int:
        return self._bytes

    @property
    def count(self) -> int:
        """Number of delivery events (packets, batches, frames...)."""
        return self._count

    def rate_bps(self, window_ns: Optional[float] = None) -> float:
        """Average delivery rate in bits/s.

        ``window_ns`` overrides the denominator; by default the span from
        first to last recorded event is used.  Degenerate windows --
        nothing recorded yet, a zero/negative span (including the
        single-sample case, whose default span is zero), or a
        non-positive/NaN explicit window -- all report 0.0 rather than a
        division error or an infinite rate.
        """
        if self._count == 0:
            return 0.0
        if window_ns is None:
            window_ns = self._last_time - self._first_time
        if not window_ns > 0:  # also catches NaN, which fails every compare
            return 0.0
        return bytes_per_ns_to_rate(self._bytes / window_ns)


class LatencyRecorder:
    """Collects per-item latencies and reports distribution summaries.

    An *empty* recorder reports ``NaN`` statistics (``null`` in a
    serialised report, see :func:`nan_to_none`), never a
    silent ``0.0``: "no samples" and "zero latency" are different
    claims, and a 0.0 percentile from a switch that delivered nothing
    used to read as an impossibly fast pipeline.

    By default every sample is kept (exact percentiles; the statistics
    are bit-for-bit what they always were).  ``capacity`` bounds the
    retained samples with seeded reservoir sampling for internet-scale
    streaming runs: 10^7 delivered packets would otherwise pin
    hundreds of MB of floats.  The count, mean, min and max stay exact
    (running accumulators); percentiles become reservoir estimates.
    """

    def __init__(self, capacity: Optional[int] = None, seed: int = 0) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        # Unbounded: samples as float64 arrays in record order (8 bytes
        # a sample), plus the scalar records since the last array.
        # Bounded: the reservoir list.
        self._chunks: List[np.ndarray] = []
        self._loose: List[float] = []
        self._samples: List[float] = []
        self._capacity = capacity
        self._count = 0
        # Running sum of the samples in record order; arrays recorded
        # since it was last read are folded into it on demand.
        self._folded = 0.0
        self._unfolded: List[np.ndarray] = []
        self._max = float("-inf")
        self._min = float("inf")
        self._random = random.Random(seed) if capacity is not None else None

    def record(self, latency_ns: float) -> None:
        """Record one latency sample (ns).  Negative latency is a bug."""
        if latency_ns < 0:
            raise ValueError(f"negative latency {latency_ns:.3f} ns")
        self._count += 1
        self._folded = self._sum + latency_ns
        if latency_ns > self._max:
            self._max = latency_ns
        if latency_ns < self._min:
            self._min = latency_ns
        if self._capacity is None:
            self._loose.append(latency_ns)
        elif len(self._samples) < self._capacity:
            self._samples.append(latency_ns)
        else:
            # Algorithm R: each of the _count samples seen so far has a
            # capacity/_count chance of being in the reservoir.
            slot = self._random.randrange(self._count)
            if slot < self._capacity:
                self._samples[slot] = latency_ns

    def record_many(self, latencies_ns: np.ndarray) -> None:
        """Record an array of samples in order, exactly as that many
        :meth:`record` calls would (the running sum folds sequentially,
        not pairwise)."""
        values = np.asarray(latencies_ns, dtype=np.float64)
        if values.size == 0:
            return
        low = float(values.min())
        if low < 0:
            raise ValueError(f"negative latency {low:.3f} ns")
        if self._capacity is not None:
            for value in values.tolist():
                self.record(value)
            return
        self._count += values.size
        self._unfolded.append(values)
        high = float(values.max())
        if high > self._max:
            self._max = high
        if low < self._min:
            self._min = low
        self._settle()
        self._chunks.append(values)

    @property
    def _sum(self) -> float:
        """The sequential (not pairwise) sum of every sample."""
        for values in self._unfolded:
            self._folded = float(np.cumsum(np.concatenate(([self._folded], values)))[-1])
        self._unfolded = []
        return self._folded

    def _settle(self) -> None:
        """Move scalar records into the chunk list (keeps record order)."""
        if self._loose:
            self._chunks.append(np.asarray(self._loose, dtype=np.float64))
            self._loose = []

    def _array(self) -> np.ndarray:
        """Every retained sample, in record order."""
        if self._capacity is not None:
            return np.asarray(self._samples, dtype=np.float64)
        self._settle()
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks)]
        return self._chunks[0] if self._chunks else np.empty(0)

    def absorb(self, other: "LatencyRecorder") -> None:
        """Merge ``other``'s samples into this recorder.

        The roll-up path for per-port recorders: an unbounded recorder
        absorbing unbounded recorders extends its samples exactly as
        per-sample :meth:`record` calls would, so the numpy-based
        statistics below are byte-identical to the historical roll-up
        loop.  Exact accumulators (count/sum/min/max) merge exactly in
        every combination.
        """
        self._count += other._count
        self._folded = self._sum + other._sum
        if other._max > self._max:
            self._max = other._max
        if other._min < self._min:
            self._min = other._min
        if self._capacity is None:
            self._settle()
            self._chunks.append(other._array())
        else:
            for sample in other._array().tolist():
                if len(self._samples) < self._capacity:
                    self._samples.append(sample)
                else:
                    slot = self._random.randrange(self._count)
                    if slot < self._capacity:
                        self._samples[slot] = sample

    def __len__(self) -> int:
        """Exact number of recorded samples (not the retained subset)."""
        return self._count

    @property
    def samples(self) -> List[float]:
        """The retained samples (a copy).

        Equal to every recorded sample unless ``capacity`` trimmed the
        reservoir.
        """
        return self._array().tolist()

    @property
    def mean(self) -> float:
        if self._count == 0:
            return float("nan")
        if self._capacity is None:
            # Preserve numpy's pairwise summation bit-for-bit for the
            # exact path; the running sum is for the bounded path only.
            return float(np.mean(self._array()))
        return self._sum / self._count

    @property
    def maximum(self) -> float:
        return self._max if self._count else float("nan")

    @property
    def minimum(self) -> float:
        return self._min if self._count else float("nan")

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100); ``NaN`` with no samples.

        Exact by default; a reservoir estimate when ``capacity`` is set.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        samples = self._array()
        return float(np.percentile(samples, q)) if samples.size else float("nan")

    def summary(self) -> Dict[str, float]:
        """Mean / p50 / p99 / max in one dict, for table rows."""
        return {
            "count": float(self._count),
            "mean_ns": self.mean,
            "p50_ns": self.percentile(50),
            "p99_ns": self.percentile(99),
            "max_ns": self.maximum,
        }


def nan_to_none(stats: Dict[str, float]) -> Dict[str, Optional[float]]:
    """A copy of a statistics dict with each ``NaN`` value as ``None``.

    The one place a report's NaN becomes JSON ``null``: the latency
    summaries of :meth:`LatencyRecorder.summary` and the per-stage
    breakdowns are the only report fields that can hold NaN.
    """
    # NaN is the only value that differs from itself.
    return {key: None if value != value else value for key, value in stats.items()}


class OccupancyTracker:
    """Tracks a queue's occupancy over time (time-weighted average + peak)."""

    def __init__(self) -> None:
        self._current = 0.0
        self._peak = 0.0
        self._weighted_sum = 0.0
        self._last_time = 0.0
        #: Time of the first observation; ``None`` before any.  Explicit
        #: state (rather than an implicit started flag) so the
        #: pre-observation value of :meth:`time_average` is a documented
        #: contract: exactly 0.0, deterministically, whatever ``until_ns``.
        self._first_time: Optional[float] = None

    def observe(self, occupancy: float, time_ns: float) -> None:
        """Record that occupancy became ``occupancy`` at ``time_ns``."""
        if self._first_time is not None and time_ns >= self._last_time:
            self._weighted_sum += self._current * (time_ns - self._last_time)
        elif self._first_time is None:
            self._first_time = time_ns
        self._current = occupancy
        if occupancy > self._peak:
            self._peak = occupancy
        self._last_time = time_ns

    def observe_fall(self, before: float, after: float, time_ns: float) -> None:
        """Record that occupancy reached ``before`` and fell to ``after``
        at ``time_ns``: the two observations at one instant (``before``
        holds for no time, so it only reaches the peak)."""
        if self._first_time is not None and time_ns >= self._last_time:
            self._weighted_sum += self._current * (time_ns - self._last_time)
        elif self._first_time is None:
            self._first_time = time_ns
        if before > self._peak:
            self._peak = before
        if after > self._peak:
            self._peak = after
        self._current = after
        self._last_time = time_ns

    @property
    def peak(self) -> float:
        return self._peak

    @property
    def current(self) -> float:
        return self._current

    def time_average(self, until_ns: Optional[float] = None) -> float:
        """Time-weighted average occupancy up to ``until_ns`` (or last obs).

        Deterministically 0.0 before the first observation -- an empty
        tracker has observed no occupancy, whatever window it is asked
        about.
        """
        if self._first_time is None:
            return 0.0
        end = self._last_time if until_ns is None else until_ns
        if end <= 0:
            return 0.0
        tail = self._current * max(0.0, end - self._last_time)
        return (self._weighted_sum + tail) / end


@dataclass
class DropCounter:
    """Counts dropped items and bytes, split by reason."""

    dropped_items: int = 0
    dropped_bytes: int = 0
    by_reason: Dict[str, int] = field(default_factory=dict)

    def record(self, size_bytes: int, reason: str = "overflow") -> None:
        self.dropped_items += 1
        self.dropped_bytes += size_bytes
        self.by_reason[reason] = self.by_reason.get(reason, 0) + 1

    @property
    def any(self) -> bool:
        return self.dropped_items > 0

    def loss_fraction(self, offered_bytes: int) -> float:
        """Fraction of offered bytes that were dropped."""
        if offered_bytes <= 0:
            return 0.0
        return self.dropped_bytes / offered_bytes


def batch_means_ci(
    samples: List[float], n_batches: int = 10, z: float = 1.96
) -> "Tuple[float, float]":
    """Batch-means confidence interval for autocorrelated sim output.

    Simulation latency samples are serially correlated, so a naive
    standard error understates uncertainty.  The batch-means method
    splits the series into ``n_batches`` consecutive batches, treats
    the batch averages as (approximately) independent, and builds the
    CI from their spread.  Returns ``(mean, halfwidth)``.
    """
    if n_batches < 2:
        raise ValueError(f"need at least 2 batches, got {n_batches}")
    if len(samples) < n_batches:
        raise ValueError(
            f"{len(samples)} samples cannot form {n_batches} batches"
        )
    data = np.asarray(samples, dtype=np.float64)
    size = len(data) // n_batches
    trimmed = data[: size * n_batches].reshape(n_batches, size)
    means = trimmed.mean(axis=1)
    grand = float(means.mean())
    stderr = float(means.std(ddof=1) / np.sqrt(n_batches))
    return grand, z * stderr
