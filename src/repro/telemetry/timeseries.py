"""Windowed time series: the time-resolved half of the telemetry layer.

The :class:`~repro.telemetry.registry.MetricsRegistry` captures
run-scoped aggregates; this module adds *when*.  A :class:`TimeSeries`
is a labeled sequence of fixed-width-ns windows; observations land in
``window = floor(t_ns / window_ns)`` (half-open ``[k*w, (k+1)*w)``, so
an event exactly on a window edge belongs to the window it *starts*).
Within a window values combine by the series' aggregation:

- ``agg="sum"`` -- throughput-style series (bytes, drops per window);
- ``agg="max"`` -- occupancy-style series (queue high-water per window).

The same guarantees the registry holds carry over:

- **Cheap when disabled.**  Series are bound to attributes at setup
  behind the existing ``if self.telemetry is not None:`` guards; a
  disabled run pays nothing new.
- **Bounded memory.**  Each series is a ring of at most ``capacity``
  windows: creating a window past capacity evicts the oldest, and a
  late observation to an already-evicted window is dropped (both are
  counted in ``evicted``).  Worst-case memory is
  ``capacity * O(1)`` per series regardless of run length.
- **Deterministic, mergeable.**  Windows are keyed by absolute index,
  so series from independent workers are element-wise combinable (sum
  or max per window) exactly like fixed-bound histogram buckets.  A
  series is the fourth instrument kind of
  :class:`~repro.telemetry.registry.MetricsRegistry`, which creates,
  merges, sorts and dumps it as it does the other three, so sequential
  and parallel runs of the same workload dump byte-identically.
- **JSON-null empty stats.**  An empty series reports ``mean``/``peak``
  as NaN in Python and ``null`` in dumps, matching the latency-summary
  semantics elsewhere in the reporting layer.

EWMA-smoothed views (:meth:`TimeSeries.ewma`) are computed at read time
over the sorted windows -- a pure function of the dump, so smoothing
never perturbs the recorded data or the byte-identity contract.  The
PR 9+ control plane consumes these smoothed signals.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError

#: Default window width.  Pipeline durations are O(10-100 us), batch
#: times O(10 ns); 1 us windows give tens of points per run at
#: negligible memory.
DEFAULT_WINDOW_NS = 1_000.0

#: Default ring capacity (windows retained per series).
DEFAULT_CAPACITY = 512

#: Default smoothing factor for EWMA views (wanctl-style responsiveness).
DEFAULT_EWMA_ALPHA = 0.3

_AGGS = ("sum", "max")

#: Eight-level block characters for terminal sparklines.
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def ewma_step(previous: Optional[float], value: float, alpha: float) -> float:
    """One EWMA fold: ``alpha*value + (1-alpha)*previous``.

    ``previous=None`` seeds the state with ``value`` (``s_0 = v_0``).
    The single shared smoothing primitive: :func:`ewma_series` folds it
    over a dump, and the control plane's incremental controllers
    (:mod:`repro.control.controller`) fold it tick by tick -- one
    implementation, so smoothed views and control decisions can never
    disagree on the algebra.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"ewma alpha must be in (0, 1], got {alpha}")
    return ewma_fold(previous, value, alpha)


def ewma_fold(previous: Optional[float], value: float, alpha: float) -> float:
    """:func:`ewma_step` without the alpha check, for callers that
    validated ``alpha`` once (:func:`ewma_series`, and the controllers,
    whose :class:`~repro.control.config.ControllerParams` reject a bad
    alpha at construction)."""
    if previous is None:
        return float(value)
    return alpha * float(value) + (1.0 - alpha) * previous


def ewma_series(
    pairs: Sequence[Tuple[int, float]], alpha: float = DEFAULT_EWMA_ALPHA
) -> List[Tuple[int, float]]:
    """EWMA-smooth ``(window, value)`` pairs in the given order.

    The reusable read-time smoother: a pure function of its input (no
    state outside the fold), so rendering a dump twice -- or rendering
    it and feeding the same windows to a controller -- produces
    identical values.  Gaps between window indices are skipped, not
    zero-filled, matching :meth:`TimeSeries.ewma` (which delegates
    here).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"ewma alpha must be in (0, 1], got {alpha}")
    smoothed: List[Tuple[int, float]] = []
    state: Optional[float] = None
    for window, value in pairs:
        state = ewma_fold(state, value, alpha)
        smoothed.append((window, state))
    return smoothed


class TimeSeries:
    """One labeled windowed series (a value object, like the instruments)."""

    __slots__ = (
        "name", "help", "labels", "window_ns", "agg", "capacity",
        "_windows", "_evicted", "_settle",
    )
    kind = "timeseries"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Tuple[Tuple[str, str], ...],
        window_ns: float = DEFAULT_WINDOW_NS,
        agg: str = "sum",
        capacity: int = DEFAULT_CAPACITY,
    ):
        if window_ns <= 0:
            raise ConfigError(f"series {name}: window_ns must be > 0, got {window_ns}")
        if agg not in _AGGS:
            raise ConfigError(f"series {name}: unknown agg {agg!r} (want {_AGGS})")
        if capacity < 1:
            raise ConfigError(f"series {name}: capacity must be >= 1, got {capacity}")
        self.name = name
        self.help = help
        self.labels = labels
        self.window_ns = float(window_ns)
        self.agg = agg
        self.capacity = int(capacity)
        self._windows: Dict[int, float] = {}
        self._evicted = 0
        #: Folds the owner's buffered observations in (``None``: none);
        #: every read below calls it first.
        self._settle: Optional[Callable[[], None]] = None

    @property
    def evicted(self) -> int:
        """Windows aged out of the ring plus late observations dropped."""
        if self._settle is not None:
            self._settle()
        return self._evicted

    def _current(self) -> Dict[int, float]:
        """The window map, with any buffered observations folded in."""
        if self._settle is not None:
            self._settle()
        return self._windows

    # -- recording -------------------------------------------------------------

    def observe(self, t_ns: float, value: float = 1.0) -> None:
        """Fold ``value`` into the window containing ``t_ns``."""
        self._fold(int(t_ns // self.window_ns), value)

    def observe_many(self, times_ns, values) -> None:
        """Fold observations in order, one run of same-window
        observations at a time.

        Equal to per-observation :meth:`observe` calls in the same order
        for integer-valued observations (bytes, occupancies), sorted in
        time or not: windows are created (and the ring evicts) in the
        same order, a window's sum of integers is exact in any order, a
        max window keeps the value (and type) the sequential fold would
        have kept, and a late observation to an aged-out window counts
        once each.
        """
        times_ns = np.asarray(times_ns, dtype=np.float64)
        if times_ns.size == 0:
            return
        values = np.asarray(values)
        windows = np.floor_divide(times_ns, self.window_ns).astype(np.int64)
        starts = np.flatnonzero(np.r_[True, windows[1:] != windows[:-1]])
        counts = np.diff(np.r_[starts, windows.size]).tolist()
        reduce = np.add if self.agg == "sum" else np.maximum
        totals = reduce.reduceat(values, starts).tolist()
        firsts = values[starts].tolist()
        summed = self.agg == "sum"
        for window, first, total, count in zip(
            windows[starts].tolist(), firsts, totals, counts
        ):
            existed = window in self._windows
            self._fold(window, total if summed or existed else first)
            current = self._windows.get(window)
            if current is None:
                # Aged out of the ring: every observation counts once.
                self._evicted += count - 1
            elif not summed and total > current:
                self._windows[window] = total

    def _fold(self, window: int, value: float) -> None:
        current = self._windows.get(window)
        if current is not None:
            if self.agg == "sum":
                self._windows[window] = current + value
            else:
                self._windows[window] = current if current >= value else value
            return
        if len(self._windows) >= self.capacity:
            oldest = min(self._windows)
            if window <= oldest:
                # The target window already aged out of the ring.
                self._evicted += 1
                return
            del self._windows[oldest]
            self._evicted += 1
        self._windows[window] = float(value)

    # -- views -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._current())

    def windows(self) -> List[Tuple[int, float]]:
        """``(window_index, value)`` pairs in ascending window order."""
        return sorted(self._current().items())

    def values(self) -> List[float]:
        return [value for _, value in self.windows()]

    @property
    def total(self) -> float:
        return sum(self._current().values())

    @property
    def peak(self) -> float:
        """Largest window value; NaN when the series is empty."""
        windows = self._current()
        return max(windows.values()) if windows else math.nan

    @property
    def mean(self) -> float:
        """Mean per *recorded* window; NaN when the series is empty."""
        windows = self._current()
        if not windows:
            return math.nan
        return self.total / len(windows)

    def ewma(self, alpha: float = DEFAULT_EWMA_ALPHA) -> List[Tuple[int, float]]:
        """Exponentially smoothed view over the recorded windows.

        ``s_0 = v_0; s_i = alpha*v_i + (1-alpha)*s_{i-1}`` over windows
        in ascending index order (gaps are skipped, not zero-filled).
        Computed at read time via the shared :func:`ewma_series` fold:
        deterministic for a given dump and independent of observation
        order within a window.
        """
        return ewma_series(self.windows(), alpha)

    # -- merge / serialise -----------------------------------------------------

    def _check_compatible(self, window_ns: float, agg: str) -> None:
        if float(window_ns) != self.window_ns:
            raise ConfigError(
                f"cannot combine series {self.name}: window widths differ "
                f"({self.window_ns} vs {window_ns})"
            )
        if agg != self.agg:
            raise ConfigError(
                f"cannot combine series {self.name}: aggregations differ "
                f"({self.agg} vs {agg})"
            )

    def _merge(self, other: "TimeSeries") -> None:
        self._check_compatible(other.window_ns, other.agg)
        windows = self._current()
        for window, value in other.windows():
            current = windows.get(window)
            if current is None:
                windows[window] = value
            elif self.agg == "sum":
                windows[window] = current + value
            else:
                windows[window] = current if current >= value else value
        self._evicted += other.evicted
        self._trim()

    def _trim(self) -> None:
        overflow = len(self._windows) - self.capacity
        if overflow > 0:
            for window in sorted(self._windows)[:overflow]:
                del self._windows[window]
            self._evicted += overflow

    def _values(self) -> Dict[str, Any]:
        mean = self.mean
        peak = self.peak
        return {
            "window_ns": self.window_ns,
            "agg": self.agg,
            "capacity": self.capacity,
            "evicted": self.evicted,
            "windows": [[window, value] for window, value in self.windows()],
            "total": self.total,
            "mean": None if math.isnan(mean) else mean,
            "peak": None if math.isnan(peak) else peak,
        }

    def _load(self, data: Mapping[str, Any]) -> None:
        self._check_compatible(float(data["window_ns"]), data["agg"])
        self._windows = {int(w): float(v) for w, v in data["windows"]}
        self._evicted = int(data.get("evicted", 0))
        self._trim()

    @staticmethod
    def _options(data: Mapping[str, Any]) -> Dict[str, Any]:
        """Constructor options from a dump entry."""
        return {
            "window_ns": float(data["window_ns"]),
            "agg": data["agg"],
            "capacity": int(data.get("capacity", DEFAULT_CAPACITY)),
        }


def sparkline(values: List[float], lo: Optional[float] = None, hi: Optional[float] = None) -> str:
    """Render ``values`` as a row of block characters.

    Scaled between ``lo`` and ``hi`` (default: the values' own min/max);
    a flat or empty series renders at the lowest block.
    """
    if not values:
        return ""
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        return SPARK_BLOCKS[0] * len(values)
    lo = min(finite) if lo is None else lo
    hi = max(finite) if hi is None else hi
    span = hi - lo
    chars = []
    for value in values:
        if math.isnan(value) or span <= 0:
            chars.append(SPARK_BLOCKS[0])
            continue
        level = int((value - lo) / span * (len(SPARK_BLOCKS) - 1) + 0.5)
        chars.append(SPARK_BLOCKS[max(0, min(level, len(SPARK_BLOCKS) - 1))])
    return "".join(chars)
