"""The central metrics registry: labeled counters, gauges, histograms
and windowed time series, in one table.

Design constraints (docs/observability.md):

- **Cheap when disabled.**  Components hold an optional telemetry handle
  and guard every call site with a single attribute check
  (``if self.telemetry is not None:``); a run without telemetry pays one
  ``None`` comparison per site and nothing else.  Instruments are
  created once at setup and bound to attributes, so an *enabled* hot
  path is one method call plus a list/bisect update -- never a dict
  lookup per event.
- **Deterministic.**  Instruments are value objects keyed by
  ``(name, sorted labels)``; :meth:`MetricsRegistry.to_dict` sorts
  series, so two registries that saw the same observations in the same
  order serialise to byte-identical dumps regardless of creation order.
- **Mergeable.**  Registries from independent switch simulations (one
  per process-pool worker) merge by summing counters and histogram
  buckets, taking the max of gauges, and combining time series window
  by window (:mod:`repro.telemetry.timeseries`).  The merge is performed in
  switch-index order by the caller, which makes parallel and sequential
  runs of the same workload produce identical dumps: float addition is
  carried out in the same order either way.
- **Flush on read.**  An owner may buffer an instrument's observations
  and fold them in bulk (:meth:`MetricsRegistry.add_settler`, as
  :class:`~repro.telemetry.SwitchTelemetry` does with what a switch
  observes per arrival, batch, frame, phase and drop).  Every read --
  a counter's value, a histogram's buckets, count or sum, and the
  registry's ``get``, iteration, ``to_dict``, ``dumps`` and
  ``merge`` -- settles the pending folds first, so a reader sees
  exactly the observations made so far, folded in the order they were
  made.

Histograms use **fixed** bucket bounds (ns scale by default) so bucket
counts from different workers are element-wise addable without any
rebinning.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from .timeseries import DEFAULT_CAPACITY, DEFAULT_WINDOW_NS, TimeSeries

#: Schema tag stamped on every registry dump.
SCHEMA = "repro-telemetry-v1"

#: Fixed nanosecond-scale histogram bounds: 50 ns doubling up to ~1.6 ms,
#: with an implicit +Inf overflow bucket.  Chosen to straddle every
#: pipeline span of the reference and scaled designs (batch times are
#: O(10 ns), HBM phases O(1 us), drain tails O(100 us)).
DEFAULT_NS_BUCKETS: Tuple[float, ...] = (
    50.0, 100.0, 200.0, 400.0, 800.0,
    1_600.0, 3_200.0, 6_400.0, 12_800.0, 25_600.0,
    51_200.0, 102_400.0, 204_800.0, 409_600.0, 819_200.0, 1_638_400.0,
)


def _label_key(labels: Mapping[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value (bytes, packets, frames...)."""

    __slots__ = ("name", "help", "labels", "_value", "_settle")
    kind = "counter"

    def __init__(self, name: str, help: str, labels: Tuple[Tuple[str, str], ...]):
        self.name = name
        self.help = help
        self.labels = labels
        self._value = 0.0
        #: Folds the owner's buffered observations in (``None``: none).
        self._settle: Optional[Callable[[], None]] = None

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self._value += amount

    @property
    def value(self) -> float:
        if self._settle is not None:
            self._settle()
        return self._value

    def _merge(self, other: "Counter") -> None:
        self._value = self.value + other.value

    def _values(self) -> Dict[str, Any]:
        return {"value": self.value}

    def _load(self, data: Mapping[str, Any]) -> None:
        self._value = float(data["value"])

    @staticmethod
    def _options(data: Mapping[str, Any]) -> Dict[str, Any]:
        """Constructor options from a dump entry (none for this kind)."""
        return {}


class Gauge:
    """A point-in-time value (peak occupancy, energy, window edges).

    Gauges from independent switches merge by **max** -- the registry's
    gauges record peaks and high-water marks, for which max is the only
    order-independent combination.
    """

    __slots__ = ("name", "help", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str, labels: Tuple[Tuple[str, str], ...]):
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def _merge(self, other: "Gauge") -> None:
        self.value = max(self.value, other.value)

    def _values(self) -> Dict[str, Any]:
        return {"value": self.value}

    def _load(self, data: Mapping[str, Any]) -> None:
        self.value = float(data["value"])

    _options = staticmethod(Counter._options)


class Histogram:
    """Cumulative-bucket histogram over fixed bounds.

    ``bounds`` are the finite upper bucket edges (a value lands in the
    first bucket whose bound is >= value); one extra overflow bucket
    catches everything above the last bound.  ``sum``/``count`` allow a
    mean; quantiles are estimated by linear interpolation within the
    containing bucket (:meth:`quantile`).
    """

    __slots__ = (
        "name", "help", "labels", "bounds", "_buckets", "_count", "_sum", "_settle",
    )
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Tuple[Tuple[str, str], ...],
        bounds: Tuple[float, ...] = DEFAULT_NS_BUCKETS,
    ):
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigError(f"histogram bounds must be sorted and non-empty: {bounds}")
        self.name = name
        self.help = help
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self._buckets = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        #: Folds the owner's buffered observations in (``None``: none).
        self._settle: Optional[Callable[[], None]] = None

    @property
    def bucket_counts(self) -> List[int]:
        if self._settle is not None:
            self._settle()
        return self._buckets

    @property
    def count(self) -> int:
        if self._settle is not None:
            self._settle()
        return self._count

    @property
    def sum(self) -> float:
        if self._settle is not None:
            self._settle()
        return self._sum

    def observe(self, value: float) -> None:
        self._buckets[bisect_left(self.bounds, value)] += 1
        self._count += 1
        self._sum += value

    def observe_n(self, value: float, n: int) -> None:
        """Record ``n`` identical observations in O(1) (bulk span tags)."""
        if n <= 0:
            return
        self._buckets[bisect_left(self.bounds, value)] += n
        self._count += n
        self._sum += value * n

    def observe_many(self, values) -> None:
        """Record an array of observations in order: the bucket counts
        of that many :meth:`observe` calls, and their sum folded
        sequentially (not pairwise), so dumps stay byte-identical."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        buckets = np.bincount(
            np.searchsorted(self.bounds, values, side="left"),
            minlength=len(self._buckets),
        )
        for index in np.flatnonzero(buckets).tolist():
            self._buckets[index] += int(buckets[index])
        self._count += values.size
        self._sum = float(np.cumsum(np.concatenate(([self._sum], values)))[-1])

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Linear interpolation inside the containing bucket; the overflow
        bucket reports its lower bound (the estimate is then a floor).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self._count
        cumulative = 0
        for i, n in enumerate(self._buckets):
            if cumulative + n >= target and n > 0:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                if i >= len(self.bounds):
                    return self.bounds[-1]
                hi = self.bounds[i]
                within = (target - cumulative) / n
                return lo + (hi - lo) * within
            cumulative += n
        return self.bounds[-1]

    def _merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ConfigError(
                f"cannot merge histogram {self.name}: bucket bounds differ"
            )
        buckets = self.bucket_counts
        for i, n in enumerate(other.bucket_counts):
            buckets[i] += n
        self._count += other.count
        self._sum += other.sum

    def _values(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
        }

    def _load(self, data: Mapping[str, Any]) -> None:
        bounds = tuple(float(b) for b in data["bounds"])
        if bounds != self.bounds:
            raise ConfigError(
                f"cannot load histogram {self.name}: bucket bounds differ"
            )
        self._buckets = [int(n) for n in data["buckets"]]
        self._count = int(data["count"])
        self._sum = float(data["sum"])

    @staticmethod
    def _options(data: Mapping[str, Any]) -> Dict[str, Any]:
        return {"bounds": tuple(float(b) for b in data["bounds"])}


_KINDS = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
    "timeseries": TimeSeries,
}


class MetricsRegistry:
    """Holds every instrument of one run (or one switch of one run).

    Instruments of all four kinds live in one table, get-or-create by
    ``(name, labels)``; re-requesting an existing series returns the
    same object, so setup code can bind instruments to attributes once
    and hot paths never touch the registry again.  Iteration, ``len``
    and :meth:`series` cover the counters, gauges and histograms;
    :meth:`iter_timeseries` covers the windowed series, which dumps
    carry under their own ``"timeseries"`` key.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Any] = {}
        self._settlers: List[Callable[[], None]] = []

    # -- buffered observations -------------------------------------------------

    def add_settler(self, settle: Callable[[], None]) -> None:
        """Register an owner's fold of buffered observations.

        ``settle()`` folds everything the owner has buffered into this
        registry's instruments; every registry read calls it first (the
        instruments it feeds call it on their own reads).
        """
        self._settlers.append(settle)

    def settle(self) -> None:
        """Fold every buffered observation in (a no-op when none)."""
        for settle in self._settlers:
            settle()

    # -- instrument creation ---------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, labels: Mapping[str, str], **kwargs):
        key = (name, _label_key(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigError(
                    f"metric {name} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help, key[1], **kwargs)
        self._metrics[key] = metric
        return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_NS_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, bounds=buckets)

    def timeseries(
        self,
        name: str,
        help: str = "",
        window_ns: float = DEFAULT_WINDOW_NS,
        agg: str = "sum",
        capacity: int = DEFAULT_CAPACITY,
        **labels: str,
    ) -> TimeSeries:
        """Get-or-create a windowed series; a repeat request must ask
        for the same window width and aggregation."""
        series = self._get_or_create(
            TimeSeries, name, help, labels,
            window_ns=window_ns, agg=agg, capacity=capacity,
        )
        series._check_compatible(window_ns, agg)
        return series

    # -- introspection ---------------------------------------------------------

    def _sorted(self, timeseries: bool):
        """Instruments of one half of the table, in (name, labels) order."""
        self.settle()
        metrics = self._metrics
        for key in sorted(metrics):
            metric = metrics[key]
            if (metric.kind == "timeseries") is timeseries:
                yield metric

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __iter__(self):
        """Counters, gauges and histograms in deterministic (name,
        labels) order."""
        return self._sorted(False)

    def iter_timeseries(self):
        """Every windowed series, in deterministic order (may be empty)."""
        return self._sorted(True)

    def series(self, name: str) -> List:
        """Every series of ``name``, in label order."""
        return [m for m in self if m.name == name]

    def get(self, name: str, **labels: str) -> Optional[Any]:
        self.settle()
        return self._metrics.get((name, _label_key(labels)))

    def get_timeseries(self, name: str, **labels: str) -> Optional[TimeSeries]:
        series = self.get(name, **labels)
        return series if isinstance(series, TimeSeries) else None

    # -- merging ---------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (sum / sum / max / per window, by kind).

        Series are visited in the deterministic sorted order, so a
        sequence of merges is reproducible whatever order the source
        registries were *built* in.
        """
        self.settle()
        other.settle()
        for key in sorted(other._metrics):
            metric = other._metrics[key]
            mine = self._metrics.get(key)
            if mine is None:
                # Adopt a copy so later merges cannot alias the source.
                self._metrics[key] = _copy_metric(metric)
            elif type(mine) is not type(metric):
                raise ConfigError(f"metric {metric.name} kind mismatch on merge")
            else:
                mine._merge(metric)

    def merge_dict(self, dump: Mapping[str, Any]) -> None:
        """Merge a serialised registry (a worker's report payload)."""
        self.merge(MetricsRegistry.from_dict(dump))

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe, deterministically ordered dump of every instrument.

        Windowed time series ride along under a ``"timeseries"`` key
        after the ``"metrics"`` (present only when at least one series
        exists, so series-free dumps carry no such key).
        """
        dump: Dict[str, Any] = {
            "schema": SCHEMA,
            "metrics": [_entry(m) for m in self],
        }
        series = [_entry(s) for s in self.iter_timeseries()]
        if series:
            dump["timeseries"] = series
        return dump

    @classmethod
    def from_dict(cls, dump: Mapping[str, Any]) -> "MetricsRegistry":
        if dump.get("schema") != SCHEMA:
            raise ConfigError(f"unknown telemetry schema {dump.get('schema')!r}")
        registry = cls()
        for noun, entries in (
            ("metric", dump["metrics"]), ("series", dump.get("timeseries", ()))
        ):
            for entry in entries:
                kind = _KINDS.get(entry.get("kind"))
                if kind is None or (kind is TimeSeries) != (noun == "series"):
                    raise ConfigError(f"unknown {noun} kind {entry.get('kind')!r}")
                metric = registry._get_or_create(
                    kind, entry["name"], entry.get("help", ""), entry.get("labels", {}),
                    **kind._options(entry),
                )
                metric._load(entry)
        return registry

    def dumps(self) -> str:
        """Canonical JSON text -- byte-identical for equal registries."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _entry(metric) -> Dict[str, Any]:
    return {
        "name": metric.name,
        "kind": metric.kind,
        "help": metric.help,
        "labels": {k: v for k, v in metric.labels},
        **metric._values(),
    }


def _copy_metric(metric):
    clone = type(metric)(
        metric.name, metric.help, metric.labels, **metric._options(metric._values())
    )
    if isinstance(metric, TimeSeries):
        # Keep each window's value as recorded (a max window may hold an
        # int), where a load would make it a float.
        clone._merge(metric)
    else:
        clone._load(metric._values())
    return clone
