"""Unified telemetry: metrics registry, pipeline spans, exporters.

The observability substrate of the repro (docs/observability.md):

- :class:`MetricsRegistry` -- one table of labeled counters, gauges,
  histograms (fixed ns-scale buckets) and time series, with
  deterministic serialisation and merging.
- :class:`TimeSeries` -- the registry's fixed-width-ns windowed series
  (ring-buffer bounded, EWMA views), dumped after the other kinds;
  :func:`sparkline` renders them in a terminal.
- :class:`SwitchTelemetry` -- pre-bound instruments for every pipeline
  stage one HBM switch drives (:data:`STAGES`).
- :func:`to_prometheus` / :func:`to_jsonl` / :func:`write_metrics` --
  export; :func:`parse_prometheus` validates exported text and
  :func:`read_jsonl` reconstructs a registry from a JSONL dump.
- :func:`tag_fault_windows` -- stamps a fault schedule onto the dump so
  degradation runs can attribute loss to the failed component.
- :func:`tag_attack_window` / :func:`record_victim_series` -- the same
  for adversarial campaigns (:mod:`repro.adversary`): attack windows and
  victim-switch load series.

Telemetry is strictly opt-in: a run without a registry pays one
attribute check per instrumented call site and allocates nothing.
"""

from .export import (
    PrometheusParseError,
    parse_prometheus,
    read_jsonl,
    to_jsonl,
    to_prometheus,
    write_metrics,
)
from .timeseries import (
    DEFAULT_EWMA_ALPHA,
    DEFAULT_WINDOW_NS,
    TimeSeries,
    ewma_series,
    ewma_step,
    sparkline,
)
from .attacktags import record_victim_series, tag_attack_window
from .faulttags import record_fault_loss, tag_fault_windows
from .registry import (
    DEFAULT_NS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SCHEMA,
)
from .spans import STAGES, SwitchTelemetry, stage_summaries

__all__ = [
    "Counter",
    "DEFAULT_EWMA_ALPHA",
    "DEFAULT_NS_BUCKETS",
    "DEFAULT_WINDOW_NS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PrometheusParseError",
    "SCHEMA",
    "STAGES",
    "SwitchTelemetry",
    "TimeSeries",
    "ewma_series",
    "ewma_step",
    "parse_prometheus",
    "read_jsonl",
    "record_fault_loss",
    "record_victim_series",
    "sparkline",
    "stage_summaries",
    "tag_attack_window",
    "tag_fault_windows",
    "to_jsonl",
    "to_prometheus",
    "write_metrics",
]
