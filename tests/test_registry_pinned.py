"""Pinned registry dumps: one registry that holds every instrument kind.

Two shards each record counters, a gauge, histograms and windowed
series -- a sum series and a max series that both evict windows from
their rings, and an empty series whose mean and peak dump as null.
The shards are folded into a fresh registry with
:meth:`~repro.telemetry.MetricsRegistry.merge` (the first merge adopts
copies, the second merges into them), and four texts of the result are
pinned: ``dumps()``, ``to_jsonl()``, ``to_prometheus()`` and the dump
after a ``read_jsonl`` round trip.

A digest here changes only with a declared change to the dump format.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.telemetry import MetricsRegistry, read_jsonl, to_jsonl, to_prometheus


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _shard(index: int) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_pin_packets_total", "packets", switch=str(index)).inc(
        10 + index
    )
    shared = registry.counter("repro_pin_bytes_total", "bytes", point="ingress")
    shared.inc(1500.0 * (index + 1))
    shared.inc(0.25)
    registry.gauge("repro_pin_peak_bytes", "high-water").set(-3.0 - 2.0 * index)
    latency = registry.histogram("repro_pin_latency_ns", "latency", switch="0")
    for value in (40.0, 75.0 + index, 3_000.0, 2e6):
        latency.observe(value)
    latency.observe_n(120.0, 3 + index)
    registry.histogram(
        "repro_pin_size_bytes", "sizes", buckets=(64.0, 512.0, 1500.0)
    ).observe_many(np.array([64.0, 100.0 + index, 1500.0, 9000.0]))
    throughput = registry.timeseries(
        "repro_pin_window_bytes", "bytes per window",
        window_ns=100.0, capacity=4, point="egress",
    )
    for step in range(6):
        throughput.observe((step + 2 * index) * 100.0 + 7.0, 64.0 * (step + 1))
    occupancy = registry.timeseries(
        "repro_pin_window_occupancy", "high-water per window",
        window_ns=50.0, agg="max", capacity=3, switch="0",
    )
    occupancy.observe_many(
        np.array([0.0, 10.0, 60.0, 120.0, 170.0, 230.0, 240.0]) + 40.0 * index,
        np.array([5, 9, 3, 12 + index, 7, 4, 6]),
    )
    occupancy.observe(15.0, 2.5)
    registry.timeseries("repro_pin_window_dropped", "dropped", switch="0")
    return registry


@pytest.fixture(scope="module")
def merged() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.merge(_shard(0))
    registry.merge(_shard(1))
    return registry


PINNED = {
    "dumps": "0d5a6aaffca897e25ecff50347446b6e96531a56bc3d96c03bc8d933e2bd25c6",
    "jsonl": "25e4c709fe2c24e3831f53fdc3e53839ff1f0212bf0b6e13f81d3a145500b9c2",
    "prometheus": "cdd9f6c70fe608a05dc7f5708ba10d79aeba1dc8a6fe2ad947b0fcb07fedf05e",
    "round_trip": "847bc1d6ae9127e8152481171deacc95071652a9159559e0650e5a2e45172ddc",
}


def test_every_kind_is_present(merged):
    dump = merged.to_dict()
    assert list(dump) == ["schema", "metrics", "timeseries"]
    assert {entry["kind"] for entry in dump["metrics"]} == {
        "counter", "gauge", "histogram",
    }
    series = {entry["name"]: entry for entry in dump["timeseries"]}
    assert series["repro_pin_window_dropped"]["mean"] is None
    assert series["repro_pin_window_dropped"]["peak"] is None
    assert series["repro_pin_window_bytes"]["evicted"] > 0
    assert series["repro_pin_window_occupancy"]["evicted"] > 0


def test_dumps_pinned(merged):
    assert _sha(merged.dumps()) == PINNED["dumps"]


def test_jsonl_pinned(merged):
    assert _sha(to_jsonl(merged)) == PINNED["jsonl"]


def test_prometheus_pinned(merged):
    assert _sha(to_prometheus(merged)) == PINNED["prometheus"]


def test_jsonl_round_trip_pinned(merged):
    assert _sha(read_jsonl(to_jsonl(merged)).dumps()) == PINNED["round_trip"]
