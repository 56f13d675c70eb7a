"""Smoke tests of the benchmark itself: ``python -m pytest bench -q``.

The workloads run at 1/50 of their benchmark size, so the whole file
takes a few seconds.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

from common import BENCH_DIR, SPEC_PATH, load_spec
from compare import compare_docs
from run import end_to_end
from tracer import LAYER_NAMES, LAYERS, Tracer
from workloads import WORKLOADS, make_workload, router_conservation

SMOKE_SCALE = 1 / 50


def run_checked(workload):
    result = workload.check(workload.execute(), 1.0)
    assert [e for e in result.errors if e is not None] == []
    return result


def test_spec_names_what_the_code_measures():
    spec = load_spec()
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    fake = {
        "op_seconds": [1.0, 2.0],
        "op_items": [10, 10],
        "item_seconds": [[0.1], [0.2]],
        "units_per_op": 1,
        "rss_mb": 50.0,
    }
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end([1.0], fake))
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]
    tracer = Tracer()
    layer_metrics = set(tracer.layer_metrics(1, 0)) | {
        "runtime.cache_bytes",
        "trace_overhead",
    }
    assert {m["name"] for m in spec["per_layer"]} == layer_metrics


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_clean_and_repeats(name, tmp_path):
    workload = make_workload(name, seed=0, scale=SMOKE_SCALE, tmp_dir=tmp_path)
    first = run_checked(workload)
    second = run_checked(workload)
    assert first.items > 0
    assert first.digests == second.digests
    assert list(tmp_path.iterdir()) == []


def test_conservation_check_catches_a_lost_byte():
    switch = {
        "offered_bytes": 100, "delivered_bytes": 60,
        "dropped_bytes": 30, "residual_bytes": 10,
    }
    report = {**switch, "lost_bytes": 30, "switches": [switch]}
    assert router_conservation(report) is None
    assert router_conservation({**report, "residual_bytes": 9}) is not None
    broken = {**switch, "residual_bytes": 9}
    assert router_conservation({**report, "switches": [broken]}) is not None


def test_every_trace_target_resolves_and_uninstalls():
    import repro.runtime.runtime
    from repro.runtime import execute_scenario
    from repro.sim.engine import Engine

    original_run = Engine.run
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.targets and set(tracer.targets.values()) == {"ok"}
        assert len(tracer.targets) == sum(len(t) for _, t in LAYERS)
        assert Engine.run is not original_run
        assert repro.runtime.runtime.execute_scenario is not execute_scenario
    finally:
        tracer.uninstall()
    assert Engine.run is original_run
    assert repro.runtime.runtime.execute_scenario is execute_scenario


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_op_accounts_for_its_wall_and_keeps_the_digest(name, tmp_path):
    workload = make_workload(name, seed=1, scale=SMOKE_SCALE, tmp_dir=tmp_path)
    tracer = Tracer()
    untraced = run_checked(workload)
    tracer.install()
    try:
        with tracer.op() as span:
            raw = workload.execute()
    finally:
        tracer.uninstall()
    traced = workload.check(raw, span["wall_ns"] / 1e9)
    assert traced.digests == untraced.digests
    metrics = tracer.layer_metrics(span["wall_ns"], span["wrapped_ns"])
    accounted = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert accounted == pytest.approx(span["wall_ns"] / 1e9, rel=0.01)
    assert sum(metrics[f"{layer}.calls"] for layer in LAYER_NAMES) > 0
    assert [s for s in tracer.spans if s[2] == "op"]


def _doc(samples, better="lower"):
    ordered = sorted(samples)
    metric = {
        "median": ordered[len(ordered) // 2],
        "q1": ordered[len(ordered) // 4],
        "q3": ordered[(3 * len(ordered)) // 4],
        "unit": "s",
        "better": better,
        "bound": 0.1,
    }
    return {"workloads": {"w": {"metrics": {"run": metric}}}}


def test_compare_flags_a_slowdown_and_passes_jitter():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01]
    slower = [1.2 * v for v in base]
    assert compare_docs(_doc(base), _doc(slower))[0]["verdict"] == "worse"
    for jitter in (1.05, 0.95):
        jittered = [jitter * v for v in base]
        assert compare_docs(_doc(base), _doc(jittered))[0]["verdict"] == "within"
    faster = [v / 1.2 for v in base]
    assert compare_docs(_doc(base), _doc(faster))[0]["verdict"] == "better"
    noisy = [0.5, 1.0, 1.5, 2.0, 0.7, 1.2, 1.8]
    assert compare_docs(_doc(base), _doc(noisy))[0]["verdict"] == "unresolved"


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "router_64b",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
