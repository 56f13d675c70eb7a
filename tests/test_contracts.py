"""End-to-end contracts of CLI outputs, checked in-process, and of the
traffic substrate: the eager trace shim and streamed memory."""

import io
import json
import warnings

import pytest

from repro.cli import main
from repro.config import scaled_router
from repro.traffic import (
    FixedSize,
    TrafficGenerator,
    load_trace,
    stream_trace,
    trace_to_string,
    uniform_matrix,
)
from repro.traffic.replay import _reset_load_trace_warning
from tests.rss_probe import measure_rss


@pytest.fixture(scope="module")
def attack_runs(tmp_path_factory):
    """The known-assignment attack campaign run sequentially and on two
    workers: ``{workers: (json_path, prom_path)}``."""
    root = tmp_path_factory.mktemp("attack")
    runs = {}
    for workers in (1, 2):
        out = root / f"attack_{workers}.json"
        prom = root / f"attack_{workers}.prom"
        code = main([
            "attack", "--strategy", "known-assignment",
            "--trials", "2", "--seed", "7", "--workers", str(workers),
            "--json", "--out", str(out), "--metrics-out", str(prom),
        ])
        assert code == 0
        runs[workers] = (out, prom)
    return runs


def test_contiguous_exposure_exceeds_pseudo_random(attack_runs):
    out, _ = attack_runs[1]
    doc = json.loads(out.read_text())
    contiguous = doc["contiguous"]["summary"]["victim_gain"]["mean"]
    random = doc["pseudo-random"]["summary"]["victim_gain"]["mean"]
    assert contiguous > random, (contiguous, random)
    assert doc["exposure_ratio"] > 1.5, doc["exposure_ratio"]


def test_attack_campaign_is_byte_identical_on_two_workers(attack_runs):
    (seq_json, seq_prom), (par_json, par_prom) = attack_runs[1], attack_runs[2]
    assert seq_json.read_bytes() == par_json.read_bytes()
    assert seq_prom.read_bytes() == par_prom.read_bytes()
    assert seq_prom.stat().st_size > 0


def _metrics_jsonl(capsys, *extra):
    code = main([
        "metrics", "--switches", "2", "--duration-us", "10", "--format", "jsonl",
        *extra,
    ])
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_parallel_metrics_dump_matches_sequential(capsys):
    seq = _metrics_jsonl(capsys)
    par = _metrics_jsonl(capsys, "--mode", "parallel", "--workers", "2")
    assert seq == par


def test_windowed_series_present_and_identical_across_modes(capsys):
    def series(text):
        entries = [
            json.loads(line) for line in text.splitlines()
            if '"timeseries"' in line
        ]
        return [e for e in entries if e.get("kind") == "timeseries"]

    seq = series(_metrics_jsonl(capsys))
    par = series(_metrics_jsonl(capsys, "--mode", "parallel", "--workers", "2"))
    assert seq, "no windowed series in the sequential dump"
    names = {entry["name"] for entry in seq}
    assert "repro_window_bytes" in names, sorted(names)
    assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)
    assert any(entry["windows"] for entry in seq)


def test_streaming_equals_eager_on_a_faulted_router_cell():
    import dataclasses

    from repro.config import scaled_router
    from repro.core import PFIOptions, SplitParallelSwitch
    from repro.faults import FaultSchedule, FiberCut, SwitchFailure
    from repro.telemetry import MetricsRegistry
    from repro.traffic import workload_source

    config = scaled_router()
    duration_ns = 20_000.0
    schedule = FaultSchedule([
        SwitchFailure(switch=1, start_ns=5_000.0, end_ns=12_000.0),
        FiberCut(ribbon=0, fiber=1),
    ])

    def source():
        return workload_source(
            "pareto",
            n_ports=config.n_ribbons,
            port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
            load=0.7,
            seed=3,
            duration_ns=duration_ns,
        )

    reg_stream, reg_eager = MetricsRegistry(), MetricsRegistry()
    stream = SplitParallelSwitch(config, options=PFIOptions()).run_stream(
        source().blocks(duration_ns), duration_ns,
        fault_schedule=schedule, telemetry=reg_stream,
    )
    eager = SplitParallelSwitch(config, options=PFIOptions()).run(
        source().materialize(duration_ns), duration_ns,
        mode="sequential", fault_schedule=schedule, telemetry=reg_eager,
    )
    a = json.dumps(dataclasses.asdict(stream), sort_keys=True, default=str)
    b = json.dumps(dataclasses.asdict(eager), sort_keys=True, default=str)
    assert a == b, "streamed report diverged from eager"
    assert reg_stream.dumps() == reg_eager.dumps()


def test_every_stage_is_present_in_the_prometheus_export(tmp_path, capsys):
    from repro.telemetry import STAGES, parse_prometheus

    out = tmp_path / "metrics.prom"
    code = main(["metrics", "--switches", "2", "--duration-us", "10", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    samples = parse_prometheus(out.read_text())
    stages = {
        labels["stage"]
        for labels, _ in samples.get("repro_stage_latency_ns_count", [])
    }
    missing = set(STAGES) - stages
    assert not missing, f"stages absent from export: {sorted(missing)}"


def test_sweep_event_stream_validates(tmp_path, capsys):
    from repro.runtime import validate_events

    out = tmp_path / "events.jsonl"
    code = main([
        "sweep", "--loads", "0.4,0.8", "--duration-us", "8", "--fidelity", "flow",
        "--events-out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    events = validate_events(out.read_text())
    kinds = [event["kind"] for event in events]
    assert kinds[0] == "sweep_start" and kinds[-1] == "sweep_finish"
    assert kinds.count("cell_start") == kinds.count("cell_finish") == 2
    assert events[-1]["n_unresolved"] == 0, events[-1]


def test_control_action_stream_validates(tmp_path, capsys):
    from repro.control import validate_control_actions

    out = tmp_path / "control_actions.jsonl"
    code = main(["control", "--duration-us", "20", "--actions-out", str(out)])
    capsys.readouterr()
    assert code == 0
    records = validate_control_actions(out.read_text())
    kinds = [r["kind"] for r in records]
    assert kinds[0] == "control_start" and kinds[-1] == "control_finish"
    assert "state_change" in kinds, kinds


def _sweep(capsys, *extra):
    code = main(["sweep", "--duration-us", "10", *extra])
    out = capsys.readouterr().out
    assert code == 0
    return out


@pytest.mark.parametrize("case", ["packet", "flow", "pareto"])
def test_cached_sweep_warm_rerun_is_byte_identical(tmp_path, capsys, case):
    """A warm rerun over the sweep's cache prints the cold run's bytes.
    ``pareto`` streams the heavy-tailed workload through the cache."""
    from repro.config import scaled_router
    from repro.runtime import Runtime, switch_scenario

    if case == "pareto":
        loads, seed, fields = (0.4, 0.7), 0, {"workload": "pareto"}
    else:
        loads, seed, fields = (0.3, 0.5, 0.7), 3, {"fidelity": case}
    cache = str(tmp_path / "cache")
    argv = ["--loads", ",".join(map(str, loads)), "--seed", str(seed),
            "--cache-dir", cache]
    for name, value in fields.items():
        argv += [f"--{name}", value]
    assert _sweep(capsys, *argv) == _sweep(capsys, *argv)
    # The CLI's cells are the API's cells: a grid built directly from
    # scenarios resolves entirely from the sweep's cache.
    grid = [
        switch_scenario(
            scaled_router().switch, load=load, duration_ns=10_000.0, seed=seed,
            **fields,
        )
        for load in loads
    ]
    runtime = Runtime(cache_dir=cache)
    runtime.map(grid)
    stats = runtime.cache.stats()
    assert stats["hits"] == len(loads) and stats["misses"] == 0, stats


def test_sharded_sweep_merges_to_the_single_shot_document(tmp_path, capsys):
    argv = ["--loads", "0.3,0.5,0.7,0.9", "--seed", "7"]
    single, merged = tmp_path / "single.json", tmp_path / "merged.json"
    cache = str(tmp_path / "shards")
    _sweep(capsys, *argv, "--out", str(single))
    for k in range(3):
        _sweep(capsys, *argv, "--cache-dir", cache, "--shard", f"{k}/3")
    _sweep(capsys, *argv, "--cache-dir", cache, "--out", str(merged))
    assert single.read_bytes() == merged.read_bytes()


def test_fabric_router_down_json_carries_digest_and_capacity(capsys):
    """Rotation N=4 with one router down keeps (N-2)/N of its capacity."""
    code = main([
        "fabric", "--topology", "rotation", "--routers", "4",
        "--fault", "router:1", "--fidelity", "flow", "--json",
    ])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert len(doc["scenario_digest"]) == 64
    assert abs(doc["delivered_fraction"] - 0.5) <= 0.02, doc["delivered_fraction"]


def test_load_trace_shim_warns_and_matches_streaming():
    """The deprecated eager ``load_trace()`` warns and reads the same
    packets as ``stream_trace()``."""
    config = scaled_router().switch
    gen = TrafficGenerator(
        n_ports=config.n_ports,
        port_rate_bps=config.port_rate_bps,
        matrix=uniform_matrix(config.n_ports, 0.5),
        size_dist=FixedSize(1500),
        seed=11,
    )
    text = trace_to_string(gen.materialize(10_000.0))
    # The shim warns once per process; another test may have used it.
    _reset_load_trace_warning()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eager = load_trace(io.StringIO(text))
    assert any(
        issubclass(w.category, DeprecationWarning) for w in caught
    ), "load_trace() shim did not warn"
    streamed = [
        p
        for block in stream_trace(io.StringIO(text))
        for p in block.to_packets()
    ]
    assert [
        (p.pid, p.size_bytes, p.arrival_ns) for p in eager
    ] == [(p.pid, p.size_bytes, p.arrival_ns) for p in streamed]


@pytest.mark.slow
def test_ten_million_packet_stream_keeps_memory_flat():
    """A 10^7-packet streamed run peaks at most 2x the resident set of
    a 10^6-packet one, each in its own interpreter (minutes; selected
    with ``-m slow``)."""
    small = measure_rss(1_000_000)
    big = measure_rss(10_000_000)
    assert big["offered_packets"] >= 10_000_000, big["offered_packets"]
    ratio = big["peak_rss_bytes"] / small["peak_rss_bytes"]
    assert ratio <= 2.0, (
        f"streamed memory not flat: 10^7-packet run peaked at "
        f"{big['peak_rss_bytes']} bytes, {ratio:.2f}x the 10^6 run"
    )
