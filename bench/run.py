"""Run the repro benchmark: end-to-end metrics, or a per-layer trace.

Usage (from the root of a checkout)::

    python3 bench/run.py [--seed N] [--seconds S] [--out FILE]   # all workloads
    python3 bench/run.py --trace [--out FILE]                     # plus traces
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs in fresh interpreters (``bench/worker.py``) with one
process, one thread and BLAS pinned to one thread.  Set-up time is the
median of three interpreters timed from spawn to ready; the third goes
on to the timed ops, a closed loop with one client that runs for
``--seconds``.  ``--trace`` adds one more interpreter per workload that
alternates untraced and traced ops and reports the per-layer metrics.

With ``--workload`` the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics of ``BENCHMARK.json``, or its per-layer metrics with
``--trace 1``.  The exit code is non-zero when any op failed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    SRC,
    TMP_DIR,
    load_spec,
    quantile,
    summary,
    tail_quantile,
)

WORKER = BENCH_DIR / "worker.py"
#: Set-up is timed in this many fresh interpreters; the last one runs the ops.
SETUP_INTERPRETERS = 3
#: A worker still running this long after ``--seconds`` is killed (a
#: healthy one needs a few seconds more).
CHILD_SLACK_S = 150.0
#: Failed units / attempted units; not a BENCHMARK.json metric (it is
#: always 0 on a correct program), but compared with an absolute bound 0.
ERROR_RATE = {"unit": "fraction", "better": "lower", "bound": 0.0}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed op)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def spawn(workload: str, seed: int, mode: str, seconds: float, spans=None):
    """Start a worker; returns (ready_seconds, result-or-None)."""
    command = [
        sys.executable, str(WORKER), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env()
    )
    watchdog = threading.Timer(seconds + CHILD_SLACK_S, proc.kill)
    watchdog.start()
    try:
        ready_s = None
        result = None
        for line in proc.stdout:
            record = json.loads(line)
            if record.get("event") == "ready" and ready_s is None:
                ready_s = time.perf_counter() - start
            elif record.get("event") == "result":
                result = record
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None or (mode != "setup" and result is None):
        raise BenchError(f"{workload}: {mode} interpreter exited with code {code}")
    return ready_s, result


def end_to_end(setup_s, result) -> dict:
    """Every end-to-end metric of one workload run, with its spread.

    Ops are the replicates: each op yields one value of each timing
    metric (over its own items), and the metric is the median over ops,
    so a burst of host noise that slows one op moves it little.
    """
    op_s = result["op_seconds"]
    if not op_s:
        raise BenchError("no op completed")
    rates = [items / seconds for items, seconds in zip(result["op_items"], op_s)]
    per_op_us = [[s * 1e6 for s in op] for op in result["item_seconds"]]
    p50 = [statistics.median(op) for op in per_op_us]
    tail_q = tail_quantile(result["units_per_op"])
    tail = [quantile(op, tail_q) for op in per_op_us]
    rss = result["rss_mb"]
    return {
        "setup_s": summary(statistics.median(setup_s), setup_s),
        "items_per_s": summary(statistics.median(rates), rates),
        "item_us_p50": summary(statistics.median(p50), p50),
        "item_us_tail": {**summary(statistics.median(tail), tail), "q": tail_q},
        "peak_rss_mb": summary(rss, [rss]),
    }


def measure(workload: str, seed: int, seconds: float, spec: dict) -> dict:
    setup_s = []
    result = None
    for index in range(SETUP_INTERPRETERS):
        last = index == SETUP_INTERPRETERS - 1
        ready_s, result = spawn(workload, seed, "timed" if last else "setup", seconds)
        setup_s.append(ready_s)
    computed = end_to_end(setup_s, result)
    metrics = {}
    for entry in spec["end_to_end"]:
        metrics[entry["name"]] = {
            **computed[entry["name"]],
            "unit": entry["unit"],
            "better": entry["better"],
            "bound": entry["bound"],
        }
    attempted, failed = result["attempted"], result["failed"]
    metrics["error_rate"] = {
        **summary(failed / attempted, [failed / attempted]),
        "n": attempted,
        **ERROR_RATE,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "pinned": result["pinned"],
        "versions": {"python": result["python"], "numpy": result["numpy"]},
        "metrics": metrics,
    }


def trace(workload: str, seed: int, seconds: float, spec: dict) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    _, result = spawn(workload, seed, "trace", seconds, spans=spans)
    if result["accounting_error"] > 0.01:
        raise BenchError(
            f"{workload}: layer self times miss the traced wall by "
            f"{result['accounting_error']:.1%}"
        )
    layers = result["layers"]
    absent = sorted(k for k, v in result["targets"].items() if v != "ok")
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "absent_targets": absent,
        "accounting_error": result["accounting_error"],
        "spans": str(spans.relative_to(ROOT)),
        "metrics": {
            entry["name"]: {"value": layers[entry["name"]], "unit": entry["unit"]}
            for entry in spec["per_layer"]
        },
    }


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def print_run(workload: str, run: dict) -> None:
    print(f"{workload}: {run['failed']} of {run['attempted']} checked units failed")
    for name, metric in run["metrics"].items():
        spread = ""
        if metric["n"] > 1 and metric["q3"] != metric["q1"]:
            spread = f"  q1 {metric['q1']:.6g}  q3 {metric['q3']:.6g}"
        print(
            f"  {name:<14} {metric['value']:>14.6g} {metric['unit']:<9}"
            f" n={metric['n']}{spread}"
        )


def print_trace(workload: str, traced: dict) -> None:
    metrics = traced["metrics"]
    print(f"{workload} trace: overhead {metrics['trace_overhead']['value']:.3f}x,"
          f" accounting error {traced['accounting_error']:.2e},"
          f" absent targets {traced['absent_targets'] or 'none'}")
    for name, metric in metrics.items():
        if name.endswith(".share") and metric["value"] >= 0.001:
            layer = name[: -len(".share")]
            print(
                f"  {layer:<18} share {metric['value']:6.3f}"
                f"  self {metrics[layer + '.self_s']['value']:.4f} s"
                f"  calls {metrics[layer + '.calls']['value']}"
            )


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    workloads = [entry["name"] for entry in spec["workloads"]]
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="write the result document here (JSON)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: {SRC / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload is not None:
            return run_one(args, spec)
        return run_all(args, spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        if TMP_DIR.is_dir() and not any(TMP_DIR.iterdir()):
            TMP_DIR.rmdir()


def run_one(args, spec) -> int:
    """One workload, ending in the one-line JSON result."""
    if args.trace:
        run = trace(args.workload, args.seed, args.seconds, spec)
        print_trace(args.workload, run)
        metrics = run["metrics"]
    else:
        run = measure(args.workload, args.seed, args.seconds, spec)
        print_run(args.workload, run)
        metrics = {
            entry["name"]: {
                "value": run["metrics"][entry["name"]]["value"],
                "unit": entry["unit"],
            }
            for entry in spec["end_to_end"]
        }
    if args.out:
        write_doc(args, {args.workload: {"trace": run} if args.trace else run})
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0 if run["failed"] == 0 else 1


def run_all(args, spec) -> int:
    """Every workload in turn; ``--trace`` adds a traced run of each."""
    runs = {}
    failed = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        run = measure(workload, args.seed, args.seconds, spec)
        print_run(workload, run)
        failed += run["failed"]
        if args.trace:
            run["trace"] = trace(workload, args.seed, args.seconds, spec)
            print_trace(workload, run["trace"])
            failed += run["trace"]["failed"]
        runs[workload] = run
    if args.out:
        write_doc(args, runs)
    return 0 if failed == 0 else 1


def write_doc(args, runs: dict) -> None:
    doc = {
        "schema": "repro-bench-v1",
        "seed": args.seed,
        "seconds": args.seconds,
        "env": {
            "git_rev": git_rev(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
        },
        "workloads": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
