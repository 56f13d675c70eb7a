"""One benchmark interpreter: set up a workload, then run its ops.

``run.py`` spawns this script; it is not meant to be run by hand.  The
protocol is JSON lines on stdout: ``{"event": "ready"}`` once set-up
(imports, input construction, one warm-up op at 1/10 size) is done,
then -- unless ``--mode setup`` -- one ``{"event": "result", ...}`` line
with the raw samples.  Diagnostics go to stderr.

Modes:

- ``setup``: stop after set-up (``run.py`` times three of these);
- ``timed``: closed loop, one op after another for ``--seconds`` (the
  next op starts only if one like the last still fits); every op is
  checked against the pinned digests (or the first op's) and for byte
  conservation;
- ``trace``: alternate untraced and traced ops the same way, and report
  per-layer metrics of the traced ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
import traceback

from common import PINNED_SEEDS, TMP_DIR, load_expected


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def pinned_digests(workload: str, seed: int):
    """The digests ``expected.json`` pins for this run, or None."""
    if seed not in PINNED_SEEDS:
        return None
    pinned = load_expected().get("digests", {}).get(workload, {}).get(str(seed))
    if pinned is None:
        return None
    return pinned if isinstance(pinned, list) else [pinned]


class Checker:
    """Counts attempted and failed units against a reference digest list."""

    def __init__(self, reference) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def fail_all(self, units: int, reason: str) -> None:
        self.attempted += units
        self.failed += units
        print(f"bench: op failed: {reason}", file=sys.stderr)

    def record(self, result, label: str) -> None:
        if self.reference is None:
            self.reference = list(result.digests)
        self.attempted += len(result.digests)
        for index, (digest, error) in enumerate(zip(result.digests, result.errors)):
            if error is None and (
                index >= len(self.reference) or digest != self.reference[index]
            ):
                error = f"unit {index}: digest {digest} differs from the reference"
            if error is not None:
                self.failed += 1
                print(f"bench: {label}: {error}", file=sys.stderr)


def run_op(workload, checker: Checker, label: str):
    """Run and check one op; returns (seconds, OpResult) or None on a raise."""
    gc.collect()
    start = time.perf_counter()
    try:
        raw = workload.execute()
    except Exception:
        checker.fail_all(workload.units, traceback.format_exc())
        return None
    seconds = time.perf_counter() - start
    result = workload.check(raw, seconds)
    del raw
    checker.record(result, label)
    return seconds, result


def fits(deadline: float, last_op_s: float) -> bool:
    """Whether another op like the last one ends before ``deadline``."""
    return time.perf_counter() + last_op_s <= deadline


def timed(workload, checker: Checker, seconds: float) -> dict:
    start = time.perf_counter()
    deadline = start + seconds
    op_seconds, op_items, item_seconds = [], [], []
    while True:
        op_start = time.perf_counter()
        done = run_op(workload, checker, f"op {len(op_seconds)}")
        if done is not None:
            op_seconds.append(done[0])
            op_items.append(done[1].items)
            item_seconds.append(done[1].item_seconds)
        if not fits(deadline, time.perf_counter() - op_start):
            break
    return {
        "op_seconds": op_seconds,
        "op_items": op_items,
        "item_seconds": item_seconds,
        "units_per_op": workload.units,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(workload, checker: Checker, seconds: float, spans_path) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    untraced_walls, traced_walls, per_op = [], [], []
    worst_balance = 0.0
    while True:
        pair_start = time.perf_counter()
        done = run_op(workload, checker, f"untraced op {len(untraced_walls)}")
        if done is not None:
            untraced_walls.append(done[0])
        gc.collect()
        tracer.install()
        try:
            with tracer.op() as span:
                raw = workload.execute()
        except Exception:
            checker.fail_all(workload.units, traceback.format_exc())
            raw = None
        finally:
            tracer.uninstall()
        if raw is not None:
            wall_ns = span["wall_ns"]
            result = workload.check(raw, wall_ns / 1e9)
            del raw
            checker.record(result, f"traced op {len(traced_walls)}")
            metrics = tracer.layer_metrics(wall_ns, span["wrapped_ns"])
            metrics["runtime.cache_bytes"] = result.cache_bytes
            accounted = sum(
                value for name, value in metrics.items() if name.endswith(".self_s")
            )
            worst_balance = max(worst_balance, abs(accounted * 1e9 - wall_ns) / wall_ns)
            traced_walls.append(wall_ns / 1e9)
            per_op.append(metrics)
        if not fits(deadline, time.perf_counter() - pair_start):
            break
    if spans_path:
        tracer.write_spans(spans_path)
    layers = {}
    if per_op:
        layers = {
            name: statistics.median(op[name] for op in per_op) for name in per_op[0]
        }
    if untraced_walls and traced_walls:
        layers["trace_overhead"] = statistics.median(traced_walls) / statistics.median(
            untraced_walls
        )
    return {
        "layers": layers,
        "targets": tracer.targets,
        "accounting_error": worst_balance,
        "untraced_s": untraced_walls,
        "traced_s": traced_walls,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import numpy

    from workloads import make_workload

    workload = make_workload(args.workload, args.seed, 1.0, tmp_dir=TMP_DIR)
    warm = make_workload(args.workload, args.seed, 0.1, tmp_dir=TMP_DIR)
    warm_check = Checker(None)
    if run_op(warm, warm_check, "warm-up op") is None or warm_check.failed:
        return 1
    emit({"event": "ready"})
    if args.mode == "setup":
        return 0
    pinned = pinned_digests(args.workload, args.seed)
    checker = Checker(pinned)
    if args.mode == "timed":
        record = timed(workload, checker, args.seconds)
    else:
        record = traced(workload, checker, args.seconds, args.spans)
    record.update(
        event="result",
        attempted=checker.attempted,
        failed=checker.failed,
        pinned=pinned is not None,
        python=platform.python_version(),
        numpy=numpy.__version__,
    )
    emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
