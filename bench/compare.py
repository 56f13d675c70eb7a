"""Compare two benchmark result documents, metric by metric.

Usage::

    python3 bench/run.py --out BASE.json        # on the parent commit
    python3 bench/run.py --out NEW.json         # on the change
    python3 bench/compare.py BASE.json NEW.json

One row per workload and metric: both medians with their q1-q3 spread,
the ratio new/base, the metric's bound and a verdict:

- ``unresolved`` -- either side's spread (q3 - q1, as a share of its
  median) is wider than the bound, so the runs cannot tell;
- ``worse`` / ``better`` -- the change moved the median by more than the
  bound in the bad / good direction;
- ``within`` -- otherwise.

``error_rate`` has an absolute bound of 0: any increase is worse.  When
both documents carry traces (``run.py --trace``), the per-layer
``self_s`` and ``share`` deltas follow.  Exits 1 if any row is worse,
2 on unreadable input.
"""

from __future__ import annotations

import json
import sys
from typing import List


def verdict(base: dict, new: dict) -> str:
    """The verdict for one metric of one workload (see the module doc)."""
    b, n = base["median"], new["median"]
    if base["bound"] == 0:
        return "worse" if n > b else "better" if n < b else "within"
    for side in (base, new):
        spread = side["q3"] - side["q1"]
        if side["median"] == 0 or spread / side["median"] > base["bound"]:
            return "unresolved"
    worse_by = n / b - 1 if base["better"] == "lower" else b / n - 1
    if worse_by > base["bound"]:
        return "worse"
    if worse_by < -base["bound"]:
        return "better"
    return "within"


def compare_docs(base_doc: dict, new_doc: dict) -> List[dict]:
    """One row per (workload, metric) present in both documents."""
    rows = []
    for workload, base_run in base_doc["workloads"].items():
        new_run = new_doc["workloads"].get(workload)
        if new_run is None:
            continue
        for name, base in base_run.get("metrics", {}).items():
            new = new_run.get("metrics", {}).get(name)
            if new is None:
                continue
            rows.append({
                "workload": workload,
                "metric": name,
                "base": base,
                "new": new,
                "ratio": new["median"] / base["median"] if base["median"] else None,
                "verdict": verdict(base, new),
            })
    return rows


def layer_deltas(base_doc: dict, new_doc: dict) -> List[dict]:
    """Per-layer self time and share, before and after, where both traced."""
    rows = []
    for workload, base_run in base_doc["workloads"].items():
        new_run = new_doc["workloads"].get(workload, {})
        if "trace" not in base_run or "trace" not in new_run:
            continue
        base_m = base_run["trace"]["metrics"]
        new_m = new_run["trace"]["metrics"]
        for name in base_m:
            if not name.endswith(".self_s") or name not in new_m:
                continue
            layer = name[: -len(".self_s")]
            share = f"{layer}.share"
            before, after = base_m[name]["value"], new_m[name]["value"]
            if before == 0 and after == 0:
                continue
            rows.append({
                "workload": workload,
                "layer": layer,
                "self_s": (before, after),
                "share": (
                    base_m.get(share, {}).get("value", 0.0),
                    new_m.get(share, {}).get("value", 0.0),
                ),
            })
    return rows


def _spread(metric: dict) -> str:
    return f"{metric['median']:.5g} [{metric['q1']:.4g}-{metric['q3']:.4g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        docs = [json.loads(open(path, encoding="utf-8").read()) for path in argv]
    except (OSError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    rows = compare_docs(*docs)
    print(f"{'workload':<21} {'metric':<12} {'base median [q1-q3]':>32}"
          f" {'new median [q1-q3]':>32} {'ratio':>7} {'bound':>6}  verdict")
    for row in rows:
        ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
        print(f"{row['workload']:<21} {row['metric']:<12} {_spread(row['base']):>32}"
              f" {_spread(row['new']):>32} {ratio:>7} {row['base']['bound']:>6.2f}"
              f"  {row['verdict']}")
    deltas = layer_deltas(*docs)
    if deltas:
        print(f"\n{'workload':<21} {'layer':<19} {'self_s base':>11} {'new':>9}"
              f" {'delta':>9} {'share base':>10} {'new':>7} {'delta':>7}")
        for row in deltas:
            (sb, sn), (hb, hn) = row["self_s"], row["share"]
            print(f"{row['workload']:<21} {row['layer']:<19} {sb:>11.4f} {sn:>9.4f}"
                  f" {sn - sb:>+9.4f} {hb:>10.3f} {hn:>7.3f} {hn - hb:>+7.3f}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
