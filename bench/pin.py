"""Regenerate ``bench/expected.json``: the output digests the benchmark pins.

Usage (from the root of a checkout)::

    python3 bench/pin.py

Runs one op of every workload at full size for each pinned seed (0 for
development, 1 and 2 held out) and records the canonical sha256 of its
payload -- one digest per packet op, one per cell for ``flow_sweep``.
Re-pin only when a change is meant to alter simulation output, and say
so in the change; a perf-only change must leave every digest as it is.
"""

from __future__ import annotations

import json
import platform
import sys

from common import EXPECTED_PATH, PINNED_SEEDS, TMP_DIR


def main() -> int:
    import numpy

    from workloads import WORKLOADS, make_workload

    digests = {}
    for name in WORKLOADS:
        digests[name] = {}
        for seed in PINNED_SEEDS:
            workload = make_workload(name, seed, 1.0, tmp_dir=TMP_DIR)
            result = workload.check(workload.execute(), 0.0)
            errors = [error for error in result.errors if error is not None]
            if errors:
                print(f"pin: {name} seed {seed}: {errors[0]}", file=sys.stderr)
                return 1
            pinned = result.digests if name == "flow_sweep" else result.digests[0]
            digests[name][str(seed)] = pinned
            print(f"{name} seed {seed}: {len(result.digests)} digest(s)")
    if TMP_DIR.is_dir() and not any(TMP_DIR.iterdir()):
        TMP_DIR.rmdir()
    doc = {
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
        "digests": digests,
    }
    EXPECTED_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
