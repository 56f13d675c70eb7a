"""Shared plumbing for the benchmark scripts: paths, the spec, digests, statistics.

The benchmark drives the ``repro`` package of the checkout it lives in
(``<root>/src``) and nothing else: :func:`require_repro` refuses to run
against an installed copy or a checkout without sources.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = BENCH_DIR / "expected.json"
#: Scratch space for per-pass result caches (removed after each pass).
TMP_DIR = ROOT / ".bench_tmp"
#: Span files written by traced runs.
OUT_DIR = ROOT / ".bench_out"

#: Seeds whose output digests ``expected.json`` pins: 0 for development,
#: 1 and 2 held out.
PINNED_SEEDS = (0, 1, 2)


def require_repro():
    """Import ``repro`` from this checkout's ``src``; exit non-zero if absent."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: {package} not found; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported repro from {repro.__file__}, not {package}")
    return repro


def load_spec() -> dict:
    """The benchmark description at the root of the checkout."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def load_expected() -> dict:
    """Pinned digests: ``{"digests": {workload: {seed: digest-or-list}}}``."""
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def canonical_digest(payload) -> str:
    """sha256 of the canonical JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile, interpolating linearly between order statistics
    (the inclusive method of :func:`statistics.quantiles`)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def tail_quantile(distinct_items: int) -> float:
    """The highest quantile with at least ten distinct items beyond it.

    Samples that repeat the same item (a cell run once per pass, an op
    repeated with the same input) are not independent, so the count is
    of distinct items; with fewer than 20 the median is the tail.
    """
    if distinct_items < 20:
        return 0.5
    return 1.0 - 10.0 / distinct_items


def summary(value: float, samples: Sequence[float]) -> Dict[str, object]:
    """A metric's value with the spread of the samples it came from."""
    return {
        "value": value,
        "median": quantile(samples, 0.5),
        "q1": quantile(samples, 0.25),
        "q3": quantile(samples, 0.75),
        "n": len(samples),
        "samples": list(samples),
    }
