"""The scenario runtime: one scheduler for every workload family.

:class:`Runtime` executes :class:`~repro.runtime.scenario.Scenario`
grids through the shared worker-pool scheduler
(:func:`repro.sim.parallel.run_parallel_tasks`) with three properties
the per-feature campaign stacks used to reimplement separately:

- **Caching.**  With a ``cache_dir``, every cell's payload is stored
  content-addressed under ``(scenario.digest(), scenario.seed,
  code_version)``; a later run of the same cell returns the stored
  payload without executing anything.
- **Resumability.**  The cache doubles as the checkpoint: cells are
  persisted as they finish (in input order), so a sweep killed midway
  re-executes only its missing cells on the next run -- and, because
  aggregation consumes only payload values, the final document is
  byte-identical to a single-shot run.
- **Sharding.**  ``map(..., shard=(k, n))`` executes only cells with
  ``index % n == k``.  N shard runs against a shared cache followed by
  one unsharded merge run reproduce the single-shot output exactly --
  the deterministic merge is "read every cell back in index order".

Execution is invariant to all of it: sequential, pooled, sharded,
resumed and cached runs of the same grid serialise byte-identically.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..sim.parallel import run_parallel_tasks
from .cache import ResultCache
from .scenario import Scenario, execute_scenario


def default_code_version() -> str:
    """The code-version component of every cache key.

    The package version by default; ``REPRO_CODE_VERSION`` overrides it
    (CI jobs stamp a commit hash so caches never leak across revisions).
    """
    from .. import __version__  # deferred: repro/__init__ imports this module

    return os.environ.get("REPRO_CODE_VERSION", "").strip() or __version__


def parse_shard(text: Optional[str]) -> Optional[Tuple[int, int]]:
    """``"1/3"`` -> ``(1, 3)``; ``None``/empty -> ``None`` (no shard)."""
    if not text:
        return None
    try:
        k_text, n_text = text.split("/", 1)
        k, n = int(k_text), int(n_text)
    except ValueError:
        raise ConfigError(f"bad shard {text!r} (expected K/N, e.g. 0/3)")
    if n <= 0 or not 0 <= k < n:
        raise ConfigError(f"shard {text!r} out of range (need 0 <= K < N)")
    return k, n


class Runtime:
    """Executes scenarios and scenario grids; owns the cache policy.

    ``cache_dir=None`` disables caching entirely (pure execution that
    never touches the filesystem).  ``n_workers`` is the pool size for grid fan-out:
    ``None`` uses every core, ``1`` forces inline sequential execution.
    """

    def __init__(
        self,
        cache_dir=None,
        n_workers: Optional[int] = None,
        code_version: Optional[str] = None,
    ) -> None:
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.n_workers = n_workers
        self.code_version = code_version or default_code_version()

    # -- single cells --------------------------------------------------------

    def run(self, scenario: Scenario) -> dict:
        """Execute (or recall) one scenario; returns its payload."""
        if self.cache is not None:
            digest = scenario.digest()
            hit = self.cache.load(digest, scenario.seed, self.code_version)
            if hit is not None:
                return hit
            payload = execute_scenario(scenario)
            self.cache.store(digest, scenario.seed, self.code_version, payload)
            return payload
        return execute_scenario(scenario)

    # -- grids ---------------------------------------------------------------

    def map(
        self,
        scenarios: Sequence[Scenario],
        shard: Optional[Tuple[int, int]] = None,
        on_payload: Optional[Callable[[int, dict], None]] = None,
        events=None,
    ) -> List[Optional[dict]]:
        """Execute a grid; returns payloads aligned with ``scenarios``.

        Cached cells are recalled without executing; missing cells run
        through the shared pool and are persisted as they finish.  With
        ``shard=(k, n)`` only cells ``i % n == k`` may *execute*; cells
        owned by other shards are still recalled when cached and are
        ``None`` otherwise.  ``on_payload(index, payload)`` fires in
        index order for every resolved cell.  ``events`` (an
        :class:`~repro.runtime.events.EventStream`) receives the run's
        lifecycle -- cache hits, dispatches, per-cell finishes and the
        final totals -- as they happen.
        """
        scenarios = list(scenarios)
        if shard is not None:
            k, n = shard
            if n <= 0 or not 0 <= k < n:
                raise ConfigError(f"shard {shard!r} out of range")
        digests: List[Optional[str]] = [None] * len(scenarios)

        def digest_of(i: int) -> str:
            if digests[i] is None:
                digests[i] = scenarios[i].digest()
            return digests[i]

        if events is not None:
            events.emit(
                "sweep_start",
                n_cells=len(scenarios),
                shard=list(shard) if shard is not None else None,
            )
        results: List[Optional[dict]] = [None] * len(scenarios)
        missing: List[int] = []
        n_cached = 0
        for i, scenario in enumerate(scenarios):
            cached = None
            if self.cache is not None:
                cached = self.cache.load(
                    digest_of(i), scenario.seed, self.code_version
                )
            if cached is not None:
                results[i] = cached
                n_cached += 1
                if events is not None:
                    events.emit("cell_cached", index=i, digest=digest_of(i))
            elif shard is None or i % shard[1] == shard[0]:
                missing.append(i)
        if missing:
            if events is not None:
                from ..sim.parallel import resolve_worker_count

                events.emit(
                    "worker_pool",
                    n_workers=resolve_worker_count(
                        self.n_workers, len(missing)
                    ),
                )
                for i in missing:
                    events.emit("cell_start", index=i, digest=digest_of(i))

            def checkpoint(position: int, payload: dict) -> None:
                index = missing[position]
                if self.cache is not None:
                    scenario = scenarios[index]
                    self.cache.store(
                        digest_of(index),
                        scenario.seed,
                        self.code_version,
                        payload,
                    )
                results[index] = payload
                if events is not None:
                    events.emit(
                        "cell_finish",
                        index=index,
                        digest=digest_of(index),
                        status="ok",
                    )

            run_parallel_tasks(
                execute_scenario,
                [scenarios[i] for i in missing],
                n_workers=self.n_workers,
                on_result=checkpoint,
            )
        if events is not None:
            events.emit(
                "sweep_finish",
                n_executed=len(missing),
                n_cached=n_cached,
                n_unresolved=sum(1 for p in results if p is None),
            )
        if on_payload is not None:
            for i, payload in enumerate(results):
                if payload is not None:
                    on_payload(i, payload)
        return results

    # -- campaigns -----------------------------------------------------------

    def run_campaign(self, campaign, shard: Optional[Tuple[int, int]] = None):
        """Run a :class:`~repro.runtime.campaign.Campaign` end to end.

        Returns ``campaign.aggregate(payloads)`` -- or ``None`` for a
        sharded run that left cells unresolved (the merge run, with the
        same cache and no shard, performs the deterministic aggregate).
        """
        payloads = self.map(campaign.scenarios(), shard=shard)
        if any(p is None for p in payloads):
            return None
        return campaign.aggregate(payloads)


def run(
    scenario: Scenario,
    cache_dir=None,
    n_workers: Optional[int] = None,
) -> dict:
    """One-call façade: execute (or recall) a single scenario.

    ``repro.run(scenario)`` is the quickstart entrypoint; construct a
    :class:`Runtime` directly for grids, campaigns and shared caches.
    """
    return Runtime(cache_dir=cache_dir, n_workers=n_workers).run(scenario)
