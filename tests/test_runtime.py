"""The scenario runtime: digests, caching, resume, sharding, shims.

The tentpole contract under test: one orchestration layer executes
every workload family, the content-addressed cache is keyed by
``(scenario_digest, seed, code_version)``, a killed sweep resumes from
its checkpointed cells, shards over a shared cache merge into the
byte-identical single-shot document, and the legacy campaign
entrypoints are warning shims that return identical results.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import dataclasses

import pytest

from repro.config import scaled_router
from repro.errors import ConfigError
from repro.runtime import (
    AttackCampaign,
    Campaign,
    FaultCampaign,
    ResultCache,
    Runtime,
    Scenario,
    parse_shard,
    payload_checksum,
    run,
    switch_scenario,
)
import repro.runtime.runtime as runtime_module


def tiny_switch_scenario(load=0.5, seed=0, **kwargs):
    return switch_scenario(
        scaled_router().switch,
        load=load,
        duration_ns=2_000.0,
        seed=seed,
        **kwargs,
    )


class TestScenario:
    def test_kind_validated(self):
        with pytest.raises(ConfigError):
            Scenario(kind="nope", config=scaled_router())

    def test_config_type_validated_per_kind(self):
        with pytest.raises(ConfigError):
            Scenario(kind="switch", config=scaled_router())
        with pytest.raises(ConfigError):
            Scenario(kind="router", config=scaled_router().switch)

    def test_attack_needs_splitter_and_strategy(self):
        with pytest.raises(ConfigError):
            Scenario(kind="attack", config=scaled_router())

    def test_digest_is_stable(self):
        a = tiny_switch_scenario()
        b = tiny_switch_scenario()
        assert a.digest() == b.digest()

    def test_digest_changes_with_load(self):
        assert tiny_switch_scenario(load=0.5).digest() != tiny_switch_scenario(load=0.6).digest()

    def test_digest_changes_with_config(self):
        base = scaled_router().switch
        grown = dataclasses.replace(base, speedup=1.5)
        assert (
            switch_scenario(base, duration_ns=2_000.0).digest()
            != switch_scenario(grown, duration_ns=2_000.0).digest()
        )

    def test_digest_ignores_seed(self):
        # The seed is a separate cache-key component, not digest content.
        assert tiny_switch_scenario(seed=1).digest() == tiny_switch_scenario(seed=2).digest()

    def test_digest_ignores_exec_hints(self):
        config = scaled_router()
        a = Scenario(kind="router", config=config, mode="sequential", workers=None)
        b = Scenario(kind="router", config=config, mode="parallel", workers=4)
        assert a.digest() == b.digest()


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"report": {"x": 1.5}, "telemetry": None}
        cache.store("d" * 64, 3, "1.0.0", payload)
        assert cache.load("d" * 64, 3, "1.0.0") == payload
        assert cache.stats()["entries"] == 1

    def test_miss_on_unknown_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("e" * 64, 0, "1.0.0") is None
        assert cache.misses == 1

    def test_seed_is_part_of_the_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("d" * 64, 3, "v", {"a": 1})
        assert cache.load("d" * 64, 4, "v") is None

    def test_code_version_is_part_of_the_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("d" * 64, 3, "v1", {"a": 1})
        assert cache.load("d" * 64, 3, "v2") is None

    def test_truncated_entry_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.store("d" * 64, 0, "v", {"a": 1})
        path.write_text(path.read_text()[: 10])
        assert cache.load("d" * 64, 0, "v") is None
        assert cache.evictions == 1
        assert not path.exists()

    def test_bitflipped_payload_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.store("d" * 64, 0, "v", {"a": 1})
        entry = json.loads(path.read_text())
        entry["payload"]["a"] = 2  # checksum now stale
        path.write_text(json.dumps(entry))
        assert cache.load("d" * 64, 0, "v") is None
        assert cache.evictions == 1

    def test_wrong_schema_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.store("d" * 64, 0, "v", {"a": 1})
        entry = json.loads(path.read_text())
        entry["schema"] = "someone-else"
        path.write_text(json.dumps(entry))
        assert cache.load("d" * 64, 0, "v") is None

    def test_misfiled_entry_rejected(self, tmp_path):
        # An entry whose embedded key disagrees with its filename's key
        # is corruption, not a hit.
        cache = ResultCache(tmp_path)
        src = cache.store("a" * 64, 0, "v", {"a": 1})
        dst = cache.entry_path("b" * 64, 0, "v")
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_text(src.read_text())
        assert cache.load("b" * 64, 0, "v") is None

    def test_concurrent_writers_never_interleave(self, tmp_path):
        cache = ResultCache(tmp_path)
        payloads = [{"writer": i, "blob": "x" * 4096} for i in range(16)]

        def write(p):
            ResultCache(tmp_path).store("c" * 64, 7, "v", p)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(write, payloads))
        # Whatever won, the surviving entry is one complete payload --
        # never a splice of two writers.
        winner = cache.load("c" * 64, 7, "v")
        assert winner in payloads
        assert cache.evictions == 0

    def test_checksum_canonical(self):
        assert payload_checksum({"b": 1, "a": 2}) == payload_checksum({"a": 2, "b": 1})


class TestRuntimeCaching:
    def test_cacheless_runtime_executes(self):
        payload = Runtime().run(tiny_switch_scenario())
        assert set(payload) == {"report", "telemetry"}

    def test_cold_then_warm(self, tmp_path):
        scenario = tiny_switch_scenario()
        cold = Runtime(cache_dir=tmp_path)
        first = cold.run(scenario)
        assert cold.cache.stats()["writes"] == 1
        warm = Runtime(cache_dir=tmp_path)
        second = warm.run(scenario)
        assert warm.cache.stats() == {
            "hits": 1, "misses": 0, "evictions": 0, "writes": 0, "entries": 1,
        }
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_hit_returns_without_executing(self, tmp_path, monkeypatch):
        scenario = tiny_switch_scenario()
        Runtime(cache_dir=tmp_path).run(scenario)

        def boom(_scenario):
            raise AssertionError("cache hit must not execute")

        monkeypatch.setattr(runtime_module, "execute_scenario", boom)
        payload = Runtime(cache_dir=tmp_path).run(scenario)
        assert payload["report"]

    def test_map_hit_returns_without_executing(self, tmp_path, monkeypatch):
        scenarios = [tiny_switch_scenario(load=l) for l in (0.4, 0.6)]
        Runtime(cache_dir=tmp_path, n_workers=1).map(scenarios)

        def boom(_scenario):
            raise AssertionError("cache hit must not execute")

        monkeypatch.setattr(runtime_module, "execute_scenario", boom)
        payloads = Runtime(cache_dir=tmp_path, n_workers=1).map(scenarios)
        assert all(p is not None for p in payloads)

    def test_code_version_misses_across_revisions(self, tmp_path):
        scenario = tiny_switch_scenario()
        Runtime(cache_dir=tmp_path, code_version="rev-a").run(scenario)
        other = Runtime(cache_dir=tmp_path, code_version="rev-b")
        other.run(scenario)
        assert other.cache.misses == 1
        assert other.cache.writes == 1

    def test_corrupt_cell_recomputed(self, tmp_path):
        scenario = tiny_switch_scenario()
        rt = Runtime(cache_dir=tmp_path)
        first = rt.run(scenario)
        path = rt.cache.entry_path(
            scenario.digest(), scenario.seed, rt.code_version
        )
        path.write_text("{not json")
        again = Runtime(cache_dir=tmp_path)
        second = again.run(scenario)
        assert again.cache.evictions == 1
        assert again.cache.writes == 1
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_run_facade(self, tmp_path):
        scenario = tiny_switch_scenario()
        a = run(scenario, cache_dir=tmp_path)
        b = run(scenario, cache_dir=tmp_path)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestResumeAndShard:
    LOADS = (0.3, 0.5, 0.7)

    def scenarios(self):
        return [tiny_switch_scenario(load=l) for l in self.LOADS]

    def test_resume_executes_only_missing_cells(self, tmp_path, monkeypatch):
        scenarios = self.scenarios()
        # "Kill" a sweep after one cell: checkpoint only cell 0.
        rt = Runtime(cache_dir=tmp_path, n_workers=1)
        rt.cache.store(
            scenarios[0].digest(),
            scenarios[0].seed,
            rt.code_version,
            runtime_module.execute_scenario(scenarios[0]),
        )
        executed = []
        real = runtime_module.execute_scenario

        def counting(scenario):
            executed.append(scenario.load)
            return real(scenario)

        monkeypatch.setattr(runtime_module, "execute_scenario", counting)
        payloads = Runtime(cache_dir=tmp_path, n_workers=1).map(scenarios)
        assert executed == [0.5, 0.7]
        assert all(p is not None for p in payloads)

    def test_resumed_equals_single_shot(self, tmp_path):
        scenarios = self.scenarios()
        single = Runtime(n_workers=1).map(self.scenarios())
        partial = Runtime(cache_dir=tmp_path, n_workers=1)
        partial.map(scenarios[:1])  # the "killed" run got one cell in
        resumed = Runtime(cache_dir=tmp_path, n_workers=1).map(scenarios)
        assert json.dumps(resumed, sort_keys=True) == json.dumps(single, sort_keys=True)

    def test_shard_executes_only_owned_cells(self, tmp_path, monkeypatch):
        scenarios = self.scenarios()
        executed = []
        real = runtime_module.execute_scenario

        def counting(scenario):
            executed.append(scenario.load)
            return real(scenario)

        monkeypatch.setattr(runtime_module, "execute_scenario", counting)
        payloads = Runtime(cache_dir=tmp_path, n_workers=1).map(
            scenarios, shard=(1, 3)
        )
        assert executed == [0.5]
        assert payloads[0] is None and payloads[2] is None
        assert payloads[1] is not None

    def test_three_shards_then_merge_byte_identical(self, tmp_path):
        single = Runtime(n_workers=1).map(self.scenarios())
        for k in range(3):
            Runtime(cache_dir=tmp_path, n_workers=1).map(
                self.scenarios(), shard=(k, 3)
            )
        merge_rt = Runtime(cache_dir=tmp_path, n_workers=1)
        merged = merge_rt.map(self.scenarios())
        assert merge_rt.cache.hits == len(self.LOADS)  # nothing re-ran
        assert json.dumps(merged, sort_keys=True) == json.dumps(single, sort_keys=True)

    def test_parse_shard(self):
        assert parse_shard(None) is None
        assert parse_shard("") is None
        assert parse_shard("1/3") == (1, 3)
        for bad in ("3/3", "-1/3", "x/3", "1", "1/0"):
            with pytest.raises(ConfigError):
                parse_shard(bad)

    def test_map_rejects_bad_shard(self):
        with pytest.raises(ConfigError):
            Runtime(n_workers=1).map([tiny_switch_scenario()], shard=(2, 2))


class TestCampaignProtocol:
    def test_concrete_campaigns_satisfy_protocol(self):
        from repro.adversary.campaign import AttackCampaignParams
        from repro.adversary.strategies import make_strategy
        from repro.faults.campaign import CampaignParams

        fault = FaultCampaign(config=scaled_router(), params=CampaignParams(n_scenarios=1))
        attack = AttackCampaign(
            config=scaled_router(),
            params=AttackCampaignParams(
                strategy=make_strategy("known-assignment"), splitter="contiguous"
            ),
        )
        assert isinstance(fault, Campaign)
        assert isinstance(attack, Campaign)

    def test_sharded_campaign_returns_none_until_merge(self, tmp_path):
        from repro.faults.campaign import CampaignParams

        campaign = FaultCampaign(
            config=scaled_router(),
            params=CampaignParams(n_scenarios=2, duration_ns=4_000.0, seed=1),
        )
        rt = Runtime(cache_dir=tmp_path, n_workers=1)
        # The first shard leaves the other shard's cells unresolved.
        assert rt.run_campaign(campaign, shard=(0, 2)) is None
        # The last shard sees every other cell as a cache hit, so the
        # grid is fully resolved and it already returns the aggregate.
        last = Runtime(cache_dir=tmp_path, n_workers=1).run_campaign(
            campaign, shard=(1, 2)
        )
        assert last is not None
        merged = Runtime(cache_dir=tmp_path, n_workers=1).run_campaign(campaign)
        direct = Runtime(n_workers=1).run_campaign(campaign)
        assert json.dumps(merged.to_dict(), sort_keys=True) == json.dumps(
            direct.to_dict(), sort_keys=True
        )


class TestDeprecationShims:
    def test_compare_splitters_does_not_warn(self, recwarn):
        import warnings

        from repro.adversary.campaign import compare_splitters
        from repro.adversary.strategies import make_strategy

        config = scaled_router(fibers_per_ribbon=8, n_switches=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = compare_splitters(
                config,
                make_strategy("known-assignment"),
                n_trials=1,
                duration_ns=2_000.0,
            )
        assert "exposure_ratio" in result


class TestFacade:
    def test_top_level_exports(self):
        import repro

        assert repro.Scenario is Scenario
        assert repro.Runtime is Runtime
        assert repro.run is run
