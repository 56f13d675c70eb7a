"""The fabric subsystem: topologies, routing, hop-round engine, runtime.

Contracts under test: every topology generator is validated,
deterministic (including across processes under a fixed seed) and
degree-regular where it claims to be; routing policies assign each
flow a weighted path set summing to 1; the hop-round engine matches
the single-router engines at both fidelities and hits the analytic
failure fractions; fabric cells are digest-participating scenarios
that cache, shard-merge byte-identically and export ``router=``
labelled telemetry.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.config import scaled_router
from repro.errors import ConfigError
from repro.fabric import (
    ClosTopology,
    DragonflyTopology,
    ExpanderTopology,
    FabricReport,
    RotationTopology,
    compute_paths,
    shortest_paths,
    simulate_fabric,
    topology_from_dict,
    topology_to_dict,
)
from repro.faults import (
    FaultSchedule,
    LinkCut,
    RouterDown,
    parse_fault_event,
)
from repro.runtime import Runtime, fabric_scenario


def fabric_config(h: int = 4):
    return scaled_router(fibers_per_ribbon=4 * h, n_switches=h)


ALL_TOPOLOGIES = [
    ClosTopology(k=2, stages=2),
    ClosTopology(k=2, stages=3),
    ExpanderTopology(n_routers=8, degree=4, seed=1),
    ExpanderTopology(n_routers=9, degree=4, seed=2),
    RotationTopology(n_routers=6),
    DragonflyTopology(n_groups=3, routers_per_group=2),
]


class TestTopologies:
    @pytest.mark.parametrize(
        "topology", ALL_TOPOLOGIES, ids=lambda t: type(t).__name__
    )
    def test_connected_and_symmetric(self, topology):
        assert topology.is_connected()
        adjacency = topology.adjacency()
        for u, peers in adjacency.items():
            assert len(set(peers)) == len(peers)
            for v in peers:
                assert u != v
                assert u in adjacency[v]

    def test_expander_degree_regular(self):
        topology = ExpanderTopology(n_routers=10, degree=4, seed=3)
        for r in range(10):
            assert topology.out_degree(r) == 4

    def test_rotation_is_complete(self):
        topology = RotationTopology(n_routers=6)
        for r in range(6):
            assert topology.out_degree(r) == 5

    def test_rotation_matchings_decompose_complete_graph(self):
        """The N-1 round-robin matchings form a perfect matching
        decomposition: every round pairs all N routers, every unordered
        pair appears exactly once across the cycle."""
        n = 6
        topology = RotationTopology(n_routers=n)
        seen = set()
        for matching in topology.matchings():
            touched = [r for pair in matching for r in pair]
            assert sorted(touched) == list(range(n))
            for pair in matching:
                assert pair not in seen
                seen.add(pair)
        assert len(seen) == n * (n - 1) // 2

    def test_clos_two_stage_shape(self):
        topology = ClosTopology(k=3, stages=2)
        assert topology.n_routers == 6
        assert topology.endpoints() == (0, 1, 2)
        for leaf in range(3):
            assert topology.out_degree(leaf) == 3
            for spine in range(3, 6):
                assert topology.has_link(leaf, spine)
            for other in range(3):
                assert not topology.has_link(leaf, other)

    def test_clos_three_stage_paths_cross_cores(self):
        topology = ClosTopology(k=2, stages=3)
        # Inter-pod shortest paths are leaf-agg-core-agg-leaf.
        paths = shortest_paths(topology, 0, 2)
        assert all(len(p) == 5 for p in paths)
        cores_base = 2 * 2 * 2
        assert all(p[2] >= cores_base for p in paths)

    def test_expander_deterministic_across_processes(self):
        topology = ExpanderTopology(n_routers=12, degree=4, seed=7)
        script = (
            "from repro.fabric import ExpanderTopology\n"
            "t = ExpanderTopology(n_routers=12, degree=4, seed=7)\n"
            "print(sorted(t.links()))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == str(sorted(topology.links()))

    def test_expander_seed_changes_wiring(self):
        a = ExpanderTopology(n_routers=12, degree=4, seed=0)
        b = ExpanderTopology(n_routers=12, degree=4, seed=5)
        assert sorted(a.links()) != sorted(b.links())

    @pytest.mark.parametrize(
        "topology", ALL_TOPOLOGIES, ids=lambda t: type(t).__name__
    )
    def test_serialisation_round_trip(self, topology):
        data = topology_to_dict(topology)
        clone = topology_from_dict(data)
        assert clone == topology
        assert sorted(clone.links()) == sorted(topology.links())

    def test_validation(self):
        with pytest.raises(ConfigError):
            ClosTopology(k=1, stages=2)
        with pytest.raises(ConfigError):
            ClosTopology(k=2, stages=4)
        with pytest.raises(ConfigError):
            ExpanderTopology(n_routers=4, degree=4, seed=0)
        with pytest.raises(ConfigError):
            ExpanderTopology(n_routers=5, degree=3, seed=0)  # odd*odd
        with pytest.raises(ConfigError):
            RotationTopology(n_routers=5)

    def test_rotation_rejects_nan_slot(self):
        with pytest.raises(ConfigError, match="slot_ns"):
            RotationTopology(n_routers=4, slot_ns=float("nan"))
        with pytest.raises(ConfigError):
            DragonflyTopology(n_groups=1, routers_per_group=2)


class TestRouting:
    @pytest.mark.parametrize(
        "topology", ALL_TOPOLOGIES, ids=lambda t: type(t).__name__
    )
    @pytest.mark.parametrize("policy", ["direct", "vlb"])
    def test_weights_sum_to_one(self, topology, policy):
        endpoints = topology.endpoints()
        paths = compute_paths(topology, endpoints[0], endpoints[-1], policy)
        assert sum(p.weight for p in paths) == pytest.approx(1.0)
        for p in paths:
            assert p.routers[0] == endpoints[0]
            assert p.routers[-1] == endpoints[-1]
            for u, v in zip(p.routers, p.routers[1:]):
                assert topology.has_link(u, v)

    def test_direct_splits_ecmp_evenly(self):
        topology = ClosTopology(k=2, stages=2)
        paths = compute_paths(topology, 0, 1, "direct")
        assert len(paths) == 2
        assert all(p.weight == pytest.approx(0.5) for p in paths)

    def test_vlb_is_balanced_on_clos(self):
        """The per-spine relay load must come out even -- the product
        split over both legs' shortest paths, not first-path bias."""
        topology = ClosTopology(k=2, stages=2)
        paths = compute_paths(topology, 0, 1, "vlb")
        by_spine = {2: 0.0, 3: 0.0}
        for p in paths:
            for router in p.routers[1:-1]:
                by_spine[router] += p.weight
        assert by_spine[2] == pytest.approx(by_spine[3])

    def test_hoho_rotation_only(self):
        topology = RotationTopology(n_routers=4)
        paths = compute_paths(topology, 0, 1, "hoho")
        assert len(paths) == 3  # direct + 2 intermediates
        assert all(p.weight == pytest.approx(1 / 3) for p in paths)
        with pytest.raises(ConfigError):
            compute_paths(ClosTopology(k=2, stages=2), 0, 1, "hoho")

    def test_bad_policy_and_same_endpoints(self):
        topology = RotationTopology(n_routers=4)
        with pytest.raises(ConfigError):
            compute_paths(topology, 0, 1, "teleport")
        with pytest.raises(ConfigError):
            compute_paths(topology, 1, 1, "direct")


class TestFabricFaults:
    def test_spec_grammar(self):
        event = parse_fault_event("router:2@5-10")
        assert isinstance(event, RouterDown)
        assert event.router == 2
        assert event.start_ns == 5_000.0
        event = parse_fault_event("link:3:1")
        assert isinstance(event, LinkCut)
        assert (event.a, event.b) == (1, 3)  # endpoints sorted

    def test_fabric_schedule_validated_against_topology(self):
        config = fabric_config()
        topology = ClosTopology(k=2, stages=2)
        with pytest.raises(ConfigError):
            simulate_fabric(
                config, topology, fidelity="flow",
                schedule=FaultSchedule([RouterDown(router=9)]),
            )
        with pytest.raises(ConfigError):
            # Leaves are not linked to each other in a Clos.
            simulate_fabric(
                config, topology, fidelity="flow",
                schedule=FaultSchedule([LinkCut(a=0, b=1)]),
            )
        with pytest.raises(ConfigError):
            # Package-internal faults are ambiguous at fabric scope.
            simulate_fabric(
                config, topology, fidelity="flow",
                schedule=FaultSchedule.from_failed_switches([0]),
            )

    def test_fabric_events_rejected_by_router_validate(self):
        schedule = FaultSchedule([RouterDown(router=0)])
        with pytest.raises(ConfigError):
            schedule.validate(fabric_config())

    def test_router_down_analytic_fraction(self):
        """Rotation N=4, direct: losing router 1 costs exactly 2/N."""
        report = simulate_fabric(
            fabric_config(), RotationTopology(n_routers=4),
            routing="direct", load=0.5, fidelity="flow",
            schedule=FaultSchedule([RouterDown(router=1)]),
        )
        assert report.delivered_fraction == pytest.approx(0.5, abs=0.02)
        assert report.routers[1].down_fraction == pytest.approx(1.0)

    def test_link_cut_analytic_fraction(self):
        """Rotation N=4, direct: one cut link costs 2/(N(N-1))."""
        report = simulate_fabric(
            fabric_config(), RotationTopology(n_routers=4),
            routing="direct", load=0.5, fidelity="flow",
            schedule=FaultSchedule([LinkCut(a=0, b=1)]),
        )
        assert report.delivered_fraction == pytest.approx(5 / 6, abs=0.02)


class TestFabricEngine:
    def test_fidelity_parity_on_clos(self):
        """Acceptance: Clos cell of H=4 routers, delivered-fraction
        agreement within 5% between packet and flow fidelities."""
        config = fabric_config()
        topology = ClosTopology(k=2, stages=2)
        flow = simulate_fabric(
            config, topology, load=0.6, fidelity="flow"
        )
        packet = simulate_fabric(
            config, topology, load=0.6, fidelity="packet", seed=7
        )
        assert abs(
            flow.delivered_fraction - packet.delivered_fraction
        ) <= 0.05
        assert flow.mean_hops == pytest.approx(packet.mean_hops)

    def test_admissible_uniform_load_delivers_fully(self):
        report = simulate_fabric(
            fabric_config(), RotationTopology(n_routers=6),
            load=0.7, fidelity="flow",
        )
        assert report.delivered_fraction == pytest.approx(1.0, abs=0.01)
        assert report.max_link_utilization <= 1.0 + 1e-9

    def test_link_capacity_budget_is_run_wide(self):
        """A directed link crossed at several hop rounds is one shared
        resource: delivered through it never exceeds capacity."""
        config = fabric_config()
        topology = DragonflyTopology(n_groups=3, routers_per_group=2)
        report = simulate_fabric(
            config, topology, routing="vlb", load=0.8,
            pattern="hotspot", fidelity="flow",
        )
        for link in report.links:
            assert link.capacity_bps > 0
            assert link.utilization == pytest.approx(
                link.offered_bps / link.capacity_bps
            )
        # Offered exceeds some link's budget, so the engine must shed.
        assert report.max_link_utilization > 1.0
        assert report.delivered_fraction < 1.0

    def test_hotspot_vlb_beats_direct_on_rotation(self):
        config = fabric_config()
        topology = RotationTopology(n_routers=8)
        direct = simulate_fabric(
            config, topology, routing="direct", load=0.5,
            pattern="hotspot", fidelity="flow",
        )
        vlb = simulate_fabric(
            config, topology, routing="vlb", load=0.5,
            pattern="hotspot", fidelity="flow",
        )
        assert vlb.delivered_fraction > direct.delivered_fraction + 0.1
        assert vlb.max_link_utilization < direct.max_link_utilization

    def test_report_round_trip(self):
        report = simulate_fabric(
            fabric_config(), ClosTopology(k=2, stages=2),
            load=0.5, fidelity="flow",
        )
        data = report.to_dict()
        json.dumps(data)  # JSON-safe
        clone = FabricReport.from_dict(data)
        assert clone.to_dict() == data

    def test_packet_fabric_is_deterministic(self):
        config = fabric_config()
        topology = ClosTopology(k=2, stages=2)
        kwargs = dict(load=0.6, fidelity="packet", seed=3)
        a = simulate_fabric(config, topology, **kwargs)
        b = simulate_fabric(config, topology, **kwargs)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_telemetry_gets_router_labels(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        simulate_fabric(
            fabric_config(), ClosTopology(k=2, stages=2),
            load=0.6, fidelity="packet", seed=3, registry=registry,
        )
        dump = registry.to_dict()
        assert dump["metrics"]
        routers = {m["labels"]["router"] for m in dump["metrics"]}
        assert routers == {"0", "1", "2", "3"}

    def test_input_validation(self):
        config = fabric_config()
        topology = ClosTopology(k=2, stages=2)
        with pytest.raises(ConfigError):
            simulate_fabric(config, topology, load=1.5, fidelity="flow")
        with pytest.raises(ConfigError):
            simulate_fabric(config, topology, fidelity="quantum")
        with pytest.raises(ConfigError):
            simulate_fabric(
                config, topology, fidelity="flow", pattern="inverted"
            )
        with pytest.raises(ConfigError):
            simulate_fabric(
                config, topology, fidelity="flow", link_delay_ns=-1.0
            )


class TestFabricScenario:
    def test_digest_sensitivity(self):
        config = fabric_config()
        topology = ClosTopology(k=2, stages=2)
        base = fabric_scenario(config, topology, fidelity="flow")
        assert base.digest() != fabric_scenario(
            config, RotationTopology(n_routers=4), fidelity="flow"
        ).digest()
        assert base.digest() != fabric_scenario(
            config, topology, routing="vlb", fidelity="flow"
        ).digest()
        assert base.digest() != fabric_scenario(
            config, topology, pattern="hotspot", fidelity="flow"
        ).digest()
        assert base.digest() != fabric_scenario(
            config, topology, link_delay_ns=5.0, fidelity="flow"
        ).digest()
        # Seed is a cache-key component, not digest content.
        assert base.digest() == fabric_scenario(
            config, topology, fidelity="flow", seed=9
        ).digest()

    def test_scenario_validation(self):
        config = fabric_config()
        with pytest.raises(ConfigError):
            fabric_scenario(config, topology=None)
        with pytest.raises(ConfigError):
            fabric_scenario(
                config, ClosTopology(k=2, stages=2), routing="teleport"
            )

    def test_cache_hit_on_rerun(self, tmp_path):
        runtime = Runtime(cache_dir=str(tmp_path))
        scenario = fabric_scenario(
            fabric_config(), ClosTopology(k=2, stages=2), fidelity="flow"
        )
        cold = runtime.run(scenario)
        warm = runtime.run(scenario)
        stats = runtime.cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert json.dumps(cold, sort_keys=True) == json.dumps(
            warm, sort_keys=True
        )

    def test_sequential_matches_sharded_merge(self, tmp_path):
        config = fabric_config()
        topology = ClosTopology(k=2, stages=2)
        scenarios = [
            fabric_scenario(
                config, topology, routing=routing, load=load, fidelity="flow"
            )
            for routing in ("direct", "vlb")
            for load in (0.4, 0.8)
        ]
        sequential = Runtime(cache_dir=str(tmp_path / "a")).map(scenarios)
        sharded = Runtime(cache_dir=str(tmp_path / "b"))
        merged = [None] * len(scenarios)
        for k in range(2):
            for i, payload in enumerate(sharded.map(scenarios, shard=(k, 2))):
                if payload is not None:
                    merged[i] = payload
        assert json.dumps(sequential, sort_keys=True) == json.dumps(
            merged, sort_keys=True
        )
        # A warm re-run of the grid resolves entirely from the cache.
        warm = Runtime(cache_dir=str(tmp_path / "a"))
        warm.map(scenarios)
        stats = warm.cache.stats()
        assert stats["hits"] == 4 and stats["misses"] == 0, stats

    def test_payload_reconstructs_report(self):
        scenario = fabric_scenario(
            fabric_config(), ClosTopology(k=2, stages=2), fidelity="flow"
        )
        payload = Runtime().run(scenario)
        report = FabricReport.from_dict(payload["report"])
        assert report.n_routers == 4
        assert report.delivered_fraction == pytest.approx(
            payload["report"]["delivered_fraction"]
        )


class TestFabricCli:
    def run_cli(self, capsys, argv):
        from repro.cli import main

        assert main(argv) == 0
        return capsys.readouterr().out

    def test_fabric_json_carries_digest(self, capsys):
        out = self.run_cli(capsys, [
            "fabric", "--fidelity", "flow", "--json",
        ])
        document = json.loads(out)
        assert document["schema"] == "repro-fabric-v1"
        assert len(document["scenario_digest"]) == 64
        assert document["delivered_fraction"] == pytest.approx(1.0, abs=0.01)

    def test_nan_slot_exits_2(self, capsys):
        from repro.cli import main

        code = main([
            "fabric", "--topology", "rotation", "--slot-ns", "nan",
            "--fidelity", "flow", "--duration-us", "5",
        ])
        assert code == 2
        assert "slot_ns" in capsys.readouterr().err

    def test_fabric_table_and_faults(self, capsys):
        out = self.run_cli(capsys, [
            "fabric", "--topology", "rotation", "--routers", "4",
            "--fault", "router:1", "--fidelity", "flow",
        ])
        assert "Fabric simulation" in out
        assert "router 1 down" in out
        assert "Per-router accounting" in out

    def test_simulate_json_carries_digest(self, capsys):
        out = self.run_cli(capsys, [
            "simulate", "--load", "0.5", "--duration-us", "5",
            "--fidelity", "flow", "--json",
        ])
        assert len(json.loads(out)["scenario_digest"]) == 64

    def test_sweep_out_carries_digests(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        self.run_cli(capsys, [
            "sweep", "--loads", "0.4,0.8", "--duration-us", "5",
            "--fidelity", "flow", "--out", str(out_path),
        ])
        document = json.loads(out_path.read_text())
        assert len(document["digests"]) == 2
        assert all(len(d) == 64 for d in document["digests"])

    def test_fabric_metrics_out(self, capsys, tmp_path):
        out_path = tmp_path / "fabric.jsonl"
        self.run_cli(capsys, [
            "fabric", "--duration-us", "5", "--metrics-out", str(out_path),
        ])
        lines = out_path.read_text().strip().splitlines()
        assert lines
        assert any('"router"' in line for line in lines)
