"""The streaming traffic substrate: block protocol, workload families,
deprecation shims, and streaming==eager equivalence at every layer.

The block protocol's invariants (half-open spans, boundary arrivals in
the later block, pid continuity, chunk invariance) are what let every
engine consume blocks incrementally while staying byte-identical to
the eager path -- so most tests here are equality tests: concatenated
blocks against ``materialize()``, ``run_stream`` against ``run``,
streamed campaign cells against their eager twins, warm cache recalls
against cold streamed executions.
"""

from __future__ import annotations

import dataclasses
import io
import json
import warnings

import numpy as np
import pytest

import repro
from repro.config import scaled_router
from repro.core import PFIOptions, SplitParallelSwitch
from repro.core.hbm_switch import HBMSwitch
from repro.errors import ConfigError
from repro.faults import FaultSchedule, FiberCut, SwitchFailure
from repro.faults.report import measure_degradation
from repro.runtime import Runtime, router_scenario, switch_scenario
from repro.runtime.scenario import execute_scenario
from repro.telemetry import MetricsRegistry
from repro.traffic import (
    DEFAULT_BLOCK_NS,
    ArrivalBlock,
    DiurnalProfile,
    FixedSize,
    FlashCrowdProfile,
    HeavyTailSource,
    TraceSource,
    TrafficGenerator,
    TrafficSource,
    block_edges,
    load_trace,
    stream_trace,
    trace_to_string,
    uniform_matrix,
    workload_source,
)
from repro.traffic.replay import _reset_load_trace_warning


def _fields(packets):
    """Comparable projection (Packet has no __eq__ on purpose)."""
    return [
        (p.pid, p.size_bytes, p.input_port, p.output_port, p.flow, p.arrival_ns)
        for p in packets
    ]


def _pareto_source(n_ports=4, load=0.7, seed=0, **kwargs):
    config = scaled_router().switch
    return HeavyTailSource(
        n_ports=n_ports,
        port_rate_bps=config.port_rate_bps,
        matrix=uniform_matrix(n_ports, load),
        seed=seed,
        **kwargs,
    )


class TestBlockProtocol:
    def test_block_edges_partition_the_horizon(self):
        edges = list(block_edges(25_000.0, 10_000.0))
        assert edges == [(0.0, 10_000.0), (10_000.0, 20_000.0), (20_000.0, 25_000.0)]

    def test_block_edges_reject_bad_spans(self):
        with pytest.raises(ConfigError):
            list(block_edges(0.0, 10.0))
        with pytest.raises(ConfigError):
            list(block_edges(10.0, 0.0))

    def test_no_arrival_escapes_its_block_span(self):
        source = _pareto_source()
        total = 0
        for block in source.blocks(60_000.0, 7_777.0):
            if len(block):
                assert block.times[0] >= block.start_ns
                assert block.times[-1] < block.end_ns
                assert np.all(np.diff(block.times) >= 0)
            total += len(block)
        assert total > 0

    def test_pids_continue_the_global_arrival_order(self):
        source = _pareto_source()
        expected = 0
        for block in source.blocks(40_000.0, 9_000.0):
            assert block.pid_offset == expected
            pids = [p.pid for p in block.to_packets()]
            assert pids == list(range(expected, expected + len(block)))
            expected += len(block)

    @pytest.mark.parametrize("block_ns", [1_000.0, 7_777.0, 40_000.0, 100_000.0])
    def test_content_invariant_to_block_size(self, block_ns):
        baseline = _pareto_source().materialize(50_000.0, DEFAULT_BLOCK_NS)
        chunked = _pareto_source().materialize(50_000.0, block_ns)
        assert _fields(chunked) == _fields(baseline)

    def test_boundary_arrival_lands_in_the_later_block(self):
        config = scaled_router().switch
        gen = TrafficGenerator(
            n_ports=2,
            port_rate_bps=config.port_rate_bps,
            matrix=uniform_matrix(2, 0.5),
            size_dist=FixedSize(1500),
            seed=5,
        )
        packets = gen.materialize(20_000.0)
        span = packets[len(packets) // 2].arrival_ns
        assert span > 0
        for block in gen.blocks(20_000.0, span):
            for p in block.to_packets():
                assert block.start_ns <= p.arrival_ns < block.end_ns

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ConfigError, match="misaligned"):
            ArrivalBlock(
                times=[1.0, 2.0], sizes=[100], inputs=[0, 0],
                outputs=[1, 1], flows=(None, None),
                start_ns=0.0, end_ns=10.0,
            )

    def test_unsorted_times_rejected(self):
        with pytest.raises(ConfigError, match="not time-sorted"):
            ArrivalBlock(
                times=[2.0, 1.0], sizes=[100, 100], inputs=[0, 0],
                outputs=[1, 1], flows=(None, None),
                start_ns=0.0, end_ns=10.0,
            )


class TestGeneratorStreaming:
    def test_generator_blocks_match_generate_exactly(self):
        config = scaled_router().switch

        def make():
            return TrafficGenerator(
                n_ports=config.n_ports,
                port_rate_bps=config.port_rate_bps,
                matrix=uniform_matrix(config.n_ports, 0.8),
                size_dist=FixedSize(1500),
                seed=9,
            )

        # Block size never changes the stream: 4 us blocks concatenate
        # to the default-block eager list.
        eager = make().materialize(30_000.0)
        streamed = make().materialize(30_000.0, 4_000.0)
        assert _fields(streamed) == _fields(eager)

    def test_traffic_generator_is_a_traffic_source(self):
        config = scaled_router().switch
        gen = TrafficGenerator(
            n_ports=2,
            port_rate_bps=config.port_rate_bps,
            matrix=uniform_matrix(2, 0.4),
            size_dist=FixedSize(1500),
        )
        assert isinstance(gen, TrafficSource)


class TestHeavyTailWorkloads:
    def test_pareto_mean_flow_size_within_ci_bounds(self):
        source = _pareto_source(load=0.6, seed=42, mean_flow_bytes=50_000.0)
        flow_bytes = {}
        for block in source.blocks(400_000.0):
            for p in block.to_packets():
                flow_bytes[p.flow] = flow_bytes.get(p.flow, 0) + p.size_bytes
        sizes = np.asarray(list(flow_bytes.values()), dtype=float)
        assert sizes.size > 100
        # Heavy-tailed sample mean converges slowly; generous CI bounds.
        assert 0.5 * 50_000.0 < sizes.mean() < 2.0 * 50_000.0

    def test_pareto_tail_has_elephants_and_mice(self):
        source = _pareto_source(load=0.6, seed=7, mean_flow_bytes=50_000.0)
        flow_bytes = {}
        for block in source.blocks(400_000.0):
            for p in block.to_packets():
                flow_bytes[p.flow] = flow_bytes.get(p.flow, 0) + p.size_bytes
        sizes = np.asarray(sorted(flow_bytes.values()), dtype=float)
        # Elephants: the top decile carries several times its share of
        # bytes (flows spanning past the horizon are truncated, which
        # softens the raw Pareto tail).
        top = sizes[int(0.9 * sizes.size):].sum()
        assert top / sizes.sum() > 0.3
        # Mice: the median flow sits well below the mean.
        assert np.median(sizes) < 0.7 * sizes.mean()

    def test_lognormal_family_matches_requested_mean(self):
        config = scaled_router().switch
        source = HeavyTailSource(
            n_ports=4,
            port_rate_bps=config.port_rate_bps,
            matrix=uniform_matrix(4, 0.6),
            family="lognormal",
            mean_flow_bytes=30_000.0,
            sigma=1.0,
            seed=3,
        )
        flow_bytes = {}
        for block in source.blocks(400_000.0):
            for p in block.to_packets():
                flow_bytes[p.flow] = flow_bytes.get(p.flow, 0) + p.size_bytes
        sizes = np.asarray(list(flow_bytes.values()), dtype=float)
        assert sizes.size > 100
        assert 0.5 * 30_000.0 < sizes.mean() < 2.0 * 30_000.0

    def test_offered_rate_tracks_requested_load(self):
        config = scaled_router().switch
        load = 0.6
        source = _pareto_source(load=load, seed=11)
        total = sum(b.total_bytes for b in source.blocks(400_000.0))
        line = 4 * load * config.port_rate_bps / 8e9 * 400_000.0
        assert 0.7 * line < total < 1.3 * line

    def test_diurnal_profile_modulates_load(self):
        horizon = 200_000.0
        source = _pareto_source(
            seed=5, profile=DiurnalProfile(period_ns=horizon)
        )
        by_quarter = [0, 0, 0, 0]
        for block in source.blocks(horizon):
            q = min(3, int(block.start_ns / (horizon / 4)))
            by_quarter[q] += block.total_bytes
        # The trough quarter must carry well under the peak quarter.
        assert min(by_quarter) < 0.7 * max(by_quarter)

    def test_flash_crowd_ramps_up(self):
        horizon = 200_000.0
        source = _pareto_source(
            seed=5,
            profile=FlashCrowdProfile(
                start_ns=horizon / 2, ramp_ns=horizon / 8
            ),
        )
        before = after = 0
        for block in source.blocks(horizon):
            if block.end_ns <= horizon / 2:
                before += block.total_bytes
            elif block.start_ns >= horizon / 2:
                after += block.total_bytes
        assert after > 1.5 * before

    def test_invalid_family_and_parameters_rejected(self):
        config = scaled_router().switch
        common = dict(
            n_ports=2,
            port_rate_bps=config.port_rate_bps,
            matrix=uniform_matrix(2, 0.5),
        )
        with pytest.raises(ConfigError):
            HeavyTailSource(family="weibull", **common)
        with pytest.raises(ConfigError):
            HeavyTailSource(alpha=1.0, **common)
        with pytest.raises(ConfigError):
            HeavyTailSource(mean_flow_bytes=100.0, packet_bytes=1500, **common)

    def test_workload_source_specs(self):
        config = scaled_router().switch
        for spec in ("pareto", "lognormal", "diurnal", "flash"):
            source = workload_source(
                spec,
                n_ports=2,
                port_rate_bps=config.port_rate_bps,
                load=0.5,
                seed=0,
                duration_ns=50_000.0,
            )
            assert sum(len(b) for b in source.blocks(50_000.0)) > 0
        with pytest.raises(ConfigError):
            workload_source(
                "zipf", n_ports=2, port_rate_bps=config.port_rate_bps, load=0.5
            )
        with pytest.raises(ConfigError):
            workload_source(
                "trace:", n_ports=2, port_rate_bps=config.port_rate_bps, load=0.5
            )


class TestTraceStreaming:
    def _trace_packets(self, n_ports=4, duration=30_000.0, seed=2):
        config = scaled_router().switch
        gen = TrafficGenerator(
            n_ports=n_ports,
            port_rate_bps=config.port_rate_bps,
            matrix=uniform_matrix(n_ports, 0.6),
            size_dist=FixedSize(1500),
            seed=seed,
        )
        return gen.materialize(duration)

    def test_stream_trace_matches_eager_load_trace(self):
        packets = self._trace_packets()
        text = trace_to_string(packets)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            eager = load_trace(io.StringIO(text))
        streamed = [
            p
            for block in stream_trace(io.StringIO(text), block_ns=5_000.0)
            for p in block.to_packets()
        ]
        assert _fields(streamed) == _fields(eager)

    def test_stream_trace_covers_duration_with_trailing_blocks(self):
        packets = self._trace_packets(duration=10_000.0)
        text = trace_to_string(packets)
        blocks = list(
            stream_trace(io.StringIO(text), duration_ns=50_000.0, block_ns=10_000.0)
        )
        assert len(blocks) == 5
        assert blocks[-1].end_ns == 50_000.0
        assert all(len(b) == 0 for b in blocks[1:])

    def _scrambled(self, arrivals):
        """A full-schema trace whose rows arrive in the given order."""
        packets = self._trace_packets(duration=10_000.0)
        header, *rows = trace_to_string(packets).splitlines()
        picked = []
        for k, arrival in enumerate(arrivals):
            cols = rows[k].split(",")
            cols[0] = str(arrival)
            picked.append(",".join(cols))
        return "\n".join([header, *picked]) + "\n"

    def test_stream_trace_repairs_jitter_within_a_block(self):
        # Rows shuffled within one block span are auto-sorted.
        text = self._scrambled([300.0, 100.0, 200.0])
        blocks = list(stream_trace(io.StringIO(text), block_ns=1_000.0))
        times = [t for b in blocks for t in b.times]
        assert times == sorted(times)
        assert len(times) == 3

    def test_stream_trace_rejects_cross_block_disorder(self):
        # A row arriving before an already-emitted block is a hard error.
        text = self._scrambled([5_000.0, 100.0])
        with pytest.raises(ConfigError, match="sort"):
            list(stream_trace(io.StringIO(text), block_ns=1_000.0))

    def test_load_trace_shim_warns_once(self):
        _reset_load_trace_warning()
        text = trace_to_string(self._trace_packets(duration=5_000.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_trace(io.StringIO(text))
            load_trace(io.StringIO(text))
        deprecations = [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert len(deprecations) == 1
        assert "stream_trace" in str(deprecations[0].message)

    def test_trace_source_is_reusable(self, tmp_path):
        packets = self._trace_packets(duration=10_000.0)
        path = tmp_path / "capture.csv"
        path.write_text(trace_to_string(packets))
        source = TraceSource(path)
        first = [
            p for b in source.blocks(10_000.0) for p in b.to_packets()
        ]
        second = [
            p for b in source.blocks(10_000.0) for p in b.to_packets()
        ]
        assert _fields(first) == _fields(second) == _fields(packets)

    def test_trace_source_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            TraceSource(tmp_path / "nope.csv")


class TestEngineStreaming:
    DURATION = 20_000.0

    def _source(self, config):
        return workload_source(
            "pareto",
            n_ports=config.n_ribbons,
            port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
            load=0.7,
            seed=3,
            duration_ns=self.DURATION,
        )

    def test_switch_run_stream_matches_run(self):
        config = scaled_router().switch
        source = workload_source(
            "pareto",
            n_ports=config.n_ports,
            port_rate_bps=config.port_rate_bps,
            load=0.7,
            seed=3,
            duration_ns=self.DURATION,
        )
        streamed = HBMSwitch(config, PFIOptions()).run_stream(
            source.blocks(self.DURATION), self.DURATION
        )
        eager = HBMSwitch(config, PFIOptions()).run(
            source.materialize(self.DURATION), self.DURATION
        )
        a = json.dumps(dataclasses.asdict(streamed), sort_keys=True, default=str)
        b = json.dumps(dataclasses.asdict(eager), sort_keys=True, default=str)
        assert a == b

    @pytest.mark.parametrize("block_ns", [1_000.0, 7_777.0, 40_000.0])
    def test_router_run_stream_matches_run_under_faults(self, block_ns):
        config = scaled_router()
        schedule = FaultSchedule(
            [
                SwitchFailure(switch=1, start_ns=5_000.0, end_ns=12_000.0),
                FiberCut(ribbon=0, fiber=1),
            ]
        )
        reg_stream, reg_eager = MetricsRegistry(), MetricsRegistry()
        streamed = SplitParallelSwitch(config, options=PFIOptions()).run_stream(
            self._source(config).blocks(self.DURATION, block_ns),
            self.DURATION,
            fault_schedule=schedule,
            telemetry=reg_stream,
        )
        eager = SplitParallelSwitch(config, options=PFIOptions()).run(
            self._source(config).materialize(self.DURATION),
            self.DURATION,
            mode="sequential",
            fault_schedule=schedule,
            telemetry=reg_eager,
        )
        a = json.dumps(dataclasses.asdict(streamed), sort_keys=True, default=str)
        b = json.dumps(dataclasses.asdict(eager), sort_keys=True, default=str)
        assert a == b
        assert reg_stream.dumps() == reg_eager.dumps()

    def test_degradation_streams_identically_per_block_size(self):
        config = scaled_router()
        schedule = FaultSchedule(
            [SwitchFailure(switch=0, start_ns=4_000.0, end_ns=10_000.0)]
        )
        reports = [
            measure_degradation(
                config,
                schedule=schedule,
                load=0.6,
                duration_ns=self.DURATION,
                seed=5,
                n_intervals=4,
                workload="pareto",
            ).to_dict()
            for _ in range(2)
        ]
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(
            reports[1], sort_keys=True
        )
        assert reports[0]["offered_bytes"] > 0
        assert 0.0 < reports[0]["delivered_fraction"] < 1.0


class TestScenarioWorkloads:
    def test_workload_is_a_conditional_digest_key(self):
        config = scaled_router()
        plain = router_scenario(config, load=0.6, duration_ns=4_000.0)
        assert "workload" not in plain.describe()
        streamed = router_scenario(
            config, load=0.6, duration_ns=4_000.0, workload="pareto"
        )
        assert streamed.describe()["workload"] == "pareto"
        assert plain.digest() != streamed.digest()

    def test_workload_validation(self):
        config = scaled_router()
        with pytest.raises(ConfigError, match="workload"):
            router_scenario(
                config, load=0.5, duration_ns=4_000.0, workload="zipf"
            )
        with pytest.raises(ConfigError, match="packet fidelity"):
            router_scenario(
                config, load=0.5, duration_ns=4_000.0,
                workload="pareto", fidelity="flow",
            )

    def test_router_workload_mode_invariant(self):
        config = scaled_router()
        scenario = router_scenario(
            config, load=0.6, duration_ns=8_000.0, seed=2, workload="pareto"
        )
        seq = execute_scenario(scenario)
        par = execute_scenario(
            dataclasses.replace(scenario, mode="parallel", workers=2)
        )
        assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)

    def test_switch_workload_delivers(self):
        scenario = switch_scenario(
            scaled_router().switch,
            load=0.5,
            duration_ns=8_000.0,
            workload="lognormal",
        )
        payload = execute_scenario(scenario)
        assert payload["report"]["delivered_bytes"] > 0

    def test_kill_and_resume_sweep_with_streaming_cell(self, tmp_path):
        config = scaled_router().switch
        grid = [
            switch_scenario(
                config, load=load, duration_ns=6_000.0, seed=4,
                workload="pareto",
            )
            for load in (0.4, 0.6, 0.8)
        ]
        cache = str(tmp_path / "cache")
        # "Kill" the sweep after one streamed cell, then resume.
        Runtime(cache_dir=cache).map(grid[:1])
        resumed = Runtime(cache_dir=cache)
        payloads = resumed.map(grid)
        stats = resumed.cache.stats()
        assert stats["hits"] == 1 and stats["writes"] == 2, stats
        fresh = Runtime().map(grid)
        assert json.dumps(payloads, sort_keys=True) == json.dumps(
            fresh, sort_keys=True
        )


class TestFacade:
    def test_streaming_surface_exported(self):
        assert repro.TrafficSource is TrafficSource
        assert repro.ArrivalBlock is ArrivalBlock
        assert repro.stream_trace is stream_trace
        assert repro.TraceSource is TraceSource
        assert repro.HeavyTailSource is HeavyTailSource
        assert repro.workload_source is workload_source
        for name in (
            "TrafficSource",
            "ArrivalBlock",
            "stream_trace",
            "TraceSource",
            "HeavyTailSource",
            "workload_source",
        ):
            assert name in repro.__all__
