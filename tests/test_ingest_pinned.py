"""Pinned ingest regression grid: small switch and router cells whose
report and registry digests were recorded with the per-packet event
model (one heap event per arrival).

The array-native ingest must reproduce every one of them byte for byte:
equal timestamps across ports, input- and tail-SRAM overflow, the four
padding x bypass combinations, FIB no-route drops, switch-dead windows,
fiber cuts and an HBM channel loss, telemetry on, three block sizes,
and the Packet-list entry point's departure write-back.  Later cells
pin whole scenario payloads: closed-loop router and attack cells (the
control split), a parallel router cell, an attack on a streamed
workload, a packet-fidelity fabric cell and a switch cell's pipeline
trace.  ``TELEMETRY_CELLS`` pin report and registry-dump digests of
instrumented runs recorded while every instrument was updated at the
instant it observed: tail- and input-SRAM drops, a 2-channel HBM
loss, OEO degradation, padding x bypass, a run longer than the
512-window series ring, dumps read in the middle of a streamed run,
and a faulted router cell sequentially and on the process pool.
``PATH_CELLS`` pin the batch and frame paths the grid misses, recorded
before batches and frames became table rows: speedup 2 (phases shorter
than a batch time), work-conserving reads, dynamic paging, command-level
timing checks with telemetry, and a drain-time padded flush with a
pipeline trace.  A digest here changes only with a declared behaviour
change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro import HBMSwitch, PFIOptions, SplitParallelSwitch, scaled_router
from repro.adversary import BurstSynchronizedAttack, KnownAssignmentAttack
from repro.control import ControlConfig
from repro.core.paging import DynamicPageAllocator
from repro.fabric import ClosTopology
from repro.faults import (
    FaultSchedule,
    FiberCut,
    HBMChannelLoss,
    OEODegradation,
    SwitchFailure,
)
from repro.forwarding import Fib, RouteTable
from repro.runtime import (
    Scenario,
    degradation_scenario,
    execute_scenario,
    fabric_scenario,
    router_scenario,
    switch_scenario,
)
from repro.sim.trace import TraceRecorder
from repro.telemetry import MetricsRegistry, SwitchTelemetry
from repro.traffic import (
    ArrivalProcess,
    FiveTuple,
    FixedSize,
    ImixSize,
    TrafficGenerator,
    uniform_matrix,
)
from repro.traffic.packet import Packet
from repro.traffic.stream import workload_source


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _switch_payload(report, packets=None) -> str:
    payload = {"report": dataclasses.asdict(report)}
    if packets is not None:
        payload["departures"] = [p.departure_ns for p in packets]
    return _digest(payload)


def _traffic(config, load, duration, size_dist, process, seed):
    return TrafficGenerator(
        n_ports=config.n_ports,
        port_rate_bps=config.port_rate_bps,
        matrix=uniform_matrix(config.n_ports, load),
        size_dist=size_dist,
        process=process,
        seed=seed,
    ).materialize(duration)


def _switch(options=PFIOptions(padding=True, bypass=True), **kwargs):
    config = scaled_router().switch
    return config, HBMSwitch(config, options, **kwargs)


def _instrumented(config, **kwargs):
    registry = MetricsRegistry()
    telemetry = SwitchTelemetry(registry, config, 0)
    return registry, telemetry


def cell_equal_timestamps() -> str:
    """Every port receives an arrival at the same instants."""
    config, switch = _switch()
    packets = []
    pid = 0
    for k in range(240):
        for i in range(config.n_ports):
            j = (i + k) % config.n_ports
            flow = FiveTuple((10 << 24) | (i << 16) | k % 8, (192 << 24) | (j << 16), 1024 + k % 8, 443)
            packets.append(Packet(pid, 256 + 64 * (k % 5), i, j, flow, 12.8 * k))
            pid += 1
    report = switch.run(packets, 240 * 12.8)
    return _switch_payload(report, packets)


def cell_deterministic() -> str:
    config, switch = _switch(PFIOptions(padding=True, bypass=False))
    packets = _traffic(config, 0.8, 6_000.0, FixedSize(1500), ArrivalProcess.DETERMINISTIC, 0)
    report = switch.run(packets, 6_000.0)
    return _switch_payload(report, packets)


def cell_input_overflow() -> str:
    config = scaled_router().switch
    registry, telemetry = _instrumented(config)
    switch = HBMSwitch(
        config,
        PFIOptions(padding=True, bypass=True),
        input_sram_capacity=3 * config.batch_bytes,
        telemetry=telemetry,
    )
    packets = _traffic(config, 0.9, 8_000.0, ImixSize(), ArrivalProcess.ONOFF, 3)
    report = switch.run(packets, 8_000.0)
    return _digest([_switch_payload(report, packets), registry.to_dict()])


def cell_tail_overflow() -> str:
    config = scaled_router().switch
    registry, telemetry = _instrumented(config)
    switch = HBMSwitch(
        config,
        PFIOptions(padding=False, bypass=False),
        tail_sram_capacity=2 * config.frame_bytes,
        telemetry=telemetry,
    )
    packets = _traffic(config, 0.95, 8_000.0, FixedSize(64), ArrivalProcess.ONOFF, 4)
    report = switch.run(packets, 8_000.0)
    return _digest([_switch_payload(report, packets), registry.to_dict()])


def _options_cell(padding: bool, bypass: bool) -> str:
    config, switch = _switch(PFIOptions(padding=padding, bypass=bypass))
    packets = _traffic(config, 0.7, 8_000.0, ImixSize(), ArrivalProcess.POISSON, 5)
    report = switch.run(packets, 8_000.0)
    return _switch_payload(report, packets)


def cell_no_route() -> str:
    """A FIB that routes only outputs 0 and 1: the rest drop as no-route."""
    config = scaled_router().switch
    table = RouteTable(
        routes=tuple(((192 << 24) | (j << 16), 16, j) for j in range(2)),
        n_next_hops=config.n_ports,
    )
    switch = HBMSwitch(config, PFIOptions(padding=True, bypass=True), fib=Fib(table))
    packets = _traffic(config, 0.6, 5_000.0, ImixSize(), ArrivalProcess.POISSON, 6)
    report = switch.run(packets, 5_000.0)
    return _switch_payload(report, packets)


ROUTER_SPAN = 20_000.0


def _faults() -> FaultSchedule:
    return FaultSchedule(
        [
            SwitchFailure(switch=1, start_ns=5_000.0, end_ns=9_000.0),
            FiberCut(ribbon=0, fiber=1, start_ns=2_000.0, end_ns=12_000.0),
            HBMChannelLoss(switch=0, n_channels=2, start_ns=3_000.0, end_ns=8_000.0),
        ]
    )


def _router_source(config):
    return workload_source(
        "lognormal",
        n_ports=config.n_ribbons,
        port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
        load=0.7,
        seed=7,
        duration_ns=ROUTER_SPAN,
    )


def _router_cell(block_ns=None) -> str:
    config = scaled_router()
    registry = MetricsRegistry()
    router = SplitParallelSwitch(config, options=PFIOptions(padding=True, bypass=True))
    source = _router_source(config)
    if block_ns is None:
        report = router.run(
            source.materialize(ROUTER_SPAN),
            ROUTER_SPAN,
            fault_schedule=_faults(),
            telemetry=registry,
        )
    else:
        report = router.run_stream(
            source.blocks(ROUTER_SPAN, block_ns),
            ROUTER_SPAN,
            fault_schedule=_faults(),
            telemetry=registry,
        )
    return _digest(dataclasses.asdict(report))


def cell_router_64b() -> str:
    config = scaled_router(fibers_per_ribbon=32, n_switches=8)
    port_rate = config.fibers_per_ribbon * config.per_fiber_rate_bps
    packets = TrafficGenerator(
        n_ports=config.n_ribbons,
        port_rate_bps=port_rate,
        matrix=uniform_matrix(config.n_ribbons, 0.8),
        size_dist=FixedSize(64),
        seed=2,
    ).materialize(3_000.0)
    report = SplitParallelSwitch(config).run(packets, 3_000.0)
    return _digest(dataclasses.asdict(report))


def _degradation_cell(control) -> str:
    config = scaled_router()
    scenario = degradation_scenario(
        config,
        schedule=FaultSchedule([SwitchFailure(switch=0, start_ns=4_000.0, end_ns=8_000.0)]),
        load=0.6,
        duration_ns=16_000.0,
        seed=1,
        telemetry=True,
        control=control,
    )
    return _digest(execute_scenario(scenario))


def _router_scenario_cell(**kwargs) -> str:
    scenario = router_scenario(
        scaled_router(fibers_per_ribbon=16, n_switches=4),
        load=0.95,
        duration_ns=12_000.0,
        seed=3,
        schedule=FaultSchedule([SwitchFailure(switch=1, start_ns=3_000.0, end_ns=8_000.0)]),
        telemetry=True,
        **kwargs,
    )
    return _digest(execute_scenario(scenario))


def _attack_cell(strategy, load, splitter_kind, **kwargs) -> str:
    scenario = Scenario(
        kind="attack",
        config=scaled_router(fibers_per_ribbon=16, n_switches=4),
        load=load,
        duration_ns=12_000.0,
        seed=5,
        splitter_kind=splitter_kind,
        splitter_seed=2,
        strategy=strategy,
        traffic_seed=5,
        telemetry=True,
        **kwargs,
    )
    return _digest(execute_scenario(scenario))


def cell_fabric_packet() -> str:
    scenario = fabric_scenario(
        scaled_router(fibers_per_ribbon=16, n_switches=4),
        ClosTopology(k=2, stages=2),
        load=0.6, duration_ns=6_000.0, seed=7, fidelity="packet",
        telemetry=True,
    )
    return _digest(execute_scenario(scenario))


def cell_switch_trace() -> str:
    """The ``timeline --events`` path: a switch cell's pipeline trace."""
    recorder = TraceRecorder()
    payload = execute_scenario(
        switch_scenario(
            scaled_router().switch, load=0.7, duration_ns=4_000.0, seed=1
        ),
        trace=recorder,
    )
    return _digest([payload, recorder.to_jsonl()])


CELLS = {
    "switch_equal_timestamps": cell_equal_timestamps,
    "switch_deterministic": cell_deterministic,
    "switch_input_overflow": cell_input_overflow,
    "switch_tail_overflow": cell_tail_overflow,
    "switch_padding_bypass": lambda: _options_cell(True, True),
    "switch_padding_only": lambda: _options_cell(True, False),
    "switch_bypass_only": lambda: _options_cell(False, True),
    "switch_neither": lambda: _options_cell(False, False),
    "switch_no_route": cell_no_route,
    "router_faults_eager": lambda: _router_cell(None),
    "router_faults_block_1us": lambda: _router_cell(1_000.0),
    "router_faults_block_3333ns": lambda: _router_cell(3_333.0),
    "router_faults_block_40us": lambda: _router_cell(40_000.0),
    "router_64b": cell_router_64b,
    "degradation_open_loop": lambda: _degradation_cell(None),
    "degradation_closed_loop": lambda: _degradation_cell(ControlConfig(tick_ns=1_000.0)),
    # The control loop reweights away from the failing switch.
    "router_closed_loop": lambda: _router_scenario_cell(control=ControlConfig()),
    "router_open_sequential": lambda: _router_scenario_cell(),
    "router_open_parallel": lambda: _router_scenario_cell(mode="parallel", workers=2),
    # Throttles and reweights inside the burst windows.
    "attack_burst_closed_loop": lambda: _attack_cell(
        BurstSynchronizedAttack(victim=0, period_ns=2_000.0, duty=0.5, attack_fraction=0.9),
        0.5,
        "contiguous",
        control=ControlConfig(),
    ),
    "attack_known_lognormal": lambda: _attack_cell(
        KnownAssignmentAttack(victim=1), 0.8, "pseudo-random", workload="lognormal"
    ),
    "fabric_packet": cell_fabric_packet,
    "switch_trace": cell_switch_trace,
}

#: Recorded with the per-packet event model (one heap event per arrival);
#: the router-scenario, attack, fabric and trace cells were recorded
#: later, while closed-loop, attack, fabric and switch cells still
#: built Packet lists.
PINNED = {
    'attack_burst_closed_loop': '22c1114904dcc70ee8dd5c62a648b39d599cd0931a4d8cd449fa1707162a70e4',
    'attack_known_lognormal': '7a1e4e17a944f177036db0efb6288769f077bd0ae382363026960a129fc308ad',
    'fabric_packet': '7f2591aa578bf68fdc92ce45c24aa6e721ede2cd27924eff4f30de4220ce792e',
    'router_closed_loop': '135762df1e7488339b65446639b23b5cac0bc3ef3be010a04dd94d7672010570',
    'router_open_parallel': 'e6edd9a8b30e45b48189a382e39c9750780c3906ec36c1db861342b3377de096',
    'router_open_sequential': 'e6edd9a8b30e45b48189a382e39c9750780c3906ec36c1db861342b3377de096',
    'switch_trace': '3738017eef4e278ae8d8ab5a345e5a465c05e2cf1e4836436f4c93e55db8963a',
    'degradation_closed_loop': 'b989ed5639a81ff80d8d0d7e2232ee912ea87d83d40c9ea2e586afcdcdfeafba',
    'degradation_open_loop': 'c404a5bdfc83d36aaede3744a414247ee9c49c6437341b60eb54045513125248',
    'router_64b': 'ba4eda10817fd7d5b05406391555ddf4f5bf62a93819436d1d21006b50273baf',
    'router_faults_block_1us': '244db450df769c43a45b3df83480f8aea49720abdf93e25fd985baa23f48d578',
    'router_faults_block_3333ns': '244db450df769c43a45b3df83480f8aea49720abdf93e25fd985baa23f48d578',
    'router_faults_block_40us': '244db450df769c43a45b3df83480f8aea49720abdf93e25fd985baa23f48d578',
    'router_faults_eager': '244db450df769c43a45b3df83480f8aea49720abdf93e25fd985baa23f48d578',
    'switch_bypass_only': '83b819e0552a93c74d12f7ad67f91ccdeaf75d41cee526e9cdde48ee819036d7',
    'switch_deterministic': 'fd008310e6270d4305128b5f88779db295e67d8757c7d9b4e3fe9af941197220',
    'switch_equal_timestamps': 'f1dcd6dec5aac99bab0e5e5c503ceaf528b108ca07310e627c21252a20dbfa96',
    'switch_input_overflow': 'aea28c4929bc6a03f8fc7e8b780b883a2acdf24d5bc3986b0d483d009d8f699e',
    'switch_neither': '99c7c17f5f442c4b03173c2bbdab2d9e95a0891c6e49a0cfc80374df4e0c2f6b',
    'switch_no_route': 'e7530e54334d5d4b0ae0e940ceef29ccd3f1df8a36554fab2cd32c6389df7af2',
    'switch_padding_bypass': '415bbbdd985133ab74d7714ff484ad7cf89642afe171485c2af0f505bfd8b16f',
    'switch_padding_only': 'e841ff080fd4358d782eb42b2665cd2dbce5f0968a30b1fe5cddf72180aba93e',
    'switch_tail_overflow': '3374f0ebe42712fdf2a94a19b7c5d3597ddae432cf2289ea24ee86b8a4d1048b',
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _telemetry_switch_cell(
    options,
    duration,
    load,
    size_dist,
    process,
    seed,
    events=(),
    **kwargs,
):
    """One instrumented switch run: ``(report digest, registry dump digest)``."""
    config = scaled_router().switch
    registry, telemetry = _instrumented(config)
    view = FaultSchedule(list(events)).switch_view(0, config.total_channels)
    switch = HBMSwitch(config, options, telemetry=telemetry, faults=view, **kwargs)
    packets = _traffic(config, load, duration, size_dist, process, seed)
    report = switch.run(packets, duration)
    return _switch_payload(report, packets), _sha(registry.dumps())


def cell_telemetry_mid_run_reads():
    """A streamed instrumented run whose registry is dumped after every
    block: reads in the middle of a run must see exactly the
    observations made so far, and must not perturb the rest."""
    config = scaled_router().switch
    registry, telemetry = _instrumented(config)
    switch = HBMSwitch(
        config,
        PFIOptions(padding=True, bypass=True),
        input_sram_capacity=4 * config.batch_bytes,
        telemetry=telemetry,
    )
    duration = 10_000.0
    source = TrafficGenerator(
        n_ports=config.n_ports,
        port_rate_bps=config.port_rate_bps,
        matrix=uniform_matrix(config.n_ports, 0.9),
        size_dist=ImixSize(),
        process=ArrivalProcess.ONOFF,
        seed=8,
    )
    dumps = []
    switch.stream_begin()
    for block in source.blocks(duration, 1_000.0):
        switch.stream_offer(block, duration)
        switch.stream_advance(min(block.end_ns, duration))
        dumps.append(_sha(registry.dumps()))
    report = switch.stream_finish(duration)
    return _digest([dataclasses.asdict(report), dumps]), _sha(registry.dumps())


def _telemetry_router_cell(**kwargs) -> str:
    scenario = router_scenario(
        scaled_router(fibers_per_ribbon=16, n_switches=4),
        load=0.8,
        duration_ns=10_000.0,
        seed=4,
        workload="lognormal",
        packet_size=1500,
        schedule=FaultSchedule(
            [
                HBMChannelLoss(switch=0, n_channels=2, start_ns=1_000.0, end_ns=6_000.0),
                OEODegradation(switch=1, rate_factor=0.4, start_ns=2_000.0, end_ns=7_000.0),
                SwitchFailure(switch=2, start_ns=3_000.0, end_ns=5_000.0),
            ]
        ),
        telemetry=True,
        **kwargs,
    )
    payload = execute_scenario(scenario)
    return _digest(payload), _digest(payload["report"]["telemetry"])


def config_frames(n: int) -> int:
    return n * scaled_router().switch.frame_bytes


def config_batches(n: int) -> int:
    return n * scaled_router().switch.batch_bytes


_BOTH = PFIOptions(padding=True, bypass=True)

#: Instrumented cells, each aimed at one of the telemetry instruments
#: fed per batch, frame, phase or drop.  Each returns its report digest
#: and its registry dump digest.
TELEMETRY_CELLS = {
    # Tail-SRAM overflow drops (drop counters, windowed drops).
    "tail_overflow": lambda: _telemetry_switch_cell(
        _BOTH, 8_000.0, 0.95, ImixSize(), ArrivalProcess.ONOFF, 11,
        tail_sram_capacity=config_frames(2),
    ),
    # Thousands of input-SRAM tail drops.
    "input_drop_heavy": lambda: _telemetry_switch_cell(
        _BOTH, 8_000.0, 1.0, FixedSize(1500), ArrivalProcess.ONOFF, 12,
        input_sram_capacity=config_batches(5),
    ),
    # Frames stripe over the 6 surviving channels, phases stretch.
    "channel_loss_2": lambda: _telemetry_switch_cell(
        _BOTH, 12_000.0, 0.8, ImixSize(), ArrivalProcess.POISSON, 13,
        events=[HBMChannelLoss(switch=0, n_channels=2, start_ns=2_000.0, end_ns=9_000.0)],
    ),
    # Degraded egress: drain spans come from ``rate_factor_fn``.
    "oeo_degradation": lambda: _telemetry_switch_cell(
        _BOTH, 10_000.0, 0.7, ImixSize(), ArrivalProcess.POISSON, 14,
        events=[OEODegradation(switch=0, rate_factor=0.3, start_ns=2_000.0, end_ns=8_000.0)],
    ),
    "padding_bypass": lambda: _telemetry_switch_cell(
        PFIOptions(padding=True, bypass=True), 6_000.0, 0.5, ImixSize(),
        ArrivalProcess.POISSON, 15,
    ),
    "padding_only": lambda: _telemetry_switch_cell(
        PFIOptions(padding=True, bypass=False), 6_000.0, 0.5, ImixSize(),
        ArrivalProcess.POISSON, 15,
    ),
    "bypass_only": lambda: _telemetry_switch_cell(
        PFIOptions(padding=False, bypass=True), 6_000.0, 0.5, ImixSize(),
        ArrivalProcess.POISSON, 15,
    ),
    "neither": lambda: _telemetry_switch_cell(
        PFIOptions(padding=False, bypass=False), 6_000.0, 0.5, ImixSize(),
        ArrivalProcess.POISSON, 15,
    ),
    # 700 one-microsecond windows: the byte and occupancy series
    # outgrow their 512-window ring, so the eviction order is pinned.
    "long_ring": lambda: _telemetry_switch_cell(
        _BOTH, 700_000.0, 0.15, FixedSize(1500), ArrivalProcess.POISSON, 16,
        tail_sram_capacity=config_frames(1),
    ),
    "mid_run_reads": cell_telemetry_mid_run_reads,
    "router_sequential": lambda: _telemetry_router_cell(),
    "router_parallel": lambda: _telemetry_router_cell(mode="parallel", workers=2),
}


#: ``(report digest, registry dump digest)`` per cell, recorded with
#: every telemetry instrument updated at the instant it observed.
PINNED_TELEMETRY = {
    'bypass_only': (
        'bc98c40a0f758682ee9f49cfe191d089b6517586e2223713ba59db18634f094f',
        '2945936e168826c1addace63551885c879d1fb663cb6ffa58d8070fb0ca92c54',
    ),
    'channel_loss_2': (
        'f961d90063b8128b790da39462dc6f269d8a076e7f55f6bb0cf4939e38c2f08a',
        '4b33d1904ed930162769f5e57d88f0058092dd9cb33a2d14cea1b73f915e64dd',
    ),
    'input_drop_heavy': (
        '5bbe2d04a7ffab7794add740ecec4ed5edfbb92800dfd5396c7c333dc8305869',
        'dda8b9a2f7ade6db44853e7c5931392bbccd68b31a3c4b4a9643be9b25445618',
    ),
    'long_ring': (
        '3ef00e9e44dc8a3c57e367651cffca0a7cfda046a2ea0bee696a28dd03896cef',
        'c13ffd17d995035f2bbe473a3bc944a920a8e3274301c26d4bb2c07230c39d88',
    ),
    'mid_run_reads': (
        '5ac0e3c2d2d4429708a15d83f5334475f964bcf4a1d7676b8276f97906bace07',
        '6b2ad7b9b13d272971d1f55fceea1d06a3e6d0a33fded402f7b2ad746b3d19b9',
    ),
    'neither': (
        '10868ee39b6330a34f1170321f9e5c0df0ca365a2717c0ff9b24c9ce17bac5fd',
        '89d54d093d1acf2bb5083f78c561695eb8a2d8ecdbf2f1e6e30eecbe6c4c2927',
    ),
    'oeo_degradation': (
        'a5bff1c8fb95dd90aee545a945163bdb41b87f3fedccfdf6123357b4510eff6b',
        '435da3583fe93859139a150c1e703618b1fd997a28ea49fdbc07d67c8a87f01e',
    ),
    'padding_bypass': (
        'b14ef145e04cc38505ae4d5a90532342eb56679e8ea7c09b8afcb6f082e4828b',
        'c7d8a3f77e4d4883b42874037117082d8637ce3b0421eaf6f5b6eb74aa596708',
    ),
    'padding_only': (
        '16a15f99a3006ec13903186e0c455bdd6957b8fe411f17334552ed58df1214a8',
        '95be7ff4ba71cd8ca6db19655f58fbd4bc5b8d08508aa4ab1c4d04129c5e3ea8',
    ),
    'router_parallel': (
        '75e3d7241b5983850e8ee2b91fe24158fd7f4eb5b9c68c25eb9afed30362dda2',
        'df3c17425efe0645cce263ed3490bcfc5c73767800e677ea9483b9174b8e810c',
    ),
    'router_sequential': (
        '75e3d7241b5983850e8ee2b91fe24158fd7f4eb5b9c68c25eb9afed30362dda2',
        'df3c17425efe0645cce263ed3490bcfc5c73767800e677ea9483b9174b8e810c',
    ),
    'tail_overflow': (
        '08ac02c0632f992d86f0953f8cee7858d7c0f9df0fea1bff1789ff30c0d5f846',
        '2f04711d1f9d6eef291118649a0b638b43f247d5f88efcc1f0bc4a0f75215e82',
    ),
}


def _path_cell(options, load, size_dist, process, seed, duration=6_000.0,
               speedup=1.0, address_map=None, telemetry=False, trace=None,
               **kwargs):
    """One switch run through a path of the batch and frame dataplane
    the grid above leaves out: its report, departures, and registry
    dump or pipeline trace when either is attached."""
    config = scaled_router(speedup=speedup).switch
    parts = []
    if telemetry:
        registry, kwargs["telemetry"] = _instrumented(config)
    if address_map is not None:
        kwargs["address_map"] = address_map(config)
    switch = HBMSwitch(config, options, trace=trace, **kwargs)
    packets = _traffic(config, load, duration, size_dist, process, seed)
    report = switch.run(packets, duration)
    parts.append(_switch_payload(report, packets))
    if telemetry:
        parts.append(_sha(registry.dumps()))
    if trace is not None:
        parts.append(_sha(trace.to_jsonl()))
    return _digest(parts)


#: Cells for the dataplane paths the grid above does not reach, each
#: recorded before switch internals were held as columns.
PATH_CELLS = {
    # A phase is shorter than a batch time: several phases fire
    # between two crossings of a port.
    "speedup_2": lambda: _path_cell(
        PFIOptions(padding=True, bypass=False), 0.8, ImixSize(),
        ArrivalProcess.POISSON, 21, speedup=2.0,
    ),
    # Reads skip to the next output with a frame (or a bypass frame).
    "work_conserving_reads": lambda: _path_cell(
        PFIOptions(padding=True, bypass=True, work_conserving_reads=True),
        0.6, ImixSize(), ArrivalProcess.ONOFF, 22,
    ),
    # Frame rows come from a page table instead of fixed regions.
    "dynamic_pages": lambda: _path_cell(
        _BOTH, 0.9, FixedSize(1500), ArrivalProcess.ONOFF, 23,
        address_map=lambda config: DynamicPageAllocator(config, rows_per_page=2),
    ),
    # Every phase's command schedule on the checked controller, with
    # the controller's own telemetry.
    "validated_timing": lambda: _path_cell(
        PFIOptions(padding=True, bypass=False, validate_hbm_timing=True),
        0.7, ImixSize(), ArrivalProcess.POISSON, 24, duration=4_000.0,
        telemetry=True,
    ),
    # Light load leaves partial batches on every port at the end: the
    # drain pads and flushes them all, and the trace records each step.
    "drain_flush_trace": lambda: _path_cell(
        PFIOptions(padding=True, bypass=False), 0.2, ImixSize(),
        ArrivalProcess.POISSON, 25, duration=3_000.0, trace=TraceRecorder(),
    ),
}

PINNED_PATHS = {
    'drain_flush_trace': '792b20e938342aef32ab5e329a496cdde6e8f89f7d7d8d101ea42ecf0f5b99c2',
    'dynamic_pages': 'd1c021583f17e503edac497f6774c5835d45333da764aed3329934fdc8b09a97',
    'speedup_2': 'f5a1425ab65fd4e8eed6391f7a65765f378b9a06c9d4c6e35daf4ea33bacc1ca',
    'validated_timing': '65355a73712372c04b0e2a0768bab5eb120172d2235950d8280fa2f2d4702b8b',
    'work_conserving_reads': '42931cc951bbf7c828c84da2c859c7c5a48e4cf7477dc29f15bcf2f1dc3b221f',
}


@pytest.mark.parametrize("name", sorted(PATH_CELLS))
def test_pinned_path_digest(name):
    assert PATH_CELLS[name]() == PINNED_PATHS[name]



@pytest.mark.parametrize("name", sorted(CELLS))
def test_pinned_digest(name):
    assert CELLS[name]() == PINNED[name]


@pytest.mark.parametrize("name", sorted(TELEMETRY_CELLS))
def test_pinned_telemetry_digest(name):
    assert TELEMETRY_CELLS[name]() == PINNED_TELEMETRY[name]


def test_parallel_telemetry_equals_sequential():
    assert PINNED_TELEMETRY["router_parallel"] == PINNED_TELEMETRY["router_sequential"]


def test_block_sizes_agree():
    """The router cell's digest does not depend on how it is chunked."""
    digests = {PINNED[name] for name in PINNED if name.startswith("router_faults_")}
    assert len(digests) == 1


def test_parallel_cell_equals_sequential():
    assert PINNED["router_open_parallel"] == PINNED["router_open_sequential"]
