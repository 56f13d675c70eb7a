"""The benchmark's four workloads: inputs from a seed, one op, output checks.

Every workload is built from ``(seed, scale)``.  ``scale`` multiplies the
simulated duration of the packet workloads and the cells per family of
``flow_sweep``; the benchmark runs at 1 and warms up at 1/10, and the
smoke tests run at 1/50.  An op is split in two so the caller can time
exactly the work a user waits for:

- ``execute()`` is the op (timed);
- ``check(raw)`` turns its output into an :class:`OpResult` -- work
  items, per-item host time, payload digests and conservation errors --
  outside the timed region.

Each op builds its inputs afresh (a reused ``TrafficGenerator`` would
advance its RNG and change the next op's traffic).
"""

from __future__ import annotations

import io
import math
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from common import canonical_digest, require_repro

require_repro()

import numpy as np  # noqa: E402

from repro import (  # noqa: E402
    ControlConfig,
    HBMSwitch,
    PFIOptions,
    TrafficGenerator,
    scaled_router,
)
from repro.adversary import AttackCampaignParams, KnownAssignmentAttack  # noqa: E402
from repro.fabric import ClosTopology, ExpanderTopology, RotationTopology  # noqa: E402
from repro.faults import (  # noqa: E402
    CampaignParams,
    FaultSchedule,
    FiberCut,
    HBMChannelLoss,
    SwitchFailure,
)
# Traced entry points are called through their modules (``runtime.``,
# ``reporting.``) so the tracer's rebinding of module attributes sees them.
from repro import reporting, runtime  # noqa: E402
from repro.runtime import (  # noqa: E402
    AttackCampaign,
    EventStream,
    FaultCampaign,
    Runtime,
    fabric_scenario,
    router_scenario,
    validate_events,
)
from repro.traffic import ArrivalProcess, FixedSize, uniform_matrix  # noqa: E402


@dataclass
class OpResult:
    """What one op produced, reduced to what the benchmark checks and counts.

    ``digests`` and ``errors`` are aligned per checked unit: one unit per
    packet op, one per cell for ``flow_sweep``.
    """

    items: int
    item_seconds: List[float]
    digests: List[Optional[str]]
    errors: List[Optional[str]]
    cache_bytes: int = 0


def switch_conservation(report: dict, where: str) -> Optional[str]:
    """offered = delivered + dropped + residual, in bytes."""
    balance = (
        report["offered_bytes"]
        - report["delivered_bytes"]
        - report["dropped_bytes"]
        - report["residual_bytes"]
    )
    if balance:
        return f"{where}: offered - delivered - dropped - residual = {balance} B"
    return None


def router_conservation(report: dict) -> Optional[str]:
    """offered = delivered + lost + residual, and the same per switch."""
    balance = (
        report["offered_bytes"]
        - report["delivered_bytes"]
        - report["lost_bytes"]
        - report["residual_bytes"]
    )
    if balance:
        return f"router: offered - delivered - lost - residual = {balance} B"
    for index, switch in enumerate(report["switches"]):
        error = switch_conservation(switch, f"switch report {index}")
        if error:
            return error
    return None


class PacketWorkload:
    """One packet-level simulation per op; simulated packets are the items."""

    name = ""
    #: Checked units per op (one payload digest).
    units = 1

    def execute(self) -> dict:
        raise NotImplementedError

    def report_of(self, payload: dict):
        """(packets simulated, conservation error or None)."""
        raise NotImplementedError

    def check(self, payload: dict, seconds: float) -> OpResult:
        packets, error = self.report_of(payload)
        if packets <= 0:
            error = error or "op simulated no packets"
        return OpResult(
            items=packets,
            item_seconds=[seconds / max(packets, 1)],
            digests=[canonical_digest(payload)],
            errors=[error],
        )


class _RouterWorkload(PacketWorkload):
    """A router scenario through the public runtime entry point."""

    def execute(self) -> dict:
        return runtime.execute_scenario(self.scenario)

    def report_of(self, payload: dict):
        report = payload["report"]
        packets = sum(s["offered_packets"] for s in report["switches"])
        return packets, router_conservation(report)


def _router_config():
    return scaled_router(fibers_per_ribbon=32, n_switches=8)


class Router64B(_RouterWorkload):
    """Eager ``SplitParallelSwitch.run``: 64 B Poisson traffic, no telemetry."""

    name = "router_64b"
    duration_ns = 20_000.0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.scenario = router_scenario(
            _router_config(),
            load=0.8,
            duration_ns=self.duration_ns * scale,
            packet_size=64,
            seed=seed,
        )


class RouterStreamFaults(_RouterWorkload):
    """Streamed heavy-tailed 1500 B traffic with telemetry and three faults.

    The flow sizes are lognormal: under Pareto (alpha 1.5, infinite
    variance) the packets per op ranged 78k-102k over seeds 0-11, and
    about half of an op's cost is fixed per run, so neither its time nor
    its time per packet was steady across seeds.  Lognormal keeps the
    same streamed path at 85k-96k packets.
    """

    name = "router_stream_faults"
    duration_ns = 300_000.0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        span = self.duration_ns * scale
        schedule = FaultSchedule(
            [
                FiberCut(ribbon=1, fiber=3, start_ns=0.2 * span, end_ns=0.6 * span),
                SwitchFailure(switch=2, start_ns=0.4 * span, end_ns=0.5 * span),
                HBMChannelLoss(
                    switch=5, n_channels=2, start_ns=0.1 * span, end_ns=0.3 * span
                ),
            ]
        )
        self.scenario = router_scenario(
            _router_config(),
            load=0.7,
            duration_ns=span,
            packet_size=1500,
            workload="lognormal",
            telemetry=True,
            schedule=schedule,
            seed=seed,
        )


class SwitchHBMChecked(PacketWorkload):
    """One HBM switch with every PFI phase run on the timing-checked controller.

    The controller's cost grows with the square of its command history,
    so the op time follows the square of the frames that reach the
    memory.  With bypass on and Poisson arrivals those varied 180-263
    across seeds at 60 us, and op time twofold.  Here bypass is off, so
    every frame crosses the memory, and arrivals are evenly spaced with
    a seeded phase per port pair: 197-199 frames at 25 us over seeds
    0-7, and an op near 2 s.
    """

    name = "switch_hbm_checked"
    duration_ns = 25_000.0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.config = scaled_router().switch
        self.span = self.duration_ns * scale

    def execute(self) -> dict:
        config = self.config
        generator = TrafficGenerator(
            n_ports=config.n_ports,
            port_rate_bps=config.port_rate_bps,
            matrix=uniform_matrix(config.n_ports, 0.8),
            size_dist=FixedSize(1500),
            process=ArrivalProcess.DETERMINISTIC,
            seed=self.seed,
        )
        switch = HBMSwitch(
            config,
            PFIOptions(padding=True, bypass=False, validate_hbm_timing=True),
        )
        report = switch.run(generator.materialize(self.span), self.span)
        return reporting.report_to_dict(report)

    def report_of(self, payload: dict):
        return payload["offered_packets"], switch_conservation(payload, "switch")


def flow_grid(seed: int, scale: float = 1.0) -> list:
    """The fixed flow-fidelity grid: 167 cells at scale 1.

    80 router cells over load 0.30..0.95, 40 fault-campaign cells, 20
    closed-loop fault cells, 20 attack trials and 7 fabric cells.  With
    40 router cells the median cell sat on the gap between the router
    cells (2.0-2.7 ms, the same for every seed) and the fault cells
    (2.9-3.8 ms, drawn from the seed), and jumped between them from run
    to run; with 80 it sits among the router cells.
    """

    def count(n: int) -> int:
        return max(1, math.ceil(n * scale))

    router = _router_config()
    cells = [
        router_scenario(
            router, load=float(load), duration_ns=200_000.0,
            fidelity="flow", seed=seed,
        )
        for load in np.linspace(0.30, 0.95, count(80))
    ]
    cells += FaultCampaign(
        router,
        CampaignParams(n_scenarios=count(40), seed=seed, duration_ns=200_000.0),
        fidelity="flow",
    ).scenarios()
    cells += FaultCampaign(
        router,
        CampaignParams(n_scenarios=count(20), seed=seed, duration_ns=200_000.0),
        fidelity="flow",
        control=ControlConfig(tick_ns=500.0),
    ).scenarios()
    cells += AttackCampaign(
        scaled_router(n_ribbons=8, fibers_per_ribbon=32, n_switches=8),
        AttackCampaignParams(
            strategy=KnownAssignmentAttack(victim=0), n_trials=count(20), seed=seed
        ),
        fidelity="flow",
    ).scenarios()
    fabric = scaled_router(fibers_per_ribbon=16, n_switches=4)
    rotation = RotationTopology(n_routers=8)
    topologies = [
        ClosTopology(k=2, stages=2),
        ExpanderTopology(n_routers=8, degree=3, seed=0),
        rotation,
    ]
    fabric_cells = [(t, r) for t in topologies for r in ("direct", "vlb")]
    fabric_cells.append((rotation, "hoho"))
    cells += [
        fabric_scenario(
            fabric, topology, routing=routing, load=0.6,
            duration_ns=40_000.0, fidelity="flow", seed=seed,
        )
        for topology, routing in fabric_cells[: count(7)]
    ]
    return cells


class FlowSweep:
    """One op is one pass of the grid through a cold result cache.

    Each cell is a work item; its time is the gap between successive
    ``cell_finish`` events, so it includes the cell's cache write.  The
    pass's cache lives in a fresh directory under ``tmp_dir``, removed
    once the pass is checked.
    """

    name = "flow_sweep"

    def __init__(self, seed: int, scale: float, tmp_dir) -> None:
        self.grid = flow_grid(seed, scale)
        self.units = len(self.grid)
        self.tmp_dir = Path(tmp_dir)

    def execute(self):
        self.tmp_dir.mkdir(parents=True, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="pass-", dir=self.tmp_dir)
        sink = io.StringIO()
        try:
            payloads = Runtime(cache_dir=cache_dir, n_workers=1).map(
                self.grid, events=EventStream(sink, clock=time.perf_counter)
            )
        except BaseException:
            shutil.rmtree(cache_dir, ignore_errors=True)
            raise
        return payloads, sink.getvalue(), cache_dir

    def check(self, raw, seconds: float) -> OpResult:
        payloads, log, cache_dir = raw
        events = validate_events(log)
        started = [e["ts"] for e in events if e["kind"] == "cell_start"]
        finished = [e["ts"] for e in events if e["kind"] == "cell_finish"]
        marks = started[-1:] + finished
        cell_seconds = [b - a for a, b in zip(marks, marks[1:])]
        cache_bytes = sum(p.stat().st_size for p in Path(cache_dir).rglob("*.json"))
        shutil.rmtree(cache_dir, ignore_errors=True)
        digests: List[Optional[str]] = []
        errors: List[Optional[str]] = []
        for index, payload in enumerate(payloads):
            if payload is None:
                digests.append(None)
                errors.append(f"cell {index} unresolved")
            else:
                digests.append(canonical_digest(payload))
                errors.append(None)
        if len(cell_seconds) != len(self.grid):
            errors = [
                e or f"{len(cell_seconds)} cell_finish events for {len(self.grid)} cells"
                for e in errors
            ]
        return OpResult(
            items=len(cell_seconds),
            item_seconds=cell_seconds,
            digests=digests,
            errors=errors,
            cache_bytes=cache_bytes,
        )

_PACKET_WORKLOADS = (Router64B, RouterStreamFaults, SwitchHBMChecked)
WORKLOADS = tuple(cls.name for cls in _PACKET_WORKLOADS) + (FlowSweep.name,)


def make_workload(name: str, seed: int, scale: float = 1.0, tmp_dir=None):
    """The workload ``name`` built from ``seed`` at ``scale``.

    ``tmp_dir`` holds ``flow_sweep``'s per-pass result caches.
    """
    if name == FlowSweep.name:
        return FlowSweep(seed, scale, tmp_dir)
    for cls in _PACKET_WORKLOADS:
        if cls.name == name:
            return cls(seed, scale)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
