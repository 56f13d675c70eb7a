"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``analyze``     -- print the SS 4 design analysis of the reference design
                     (or a scaled one with ``--scaled``).
- ``simulate``    -- run one HBM switch simulation and print its report.
- ``sweep``       -- sweep offered load on one switch; print a row per load.
- ``metrics``     -- run an instrumented simulation and print/export the
                     per-stage telemetry (Prometheus text or JSONL).
- ``attack``      -- run an adversarial campaign (strategy vs splitter)
                     and report exposure with confidence intervals.
- ``fabric``      -- compose router-in-a-package nodes into an optical
                     DCN fabric (Clos / expander / rotation / dragonfly)
                     and report end-to-end delivered capacity.
- ``experiments`` -- list the experiment index (E1..E16 and ablations)
                     with the bench that regenerates each.
- ``control``     -- the closed-loop control plane (:mod:`repro.control`):
                     run a demo closed-loop run, or ``--compare-open-loop``
                     to measure the controller's delivered-fraction delta
                     on the fault / attack campaigns.

``simulate``/``sweep``/``faults`` accept ``--metrics-out PATH`` to write
the run's telemetry dump alongside their normal output (format by
extension: ``.prom``/``.txt`` Prometheus, anything else JSONL).

``simulate``/``sweep``/``faults``/``attack`` all dispatch through the
scenario runtime (:mod:`repro.runtime`): every run is a declarative
:class:`~repro.runtime.Scenario`, ``--cache-dir`` enables the
content-addressed result cache (reruns and killed-then-resumed sweeps
recall finished cells instead of recomputing), and ``--shard K/N`` on
``sweep``/``faults`` executes every Nth cell so shards on a shared
cache merge deterministically into the byte-identical single-shot
output.  The same four commands take ``--fidelity flow`` to swap the
packet engine for the vectorized fluid engine (:mod:`repro.flow`) --
same report shapes, ~100-1000x faster, validated against the packet
oracle in ``docs/flow_engine.md``.

A flag that several commands take is declared once in ``_SHARED`` and
reaches each command through an argparse parent parser carrying that
command's defaults; ``choices`` come from the engine constants
:class:`~repro.runtime.Scenario` checks.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from .analysis import (
    capacity_vs_reference,
    hbm_switch_power,
    router_area,
    router_buffering,
    router_power,
    sram_sizing,
)
from .config import reference_router, scaled_router
from .errors import ConfigError
from .reporting import Table
from .adversary import SPLITTER_KINDS, STRATEGIES
from .core.sps import RUN_MODES
from .fabric.engine import FIDELITIES, TRAFFIC_PATTERNS
from .fabric.routing import ROUTING_POLICIES
from .traffic import ArrivalProcess
from .traffic.stream import WORKLOAD_KINDS
from .units import format_rate, format_size, format_time

#: The experiment index (mirrors DESIGN.md SS 4).
EXPERIMENTS = [
    ("E1", "Package I/O budget (655 Tb/s / 1.31 Pb/s)", "benchmarks/test_e01_io_budget.py"),
    ("E2", "Mesh guaranteed capacity (2/n bound)", "benchmarks/test_e02_mesh_capacity.py"),
    ("E3", "Random-access HBM reductions (2.6x/39x/1250x)", "benchmarks/test_e03_random_access.py"),
    ("E4", "PFI peak rate, 2% transitions, hidden refresh", "benchmarks/test_e04_pfi_peak_rate.py"),
    ("E5", "OQ mimicry with small speedup", "benchmarks/test_e05_oq_mimicry.py"),
    ("E6", "Buffer sizing (4 TB / ~51 ms)", "benchmarks/test_e06_buffer_sizing.py"),
    ("E7", "SRAM sizing (14.5 MB)", "benchmarks/test_e07_sram_sizing.py"),
    ("E8", "Power (794 W/switch, 12.7 kW)", "benchmarks/test_e08_power.py"),
    ("E9", "Area (20,544 mm^2, <10% panel)", "benchmarks/test_e09_area.py"),
    ("E10", "Fiber-split load balance & adversary", "benchmarks/test_e10_fiber_split.py"),
    ("E11", "Capacity increase (>50x Cisco 8201)", "benchmarks/test_e11_capacity.py"),
    ("E12", "Padding + bypass latency", "benchmarks/test_e12_latency_bypass.py"),
    ("E13", "HBM roadmap projections", "benchmarks/test_e13_roadmap.py"),
    ("E14", "Datacenter small-frame variant", "benchmarks/test_e14_datacenter_frames.py"),
    ("E15", "Interface-width arithmetic", "benchmarks/test_e15_interface_widths.py"),
    ("E16", "S and gamma derivation + ablation", "benchmarks/test_e16_gamma_derivation.py"),
    ("A1", "Static regions vs dynamic pages", "benchmarks/test_a01_dynamic_paging.py"),
    ("A2", "Load-balanced spreading vs PFI", "benchmarks/test_a02_load_balanced.py"),
    ("A3", "Reorder buffer vs reordering rate", "benchmarks/test_a03_reorder_buffer.py"),
    ("A4", "Modularity & fault isolation", "benchmarks/test_a04_modularity.py"),
    ("A5", "Scheduler work: iSLIP vs PFI", "benchmarks/test_a05_scheduling_work.py"),
    ("A6", "Buffer sharing scarcity vs glut", "benchmarks/test_a06_buffer_sharing.py"),
    ("A7", "PFI constants across memory generations", "benchmarks/test_a07_generation_scaling.py"),
    ("A8", "Graceful degradation: capacity vs failed switches", "benchmarks/test_a08_graceful_degradation.py"),
    ("A9", "Adversarial exposure: contiguous vs pseudo-random split", "benchmarks/test_a09_adversary.py"),
    ("A10", "Heavy-tailed workloads: elephant/mice split imbalance", "benchmarks/test_a10_heavy_tail.py"),
    ("F1", "Fabric capacity under router/link failures", "benchmarks/test_f01_fabric_failures.py"),
    ("F2", "VLB vs direct routing under hotspot demand", "benchmarks/test_f02_fabric_vlb.py"),
]


def _parse_int_list(text: str) -> List[int]:
    """``"0,3"`` -> ``[0, 3]`` (empty string -> empty list)."""
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"bad integer list {text!r} (expected e.g. 0,3)")


def _parse_float_list(text: str) -> List[float]:
    """``"0.3,0.8"`` -> ``[0.3, 0.8]``; bad or empty input is an error."""
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"bad number list {text!r} (expected e.g. 0.3,0.8)")
    return values


def _mtbf_campaign_params(args: argparse.Namespace, **fields):
    """The fault campaign of ``faults``/``control``: one MTBF/MTTR pair
    (``--switch-mtbf-us``/``--switch-mttr-us``) for switch, HBM-channel
    and OEO faults alike."""
    from .faults import CampaignParams

    mtbf_ns = args.switch_mtbf_us * 1e3
    mttr_ns = args.switch_mttr_us * 1e3
    return CampaignParams(
        seed=args.seed,
        load=args.load,
        duration_ns=args.duration_us * 1e3,
        switch_mtbf_ns=mtbf_ns,
        switch_mttr_ns=mttr_ns,
        channel_mtbf_ns=mtbf_ns,
        channel_mttr_ns=mttr_ns,
        oeo_mtbf_ns=mtbf_ns,
        oeo_mttr_ns=mttr_ns,
        **fields,
    )


#: Every flag more than one command takes, declared once.  A command
#: picks its shared flags with :func:`_flags` and sets its own defaults.
_SHARED = {
    "--load": dict(
        type=float,
        help="offered load in [0, 1] per input (attack: per ribbon; "
             "fabric: per endpoint; timeline: --events only)",
    ),
    "--duration-us": dict(
        type=float, help="arrival window in us (timeline: --events only)",
    ),
    "--seed": dict(
        type=int, default=0,
        help="traffic seed (attack: campaign seed; timeline: --events only)",
    ),
    "--switches": dict(
        type=int,
        help="router H (simulate/sweep: 0 = one switch, more runs the "
             "full H-switch router; fabric: per node)",
    ),
    "--failed-switches": dict(
        type=str, default="",
        help="comma list of whole-run dead switches, e.g. 0,3 "
             "(simulate/sweep: implies router mode)",
    ),
    "--fault": dict(
        action="append", default=[],
        help="fault spec: switch:H | channels:H:N | oeo:H:F | fiber:R:F "
             "(fabric: router:R | link:U:V), optionally @START[-END] in "
             "us; repeatable or comma-separated",
    ),
    "--fidelity": dict(
        choices=FIDELITIES, default="packet",
        help="packet = discrete-event pipeline (exact); flow = "
             "vectorized fluid engine (~100-1000x faster, rate-level)",
    ),
    "--workload": dict(
        type=str, default=None,
        help=f"streaming workload: {'|'.join(WORKLOAD_KINDS)}|trace:<path> "
             "(heavy-tailed flows at bounded memory; packet fidelity "
             "only; default: smooth synthetic traffic, or attack's "
             "fixed-size Poisson carrier)",
    ),
    "--workers": dict(
        type=int, default=None,
        help="process-pool size (default: 1, sequential, for sweep; all "
             "cores for the others, metrics with --mode parallel; "
             "results are byte-identical either way)",
    ),
    "--cache-dir": dict(
        type=str, default=None,
        help="content-addressed result cache: a rerun recalls finished "
             "cells instead of simulating them, so a killed sweep or "
             "campaign resumes",
    ),
    "--shard": dict(
        type=str, default=None,
        help="K/N: execute only cells K, K+N, ... against one shared "
             "--cache-dir; an unsharded rerun merges deterministically "
             "(faults: campaigns only)",
    ),
    "--switch-mtbf-us": dict(
        type=float, default=200.0,
        help="fault campaign: per-component mean time between failures",
    ),
    "--switch-mttr-us": dict(
        type=float, default=10.0, help="fault campaign: mean time to repair",
    ),
    "--json": dict(
        action="store_true",
        help="print the JSON report instead of tables (simulate/fabric: "
             "with its scenario_digest)",
    ),
    "--out": dict(
        type=str, default=None,
        help="also write the JSON report to this path (sweep: the "
             "repro-sweep-v1 document; metrics: the full dump, "
             ".prom/.txt = Prometheus text, else JSONL; faults "
             "campaigns default to FAULTS_CAMPAIGN.json)",
    ),
    "--metrics-out": dict(
        type=str, default=None,
        help="write the run's telemetry, merged over cells, to this path "
             "(.prom/.txt = Prometheus text, else JSONL; faults: single "
             "runs only)",
    ),
}


def _flags(*names: str, **defaults) -> argparse.ArgumentParser:
    """A parent parser holding the shared flags ``names`` with this
    command's ``defaults`` (keyed by dest)."""
    parent = argparse.ArgumentParser(add_help=False)
    for name in names:
        parent.add_argument(name, **_SHARED[name])
    parent.set_defaults(**defaults)
    return parent


_RUN = ("--load", "--duration-us", "--seed", "--switches")
_RUNTIME = ("--fidelity", "--cache-dir")
_MTBF = ("--switch-mtbf-us", "--switch-mttr-us")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Petabit Router-in-a-Package (HotNets '25) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, *flags, **defaults):
        return sub.add_parser(
            name, help=summary, parents=[_flags(*flags, **defaults)]
        )

    analyze = command("analyze", "print the SS4 design analysis")
    analyze.add_argument("--scaled", action="store_true", help="use the test-scale config")

    simulate = command(
        "simulate", "simulate one HBM switch", *_RUN, "--failed-switches",
        *_RUNTIME, "--workload", "--json", "--metrics-out",
        load=0.8, duration_us=50.0, switches=0,
    )
    simulate.add_argument("--packet-size", type=int, default=0, help="fixed size; 0 = IMIX")
    simulate.add_argument(
        "--process", choices=[p.value for p in ArrivalProcess], default="poisson"
    )
    simulate.add_argument("--speedup", type=float, default=1.0)
    simulate.add_argument("--no-padding", action="store_true")
    simulate.add_argument("--no-bypass", action="store_true")

    sweep = command(
        "sweep", "sweep offered load", "--duration-us", "--seed",
        "--switches", "--failed-switches", *_RUNTIME, "--workload",
        "--workers", "--shard", "--out", "--metrics-out",
        duration_us=40.0, switches=0, workers=1,
    )
    sweep.add_argument("--loads", type=str, default="0.3,0.5,0.7,0.9,1.0")
    sweep.add_argument(
        "--events-out", type=str, default=None,
        help="append a live JSONL lifecycle stream (schema "
             "repro-events-v1: sweep/cell/worker events) to this path",
    )

    metrics = command(
        "metrics",
        "run an instrumented simulation and report per-stage telemetry",
        *_RUN, "--workers", "--out", load=0.7, duration_us=20.0, switches=4,
    )
    metrics.add_argument(
        "--mode", choices=RUN_MODES, default="sequential",
        help="execution mode (all modes export identical dumps)",
    )
    metrics.add_argument(
        "--format", choices=["table", "prom", "jsonl"], default="table",
        help="stdout format: stage-summary table, Prometheus text, or JSONL",
    )

    faults = command(
        "faults", "fault injection & graceful degradation", *_RUN,
        "--fault", "--failed-switches", *_MTBF, *_RUNTIME, "--workload",
        "--workers", "--shard", "--json", "--out", "--metrics-out",
        load=0.6, duration_us=40.0, switches=4,
    )
    faults.add_argument("--intervals", type=int, default=8)
    faults.add_argument(
        "--campaign", type=int, default=0,
        help="draw and run N Monte-Carlo scenarios instead of one run",
    )

    attack = command(
        "attack", "adversarial campaigns: attack strategies vs splitters",
        *_RUN, "--fault", "--failed-switches", *_RUNTIME, "--workload",
        "--workers", "--json", "--out", "--metrics-out",
        load=0.6, duration_us=10.0, switches=16,
    )
    attack.add_argument(
        "--strategy", choices=list(STRATEGIES), default="known-assignment"
    )
    attack.add_argument(
        "--splitter", choices=[*SPLITTER_KINDS, "both"], default="both",
        help="splitter family to attack ('both' also reports the exposure ratio)",
    )
    attack.add_argument("--trials", type=int, default=8, help="campaign trials")
    attack.add_argument(
        "--ribbons", type=int, default=8, help="router ribbon count N"
    )
    attack.add_argument("--victim", type=int, default=0, help="targeted switch")
    attack.add_argument(
        "--attack-fraction", type=float, default=None,
        help="share of the load the adversary controls "
             "(default: the strategy's own default)",
    )
    attack.add_argument(
        "--oracle", action="store_true",
        help="known-assignment: attacker knows the deployed assignment "
             "(leaked seed), not just the published design",
    )
    attack.add_argument(
        "--probe-rounds", type=int, default=24,
        help="oblivious-probe: per-ribbon probe budget",
    )
    attack.add_argument(
        "--skew", type=float, default=4.0,
        help="operator-skew: first/last fiber load ratio",
    )
    attack.add_argument(
        "--burst-period-ns", type=float, default=2_000.0,
        help="burst-sync: on/off period",
    )
    attack.add_argument(
        "--duty", type=float, default=0.5, help="burst-sync: on fraction"
    )
    attack.add_argument(
        "--seed-sweep", type=int, default=0,
        help="also run the pseudo-random seed-sensitivity sweep over N seeds",
    )

    fabric = command(
        "fabric", "compose routers into an optical DCN fabric and run one cell",
        *_RUN, "--fault", *_RUNTIME, "--json", "--out", "--metrics-out",
        load=0.6, duration_us=50.0, switches=4,
    )
    fabric.add_argument(
        "--topology",
        choices=["clos", "clos3", "expander", "rotation", "dragonfly"],
        default="clos",
        help="clos = 2-stage k-ary, clos3 = 3-stage with pods and cores",
    )
    fabric.add_argument("--k", type=int, default=2, help="clos/clos3 arity")
    fabric.add_argument(
        "--routers", type=int, default=4,
        help="expander/rotation node count",
    )
    fabric.add_argument(
        "--degree", type=int, default=2, help="expander node degree"
    )
    fabric.add_argument(
        "--topo-seed", type=int, default=0,
        help="expander wiring seed (deterministic per seed)",
    )
    fabric.add_argument(
        "--slot-ns", type=float, default=1_000.0,
        help="rotation: reconfiguration slot length",
    )
    fabric.add_argument(
        "--groups", type=int, default=3, help="dragonfly group count"
    )
    fabric.add_argument(
        "--group-size", type=int, default=2,
        help="dragonfly routers per group",
    )
    fabric.add_argument(
        "--routing", choices=ROUTING_POLICIES, default="direct",
        help="direct = shortest-path ECMP, vlb = Valiant load balancing, "
             "hoho = hop-on-hop-off (rotation only)",
    )
    fabric.add_argument(
        "--pattern", choices=TRAFFIC_PATTERNS, default="uniform",
        help="endpoint demand: uniform all-to-all or half of each "
             "source's load aimed at one hot endpoint",
    )
    fabric.add_argument(
        "--link-delay-ns", type=float, default=0.0,
        help="inter-package propagation delay per hop",
    )

    command("experiments", "list the experiment index")

    timeline = command(
        "timeline", "render Fig. 4: PFI's staggered schedule as ASCII",
        "--load", "--duration-us", "--seed", load=0.7, duration_us=10.0,
    )
    timeline.add_argument("--frames", type=int, default=2, help="frames to draw")
    timeline.add_argument("--width", type=int, default=72, help="columns")
    timeline.add_argument(
        "--events", action="store_true",
        help="trace a short switch simulation and render its pipeline "
             "events (batch/frame/write/read/bypass/deliver lanes) "
             "instead of the bank schedule",
    )

    timeseries = command(
        "timeseries", "render the windowed time series of a telemetry dump"
    )
    timeseries.add_argument(
        "path",
        help="telemetry dump to read (JSONL from --metrics-out / metrics "
             "--out)",
    )
    timeseries.add_argument(
        "--name", type=str, default=None,
        help="only series whose metric name contains this substring",
    )
    timeseries.add_argument(
        "--ewma", type=float, default=None, metavar="ALPHA",
        help="also render the EWMA-smoothed view at this alpha in (0, 1]",
    )
    timeseries.add_argument(
        "--width", type=int, default=64,
        help="max sparkline columns (older windows are summarised away)",
    )

    control = command(
        "control",
        "closed-loop control plane: admission, reweighting, mitigation",
        *_RUN, *_MTBF, *_RUNTIME, "--workers", "--json", "--out",
        load=0.6, duration_us=40.0, switches=4, fidelity="flow",
    )
    control.add_argument(
        "--campaign", choices=["fault", "attack"], default="fault",
        help="which campaign family to close the loop on",
    )
    control.add_argument(
        "--compare-open-loop", action="store_true",
        help="run the campaign twice (open vs closed loop, same seeds) "
             "and report the per-cell delivered-fraction delta",
    )
    control.add_argument(
        "--cells", type=int, default=8,
        help="fault scenarios / attack trials per campaign",
    )
    control.add_argument(
        "--tick-ns", type=float, default=1_000.0,
        help="control period: signals fold and actuators move once per tick",
    )
    control.add_argument(
        "--actions-out", type=str, default=None,
        help="single-run mode: write the repro-control-v1 action stream "
             "(JSONL) of the demo run to this path",
    )
    return parser


def cmd_analyze(args: argparse.Namespace) -> int:
    config = scaled_router() if args.scaled else reference_router()
    table = Table("Design analysis", ["quantity", "value"])
    table.add("ingress", format_rate(config.io_per_direction_bps))
    table.add("total I/O", format_rate(config.total_io_bps))
    table.add("switches (H)", config.n_switches)
    table.add("per-switch memory I/O", format_rate(config.per_switch_io_bps))
    table.add("frame size K", format_size(config.switch.frame_bytes))
    power = hbm_switch_power(config.switch)
    table.add("power / switch", f"{power.total_w:.0f} W")
    table.add("router power", f"{router_power(config).total_w / 1e3:.2f} kW")
    table.add("router area", f"{router_area(config).total_mm2:.0f} mm^2")
    buffering = router_buffering(config)
    table.add("buffering", f"{format_size(buffering.total_buffer_bytes)} ({buffering.buffer_ms:.1f} ms)")
    table.add("SRAM / switch", f"{sram_sizing(config.switch).total_mb:.1f} MB")
    table.add("vs Cisco 8201-32FH", f"{capacity_vs_reference(config).speedup:.1f}x")
    table.show()
    return 0


def _router_config(n_switches: int):
    """The test-scale router grown to H switches (alpha stays 4)."""
    if n_switches <= 0:
        raise ConfigError(f"--switches must be positive, got {n_switches}")
    return scaled_router(
        fibers_per_ribbon=4 * n_switches, n_switches=n_switches
    )


def _simulated_config(args: argparse.Namespace, failed: List[int]):
    """simulate/sweep: the router grown to ``--switches`` H (the scaled
    router's H when only ``--failed-switches`` is given), or ``None``
    for one switch (``--switches 0``)."""
    if args.switches == 0 and not failed:
        return None
    return _router_config(args.switches or scaled_router().n_switches)


def _emit_json(document, out=None, show=False, announce=True) -> bool:
    """Write ``document`` as indented JSON to ``out`` (saying so unless
    ``announce`` is off) and print it when ``show``; returns ``show``."""
    text = json.dumps(document, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        if announce:
            print(f"wrote {out}")
    if show:
        print(text)
    return show


def _failed_schedule(failed: List[int]):
    """A ``--failed-switches`` list as its degenerate fault schedule (or
    ``None``)."""
    if not failed:
        return None
    from .faults import FaultSchedule

    return FaultSchedule.from_failed_switches(failed)


def _write_metrics_dump(dump, path: str) -> None:
    """Write one scenario payload's telemetry dump to ``path``."""
    from .telemetry import MetricsRegistry, write_metrics

    write_metrics(MetricsRegistry.from_dict(dump), path)
    print(f"wrote {path}")


def _write_merged_metrics(dumps, path: str) -> None:
    """Merge per-cell telemetry dumps (in cell order) and write them."""
    from .telemetry import MetricsRegistry, write_metrics

    registry = MetricsRegistry()
    for dump in dumps:
        if dump is not None:
            registry.merge_dict(dump)
    write_metrics(registry, path)
    print(f"wrote {path}")


def cmd_simulate(args: argparse.Namespace) -> int:
    from .runtime import Runtime, router_scenario, switch_scenario

    failed = _parse_int_list(args.failed_switches)
    runtime = Runtime(cache_dir=args.cache_dir)
    want_metrics = bool(args.metrics_out)
    common = dict(
        load=args.load,
        duration_ns=args.duration_us * 1e3,
        seed=args.seed,
        packet_size=args.packet_size,
        process=args.process,
        padding=not args.no_padding,
        bypass=not args.no_bypass,
        telemetry=want_metrics,
        fidelity=args.fidelity,
        workload=args.workload,
    )
    config = _simulated_config(args, failed)
    if config is not None:
        config = dataclasses.replace(
            config,
            switch=dataclasses.replace(config.switch, speedup=args.speedup),
        )
        scenario = router_scenario(
            config, schedule=_failed_schedule(failed), **common
        )
    else:
        switch = dataclasses.replace(scaled_router().switch, speedup=args.speedup)
        scenario = switch_scenario(switch, **common)
    payload = runtime.run(scenario)
    report = payload["report"]
    if want_metrics:
        _write_metrics_dump(payload["telemetry"], args.metrics_out)
    if args.json:
        _emit_json({**report, "scenario_digest": scenario.digest()}, show=True)
        return 0
    if config is not None:
        table = Table("Router simulation", ["metric", "value"])
        table.add("switches (H)", config.n_switches)
        table.add("failed switches", str(report["failed_switches"]) if report["failed_switches"] else "none")
        table.add("offered", format_size(report["offered_bytes"]))
        table.add("failed_offered_bytes", report["failed_offered_bytes"])
        table.add("delivered", f"{report['delivered_fraction']:.2%}")
        table.add("lost", format_size(report["lost_bytes"]))
        table.add("loss fraction", f"{report['loss_fraction']:.4f}")
        table.add("load imbalance", f"{report['load_imbalance']:.3f}")
        table.add("reorderings", report["ordering_violations"])
        table.add("mean latency", format_time(report["latency"]["mean_ns"]))
        table.add("p99 latency", format_time(report["latency"]["p99_ns"]))
        table.show()
        return 0
    table = Table("Switch simulation", ["metric", "value"])
    table.add("offered", format_size(report["offered_bytes"]))
    table.add("delivered", f"{report['delivery_fraction']:.2%}")
    table.add("normalized throughput", f"{report['normalized_throughput']:.3f}")
    table.add("dropped bytes", report["dropped_bytes"])
    table.add("reorderings", report["ordering_violations"])
    table.add("mean latency", format_time(report["latency"]["mean_ns"]))
    table.add("p99 latency", format_time(report["latency"]["p99_ns"]))
    table.add("frames written / read", f"{report['pfi']['frames_written']} / {report['pfi']['frames_read']}")
    table.add("padded / bypassed", f"{report['pfi']['padded_frames']} / {report['pfi']['bypassed_frames']}")
    table.show()
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .runtime import (
        Runtime,
        execute_scenario,
        parse_shard,
        router_scenario,
        switch_scenario,
    )

    loads = _parse_float_list(args.loads)
    failed = _parse_int_list(args.failed_switches)
    shard = parse_shard(args.shard)
    want_metrics = bool(args.metrics_out)
    if want_metrics and (args.cache_dir or shard):
        # The live registry accumulates observations across cells (a
        # running floating-point sum), which recalled payloads cannot
        # replay byte-identically -- so metrics runs execute everything.
        print(
            "--metrics-out shares one live registry across cells; "
            "ignoring --cache-dir/--shard for this run",
            file=sys.stderr,
        )
        shard = None
    runtime = Runtime(
        cache_dir=None if want_metrics else args.cache_dir,
        n_workers=args.workers,
    )
    duration_ns = args.duration_us * 1e3
    config = _simulated_config(args, failed)
    router_mode = config is not None
    common = dict(
        duration_ns=duration_ns,
        seed=args.seed,
        telemetry=want_metrics,
        fidelity=args.fidelity,
        workload=args.workload,
    )
    if router_mode:
        schedule = _failed_schedule(failed)
        scenarios = [
            router_scenario(config, load=load, schedule=schedule, **common)
            for load in loads
        ]
    else:
        switch = scaled_router().switch
        scenarios = [
            switch_scenario(switch, load=load, **common) for load in loads
        ]
    from .runtime import open_event_stream

    events = open_event_stream(args.events_out)
    try:
        if want_metrics:
            from .telemetry import MetricsRegistry

            registry = MetricsRegistry()
            if events is not None:
                events.emit(
                    "sweep_start", n_cells=len(scenarios), shard=None
                )
            payloads = []
            for i, scenario in enumerate(scenarios):
                if events is not None:
                    events.emit(
                        "cell_start", index=i, digest=scenario.digest()
                    )
                payloads.append(execute_scenario(scenario, registry=registry))
                if events is not None:
                    events.emit(
                        "cell_finish",
                        index=i,
                        digest=scenario.digest(),
                        status="ok",
                    )
            if events is not None:
                events.emit(
                    "sweep_finish",
                    n_executed=len(scenarios),
                    n_cached=0,
                    n_unresolved=0,
                )
        else:
            payloads = runtime.map(scenarios, shard=shard, events=events)
    finally:
        if events is not None:
            events.close()

    if router_mode:
        table = Table(
            "Router load sweep",
            ["load", "delivered", "failed_offered_bytes", "loss fraction", "p99 latency"],
        )
        for load, payload in zip(loads, payloads):
            if payload is None:
                continue
            report = payload["report"]
            table.add(
                f"{load:.2f}",
                f"{report['delivered_fraction']:.2%}",
                report["failed_offered_bytes"],
                f"{report['loss_fraction']:.4f}",
                format_time(report["latency"]["p99_ns"]),
            )
    else:
        table = Table(
            "Load sweep", ["load", "throughput", "delivered", "mean latency", "p99 latency"]
        )
        for load, payload in zip(loads, payloads):
            if payload is None:
                continue
            report = payload["report"]
            table.add(
                f"{load:.2f}",
                f"{report['normalized_throughput']:.3f}",
                f"{report['delivery_fraction']:.2%}",
                format_time(report["latency"]["mean_ns"]),
                format_time(report["latency"]["p99_ns"]),
            )
    table.show()

    complete = all(p is not None for p in payloads)
    if not complete:
        done = sum(1 for p in payloads if p is not None)
        print(
            f"shard {args.shard}: {done}/{len(payloads)} cells resolved; "
            "rerun without --shard over the same --cache-dir to merge",
            file=sys.stderr,
        )
    if args.out:
        if not complete:
            print(
                "--out skipped: unresolved cells (the merge run writes "
                "the document)",
                file=sys.stderr,
            )
        else:
            document = {
                "schema": "repro-sweep-v1",
                "kind": "router" if router_mode else "switch",
                "loads": loads,
                "seed": args.seed,
                "duration_ns": duration_ns,
                "switches": config.n_switches if router_mode else 0,
                "digests": [s.digest() for s in scenarios],
                "cells": [p["report"] for p in payloads],
            }
            _emit_json(document, args.out)
    if want_metrics:
        _write_metrics_dump(registry.to_dict(), args.metrics_out)
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from .faults import DegradationReport, parse_fault_specs
    from .reporting import (
        campaign_table,
        degradation_summary_table,
        degradation_table,
    )
    from .runtime import (
        FaultCampaign,
        Runtime,
        degradation_scenario,
        parse_shard,
    )

    config = _router_config(args.switches)
    schedule = parse_fault_specs(args.fault)
    failed = _parse_int_list(args.failed_switches)
    if failed:
        schedule = schedule.with_failed_switches(failed)
    schedule.validate(config)
    duration_ns = args.duration_us * 1e3
    runtime = Runtime(cache_dir=args.cache_dir, n_workers=args.workers)

    if args.campaign > 0:
        if args.metrics_out:
            print(
                "--metrics-out applies to single runs only; ignoring it "
                "for the campaign",
                file=sys.stderr,
            )
        params = _mtbf_campaign_params(
            args, n_scenarios=args.campaign, n_intervals=args.intervals
        )
        result = runtime.run_campaign(
            FaultCampaign(
                config=config,
                params=params,
                base_schedule=None if schedule.is_empty else schedule,
                fidelity=args.fidelity,
                workload=args.workload,
            ),
            shard=parse_shard(args.shard),
        )
        if result is None:
            print(
                f"shard {args.shard}: partial campaign cached; rerun "
                "without --shard over the same --cache-dir to aggregate",
                file=sys.stderr,
            )
            return 0
        out = args.out if args.out else "FAULTS_CAMPAIGN.json"
        if not _emit_json(result.to_dict(), out, args.json, announce=False):
            campaign_table(result).show()
            print(
                f"{result.n_faulted}/{params.n_scenarios} scenarios drew faults"
            )
        print(f"wrote {out}")
        return 0

    payload = runtime.run(
        degradation_scenario(
            config,
            load=args.load,
            duration_ns=duration_ns,
            seed=args.seed,
            schedule=None if schedule.is_empty else schedule,
            n_intervals=args.intervals,
            telemetry=bool(args.metrics_out),
            fidelity=args.fidelity,
            workload=args.workload,
        )
    )
    if args.metrics_out:
        _write_metrics_dump(payload["telemetry"], args.metrics_out)
    if _emit_json(payload["report"], args.out, args.json):
        return 0
    report = DegradationReport.from_dict(payload["report"])
    degradation_summary_table(report).show()
    degradation_table(report).show()
    return 0


def _attack_strategy(args: argparse.Namespace):
    from .adversary import (
        BurstSynchronizedAttack,
        KnownAssignmentAttack,
        ObliviousProbeAttack,
        OperatorSkew,
    )

    fraction = {}
    if args.attack_fraction is not None:
        fraction["attack_fraction"] = args.attack_fraction
    if args.strategy == "known-assignment":
        return KnownAssignmentAttack(
            victim=args.victim, oracle=args.oracle, **fraction
        )
    if args.strategy == "oblivious-probe":
        return ObliviousProbeAttack(
            victim=args.victim, probe_rounds=args.probe_rounds, **fraction
        )
    if args.strategy == "operator-skew":
        return OperatorSkew(skew=args.skew, **fraction)
    return BurstSynchronizedAttack(
        victim=args.victim,
        period_ns=args.burst_period_ns,
        duty=args.duty,
        **fraction,
    )


def cmd_attack(args: argparse.Namespace) -> int:
    from .adversary import (
        AttackCampaignParams,
        compare_splitters,
        seed_sensitivity_sweep,
    )
    from .faults import parse_fault_specs
    from .reporting import (
        attack_campaign_table,
        attack_comparison_table,
        seed_sweep_table,
    )
    from .runtime import AttackCampaign, Runtime

    if args.ribbons <= 0:
        raise ConfigError(f"--ribbons must be positive, got {args.ribbons}")
    if args.switches <= 0:
        raise ConfigError(f"--switches must be positive, got {args.switches}")
    config = scaled_router(
        n_ribbons=args.ribbons,
        fibers_per_ribbon=4 * args.switches,
        n_switches=args.switches,
    )
    strategy = _attack_strategy(args)
    schedule = parse_fault_specs(args.fault)
    failed = _parse_int_list(args.failed_switches)
    duration_ns = args.duration_us * 1e3
    telemetry = bool(args.metrics_out)
    runtime = Runtime(cache_dir=args.cache_dir, n_workers=args.workers)

    if args.splitter == "both":
        comparison = compare_splitters(
            config,
            strategy,
            n_trials=args.trials,
            seed=args.seed,
            load=args.load,
            duration_ns=duration_ns,
            telemetry=telemetry,
            fault_schedule=None if schedule.is_empty else schedule,
            failed_switches=failed or None,
            runtime=runtime,
            fidelity=args.fidelity,
            workload=args.workload,
        )
        campaigns = comparison.pop("_campaigns")
        document = comparison
        tables = [attack_comparison_table(comparison)]
    else:
        params = AttackCampaignParams(
            strategy=strategy,
            splitter=args.splitter,
            n_trials=args.trials,
            seed=args.seed,
            load=args.load,
            duration_ns=duration_ns,
            telemetry=telemetry,
        )
        result = runtime.run_campaign(
            AttackCampaign(
                config=config,
                params=params,
                fault_schedule=None if schedule.is_empty else schedule,
                failed_switches=failed or None,
                fidelity=args.fidelity,
                workload=args.workload,
            )
        )
        campaigns = {args.splitter: result}
        document = result.to_dict()
        tables = [attack_campaign_table(result)]

    if args.seed_sweep > 0:
        sweep = seed_sensitivity_sweep(
            config.fibers_per_ribbon,
            config.n_switches,
            strategy=strategy,
            n_ribbons=config.n_ribbons,
            n_seeds=args.seed_sweep,
            base_seed=args.seed,
        )
        document = dict(document)
        document["seed_sweep"] = sweep
        tables.append(seed_sweep_table(sweep))

    if args.metrics_out:
        # Fixed splitter-kind order keeps the merged dump byte-identical
        # across sequential, parallel and cached campaign runs.
        _write_merged_metrics(
            [campaigns[kind].telemetry for kind in sorted(campaigns)],
            args.metrics_out,
        )

    if _emit_json(document, args.out, args.json):
        return 0
    for table in tables:
        table.show()
    return 0


def _fabric_topology(args: argparse.Namespace):
    from .fabric import (
        ClosTopology,
        DragonflyTopology,
        ExpanderTopology,
        RotationTopology,
    )

    if args.topology == "clos":
        return ClosTopology(k=args.k, stages=2)
    if args.topology == "clos3":
        return ClosTopology(k=args.k, stages=3)
    if args.topology == "expander":
        return ExpanderTopology(
            n_routers=args.routers, degree=args.degree, seed=args.topo_seed
        )
    if args.topology == "rotation":
        return RotationTopology(n_routers=args.routers, slot_ns=args.slot_ns)
    return DragonflyTopology(
        n_groups=args.groups, routers_per_group=args.group_size
    )


def cmd_fabric(args: argparse.Namespace) -> int:
    from .faults import parse_fault_specs
    from .runtime import Runtime, fabric_scenario

    config = _router_config(args.switches)
    topology = _fabric_topology(args)
    schedule = parse_fault_specs(args.fault)
    want_metrics = bool(args.metrics_out)
    runtime = Runtime(cache_dir=args.cache_dir)
    scenario = fabric_scenario(
        config,
        topology,
        routing=args.routing,
        pattern=args.pattern,
        load=args.load,
        duration_ns=args.duration_us * 1e3,
        seed=args.seed,
        fidelity=args.fidelity,
        schedule=None if schedule.is_empty else schedule,
        link_delay_ns=args.link_delay_ns,
        telemetry=want_metrics,
    )
    payload = runtime.run(scenario)
    report = payload["report"]
    if want_metrics:
        _write_metrics_dump(payload["telemetry"], args.metrics_out)
    document = {**report, "scenario_digest": scenario.digest()}
    if _emit_json(document, args.out, args.json):
        return 0
    table = Table("Fabric simulation", ["metric", "value"])
    table.add("topology", report["topology"]["kind"])
    table.add("routers", report["n_routers"])
    table.add("per-node H", config.n_switches)
    table.add("routing", report["routing"])
    table.add("pattern", args.pattern)
    table.add("fidelity", report["fidelity"])
    table.add("faults", "; ".join(report["fault_events"]) or "none")
    table.add("offered", format_rate(report["offered_bps"]))
    table.add("delivered", format_rate(report["delivered_bps"]))
    table.add("delivered fraction", f"{report['delivered_fraction']:.2%}")
    table.add("mean hops", f"{report['mean_hops']:.2f}")
    table.add("mean latency", format_time(report["mean_latency_ns"]))
    table.add("max link utilization", f"{report['max_link_utilization']:.3f}")
    table.show()
    routers = Table(
        "Per-router accounting",
        ["router", "offered", "delivered", "down fraction"],
    )
    for row in report["routers"]:
        routers.add(
            row["router"],
            format_rate(row["offered_bps"]),
            f"{row['delivered_fraction']:.2%}",
            f"{row['down_fraction']:.2f}",
        )
    routers.show()
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from .runtime import execute_scenario, router_scenario
    from .telemetry import MetricsRegistry, stage_summaries, to_jsonl, to_prometheus

    registry = MetricsRegistry()
    config = _router_config(args.switches)
    # Inline execution with a shared registry (and exec-mode hints): the
    # command's whole point is the live registry, so it bypasses the
    # cache -- cached payloads stay pure functions of the scenario.
    payload = execute_scenario(
        router_scenario(
            config,
            load=args.load,
            duration_ns=args.duration_us * 1e3,
            seed=args.seed,
            mode=args.mode,
            workers=args.workers,
        ),
        registry=registry,
    )
    report = payload["report"]
    if args.format == "prom":
        sys.stdout.write(to_prometheus(registry))
    elif args.format == "jsonl":
        sys.stdout.write(to_jsonl(registry))
    else:
        table = Table(
            "Pipeline stage latency",
            ["stage", "count", "mean", "p50", "p99"],
        )
        for stage, summary in stage_summaries(registry).items():
            table.add(
                stage,
                summary["count"],
                format_time(summary["mean_ns"]),
                format_time(summary["p50_ns"]),
                format_time(summary["p99_ns"]),
            )
        table.show()
        totals = Table("Run totals", ["metric", "value"])
        totals.add("switches (H)", config.n_switches)
        totals.add("mode", args.mode)
        totals.add("offered", format_size(report["offered_bytes"]))
        totals.add("delivered", f"{report['delivered_fraction']:.2%}")
        totals.add("series exported", sum(1 for _ in registry))
        totals.show()
    if args.out:
        _write_metrics_dump(registry.to_dict(), args.out)
    return 0


def cmd_experiments(_args: argparse.Namespace) -> int:
    table = Table("Experiment index", ["id", "claim", "bench"])
    for exp_id, claim, bench in EXPERIMENTS:
        table.add(exp_id, claim, bench)
    table.show()
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    if args.events:
        from .reporting import render_pipeline_events
        from .runtime import execute_scenario, switch_scenario
        from .sim.trace import TraceRecorder

        recorder = TraceRecorder()
        execute_scenario(
            switch_scenario(
                scaled_router().switch,
                load=args.load,
                duration_ns=args.duration_us * 1e3,
                seed=args.seed,
            ),
            trace=recorder,
        )
        print(render_pipeline_events(recorder, width=args.width))
        return 0

    from .config import HBMSwitchConfig
    from .hbm import (
        BankGroup,
        HBMTiming,
        Op,
        bank_group_for_frame,
        first_legal_start,
        generate_frame_schedule,
    )
    from .reporting import render_bank_timeline, render_bus_utilisation

    if args.frames <= 0:
        print("--frames must be positive", file=sys.stderr)
        return 2
    config = HBMSwitchConfig()
    timing = HBMTiming()
    commands = []
    start = first_legal_start(timing)
    for i in range(args.frames):
        sched = generate_frame_schedule(
            Op.WR if i % 2 == 0 else Op.RD,
            [0],
            BankGroup(bank_group_for_frame(i, config.n_bank_groups), config.gamma),
            config.segment_bytes,
            row=i,
            data_start=start,
            timing=timing,
            channel_bytes_per_ns=config.stack.channel_bytes_per_ns,
        )
        commands.extend(sched.commands)
        start = sched.data_end
    print(render_bank_timeline(
        commands, timing, channel=0,
        bytes_per_ns=config.stack.channel_bytes_per_ns, width=args.width,
    ))
    print()
    print(render_bus_utilisation(
        commands, timing, channel=0,
        bytes_per_ns=config.stack.channel_bytes_per_ns, width=args.width,
    ))
    return 0


def cmd_timeseries(args: argparse.Namespace) -> int:
    from .telemetry import read_jsonl, sparkline
    from .telemetry.export import PrometheusParseError

    try:
        with open(args.path) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error reading {args.path}: {exc}", file=sys.stderr)
        return 2
    try:
        registry = read_jsonl(text)
    except (PrometheusParseError, ConfigError, ValueError) as exc:
        print(f"error parsing {args.path}: {exc}", file=sys.stderr)
        return 2
    if args.ewma is not None and not 0.0 < args.ewma <= 1.0:
        print(f"--ewma must be in (0, 1], got {args.ewma}", file=sys.stderr)
        return 2
    if args.width < 8:
        print(f"--width must be >= 8, got {args.width}", file=sys.stderr)
        return 2

    series_list = [
        s for s in registry.iter_timeseries()
        if args.name is None or args.name in s.name
    ]
    if not series_list:
        what = f" matching {args.name!r}" if args.name else ""
        print(f"no time series{what} in {args.path}")
        return 0
    table = Table(
        "Time series",
        ["series", "windows", "total", "mean", "peak", "timeline"],
    )
    for series in series_list:
        labels = ",".join(f"{k}={v}" for k, v in series.labels)
        name = f"{series.name}{{{labels}}}" if labels else series.name
        values = series.values()
        shown = values[-args.width:]
        mean = series.mean
        peak = series.peak
        table.add(
            name,
            len(values),
            f"{series.total:g}",
            "-" if mean != mean else f"{mean:g}",
            "-" if peak != peak else f"{peak:g}",
            sparkline(shown),
        )
        if args.ewma is not None and values:
            smoothed = [v for _, v in series.ewma(args.ewma)]
            table.add(
                f"  ewma(alpha={args.ewma:g})",
                "", "", "", "",
                sparkline(smoothed[-args.width:]),
            )
    table.show()
    window_widths = sorted({s.window_ns for s in series_list})
    print(
        f"{len(series_list)} series; window width "
        + ", ".join(f"{w:g} ns" for w in window_widths)
        + (f"; last {args.width} windows shown" if any(
            len(s.values()) > args.width for s in series_list
        ) else "")
    )
    return 0


def cmd_control(args: argparse.Namespace) -> int:
    from .control import ControlConfig, compare_attack_loops, compare_fault_loops
    from .runtime import Runtime

    config = _router_config(args.switches)
    duration_ns = args.duration_us * 1e3
    control = ControlConfig(tick_ns=args.tick_ns)
    runtime = Runtime(cache_dir=args.cache_dir, n_workers=args.workers)

    if args.compare_open_loop:
        if args.campaign == "fault":
            params = _mtbf_campaign_params(args, n_scenarios=args.cells)
            result = compare_fault_loops(
                config, params, control=control,
                fidelity=args.fidelity, runtime=runtime,
            )
            extra = ("availability", result["availability"])
        else:
            from .adversary import AttackCampaignParams, BurstSynchronizedAttack

            params = AttackCampaignParams(
                strategy=BurstSynchronizedAttack(),
                n_trials=args.cells,
                seed=args.seed,
                load=args.load,
                duration_ns=duration_ns,
            )
            result = compare_attack_loops(
                config, params, control=control,
                fidelity=args.fidelity, runtime=runtime,
            )
            extra = ("victim gain", result["victim_gain"])
        if _emit_json(result, args.out, args.json):
            return 0
        table = Table(
            f"closed vs open loop: {args.campaign} campaign "
            f"({args.cells} cells, fidelity={args.fidelity})",
            ["metric", "open", "closed", "delta", "improved", "regressed"],
        )
        for name, block in (
            ("delivered fraction", result["delivered_fraction"]), extra,
        ):
            table.add(
                name,
                f"{block['open_mean']:.4f}",
                f"{block['closed_mean']:.4f}",
                f"{block['delta_mean']:+.4f}",
                block["n_improved"],
                block["n_regressed"],
            )
        table.show()
        return 0

    # Single-run demo: switch 0 fails for the middle third of the run;
    # the reweight controller sheds its load onto the healthy siblings.
    if args.fidelity != "flow":
        raise ConfigError(
            "the single-run control demo runs at flow fidelity; "
            "--fidelity packet needs --compare-open-loop"
        )
    from .faults import FaultSchedule, SwitchFailure
    from .flow.engine import _uniform_components, simulate_flow_router

    schedule = FaultSchedule(
        [
            SwitchFailure(
                switch=0,
                start_ns=duration_ns / 3.0,
                end_ns=2.0 * duration_ns / 3.0,
            )
        ]
    )
    result = simulate_flow_router(
        config,
        _uniform_components(config, args.load, duration_ns),
        duration_ns=duration_ns,
        schedule=schedule,
        n_intervals=8,
        control=control,
    )
    report = result.degradation()
    if args.actions_out:
        result.control_actions.write(args.actions_out)
        print(f"wrote {args.actions_out}")
    summary = {
        "delivered_fraction": report.delivered_fraction,
        "loss_fraction": report.loss_fraction,
        "availability": report.availability(),
        "control": report.control,
    }
    if _emit_json(summary, args.out, args.json):
        return 0
    ctrl = report.control or {}
    table = Table(
        "closed-loop demo: switch 0 down for the middle third",
        ["metric", "value"],
    )
    table.add("delivered fraction", f"{report.delivered_fraction:.4f}")
    table.add("loss fraction", f"{report.loss_fraction:.4f}")
    table.add("availability", f"{report.availability():.4f}")
    table.add("control ticks", ctrl.get("ticks", 0))
    table.add("state changes", ctrl.get("n_state_changes", 0))
    table.add("throttled bytes", ctrl.get("throttled_bytes", 0))
    table.show()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "analyze": cmd_analyze,
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "metrics": cmd_metrics,
        "faults": cmd_faults,
        "attack": cmd_attack,
        "fabric": cmd_fabric,
        "experiments": cmd_experiments,
        "timeline": cmd_timeline,
        "timeseries": cmd_timeseries,
        "control": cmd_control,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
