"""Peak-RSS probe for the streaming traffic substrate.

The bounded-memory claim behind :class:`~repro.traffic.stream.TrafficSource`
is a *process*-level property: a larger offered workload streamed block
by block through one switch must not move the resident set.
``ru_maxrss`` is a lifetime high-water mark, so two measurements taken
inside one interpreter would only ever see the larger of the two -- each
probe therefore runs in its own subprocess (:func:`measure_rss`) and
reports a small JSON document on stdout.

Run directly for one measurement::

    PYTHONPATH=src python tests/rss_probe.py --target-packets 1000000

The probe calibrates the simulated duration from a short generation-only
pilot (packets per nanosecond of the seeded Pareto source at load 0.8),
so ``--target-packets`` is an offered-count floor, not an estimate.  The
per-output latency reservoirs are capped
(:class:`~repro.sim.stats.LatencyRecorder`), otherwise delivered-packet
samples would grow the resident set and mask the substrate's flatness.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, Optional

#: Packets-per-output retained by the latency reservoir during probes.
#: Large enough for stable percentiles, small enough that sample storage
#: cannot be confused with traffic-substrate growth.
PROBE_LATENCY_CAP = 4096

#: Simulated span of the generation-only calibration pilot.
PILOT_NS = 100_000.0

LOAD = 0.8


def peak_rss_bytes() -> int:
    """This process's lifetime peak resident set, in bytes."""
    import resource

    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return peak if sys.platform == "darwin" else peak * 1024


def run_probe(target_packets: int) -> Dict[str, Any]:
    """Stream at least ``target_packets`` through one switch; report RSS."""
    from repro.config import scaled_router
    from repro.core import PFIOptions
    from repro.core.hbm_switch import HBMSwitch
    from repro.traffic import DEFAULT_BLOCK_NS, workload_source

    config = scaled_router().switch

    def source(duration_ns: float):
        return workload_source(
            "pareto",
            n_ports=config.n_ports,
            port_rate_bps=config.port_rate_bps,
            load=LOAD,
            duration_ns=duration_ns,
        )

    # Generation-only pilot: packets per simulated nanosecond of this
    # exact source, so the calibrated duration offers >= target_packets
    # without materializing anything.
    pilot = sum(len(b) for b in source(PILOT_NS).blocks(PILOT_NS, DEFAULT_BLOCK_NS))
    duration_ns = PILOT_NS * (target_packets / pilot) * 1.02

    switch = HBMSwitch(
        config,
        PFIOptions(padding=True, bypass=True),
        latency_sample_cap=PROBE_LATENCY_CAP,
    )
    blocks = source(duration_ns).blocks(duration_ns, DEFAULT_BLOCK_NS)
    report = switch.run_stream(blocks, duration_ns)
    return {
        "target_packets": target_packets,
        "offered_packets": report.offered_packets,
        "peak_rss_bytes": peak_rss_bytes(),
    }


def measure_rss(target_packets: int) -> Dict[str, Any]:
    """Run one probe in a fresh interpreter and return its JSON document.

    A fresh interpreter per measurement keeps ``ru_maxrss`` honest: the
    high-water mark belongs to exactly one workload size.  The child
    imports ``repro`` from the same place as this process.
    """
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, __file__, "--target-packets", str(target_packets)],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"rss probe failed (exit {proc.returncode}): "
            f"{proc.stderr.strip()[-500:]}"
        )
    return json.loads(proc.stdout)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="peak-RSS probe: one streamed switch run"
    )
    parser.add_argument("--target-packets", type=int, required=True)
    args = parser.parse_args(argv)
    json.dump(run_probe(args.target_packets), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
