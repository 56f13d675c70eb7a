#!/usr/bin/env python3
"""Datacenter variant: smaller frames for lower latency (SS 5).

Datacenter networks care about microseconds, not about 50 ms of
buffering.  The paper suggests HBM switches with smaller frames.  This
example sweeps the frame size on a mid-size switch under a latency-
sensitive workload (small RPC-style packets, bursty arrivals) and shows
the trade the paper describes: smaller frames cut fill-and-cycle
latency, but segments shorter than a DRAM row re-expose per-bank
overhead -- the timing model flags where the staggered schedule stops
being legal at gamma = 4.

Run:  python examples/datacenter_switch.py
"""

import dataclasses

from repro.config import HBMStackConfig, HBMSwitchConfig
from repro.core import HBMSwitch, PFIOptions
from repro.errors import ConfigError
from repro.hbm import HBMTiming, derive_gamma
from repro.reporting import Table
from repro.traffic import ArrivalProcess, FixedSize, TrafficGenerator, uniform_matrix
from repro.units import format_size, format_time, gbps


def build_switch(segment_bytes: int) -> HBMSwitchConfig:
    stack = HBMStackConfig(
        channels=16,
        gbps_per_bit=gbps(2.5),
        banks_per_channel=32,
        capacity_bytes=2**31,
        row_bytes=256,
    )
    return HBMSwitchConfig(
        n_ports=8,
        n_stacks=1,
        batch_bytes=2048,
        segment_bytes=segment_bytes,
        gamma=4,
        port_rate_bps=gbps(160),
        stack=stack,
    )


def main() -> None:
    duration_ns = 60_000.0
    timing = HBMTiming()
    table = Table(
        "Datacenter frame-size sweep (bursty 256 B RPCs, 50% load)",
        ["frame", "segment", "legal @ gamma=4", "mean latency", "p99 latency"],
    )
    for segment in (256, 128, 64):
        config = build_switch(segment)
        seg_time = segment / config.stack.channel_bytes_per_ns
        try:
            legal = derive_gamma(timing, seg_time) <= config.gamma
        except ConfigError:
            legal = False
        generator = TrafficGenerator(
            config.n_ports,
            config.port_rate_bps,
            uniform_matrix(config.n_ports, 0.5),
            FixedSize(256),
            process=ArrivalProcess.ONOFF,
            seed=3,
        )
        packets = generator.materialize(duration_ns)
        switch = HBMSwitch(config, PFIOptions(padding=True, bypass=True))
        report = switch.run(packets, duration_ns)
        table.add(
            format_size(config.frame_bytes),
            format_size(segment),
            str(legal),
            format_time(report.latency["mean_ns"]),
            format_time(report.latency["p99_ns"]),
        )
    table.show()
    print(
        "\nSmaller frames cut latency, but sub-row segments break the\n"
        "staggered schedule at gamma = 4 (the random-access tax returns).\n"
        "The paper's alternative: an SPS built from commercial switch\n"
        "chiplets (Tomahawk/Jericho) for radix- and latency-critical\n"
        "datacenter deployments."
    )


if __name__ == "__main__":
    main()
