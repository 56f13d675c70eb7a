#!/usr/bin/env python3
"""Driving the switch with an external workload trace.

Production users rarely want synthetic matrices only: this example
saves a workload as a portable CSV trace, reloads it, replays it at
three different loads (by time-scaling), and runs each through the HBM
switch with a real FIB classifying every packet.

Run:  python examples/custom_workload.py
"""

import io

from repro.config import scaled_router
from repro.core import HBMSwitch, PFIOptions
from repro.forwarding.table import fib_matching_generator
from repro.reporting import Table
from repro.traffic import (
    ImixSize,
    TrafficGenerator,
    load_trace,
    replay,
    trace_to_string,
    uniform_matrix,
)
from repro.units import format_rate, format_time


def main() -> None:
    config = scaled_router().switch
    duration_ns = 30_000.0

    # 1. Build a workload and serialise it, as a capture pipeline would.
    generator = TrafficGenerator(
        n_ports=config.n_ports,
        port_rate_bps=config.port_rate_bps,
        matrix=uniform_matrix(config.n_ports, 0.9),
        size_dist=ImixSize(),
        seed=31,
    )
    csv_text = trace_to_string(generator.materialize(duration_ns))
    print(f"Serialised trace: {len(csv_text.splitlines()) - 1} packets, "
          f"{len(csv_text) / 1024:.0f} KB of CSV\n")

    # 2. Reload and replay at three loads; classify with a real FIB.
    table = Table(
        "Replayed trace through the HBM switch (FIB classification on)",
        ["time scale", "offered", "delivered", "mean latency", "p99"],
    )
    for scale in (1.0, 1.5, 3.0):
        packets = replay(load_trace(io.StringIO(csv_text)), time_scale=scale)
        horizon = duration_ns * scale
        fib = fib_matching_generator(config.n_ports)
        switch = HBMSwitch(config, PFIOptions(padding=True, bypass=True), fib=fib)
        report = switch.run(packets, horizon)
        table.add(
            f"x{scale}",
            format_rate(8e9 * report.offered_bytes / horizon),
            f"{report.delivery_fraction:.1%}",
            format_time(report.latency["mean_ns"]),
            format_time(report.latency["p99_ns"]),
        )
        assert fib.miss_fraction == 0.0
    table.show()
    print(
        "\nThe same packet mix at three loads, every packet classified by\n"
        "a longest-prefix-match lookup in the datapath.  Trace CSVs are\n"
        "plain enough to come from any capture pipeline."
    )


if __name__ == "__main__":
    main()
