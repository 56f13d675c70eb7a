#!/usr/bin/env python3
"""Where do the nanoseconds go?  PFI latency, decomposed.

Every delivered packet's latency splits into four pipeline stages --
batch fill, frame fill, HBM round-trip wait, egress drain.  This example
sweeps the load, prints the measured decomposition next to the
first-order queueing model, and shows the crossover the paper's latency
discussion implies: aggregation dominates at light load, queueing at
heavy load, and the HBM itself is never the problem.

Run:  python examples/latency_anatomy.py
"""

from repro.analysis.queueing import pfi_latency_model
from repro.config import scaled_router
from repro.core import HBMSwitch, PFIOptions
from repro.reporting import Table
from repro.traffic import FixedSize, TrafficGenerator, uniform_matrix
from repro.units import format_time

DURATION_NS = 80_000.0


def run_at(config, load):
    generator = TrafficGenerator(
        n_ports=config.n_ports,
        port_rate_bps=config.port_rate_bps,
        matrix=uniform_matrix(config.n_ports, load),
        size_dist=FixedSize(1500),
        seed=17,
    )
    packets = generator.materialize(DURATION_NS)
    switch = HBMSwitch(config, PFIOptions(padding=True, bypass=True))
    return switch.run(packets, DURATION_NS)


def main() -> None:
    config = scaled_router().switch
    table = Table(
        "Measured latency decomposition (mean ns per stage)",
        ["load", "batch fill", "frame fill", "HBM wait", "egress", "total"],
    )
    model_table = Table(
        "First-order queueing model (same stages)",
        ["load", "batch fill", "frame fill", "HBM wait", "egress", "total"],
    )
    for load in (0.1, 0.3, 0.6, 0.9):
        report = run_at(config, load)
        b = report.latency_breakdown
        table.add(
            f"{load:.1f}",
            f"{b['batch_fill']:.0f}",
            f"{b['frame_fill']:.0f}",
            f"{b['hbm_wait']:.0f}",
            f"{b['egress']:.0f}",
            format_time(report.latency["mean_ns"]),
        )
        model = pfi_latency_model(config, load)
        model_table.add(
            f"{load:.1f}",
            f"{model.batch_fill_ns:.0f}",
            f"{model.frame_fill_ns:.0f}",
            f"{model.hbm_wait_ns:.0f}",
            f"{model.egress_ns:.0f}",
            format_time(model.total_ns),
        )
    table.show()
    model_table.show()
    print(
        "\nAggregation (batch + frame fill) dominates at light load --\n"
        "capped by the padding deadline and the bypass path, which is\n"
        "why the model's HBM-wait term overshoots there.  At heavy load\n"
        "the measured decomposition converges to the queueing model:\n"
        "the delays are queueing physics, not simulator artifacts."
    )


if __name__ == "__main__":
    main()
