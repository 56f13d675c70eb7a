"""E10 -- Fiber-split load balance (Challenge 4 / Idea 4 / SS 4 *Traffic
matrix at HBM switches*).

Paper claims, all reproduced here:

1. the contiguous split concentrates the "first fiber connected first"
   operator skew onto the first switch;
2. an adversary who knows the contiguous pattern can saturate one
   internal switch; a secret pseudo-random split defuses both;
3. with upstream ECMP/LAG hashing, per-fiber loads are even and the
   per-switch traffic matrices even out for either splitter.
"""

import numpy as np
import pytest

from repro.core.fiber_split import (
    ContiguousSplitter,
    PseudoRandomSplitter,
    overload_loss_fraction,
    per_switch_loads,
    per_switch_port_loads,
    split_imbalance,
)
from repro.traffic.generators import fiber_load_profile

from conftest import show

F, H, RIBBONS = 64, 16, 16


def run_split_comparison():
    rng = np.random.default_rng(42)
    contiguous = ContiguousSplitter(F, H)
    random_split = PseudoRandomSplitter(F, H, seed=0xBEEF)
    results = {}
    for kind, extra in (("ecmp", {}), ("first-connected", {"skew": 8.0})):
        profiles = [
            fiber_load_profile(F, kind, total_load=1.0, rng=rng, **extra)
            for _ in range(RIBBONS)
        ]
        results[kind] = {
            "contiguous": split_imbalance(per_switch_loads(contiguous, profiles)),
            "pseudo-random": split_imbalance(per_switch_loads(random_split, profiles)),
        }
    # Adversary targets the contiguous fibers of switch 0.
    target = contiguous.fibers_to(0, 0)
    adversarial = [
        fiber_load_profile(F, "adversarial", total_load=1.0, target_fibers=target)
        for _ in range(RIBBONS)
    ]
    results["adversarial"] = {
        "contiguous": split_imbalance(per_switch_loads(contiguous, adversarial)),
        "pseudo-random": split_imbalance(per_switch_loads(random_split, adversarial)),
    }
    # First-order loss estimate at full load under the adversary.
    loss = {
        name: overload_loss_fraction(
            per_switch_port_loads(splitter, adversarial), port_capacity=1.0 / H
        )
        for name, splitter in (("contiguous", contiguous), ("pseudo-random", random_split))
    }
    return results, loss


def test_e10_fiber_split(benchmark):
    results, loss = benchmark(run_split_comparison)
    show(
        "E10: per-switch load imbalance (max/mean; 1.0 = perfect)",
        [
            (kind, f"{r['contiguous']:.2f}", f"{r['pseudo-random']:.2f}")
            for kind, r in results.items()
        ],
        headers=("fiber-load profile", "contiguous", "pseudo-random"),
    )
    show(
        "E10b: adversarial overload loss at full load",
        [
            ("contiguous split", "severe", f"{loss['contiguous']:.0%}"),
            ("pseudo-random split", "mild", f"{loss['pseudo-random']:.0%}"),
        ],
    )
    # (3) ECMP-hashed loads: both splits are nearly perfect.
    assert results["ecmp"]["contiguous"] < 1.05
    assert results["ecmp"]["pseudo-random"] < 1.05
    # (1) operator skew punishes the contiguous split hardest.
    assert results["first-connected"]["contiguous"] > results["first-connected"]["pseudo-random"]
    assert results["first-connected"]["pseudo-random"] < 1.2
    # (2) the adversary saturates one switch of the contiguous split
    # (imbalance H = everything on one switch) but not the random one.
    assert results["adversarial"]["contiguous"] == pytest.approx(H)
    assert results["adversarial"]["pseudo-random"] < H / 4
    assert loss["contiguous"] > 0.8
    assert loss["pseudo-random"] < 0.8


def test_e10_per_switch_traffic_matrices_even_out(benchmark):
    """SS 4 (*Traffic matrix at HBM switches*): with upstream ECMP/LAG
    hashing, the per-switch N x N traffic matrices are nearly identical
    -- measured here on actual partitioned packets, not just loads."""
    import numpy as np

    from repro.config import scaled_router
    from repro.core import SplitParallelSwitch
    from repro.core.sps import assign_fibers
    from repro.traffic import FixedSize, TrafficGenerator, uniform_matrix

    config = scaled_router(n_ribbons=4, fibers_per_ribbon=32, n_switches=4)

    def measure():
        gen = TrafficGenerator(
            n_ports=config.n_ribbons,
            port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
            matrix=uniform_matrix(config.n_ribbons, 0.8),
            size_dist=FixedSize(1500),
            seed=77,
            flows_per_pair=1024,
        )
        packets = gen.materialize(40_000.0)
        sps = SplitParallelSwitch(config)
        fibers = assign_fibers(packets, config.fibers_per_ribbon)
        switches = sps.switch_index([p.input_port for p in packets], fibers)
        matrices = []
        for h in range(config.n_switches):
            m = np.zeros((config.n_ribbons, config.n_ribbons))
            for p, switch in zip(packets, switches):
                if switch == h:
                    m[p.input_port, p.output_port] += p.size_bytes
            matrices.append(m / max(m.sum(), 1))
        mean_matrix = np.mean(matrices, axis=0)
        deviation = max(
            float(np.abs(m - mean_matrix).max()) for m in matrices
        )
        return deviation, matrices

    deviation, matrices = benchmark.pedantic(measure, rounds=1, iterations=1)
    show(
        "E10c: per-switch TM evenness under ECMP-hashed fibers",
        [
            ("switches", 4, len(matrices)),
            ("max entry deviation from mean TM", "small", f"{deviation:.4f}"),
            ("uniform TM entry", f"{1 / 16:.4f}", f"{float(np.mean(matrices[0])):.4f}"),
        ],
    )
    # Every switch sees nearly the same (uniform) matrix.
    assert deviation < 0.02
