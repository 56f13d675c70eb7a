"""Traffic generation: processes, rates, determinism, fiber profiles."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.traffic import (
    ArrivalProcess,
    FixedSize,
    ImixSize,
    TrafficGenerator,
    permutation_matrix,
    uniform_matrix,
)
from repro.traffic.generators import fiber_load_profile
from repro.units import gbps, rate_to_bytes_per_ns

PORT_RATE = gbps(160)


def make_gen(load=0.8, process=ArrivalProcess.POISSON, size=FixedSize(1000), seed=0, n=4):
    return TrafficGenerator(
        n_ports=n,
        port_rate_bps=PORT_RATE,
        matrix=uniform_matrix(n, load),
        size_dist=size,
        process=process,
        seed=seed,
    )


class TestGeneration:
    def test_packets_sorted_and_ids_sequential(self):
        packets = make_gen().materialize(20_000.0)
        times = [p.arrival_ns for p in packets]
        assert times == sorted(times)
        assert [p.pid for p in packets] == list(range(len(packets)))

    def test_ports_in_range(self):
        packets = make_gen(n=4).materialize(10_000.0)
        assert all(0 <= p.input_port < 4 and 0 <= p.output_port < 4 for p in packets)

    def test_offered_rate_matches_load(self):
        load = 0.6
        duration = 200_000.0
        packets = make_gen(load=load).materialize(duration)
        offered = sum(p.size_bytes for p in packets)
        expected = 4 * load * rate_to_bytes_per_ns(PORT_RATE) * duration
        assert offered == pytest.approx(expected, rel=0.05)

    def test_deterministic_with_seed(self):
        a = make_gen(seed=42).materialize(5_000.0)
        b = make_gen(seed=42).materialize(5_000.0)
        assert len(a) == len(b)
        assert all(
            (x.arrival_ns, x.size_bytes, x.input_port, x.output_port)
            == (y.arrival_ns, y.size_bytes, y.input_port, y.output_port)
            for x, y in zip(a, b)
        )

    def test_zero_entries_generate_nothing(self):
        gen = TrafficGenerator(
            n_ports=4,
            port_rate_bps=PORT_RATE,
            matrix=permutation_matrix(4, 0.5),
            size_dist=FixedSize(500),
        )
        packets = gen.materialize(10_000.0)
        assert all(p.output_port == (p.input_port + 1) % 4 for p in packets)

    def test_flow_consistency(self):
        # Same (input, output) pool: flows repeat, enabling ECMP pinning.
        packets = make_gen().materialize(20_000.0)
        flows = {p.flow for p in packets if (p.input_port, p.output_port) == (0, 1)}
        assert 0 < len(flows) <= 64

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_gen().materialize(0.0)
        with pytest.raises(ConfigError):
            TrafficGenerator(3, PORT_RATE, uniform_matrix(4, 0.5), FixedSize(100))
        with pytest.raises(ConfigError):
            TrafficGenerator(4, 0.0, uniform_matrix(4, 0.5), FixedSize(100))


class TestProcesses:
    @pytest.mark.parametrize("process", list(ArrivalProcess))
    def test_all_processes_hit_target_rate(self, process):
        duration = 300_000.0
        packets = make_gen(load=0.5, process=process).materialize(duration)
        offered = sum(p.size_bytes for p in packets)
        expected = 4 * 0.5 * rate_to_bytes_per_ns(PORT_RATE) * duration
        assert offered == pytest.approx(expected, rel=0.15)

    def test_deterministic_is_evenly_spaced(self):
        packets = make_gen(load=0.5, process=ArrivalProcess.DETERMINISTIC).materialize(50_000.0)
        one_pair = [p.arrival_ns for p in packets
                    if (p.input_port, p.output_port) == (1, 2)]
        gaps = np.diff(one_pair)
        assert gaps.std() < 1e-6

    def test_onoff_is_burstier_than_poisson(self):
        def burstiness(process):
            packets = make_gen(load=0.5, process=process, seed=3).materialize(100_000.0)
            times = np.array([p.arrival_ns for p in packets if p.input_port == 0])
            gaps = np.diff(times)
            return gaps.std() / gaps.mean()

        assert burstiness(ArrivalProcess.ONOFF) > burstiness(ArrivalProcess.POISSON)

    def test_offered_bytes_estimate(self):
        gen = make_gen(load=0.5)
        assert gen.offered_bytes(1000.0) == pytest.approx(
            4 * 0.5 * rate_to_bytes_per_ns(PORT_RATE) * 1000.0
        )


class TestFiberLoadProfiles:
    def test_ecmp_profile_is_nearly_even(self):
        profile = fiber_load_profile(64, "ecmp", total_load=1.0)
        assert profile.sum() == pytest.approx(1.0)
        assert profile.max() / profile.mean() < 1.1

    def test_first_connected_skews_to_front(self):
        profile = fiber_load_profile(64, "first-connected", total_load=1.0, skew=4.0)
        assert profile.sum() == pytest.approx(1.0)
        assert profile[0] > profile[-1]
        assert profile[0] / profile[-1] == pytest.approx(4.0)

    def test_adversarial_targets_fibers(self):
        profile = fiber_load_profile(8, "adversarial", total_load=2.0, target_fibers=[1, 5])
        assert profile[1] == profile[5] == pytest.approx(1.0)
        assert profile.sum() == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            fiber_load_profile(0, "ecmp")
        with pytest.raises(ConfigError):
            fiber_load_profile(8, "adversarial")
        with pytest.raises(ConfigError):
            fiber_load_profile(8, "nonsense")
        with pytest.raises(ConfigError):
            fiber_load_profile(8, "adversarial", target_fibers=[9])
        with pytest.raises(ConfigError):
            fiber_load_profile(8, "first-connected", skew=-1.0)
