"""Discrete-event engine: ordering, determinism, error handling."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        fired = []
        eng.schedule(30.0, lambda: fired.append("c"))
        eng.schedule(10.0, lambda: fired.append("a"))
        eng.schedule(20.0, lambda: fired.append("b"))
        eng.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        eng = Engine()
        fired = []
        for name in "abcde":
            eng.schedule(5.0, lambda n=name: fired.append(n))
        eng.run()
        assert fired == list("abcde")

    def test_clock_advances_with_events(self):
        eng = Engine()
        seen = []
        eng.schedule(7.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [7.5]
        assert eng.now == 7.5

    def test_scheduling_in_past_raises(self):
        eng = Engine()
        eng.schedule(10.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule(5.0, lambda: None)


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        eng = Engine()
        fired = []
        eng.schedule(10.0, lambda: fired.append(1))
        eng.schedule(100.0, lambda: fired.append(2))
        count = eng.run(until=50.0)
        assert count == 1
        assert fired == [1]
        # Clock is advanced to the horizon even with no event there.
        assert eng.now == 50.0

    def test_remaining_events_fire_on_next_run(self):
        eng = Engine()
        fired = []
        eng.schedule(10.0, lambda: fired.append(1))
        eng.schedule(100.0, lambda: fired.append(2))
        eng.run(until=50.0)
        eng.run()
        assert fired == [1, 2]

    def test_max_events(self):
        eng = Engine()
        fired = []
        for t in range(10):
            eng.schedule(float(t), lambda t=t: fired.append(t))
        eng.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_events_can_schedule_events(self):
        eng = Engine()
        fired = []

        def recurse(depth):
            fired.append(depth)
            if depth < 5:
                eng.schedule(eng.now + 1.0, lambda: recurse(depth + 1))

        eng.schedule(0.0, lambda: recurse(0))
        eng.run()
        assert fired == list(range(6))
        assert eng.now == 5.0


class TestCounters:
    def test_events_fired_counts_only_fired(self):
        eng = Engine()
        eng.schedule(5.0, lambda: None)
        eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        eng.run(until=3.0)
        assert eng.events_fired == 2

    def test_run_return_matches_counter_delta(self):
        eng = Engine()
        for t in range(7):
            eng.schedule(float(t), lambda: None)
        before = eng.events_fired
        count = eng.run()
        assert count == eng.events_fired - before == 7
