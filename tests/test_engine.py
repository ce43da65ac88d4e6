"""Tests for the discrete-event engine."""

import pytest

from repro.exceptions import SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for label in "abc":
            sim.schedule(1.0, lambda l=label: fired.append(l))
        sim.run_until(2.0)
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [2.5]

    def test_clock_lands_on_horizon(self):
        sim = Simulator()
        sim.run_until(7.0)
        assert sim.now == 7.0

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(3.0, lambda: None)

    def test_past_horizon_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(3.0)

    def test_events_beyond_horizon_stay_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        sim.run_until(3.0)
        assert fired == []
        assert sim.pending_events == 1
        assert "pending=1" in repr(sim)
        sim.run_until(6.0)
        assert fired == [1]
        assert sim.pending_events == 0


#: A backlog the ``closed_loop_population`` benchmark workload exceeds
#: (it keeps thousands of events pending); every test below schedules
#: more than this.
BACKLOG = 4096


class TestLargeBacklog:
    """The ``(time, seq)`` contract with more than :data:`BACKLOG`
    events pending at once."""

    def test_random_times_dispatch_in_time_seq_order(self):
        import random as _random

        rng = _random.Random(99)
        sim = Simulator()
        fired = []
        kind = sim.register_handler(lambda a, b: fired.append((sim.now, a)))
        times = [rng.uniform(0.0, 100.0) for _ in range(3 * BACKLOG)]
        for i, t in enumerate(times):
            sim.schedule_event(t, kind, i)
        assert sim.pending_events == 3 * BACKLOG
        assert sim.spilled_events == 0
        sim.run_until(100.0)
        expected = sorted(range(len(times)), key=lambda i: (times[i], i))
        assert fired == [(times[i], i) for i in expected]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        kind = sim.register_handler(lambda a, b: fired.append(a))
        count = 2 * BACKLOG + 300
        for i in range(count):
            sim.schedule_event(50.0 + (i % 7), kind, i)
        sim.run_until(100.0)
        assert fired == sorted(range(count), key=lambda i: (i % 7, i))


class TestTypedEvents:
    def test_registered_kinds_start_after_the_callback_kind(self):
        sim = Simulator()
        assert sim.register_handler(lambda a, b: None) == 2
        sim.schedule(1.0, lambda: None)
        assert sim._queue[0][2] == 1

    def test_registered_handler_receives_payload(self):
        sim = Simulator()
        seen = []
        kind = sim.register_handler(lambda a, b: seen.append((sim.now, a, b)))
        sim.schedule_event(2.0, kind, "payload", 7)
        sim.schedule_event(1.0, kind, "first")
        sim.run_until(5.0)
        assert seen == [(1.0, "first", None), (2.0, "payload", 7)]

    def test_typed_and_callback_events_share_tie_order(self):
        sim = Simulator()
        fired = []
        kind = sim.register_handler(lambda a, b: fired.append(a))
        sim.schedule(1.0, lambda: fired.append("cb1"))
        sim.schedule_event(1.0, kind, "typed1")
        sim.schedule(1.0, lambda: fired.append("cb2"))
        sim.schedule_event(1.0, kind, "typed2")
        sim.run_until(1.0)
        assert fired == ["cb1", "typed1", "cb2", "typed2"]

    def test_typed_event_rejects_negative_delay(self):
        sim = Simulator()
        kind = sim.register_handler(lambda a, b: None)
        with pytest.raises(SimulationError):
            sim.schedule_event(-0.5, kind)
        with pytest.raises(SimulationError):
            sim.schedule_event(float("nan"), kind)


class TestSelfScheduling:
    def test_recurring_event(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if sim.now < 4.5:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_processed_events_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        assert sim.processed_events == 5
