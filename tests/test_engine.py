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
        sim.run_until(6.0)
        assert fired == [1]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run_until(2.0)
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        handle.cancel()  # must not raise

    def test_cancelled_events_excluded_from_pending(self):
        sim = Simulator()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(4)]
        assert sim.pending_events == 4
        handles[0].cancel()
        handles[2].cancel()
        assert sim.pending_events == 2
        assert "pending=2" in repr(sim)
        handles[0].cancel()  # double cancel must not double-count
        assert sim.pending_events == 2

    def test_heap_compaction_reclaims_cancelled_entries(self):
        sim = Simulator()
        keep = [sim.schedule(5.0, lambda: None) for _ in range(3)]
        doomed = [sim.schedule(1.0, lambda: None) for _ in range(50)]
        for handle in doomed:
            handle.cancel()
        # More than half of the heap was cancelled -> compacted away.
        assert len(sim._queue) == 3
        assert sim.pending_events == 3
        fired = []
        for handle in keep:
            handle.callback = lambda: fired.append(1)
        sim.run_until(6.0)
        assert len(fired) == 3


class TestCompactionBoundary:
    """Regression tests at the >half-cancelled compaction boundary."""

    def test_compaction_triggers_only_past_the_boundary(self):
        sim = Simulator()
        keep = [sim.schedule(5.0, lambda: None) for _ in range(8)]
        doomed = [sim.schedule(1.0, lambda: None) for _ in range(9)]
        for handle in doomed[:8]:
            handle.cancel()
        # 8 cancelled of 17: not yet past the ">8 and more than half"
        # boundary — nothing is compacted, the counter carries the debt.
        assert len(sim._queue) == 17
        assert sim._cancelled == 8
        assert sim.pending_events == 9
        doomed[8].cancel()
        # 9 of 17: past the boundary.  Compaction must remove exactly
        # the cancelled entries and settle the counter to zero, so the
        # same backlog can never be walked twice.
        assert len(sim._queue) == 8
        assert sim._cancelled == 0
        assert sim.pending_events == 8
        del keep

    def test_compaction_does_not_rerun_on_clean_backlog(self):
        sim = Simulator()
        survivors = [sim.schedule(5.0, lambda: None) for _ in range(8)]
        doomed = [sim.schedule(1.0, lambda: None) for _ in range(9)]
        for handle in doomed:
            handle.cancel()
        assert sim._cancelled == 0  # compacted and fully accounted
        # Cancelling against the now-clean backlog must count from
        # zero: a stale counter would trigger an immediate second
        # compaction pass (and corrupt pending_events).
        survivors[0].cancel()
        assert sim._cancelled == 1
        assert sim.pending_events == 7
        assert len(sim._queue) == 8  # nothing compacted at 1/8

    def test_mid_drain_cancellation_keeps_counter_consistent(self):
        sim = Simulator()
        fired = []
        later = [sim.schedule(2.0, lambda: fired.append("late"))
                 for _ in range(10)]

        def cancel_most():
            # Runs inside the drain: cancels 9 of the 10 pending
            # handles, pushing the queue past the compaction boundary
            # while run_until is iterating.
            for handle in later[:9]:
                handle.cancel()

        sim.schedule(1.0, cancel_most)
        sim.run_until(3.0)
        assert fired == ["late"]
        assert sim._cancelled == 0
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

    def test_cancellation_compacts_large_backlog(self):
        sim = Simulator()
        count = BACKLOG + 1000
        handles = [sim.schedule(float(i) + 1.0, lambda: None)
                   for i in range(count)]
        for handle in handles[1000:]:
            handle.cancel()
        # More than half cancelled: the heap was compacted in place.
        assert sim.pending_events == 1000
        assert len(sim._queue) < count
        fired = []
        for handle in handles[:1000]:
            handle.callback = lambda: fired.append(1)
        sim.run_until(float(count) + 1.0)
        assert len(fired) == 1000
        assert sim.pending_events == 0
        assert sim._cancelled == 0

    def test_step_and_run_until_dispatch_identically(self):
        def load():
            sim = Simulator()
            seen = []
            kind = sim.register_handler(lambda a, b: seen.append((sim.now, a)))
            count = BACKLOG + 500
            for i in range(count):
                sim.schedule_event(float((count - i) % 97), kind, i)
            return sim, seen

        stepped, step_seen = load()
        while stepped.step():
            pass
        drained, drain_seen = load()
        drained.run_until(100.0)
        assert step_seen == drain_seen
        assert len(step_seen) == BACKLOG + 500
        assert stepped.processed_events == drained.processed_events


class TestTypedEvents:
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

    def test_step_dispatches_typed_events(self):
        sim = Simulator()
        seen = []
        kind = sim.register_handler(lambda a, b: seen.append(a))
        sim.schedule_event(1.0, kind, "x")
        assert sim.step()
        assert seen == ["x"]
        assert sim.processed_events == 1


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

    def test_step_returns_false_on_empty(self):
        assert not Simulator().step()

    def test_run_all_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.001, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run_all(max_events=100)

    def test_processed_events_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        assert sim.processed_events == 5
