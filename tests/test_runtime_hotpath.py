"""Pins for the topology runtime's hot-path shortcuts.

Each shortcut in ``TopologyRuntime`` must give exactly what the plain
formulation gives: batched hop events deliver every copy and count it
as an event, the jsq load-list pick equals the linear shortest-queue
scan (ties included), the inline service draws equal
``Distribution.sample`` bit for bit, and ``recent_p95`` equals the p95
of the full window summary.  The golden fixtures pin all of it end to
end; these tests name the piece that broke.
"""

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.randomness.distributions import Exponential, LogNormal
from repro.scheduler import Allocation
from repro.sim import RuntimeOptions, Simulator, TopologyRuntime
from repro.topology import TopologyBuilder
from repro.utils.rng import RngFactory


def one_operator_runtime(k=1, *, service=None, rate=8.0, gain=1.0, **options):
    builder = TopologyBuilder("hotpath").add_spout("src", rate=rate)
    if service is None:
        builder.add_operator("op", mu=1.0)
    else:
        builder.add_operator("op", service_time=service)
    topology = builder.connect("src", "op", gain=gain).build()
    sim = Simulator()
    runtime = TopologyRuntime(
        sim, topology, Allocation(["op"], [k]), RuntimeOptions(**options)
    )
    return sim, runtime, runtime._operators["op"]


def reference_scan(executors):
    """The linear shortest-queue scan the load list replaces: minimum
    ``len(queue) + busy``, lowest index on ties."""
    best_index = 0
    best_load = math.inf
    for index, executor in enumerate(executors):
        load = len(executor.queue) + (1 if executor.busy else 0)
        if load < best_load:
            best_load = load
            best_index = index
            if load == 0:
                break
    return best_index


class TestHopBatching:
    def test_copies_of_one_emission_share_one_hop_event(self):
        sim, runtime, op = one_operator_runtime(
            k=4, gain=3.0, hop_latency=0.25, seed=5
        )
        runtime._inject(runtime._spout_sources[0].routes, 0.0)
        assert sim.pending_events == 1
        (_, _, _, route, batch) = sim._queue[0]
        assert route.op is op
        assert batch[1] == 3
        sim.run_until(100.0)
        # Three copies delivered and served; every copy is one event.
        assert op.processed == 3
        assert sim.processed_events == 3 + 3
        assert runtime.stats().completed_trees == 1
        runtime.check_conservation()


class TestJsqLoads:
    @settings(max_examples=150, deadline=None)
    @given(
        loads=st.lists(st.integers(0, 4), min_size=1, max_size=40),
        stale=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 39)), max_size=30
        ),
    )
    def test_pick_equals_the_linear_scan(self, loads, stale):
        """Under and over the heap threshold, ties included; the heap
        also holds stale pairs the pick must skip."""
        k = len(loads)
        sim, runtime, op = one_operator_runtime(k=k)
        for executor, load in zip(op.executors, loads):
            executor.busy = load > 0
            for _ in range(load - 1):
                executor.queue.append(({"root": 0}, 0.0))
                op.queued += 1
        op.jsq_loads[:] = loads
        if op.jsq_heap is not None:
            pairs = [(load, index) for index, load in enumerate(loads)]
            pairs += [
                (load, index)
                for load, index in stale
                if index < k and loads[index] != load
            ]
            heapq.heapify(pairs)
            op.jsq_heap[:] = pairs
        expected = reference_scan(op.executors)
        runtime._deliver(op, {"root": 0}, None)
        after = list(op.jsq_loads)
        changed = [i for i in range(k) if after[i] != loads[i]]
        assert changed == [expected]
        assert after[expected] == loads[expected] + 1
        runtime.check_conservation()

    @pytest.mark.parametrize("k", [3, 20])
    def test_identity_holds_across_a_rebalance(self, k):
        """Executors orphaned by the resize still finish; they must not
        touch the new operator's loads."""
        sim, runtime, op = one_operator_runtime(k=k, rate=0.9 * k, seed=9)
        runtime.start()
        sim.run_until(40.0)
        assert any(load > 1 for load in op.jsq_loads)
        runtime.apply_allocation(Allocation(["op"], [k + 1]))
        sim.run_until(80.0)
        assert len(op.jsq_loads) == k + 1
        runtime.check_conservation()

    def test_a_broken_identity_raises(self):
        sim, runtime, op = one_operator_runtime(k=3, seed=2)
        runtime.start()
        sim.run_until(20.0)
        runtime.check_conservation()
        op.jsq_loads[1] += 1
        with pytest.raises(SimulationError, match="executor 1 has load"):
            runtime.check_conservation()


class TestInlineDraws:
    @pytest.mark.parametrize(
        "service",
        [
            Exponential(rate=3.0),
            LogNormal(mean=0.2, scv=2.0),
            LogNormal(mean=1.5, scv=0.25),
        ],
        ids=repr,
    )
    def test_draws_equal_distribution_sample(self, service):
        """Bit for bit, on a stream with the same seed: a change to
        ``random.Random``'s formulas fails here, not only in the
        goldens."""
        sim, runtime, op = one_operator_runtime(service=service, seed=11)
        assert op.service_random is not None  # the inline path is taken
        executor = op.executors[0]
        draws = []
        for _ in range(2000):
            runtime._begin_service(op, executor, {"root": 0}, 0.0)
            draws.append(executor.duration)
            executor.busy = False
        rng = RngFactory(11).stream("service", "op")
        assert draws == [service.sample(rng) for _ in range(2000)]


class TestRecentP95:
    def test_equals_the_window_summary_p95(self):
        sim, runtime, _ = one_operator_runtime(k=10, seed=4)
        runtime.start()
        assert runtime.recent_p95(5.0) is None  # nothing completed yet
        sim.run_until(60.0)
        last = runtime._completion_times[-1]
        for window in [0.5, 1.0, 5.0, 30.0, 59.0, 60.0, 1e6]:
            cut = max(0.0, sim.now - window)
            assert runtime.recent_p95(window) == runtime._window_summary(cut)[2]
        # A window after the last completion is empty.
        empty = (sim.now - last) / 2.0
        assert runtime.recent_p95(empty) is None
        assert runtime._window_summary(sim.now - empty)[2] is None
