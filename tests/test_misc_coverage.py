"""Cross-cutting coverage: enumeration counts, queue-length formulas,
integration of model variants with the optimisers, repr smoke tests."""

import math

import pytest

from mmk_oracle import MMkQueue
from repro.model import PerformanceModel, RefinedPerformanceModel
from repro.queueing import expected_queue_length, utilisation
from repro.scheduler import Allocation, assign_processors
from repro.scheduler.exhaustive import enumerate_allocations
from repro.scheduler.assign import assignment_trace


class TestEnumeration:
    def test_composition_count(self, chain_model):
        """Number of allocations of T processors over N operators above
        the floors is C(T - floor_sum + N - 1, N - 1)."""
        floors = chain_model.min_allocation()
        total = sum(floors) + 4
        allocations = list(enumerate_allocations(chain_model, total))
        # 4 extra over 3 operators: C(6, 2) = 15.
        assert len(allocations) == 15
        assert all(a.total == total for a in allocations)
        assert len(set(allocations)) == len(allocations)

    def test_below_floor_yields_nothing(self, chain_model):
        floor = chain_model.min_total_processors()
        assert list(enumerate_allocations(chain_model, floor - 1)) == []

    def test_exact_floor_single_allocation(self, chain_model):
        floor = chain_model.min_total_processors()
        allocations = list(enumerate_allocations(chain_model, floor))
        assert len(allocations) == 1
        assert list(allocations[0].vector) == chain_model.min_allocation()


class TestQueueFormulas:
    def test_utilisation(self):
        assert utilisation(6.0, 2.0, 4) == pytest.approx(0.75)

    def test_queue_length_littles_law(self):
        lam, mu, k = 8.0, 3.0, 4
        queue = MMkQueue(lam, mu, k)
        assert expected_queue_length(lam, mu, k) == pytest.approx(
            lam * queue.mean_waiting_time
        )

    def test_queue_length_saturated(self):
        assert math.isinf(expected_queue_length(8.0, 1.0, 4))


class TestModelVariantIntegration:
    def test_trace_works_with_refined_model(self, chain_topology):
        refined = RefinedPerformanceModel.from_topology(chain_topology)
        trace = assignment_trace(refined, 16)
        values = [refined.expected_sojourn(list(a.vector)) for a in trace]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_refined_and_plain_agree_on_floor(self, chain_topology):
        plain = PerformanceModel.from_topology(chain_topology)
        refined = RefinedPerformanceModel.from_topology(chain_topology)
        assert plain.min_allocation() == refined.min_allocation()

    def test_use_all_false_stops_on_zero_benefit(self):
        """With a zero-arrival operator, use_all=False leaves budget
        unspent once only zero-benefit moves remain."""
        model = PerformanceModel.from_measurements(
            ["busy", "idle"], [10.0, 0.0], [4.0, 4.0], external_rate=10.0
        )
        generous = assign_processors(model, 50, use_all=False)
        assert generous.total < 50
        assert generous["idle"] == 1


class TestReprSmoke:
    """Developer-facing reprs should never raise and should carry the
    identifying fields."""

    def test_core_reprs(self, chain_topology, chain_model):
        from repro.config import DRSConfig
        from repro.measurement import Measurer, TupleTreeTracker
        from repro.scheduler import DRSController, RebalancePolicy
        from repro.sim import Cluster, RebalanceCostModel, Simulator

        objects = [
            chain_topology,
            chain_model,
            chain_model.network,
            Allocation(["a", "b"], [1, 2]),
            Measurer(["a"]),
            TupleTreeTracker(),
            RebalancePolicy(),
            DRSController(["a"], DRSConfig(kmax=5)),
            Simulator(),
            Cluster(),
            RebalanceCostModel(),
        ]
        for obj in objects:
            text = repr(obj)
            assert type(obj).__name__.split("_")[-1] in text or len(text) > 0

    def test_estimate_repr_fields(self, chain_model):
        estimate = chain_model.estimate([4, 5, 2])
        assert estimate.allocation == (4, 5, 2)
        assert "a" in estimate.per_operator


class TestAllocationEdgeCases:
    def test_spec_round_trip(self):
        names = ["x", "y", "z"]
        for spec in ("1:1:1", "10:11:1", "100:2:37"):
            assert Allocation.parse(names, spec).spec() == spec

    def test_single_operator(self):
        allocation = Allocation.parse(["only"], "7")
        assert allocation.total == 7
