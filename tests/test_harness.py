"""Tests for the experiment harness (passive runs, DRS binding)."""

import pytest

from repro.config import MeasurementConfig
from repro.experiments.harness import (
    DRSBinding,
    make_kmax_controller,
    run_passive,
)
from repro.measurement.measurer import MeasurementReport
from repro.scenarios.binding import model_from_report, passive_recommendation
from repro.scheduler import Allocation
from repro.sim import RuntimeOptions, Simulator, TopologyRuntime


class TestRunPassive:
    def test_returns_stats_and_runtime(self, chain_topology):
        stats, runtime = run_passive(
            chain_topology,
            Allocation(["a", "b", "c"], [5, 6, 3]),
            120.0,
            options=RuntimeOptions(seed=3),
            warmup=20.0,
        )
        assert stats.mean_sojourn is not None
        assert runtime.simulator.now == 120.0
        assert stats.rebalances == 0


class TestModelFromReport:
    def _report(self, arrivals, services, external, sojourn=0.5):
        return MeasurementReport(
            timestamp=10.0,
            operator_names=["a", "b", "c"],
            arrival_rates=arrivals,
            service_rates=services,
            service_scvs=[None, None, None],
            external_rate=external,
            measured_sojourn=sojourn,
            sojourn_std=0.1,
            completed_trees=100,
            processing_time=0.0001,
        )

    def test_complete_report(self):
        report = self._report([10.0, 20.0, 10.0], [4.0, 6.0, 20.0], 10.0)
        model = model_from_report(report)
        assert model is not None
        assert model.network.arrival_rates == pytest.approx([10.0, 20.0, 10.0])

    def test_incomplete_without_fallback(self):
        report = self._report([10.0, None, 10.0], [4.0, 6.0, 20.0], 10.0)
        assert model_from_report(report) is None

    def test_incomplete_with_fallback(self, chain_model):
        report = self._report([12.0, None, None], [None, None, None], None)
        model = model_from_report(report, chain_model)
        assert model is not None
        # Measured value used where present, nominal elsewhere.
        assert model.network.arrival_rates[0] == pytest.approx(12.0)
        assert model.network.arrival_rates[1] == pytest.approx(20.0)
        assert model.external_rate == pytest.approx(10.0)


class TestPassiveRecommendation:
    def test_recommendation_after_run(self, chain_topology):
        _, runtime = run_passive(
            chain_topology,
            Allocation(["a", "b", "c"], [5, 6, 3]),
            200.0,
            options=RuntimeOptions(seed=3),
        )
        recommendation = passive_recommendation(runtime, kmax=14)
        assert recommendation is not None
        assert recommendation.total == 14

    def test_none_without_reports(self, chain_topology):
        simulator = Simulator()
        runtime = TopologyRuntime(
            simulator, chain_topology, Allocation(["a", "b", "c"], [5, 6, 3])
        )
        assert passive_recommendation(runtime, kmax=14) is None


class TestDRSBinding:
    def test_passive_before_enable(self, vld_like_topology):
        simulator = Simulator()
        runtime = TopologyRuntime(
            simulator,
            vld_like_topology,
            Allocation(["sift", "matcher", "aggregator"], [8, 12, 2]),
            RuntimeOptions(seed=7, measurement=MeasurementConfig(alpha=0.8)),
        )
        controller = make_kmax_controller(vld_like_topology, kmax=22)
        binding = DRSBinding(runtime, controller, enable_at=1e9)
        runtime.start()
        simulator.run_until(300.0)
        # Decisions recorded, none applied.
        assert binding.events
        assert not binding.applied_events
        assert runtime.allocation.spec() == "8:12:2"

    def test_applies_after_enable(self, vld_like_topology):
        simulator = Simulator()
        runtime = TopologyRuntime(
            simulator,
            vld_like_topology,
            Allocation(["sift", "matcher", "aggregator"], [8, 12, 2]),
            RuntimeOptions(seed=7, measurement=MeasurementConfig(alpha=0.8)),
        )
        controller = make_kmax_controller(
            vld_like_topology, kmax=22, rebalance_threshold=0.1
        )
        binding = DRSBinding(
            runtime, controller, enable_at=100.0, min_action_gap=60.0
        )
        runtime.start()
        simulator.run_until(400.0)
        applied = binding.applied_events
        assert applied
        assert applied[0].time >= 100.0
        assert runtime.stats().rebalances >= 1

    def test_min_action_gap_enforced(self, vld_like_topology):
        simulator = Simulator()
        runtime = TopologyRuntime(
            simulator,
            vld_like_topology,
            Allocation(["sift", "matcher", "aggregator"], [8, 12, 2]),
            RuntimeOptions(seed=7),
        )
        controller = make_kmax_controller(vld_like_topology, kmax=22)
        binding = DRSBinding(
            runtime, controller, enable_at=0.0, min_action_gap=120.0
        )
        runtime.start()
        simulator.run_until(400.0)
        times = [e.time for e in binding.applied_events]
        assert all(b - a >= 120.0 for a, b in zip(times, times[1:]))


class TestControllerFactories:
    def test_kmax_controller(self, vld_like_topology):
        controller = make_kmax_controller(vld_like_topology, kmax=22)
        assert controller.config.kmax == 22
