"""Tests for percentile-aware scheduling (tail-latency extension)."""

import math

import pytest

from mmk_oracle import MMkQueue
from repro.exceptions import InfeasibleAllocationError
from repro.model import PerformanceModel
from repro.scheduler.min_resources import min_processors_for_target
from repro.scheduler.percentile import (
    min_processors_for_quantile,
    operator_sojourn_moments,
    sojourn_quantile_bound,
)


class TestOperatorMoments:
    def test_mean_matches_erlang(self):
        from repro.queueing import expected_sojourn_time

        mean, _ = operator_sojourn_moments(8.0, 1.0, 10)
        assert mean == pytest.approx(expected_sojourn_time(8.0, 1.0, 10))

    def test_variance_positive(self):
        _, variance = operator_sojourn_moments(8.0, 1.0, 10)
        assert variance > 0

    def test_saturated_infinite(self):
        mean, variance = operator_sojourn_moments(8.0, 1.0, 8)
        assert math.isinf(mean)
        assert math.isinf(variance)

    def test_zero_arrivals_pure_service(self):
        mean, variance = operator_sojourn_moments(0.0, 2.0, 3)
        assert mean == pytest.approx(0.5)
        assert variance == pytest.approx(0.25)

    def test_mm1_moments_closed_form(self):
        # M/M/1: T ~ Exp(mu - lam) exactly -> var = 1/(mu-lam)^2.
        mean, variance = operator_sojourn_moments(3.0, 4.0, 1)
        assert mean == pytest.approx(1.0)
        assert variance == pytest.approx(1.0)


class TestQuantileBound:
    def test_above_mean(self, chain_model):
        allocation = [5, 7, 3]
        mean = chain_model.expected_sojourn(allocation)
        bound = sojourn_quantile_bound(chain_model, allocation, q=0.95)
        assert bound > mean

    def test_median_equals_mean_approximation(self, chain_model):
        allocation = [5, 7, 3]
        assert sojourn_quantile_bound(
            chain_model, allocation, q=0.5
        ) == pytest.approx(chain_model.expected_sojourn(allocation))

    def test_higher_quantile_higher_bound(self, chain_model):
        allocation = [5, 7, 3]
        b90 = sojourn_quantile_bound(chain_model, allocation, q=0.9)
        b99 = sojourn_quantile_bound(chain_model, allocation, q=0.99)
        assert b99 > b90

    def test_monotone_in_processors(self, chain_model):
        base = [5, 7, 3]
        value = sojourn_quantile_bound(chain_model, base, q=0.95)
        for i in range(3):
            more = list(base)
            more[i] += 1
            assert sojourn_quantile_bound(chain_model, more, q=0.95) <= value

    def test_saturated_infinite(self, chain_model):
        assert math.isinf(
            sojourn_quantile_bound(chain_model, [1, 1, 1], q=0.95)
        )

    def test_arbitrary_upper_tail_quantiles_supported(self, chain_model):
        """Any q in [0.5, 1) works now; bounds stay monotone in q."""
        allocation = [5, 7, 3]
        bounds = [
            sojourn_quantile_bound(chain_model, allocation, q=q)
            for q in (0.5, 0.73, 0.9, 0.97, 0.999)
        ]
        assert bounds == sorted(bounds)
        assert all(math.isfinite(b) for b in bounds)

    def test_q_one_returns_inf(self, chain_model):
        assert math.isinf(
            sojourn_quantile_bound(chain_model, [5, 7, 3], q=1.0)
        )

    def test_below_median_quantile_rejected(self, chain_model):
        with pytest.raises(ValueError):
            sojourn_quantile_bound(chain_model, [5, 7, 3], q=0.3)


class TestQuantileSolver:
    def test_meets_bound(self, chain_model):
        tmax = 1.5
        allocation = min_processors_for_quantile(chain_model, tmax, q=0.95)
        assert (
            sojourn_quantile_bound(chain_model, list(allocation.vector), q=0.95)
            <= tmax
        )

    def test_needs_more_than_mean_target(self, chain_model):
        """A p95 target requires at least as many processors as the same
        mean target (the bound dominates the mean)."""
        tmax = 1.5
        by_mean = min_processors_for_target(chain_model, tmax)
        by_p95 = min_processors_for_quantile(chain_model, tmax, q=0.95)
        assert by_p95.total >= by_mean.total

    def test_infeasible_target(self, chain_model):
        with pytest.raises(InfeasibleAllocationError):
            min_processors_for_quantile(
                chain_model, 1e-6, q=0.95, hard_limit=100
            )

    def test_bound_covers_simulated_p95(self):
        """Single-operator check: the analytic bound sits above (or near)
        the simulated p95 — it is meant as a conservative planning bound."""
        from repro.scheduler import Allocation
        from repro.sim import RuntimeOptions, Simulator, TopologyRuntime
        from repro.topology import TopologyBuilder

        topology = (
            TopologyBuilder("mmk")
            .add_spout("src", rate=8.0)
            .add_operator("op", mu=1.0)
            .connect("src", "op")
            .build()
        )
        model = PerformanceModel.from_topology(topology)
        bound = sojourn_quantile_bound(model, [10], q=0.95)
        simulator = Simulator()
        runtime = TopologyRuntime(
            simulator,
            topology,
            Allocation(["op"], [10]),
            RuntimeOptions(queue_discipline="shared", seed=5),
        )
        runtime.start()
        simulator.run_until(2000.0)
        measured_p95 = runtime.stats(warmup=200.0).p95_sojourn
        # The normal approximation under-covers slightly for the skewed
        # exponential tail; allow 15% slack in the comparison.
        assert bound > 0.85 * measured_p95

    def test_exact_mm1_quantile_reference(self):
        """Cross-check the bound's ingredients against the exact M/M/1
        sojourn distribution (T ~ Exp(mu - lam))."""
        queue = MMkQueue(lam=3.0, mu=4.0, k=1)
        # Exact p95 of Exp(1): -ln(0.05) ~= 2.996.
        exact = -math.log(0.05)
        mean, variance = operator_sojourn_moments(3.0, 4.0, 1)
        normal_bound = mean + 1.6449 * math.sqrt(variance)
        # Normal approximation of an exponential p95 lands ~12% low;
        # both must be in the same ballpark.
        assert normal_bound == pytest.approx(exact, rel=0.15)
        assert queue.sojourn_time_tail(exact) == pytest.approx(0.05, rel=0.05)
