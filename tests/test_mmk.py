"""Tests for the full M/M/k queue analysis."""

import math
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmk_oracle import MMkQueue


class TestBasicProperties:
    def test_offered_load_and_utilisation(self):
        q = MMkQueue(lam=6.0, mu=2.0, k=4)
        assert q.offered_load == pytest.approx(3.0)
        assert q.utilisation == pytest.approx(0.75)
        assert q.is_stable

    def test_unstable_representable(self):
        q = MMkQueue(lam=10.0, mu=2.0, k=4)
        assert not q.is_stable
        assert math.isinf(q.mean_waiting_time)
        assert math.isinf(q.mean_sojourn_time)
        assert math.isinf(q.mean_queue_length)
        assert math.isinf(q.mean_number_in_system)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            MMkQueue(lam=1.0, mu=1.0, k=0)

    def test_rejects_fractional_k(self):
        with pytest.raises(ValueError):
            MMkQueue(lam=1.0, mu=1.0, k=1.5)


class TestLittlesLaw:
    def test_queue_length_vs_waiting_time(self):
        q = MMkQueue(lam=8.0, mu=3.0, k=4)
        assert q.mean_queue_length == pytest.approx(
            q.lam * q.mean_waiting_time, rel=1e-12
        )

    def test_number_in_system(self):
        q = MMkQueue(lam=8.0, mu=3.0, k=4)
        assert q.mean_number_in_system == pytest.approx(
            q.lam * q.mean_sojourn_time, rel=1e-12
        )


class TestStateProbabilities:
    def test_sum_close_to_one_with_long_tail(self):
        q = MMkQueue(lam=2.0, mu=1.0, k=4)
        probs = q.state_probabilities(200)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_mm1_geometric(self):
        # M/M/1: P[L = n] = (1 - rho) rho^n.
        q = MMkQueue(lam=1.0, mu=2.0, k=1)
        probs = q.state_probabilities(10)
        for n, p in enumerate(probs):
            assert p == pytest.approx(0.5 * 0.5**n, rel=1e-9)

    def test_mean_matches_distribution(self):
        q = MMkQueue(lam=5.0, mu=2.0, k=4)
        probs = q.state_probabilities(2000)
        mean_l = sum(n * p for n, p in enumerate(probs))
        assert mean_l == pytest.approx(q.mean_number_in_system, rel=1e-6)

    def test_unstable_raises(self):
        q = MMkQueue(lam=10.0, mu=1.0, k=2)
        with pytest.raises(ValueError):
            q.state_probabilities(10)


class TestWaitingTimeDistribution:
    def test_cdf_at_zero_is_no_wait_probability(self):
        q = MMkQueue(lam=5.0, mu=2.0, k=4)
        assert q.waiting_time_cdf(0.0) == pytest.approx(
            1.0 - q.wait_probability
        )

    def test_cdf_monotone(self):
        q = MMkQueue(lam=5.0, mu=2.0, k=4)
        values = [q.waiting_time_cdf(t) for t in (0.0, 0.1, 0.5, 1.0, 5.0)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_quantile_roundtrip(self):
        q = MMkQueue(lam=5.0, mu=2.0, k=4)
        for prob in (0.5, 0.9, 0.99):
            t = q.waiting_time_quantile(prob)
            assert q.waiting_time_cdf(t) == pytest.approx(max(prob, 1 - q.wait_probability), rel=1e-9)

    def test_quantile_below_no_wait_mass_is_zero(self):
        q = MMkQueue(lam=1.0, mu=2.0, k=4)  # almost never waits
        assert q.waiting_time_quantile(0.5) == 0.0

    def test_unstable_quantile_infinite(self):
        q = MMkQueue(lam=10.0, mu=1.0, k=2)
        assert math.isinf(q.waiting_time_quantile(0.9))

    def test_quantile_rejects_bad_q(self):
        q = MMkQueue(lam=1.0, mu=2.0, k=1)
        with pytest.raises(ValueError):
            q.waiting_time_quantile(1.0)


class TestSojournTail:
    def test_tail_at_zero_is_one(self):
        q = MMkQueue(lam=5.0, mu=2.0, k=4)
        assert q.sojourn_time_tail(0.0) == pytest.approx(1.0)

    def test_tail_monotone_decreasing(self):
        q = MMkQueue(lam=5.0, mu=2.0, k=4)
        values = [q.sojourn_time_tail(t) for t in (0.0, 0.2, 0.5, 1.0, 3.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_tail_integrates_to_mean(self):
        """integral of P(T > t) dt == E[T] — validates the closed form."""
        q = MMkQueue(lam=5.0, mu=2.0, k=4)
        dt = 0.001
        total = sum(
            q.sojourn_time_tail(i * dt) * dt for i in range(0, 30000)
        )
        assert total == pytest.approx(q.mean_sojourn_time, rel=0.01)

    def test_unstable_tail_is_one(self):
        q = MMkQueue(lam=10.0, mu=1.0, k=2)
        assert q.sojourn_time_tail(100.0) == 1.0


@settings(max_examples=100, deadline=None)
@given(
    lam=st.floats(min_value=0.1, max_value=50.0),
    mu=st.floats(min_value=0.1, max_value=20.0),
    k=st.integers(min_value=1, max_value=64),
)
def test_sojourn_decomposition(lam, mu, k):
    """E[T] == E[W] + 1/mu for every stable configuration."""
    q = MMkQueue(lam=lam, mu=mu, k=k)
    if q.is_stable:
        assert q.mean_sojourn_time == pytest.approx(
            q.mean_waiting_time + 1.0 / mu, rel=1e-9
        )
