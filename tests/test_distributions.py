"""Tests for repro.randomness.distributions (incl. moment validation)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.randomness.distributions import (
    Deterministic,
    Empirical,
    Erlang,
    Exponential,
    Gamma,
    HyperExponential,
    LogNormal,
    Pareto,
    Uniform,
    distribution_from_spec,
)


def sample_mean(dist, n=20000, seed=1):
    rng = random.Random(seed)
    return sum(dist.sample(rng) for _ in range(n)) / n


class TestDeterministic:
    def test_sample_is_constant(self, rng):
        d = Deterministic(2.5)
        assert d.sample(rng) == 2.5

    def test_moments(self):
        d = Deterministic(2.5)
        assert d.mean == 2.5
        assert d.variance == 0.0
        assert d.scv == 0.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Deterministic(0)


class TestExponential:
    def test_moments(self):
        d = Exponential(rate=4.0)
        assert d.mean == pytest.approx(0.25)
        assert d.variance == pytest.approx(0.0625)
        assert d.scv == pytest.approx(1.0)

    def test_from_mean(self):
        d = Exponential.from_mean(0.5)
        assert d.rate == pytest.approx(2.0)

    def test_empirical_mean(self):
        d = Exponential(rate=2.0)
        assert sample_mean(d) == pytest.approx(0.5, rel=0.05)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Exponential(rate=0.0)


class TestUniform:
    def test_moments(self):
        d = Uniform(1.0, 25.0)
        assert d.mean == pytest.approx(13.0)
        assert d.variance == pytest.approx(24.0**2 / 12.0)

    def test_samples_in_range(self, rng):
        d = Uniform(2.0, 3.0)
        for _ in range(100):
            assert 2.0 <= d.sample(rng) <= 3.0

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Uniform(3.0, 2.0)

    def test_rejects_negative_low(self):
        with pytest.raises(ValueError):
            Uniform(-1.0, 2.0)


class TestLogNormal:
    def test_moments(self):
        d = LogNormal(mean=10.0, scv=0.5)
        assert d.mean == pytest.approx(10.0)
        assert d.scv == pytest.approx(0.5)

    def test_empirical_mean(self):
        d = LogNormal(mean=2.0, scv=1.5)
        assert sample_mean(d, n=60000) == pytest.approx(2.0, rel=0.08)

    def test_rejects_bad_scv(self):
        with pytest.raises(ValueError):
            LogNormal(mean=1.0, scv=0.0)


class TestGammaErlang:
    def test_gamma_moments(self):
        d = Gamma(shape=4.0, scale=0.5)
        assert d.mean == pytest.approx(2.0)
        assert d.variance == pytest.approx(1.0)

    def test_erlang_scv(self):
        d = Erlang(k=4, rate=2.0)
        assert d.mean == pytest.approx(2.0)
        assert d.scv == pytest.approx(0.25)

    def test_erlang_rejects_fractional_k(self):
        with pytest.raises(ValueError):
            Erlang(k=0, rate=1.0)


class TestHyperExponential:
    def test_balanced_fit_moments(self):
        d = HyperExponential.balanced_from_mean_scv(mean=3.0, scv=4.0)
        assert d.mean == pytest.approx(3.0, rel=1e-9)
        assert d.scv == pytest.approx(4.0, rel=1e-9)

    def test_requires_scv_above_one(self):
        with pytest.raises(ValueError):
            HyperExponential.balanced_from_mean_scv(mean=1.0, scv=0.9)

    def test_empirical_mean(self):
        d = HyperExponential.balanced_from_mean_scv(mean=1.0, scv=3.0)
        assert sample_mean(d, n=60000) == pytest.approx(1.0, rel=0.08)


class TestPareto:
    def test_moments(self):
        d = Pareto(alpha=3.0, minimum=2.0)
        assert d.mean == pytest.approx(3.0)
        assert d.variance == pytest.approx(3.0)

    def test_samples_above_minimum(self, rng):
        d = Pareto(alpha=2.5, minimum=1.0)
        for _ in range(100):
            assert d.sample(rng) >= 1.0

    def test_rejects_heavy_tail(self):
        with pytest.raises(ValueError):
            Pareto(alpha=2.0, minimum=1.0)


class TestEmpirical:
    def test_uniform_weights_moments(self):
        d = Empirical([1.0, 2.0, 3.0])
        assert d.mean == pytest.approx(2.0)
        assert d.variance == pytest.approx(2.0 / 3.0)

    def test_weighted(self):
        d = Empirical([0.0, 10.0], weights=[9, 1])
        assert d.mean == pytest.approx(1.0)

    def test_samples_from_support(self, rng):
        d = Empirical([5.0, 7.0])
        assert all(d.sample(rng) in (5.0, 7.0) for _ in range(50))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Empirical([])

    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            Empirical([-1.0])


class TestSpecBuilder:
    def test_exponential_by_mean(self):
        d = distribution_from_spec({"type": "exponential", "mean": 0.5})
        assert d.mean == pytest.approx(0.5)

    def test_uniform(self):
        d = distribution_from_spec({"type": "uniform", "low": 1, "high": 3})
        assert d.mean == pytest.approx(2.0)

    def test_unknown_type(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            distribution_from_spec({"type": "zeta"})

    def test_missing_type(self):
        with pytest.raises(ValueError, match="'type'"):
            distribution_from_spec({"mean": 1})

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="missing key"):
            distribution_from_spec({"type": "uniform", "low": 1})


@settings(max_examples=50, deadline=None)
@given(
    mean=st.floats(min_value=0.01, max_value=100.0),
    scv=st.floats(min_value=0.05, max_value=5.0),
)
def test_lognormal_moment_roundtrip(mean, scv):
    """LogNormal parameterisation reproduces the requested moments."""
    d = LogNormal(mean=mean, scv=scv)
    assert d.mean == pytest.approx(mean, rel=1e-9)
    assert d.scv == pytest.approx(scv, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(samples=st.integers(min_value=1, max_value=20))
def test_all_distributions_sample_non_negative(samples):
    """Every distribution produces non-negative values (queueing needs it)."""
    rng = random.Random(samples)
    distributions = [
        Deterministic(1.0),
        Exponential(1.0),
        Uniform(0.5, 2.0),
        LogNormal(1.0, 1.0),
        Gamma(2.0, 1.0),
        Erlang(3, 2.0),
        HyperExponential.balanced_from_mean_scv(1.0, 2.0),
        Pareto(3.0, 0.5),
        Empirical([0.0, 1.0, 2.0]),
    ]
    for dist in distributions:
        for _ in range(samples):
            assert dist.sample(rng) >= 0.0
