"""Unit tests for repro.utils.math_helpers and repro.utils.rng."""

import pytest

from repro.utils.math_helpers import percentile
from repro.utils.rng import RngFactory, derive_seed


class TestPercentile:
    def test_median_odd(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_extremes(self):
        assert percentile([1, 2, 3], 0) == 1
        assert percentile([1, 2, 3], 100) == 3

    def test_single_element(self):
        assert percentile([7], 95) == 7

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_differs_by_name(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_differs_by_base(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_sensitivity(self):
        # ("ab",) and ("a", "b") must not collide.
        assert derive_seed(42, "ab") != derive_seed(42, "a", "b")


class TestRngFactory:
    def test_streams_reproducible(self):
        first = RngFactory(7).stream("x").random()
        second = RngFactory(7).stream("x").random()
        assert first == second

    def test_streams_independent(self):
        factory = RngFactory(7)
        assert factory.stream("x").random() != factory.stream("y").random()

    def test_child_namespacing(self):
        factory = RngFactory(7)
        child = factory.child("sub")
        assert child.stream("x").random() != factory.stream("x").random()

    def test_random_seed_when_none(self):
        # Two factories without explicit seeds almost surely differ.
        a, b = RngFactory(), RngFactory()
        assert a.seed != b.seed
