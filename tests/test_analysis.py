"""Tests for the analysis helpers (correlation, calibration)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import pearson, spearman
from repro.exceptions import ModelError
from repro.model import PolynomialCalibrator


class TestCorrelation:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_spearman_invariant_to_monotone_transform(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        ys = [x**3 for x in xs]
        assert spearman(xs, ys) == pytest.approx(1.0)

    def test_ties_handled(self):
        value = spearman([1, 1, 2], [1, 2, 3])
        assert -1.0 <= value <= 1.0

    def test_constant_sequence_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])


class TestPolynomialCalibrator:
    def test_linear_fit_recovers_line(self):
        calibrator = PolynomialCalibrator(degree=1)
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [3.0 * x + 1.0 for x in xs]
        calibrator.fit(xs, ys)
        assert calibrator.predict(5.0) == pytest.approx(16.0, rel=1e-9)
        assert calibrator.r_squared(xs, ys) == pytest.approx(1.0)

    def test_infinite_estimate_passes_through(self):
        calibrator = PolynomialCalibrator().fit([1, 2, 3], [2, 4, 6])
        assert math.isinf(calibrator.predict(math.inf))

    def test_prediction_floored_at_zero(self):
        calibrator = PolynomialCalibrator().fit([1, 2], [0.1, 0.0])
        assert calibrator.predict(100.0) == 0.0

    def test_unfitted_rejects_predict(self):
        with pytest.raises(ModelError):
            PolynomialCalibrator().predict(1.0)

    def test_too_few_samples(self):
        with pytest.raises(ModelError):
            PolynomialCalibrator(degree=2).fit([1, 2], [1, 2])

    def test_mismatched_samples(self):
        with pytest.raises(ModelError):
            PolynomialCalibrator().fit([1, 2, 3], [1, 2])

    def test_rejects_non_finite(self):
        with pytest.raises(ModelError):
            PolynomialCalibrator().fit([1, math.inf], [1, 2])


@settings(max_examples=40, deadline=None)
@given(
    slope=st.floats(min_value=0.1, max_value=10.0),
    intercept=st.floats(min_value=0.0, max_value=5.0),
)
def test_linear_calibration_exact(slope, intercept):
    xs = [1.0, 2.0, 4.0, 8.0]
    ys = [slope * x + intercept for x in xs]
    calibrator = PolynomialCalibrator(degree=1).fit(xs, ys)
    for x in (0.5, 3.0, 10.0):
        assert calibrator.predict(x) == pytest.approx(
            slope * x + intercept, rel=1e-6, abs=1e-6
        )
