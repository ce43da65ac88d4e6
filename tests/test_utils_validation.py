"""Unit tests for repro.utils.validation."""

import math

import pytest

from repro.utils.validation import (
    check_identifier,
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive_float(self):
        assert check_positive("x", 1.5) == 1.5

    def test_accepts_positive_int_and_converts(self):
        value = check_positive("x", 3)
        assert value == 3.0
        assert isinstance(value, float)

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive("x", -0.1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_positive("x", math.nan)

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_positive("x", math.inf)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive("x", True)

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            check_positive("x", "1.0")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -1e-9)


class TestCheckProbability:
    def test_accepts_bounds(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            check_probability("p", 1.0001)

    def test_rejects_below_zero(self):
        with pytest.raises(ValueError):
            check_probability("p", -0.0001)


class TestCheckPositiveInt:
    def test_accepts_one(self):
        assert check_positive_int("k", 1) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int("k", 0)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int("k", 1.0)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int("k", True)


class TestCheckIdentifier:
    def test_accepts_plain_name(self):
        assert check_identifier("name", "sift") == "sift"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_identifier("name", "")

    def test_rejects_surrounding_whitespace(self):
        with pytest.raises(ValueError):
            check_identifier("name", " sift ")

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            check_identifier("name", 42)
