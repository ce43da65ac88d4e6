"""Shared utilities: argument validation, numeric helpers, RNG handling."""

from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_probability,
    check_positive_int,
)
from repro.utils.rng import RngFactory, derive_seed

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_positive_int",
    "RngFactory",
    "derive_seed",
]
