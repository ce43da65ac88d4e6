"""Argument-validation helpers used across the library.

Every public constructor validates its inputs eagerly so that errors
surface where the bad value was supplied, not deep inside the simulator
or the optimiser.  All helpers raise :class:`ValueError` (or
:class:`TypeError` for type mismatches) with a message that names the
offending parameter.
"""

from __future__ import annotations

import math
from typing import Any


def _check_finite_number(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def check_positive(name: str, value: Any) -> float:
    """Return ``value`` as ``float`` if it is a finite number > 0."""
    value = _check_finite_number(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative(name: str, value: Any) -> float:
    """Return ``value`` as ``float`` if it is a finite number >= 0."""
    value = _check_finite_number(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(name: str, value: Any) -> float:
    """Return ``value`` as ``float`` if it lies in the closed unit interval."""
    value = _check_finite_number(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_positive_int(name: str, value: Any) -> int:
    """Return ``value`` as ``int`` if it is an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def check_identifier(name: str, value: Any) -> str:
    """Return ``value`` if it is a non-empty string usable as a component name."""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a str, got {type(value).__name__}")
    if not value or value.strip() != value:
        raise ValueError(
            f"{name} must be a non-empty string without surrounding whitespace,"
            f" got {value!r}"
        )
    return value
