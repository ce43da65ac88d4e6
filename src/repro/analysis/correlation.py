"""Rank and linear correlation, for the Fig. 7 monotonicity analysis."""

from __future__ import annotations

import math
from typing import List, Sequence


def _check_paired(xs: Sequence[float], ys: Sequence[float]) -> None:
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} != {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least two points")


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson linear correlation coefficient."""
    _check_paired(xs, ys)
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        raise ValueError("correlation undefined for a constant sequence")
    return cov / math.sqrt(var_x * var_y)


def _ranks(values: Sequence[float]) -> List[float]:
    """Fractional ranks (ties get the average of their positions)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        average = (i + j) / 2.0 + 1.0
        for position in range(i, j + 1):
            ranks[order[position]] = average
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (Pearson on fractional ranks)."""
    _check_paired(xs, ys)
    return pearson(_ranks(xs), _ranks(ys))
