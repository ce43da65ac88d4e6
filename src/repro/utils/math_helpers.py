"""Small numeric helpers shared by the model, scheduler and simulator."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an already sorted sequence.

    ``q`` is in [0, 100].  Matches ``numpy.percentile``'s default
    behaviour; implemented locally to avoid pulling numpy into the hot
    path of the simulator metric collectors.
    """
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = (q / 100.0) * (len(sorted_values) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(sorted_values[int(position)])
    fraction = position - lower
    return float(
        sorted_values[lower] * (1.0 - fraction) + sorted_values[upper] * fraction
    )
