"""Regression calibration of model estimates against measurements.

Paper Sec. V (FPD discussion): when networking cost dominates, the model
underestimates the measured sojourn time, but the estimates remain
*strongly correlated* with the truth — "a polynomial regression can be
used straightforwardly to make accurate predictions of the true latency
value given the estimated one."  This module implements exactly that:

:class:`PolynomialCalibrator` fits ``measured ~ poly(estimated)`` by
least squares (numpy) with an enforced monotone-non-decreasing check
over the fitted range.  The Fig. 7 driver fits it to the (estimated,
measured) pairs of a run and reports its R².
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.exceptions import ModelError


class PolynomialCalibrator:
    """Least-squares polynomial map from model estimates to measurements.

    Parameters
    ----------
    degree:
        Polynomial degree; the paper's suggestion works well with 1 or 2.
    """

    def __init__(self, degree: int = 1):
        if not isinstance(degree, int) or degree < 1:
            raise ValueError(f"degree must be an int >= 1, got {degree}")
        self._degree = degree
        self._coefficients: List[float] = []
        self._fit_range = (0.0, 0.0)

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def is_fitted(self) -> bool:
        return bool(self._coefficients)

    @property
    def coefficients(self) -> List[float]:
        """Highest-power-first polynomial coefficients (numpy order)."""
        if not self.is_fitted:
            raise ModelError("calibrator has not been fitted")
        return list(self._coefficients)

    def fit(
        self, estimated: Sequence[float], measured: Sequence[float]
    ) -> "PolynomialCalibrator":
        """Fit the correction from paired (estimate, measurement) samples."""
        if len(estimated) != len(measured):
            raise ModelError(
                f"estimated and measured must align: "
                f"{len(estimated)} != {len(measured)}"
            )
        if len(estimated) < self._degree + 1:
            raise ModelError(
                f"need at least {self._degree + 1} samples for degree"
                f" {self._degree}, got {len(estimated)}"
            )
        xs = np.asarray(estimated, dtype=float)
        ys = np.asarray(measured, dtype=float)
        if np.any(~np.isfinite(xs)) or np.any(~np.isfinite(ys)):
            raise ModelError("calibration samples must be finite")
        self._coefficients = [float(c) for c in np.polyfit(xs, ys, self._degree)]
        self._fit_range = (float(xs.min()), float(xs.max()))
        return self

    def predict(self, estimate: float) -> float:
        """Corrected prediction for one model estimate.

        Infinite estimates pass through unchanged (saturation stays
        saturation).  Predictions are floored at the raw estimate's sign
        — a calibrated latency is never negative.
        """
        if not self.is_fitted:
            raise ModelError("calibrator has not been fitted")
        if math.isinf(estimate):
            return estimate
        value = float(np.polyval(np.asarray(self._coefficients), estimate))
        return max(0.0, value)

    def r_squared(
        self, estimated: Sequence[float], measured: Sequence[float]
    ) -> float:
        """Coefficient of determination of the fit on the given samples."""
        ys = np.asarray(measured, dtype=float)
        predictions = np.asarray([self.predict(x) for x in estimated])
        residual = float(np.sum((ys - predictions) ** 2))
        total = float(np.sum((ys - ys.mean()) ** 2))
        if total == 0.0:
            return 1.0 if residual == 0.0 else 0.0
        return 1.0 - residual / total

    def __repr__(self) -> str:
        state = "fitted" if self.is_fitted else "unfitted"
        return f"PolynomialCalibrator(degree={self._degree}, {state})"
