"""The DRS performance model (paper Sec. III-B) and its calibration.

:class:`~repro.model.performance.PerformanceModel` wraps the Jackson
network solution into the object the optimiser and controller consume;
:mod:`repro.model.calibration` implements the polynomial-regression
correction the paper suggests for network-bound applications (FPD).
"""

from repro.model.performance import PerformanceModel, ModelEstimate
from repro.model.calibration import PolynomialCalibrator
from repro.model.refined import RefinedPerformanceModel

__all__ = [
    "PerformanceModel",
    "ModelEstimate",
    "PolynomialCalibrator",
    "RefinedPerformanceModel",
]
