"""Stochastic building blocks: distributions and arrival processes.

The simulator draws inter-arrival times and per-tuple service times from
the distributions defined here.  The paper's model assumes exponential
inter-arrival and service times (M/M/k); the experiments deliberately
violate that assumption (uniform frame rates, heavy-tailed SIFT costs)
to show the model is robust — this package supplies both the conforming
and the violating distributions.

Every parametric distribution here is a :func:`distribution_from_spec`
kind, so a topology file (:func:`repro.topology.topology_from_dict`)
can name it; :class:`Empirical` is built in code, by trace replay's
resampled inter-arrival gaps.
"""

from repro.randomness.distributions import (
    Distribution,
    Deterministic,
    Exponential,
    Uniform,
    LogNormal,
    Gamma,
    Erlang,
    HyperExponential,
    Pareto,
    Empirical,
    distribution_from_spec,
)
from repro.randomness.arrival import (
    ArrivalProcess,
    PoissonProcess,
    UniformRateProcess,
    DeterministicProcess,
    RenewalProcess,
    MMPP2,
    ModulatedRateProcess,
    TraceReplayProcess,
)

__all__ = [
    "Distribution",
    "Deterministic",
    "Exponential",
    "Uniform",
    "LogNormal",
    "Gamma",
    "Erlang",
    "HyperExponential",
    "Pareto",
    "Empirical",
    "distribution_from_spec",
    "ArrivalProcess",
    "PoissonProcess",
    "UniformRateProcess",
    "DeterministicProcess",
    "RenewalProcess",
    "MMPP2",
    "ModulatedRateProcess",
    "TraceReplayProcess",
]
