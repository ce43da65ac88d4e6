"""Probability distributions for service and inter-arrival times.

Each distribution is a small immutable object exposing:

- ``sample(rng)`` — draw one value using the supplied ``random.Random``;
- ``mean`` / ``variance`` — analytic moments (used to parameterise the
  queueing model and to validate the simulator against theory);
- ``scv`` — squared coefficient of variation, the standard measure of
  burstiness in queueing theory (1 for exponential).

Distributions never own an RNG: the caller supplies one, which keeps all
randomness under the control of :class:`repro.utils.rng.RngFactory`.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Mapping, Sequence

from repro.utils.validation import check_positive, check_probability


class Distribution:
    """Abstract non-negative continuous distribution."""

    def sample(self, rng: random.Random) -> float:
        """Draw one sample."""
        raise NotImplementedError

    @property
    def mean(self) -> float:
        """Analytic expectation."""
        raise NotImplementedError

    @property
    def variance(self) -> float:
        """Analytic variance."""
        raise NotImplementedError

    @property
    def std(self) -> float:
        """Standard deviation."""
        return math.sqrt(self.variance)

    @property
    def scv(self) -> float:
        """Squared coefficient of variation ``Var/E^2`` (0 if mean is 0)."""
        mean = self.mean
        if mean == 0:
            return 0.0
        return self.variance / (mean * mean)


class Deterministic(Distribution):
    """Point mass at ``value`` (D in Kendall notation)."""

    def __init__(self, value: float):
        self._value = check_positive("value", value)

    def sample(self, rng: random.Random) -> float:
        return self._value

    @property
    def mean(self) -> float:
        return self._value

    @property
    def variance(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return f"Deterministic({self._value})"


class Exponential(Distribution):
    """Exponential distribution with the given *rate* (M in Kendall notation).

    ``Exponential(rate=mu)`` has mean ``1/mu``; this is the distribution
    the paper's M/M/k model assumes for both inter-arrival and service
    times.
    """

    def __init__(self, rate: float):
        self._rate = check_positive("rate", rate)

    @classmethod
    def from_mean(cls, mean: float) -> "Exponential":
        """Build from the mean instead of the rate."""
        check_positive("mean", mean)
        return cls(rate=1.0 / mean)

    @property
    def rate(self) -> float:
        return self._rate

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(self._rate)

    @property
    def mean(self) -> float:
        return 1.0 / self._rate

    @property
    def variance(self) -> float:
        return 1.0 / (self._rate * self._rate)

    def __repr__(self) -> str:
        return f"Exponential(rate={self._rate})"


class Uniform(Distribution):
    """Continuous uniform on ``[low, high]``.

    Used by the VLD workload: the paper draws the frame rate uniformly
    from [1, 25] frames per second (mean 13), deliberately violating the
    exponential assumption of the model.
    """

    def __init__(self, low: float, high: float):
        if low < 0:
            raise ValueError(f"low must be >= 0, got {low}")
        if high <= low:
            raise ValueError(f"high must be > low, got [{low}, {high}]")
        self._low = float(low)
        self._high = float(high)

    @property
    def low(self) -> float:
        return self._low

    @property
    def high(self) -> float:
        return self._high

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self._low, self._high)

    @property
    def mean(self) -> float:
        return (self._low + self._high) / 2.0

    @property
    def variance(self) -> float:
        width = self._high - self._low
        return width * width / 12.0

    def __repr__(self) -> str:
        return f"Uniform({self._low}, {self._high})"


class LogNormal(Distribution):
    """Log-normal distribution, parameterised by its own mean and SCV.

    A convenient heavy-tailed service-time model: SIFT feature extraction
    cost per frame is highly variable, which we model with SCV > 1.
    """

    def __init__(self, mean: float, scv: float):
        mean = check_positive("mean", mean)
        scv = check_positive("scv", scv)
        self._mean = mean
        self._scv = scv
        self._sigma2 = math.log(1.0 + scv)
        self._mu = math.log(mean) - self._sigma2 / 2.0

    def sample(self, rng: random.Random) -> float:
        return rng.lognormvariate(self._mu, math.sqrt(self._sigma2))

    @property
    def mu(self) -> float:
        """Mean of the underlying normal (the log of the variate)."""
        return self._mu

    @property
    def sigma(self) -> float:
        """Standard deviation of the underlying normal."""
        return math.sqrt(self._sigma2)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._scv * self._mean * self._mean

    def __repr__(self) -> str:
        return f"LogNormal(mean={self._mean}, scv={self._scv})"


class Gamma(Distribution):
    """Gamma distribution with ``shape`` and ``scale`` (mean = shape*scale)."""

    def __init__(self, shape: float, scale: float):
        self._shape = check_positive("shape", shape)
        self._scale = check_positive("scale", scale)

    def sample(self, rng: random.Random) -> float:
        return rng.gammavariate(self._shape, self._scale)

    @property
    def mean(self) -> float:
        return self._shape * self._scale

    @property
    def variance(self) -> float:
        return self._shape * self._scale * self._scale

    def __repr__(self) -> str:
        return f"Gamma(shape={self._shape}, scale={self._scale})"


class Erlang(Gamma):
    """Erlang-k distribution: sum of ``k`` i.i.d. exponentials (SCV = 1/k).

    Models service times *less* variable than exponential — useful for
    the queue-discipline ablation experiments.
    """

    def __init__(self, k: int, rate: float):
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"k must be an int >= 1, got {k}")
        check_positive("rate", rate)
        super().__init__(shape=float(k), scale=1.0 / rate)
        self._k = k
        self._rate = rate

    def __repr__(self) -> str:
        return f"Erlang(k={self._k}, rate={self._rate})"


class HyperExponential(Distribution):
    """Two-phase hyper-exponential: exponential with rate ``rate1`` with
    probability ``p1``, otherwise rate ``rate2`` (SCV > 1).

    Models bursty service times *more* variable than exponential.
    """

    def __init__(self, p1: float, rate1: float, rate2: float):
        self._p1 = check_probability("p1", p1)
        self._rate1 = check_positive("rate1", rate1)
        self._rate2 = check_positive("rate2", rate2)

    @classmethod
    def balanced_from_mean_scv(cls, mean: float, scv: float) -> "HyperExponential":
        """Fit a balanced-means H2 with the given mean and SCV (>1)."""
        mean = check_positive("mean", mean)
        if scv <= 1.0:
            raise ValueError(f"H2 requires scv > 1, got {scv}")
        # Standard balanced-means fit (Whitt 1982).
        root = math.sqrt((scv - 1.0) / (scv + 1.0))
        p1 = 0.5 * (1.0 + root)
        rate1 = 2.0 * p1 / mean
        rate2 = 2.0 * (1.0 - p1) / mean
        return cls(p1=p1, rate1=rate1, rate2=rate2)

    def sample(self, rng: random.Random) -> float:
        if rng.random() < self._p1:
            return rng.expovariate(self._rate1)
        return rng.expovariate(self._rate2)

    @property
    def mean(self) -> float:
        return self._p1 / self._rate1 + (1.0 - self._p1) / self._rate2

    @property
    def variance(self) -> float:
        second_moment = (
            2.0 * self._p1 / (self._rate1 * self._rate1)
            + 2.0 * (1.0 - self._p1) / (self._rate2 * self._rate2)
        )
        mean = self.mean
        return second_moment - mean * mean

    def __repr__(self) -> str:
        return (
            f"HyperExponential(p1={self._p1}, rate1={self._rate1},"
            f" rate2={self._rate2})"
        )


class Pareto(Distribution):
    """Pareto (Lomax-shifted) distribution with tail index ``alpha > 2``.

    Requires ``alpha > 2`` so mean and variance are finite — the queueing
    model needs both moments.
    """

    def __init__(self, alpha: float, minimum: float):
        alpha = check_positive("alpha", alpha)
        if alpha <= 2.0:
            raise ValueError(f"alpha must be > 2 for finite variance, got {alpha}")
        self._alpha = alpha
        self._minimum = check_positive("minimum", minimum)

    @classmethod
    def from_mean_scv(cls, mean: float, scv: float) -> "Pareto":
        """Fit a Pareto to a target mean and SCV.

        For a Pareto with tail index ``alpha`` the SCV is
        ``1 / (alpha * (alpha - 2))``, so ``alpha = 1 + sqrt(1 + 1/scv)``
        (always > 2, hence both moments finite) and the minimum follows
        from the mean.  Any ``scv > 0`` is reachable.

        >>> d = Pareto.from_mean_scv(mean=2.0, scv=4.0)
        >>> round(d.mean, 12), round(d.scv, 12)
        (2.0, 4.0)
        """
        mean = check_positive("mean", mean)
        scv = check_positive("scv", scv)
        alpha = 1.0 + math.sqrt(1.0 + 1.0 / scv)
        minimum = mean * (alpha - 1.0) / alpha
        return cls(alpha=alpha, minimum=minimum)

    def sample(self, rng: random.Random) -> float:
        # Inverse-CDF sampling; guard against u == 0.
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        return self._minimum / (u ** (1.0 / self._alpha))

    @property
    def mean(self) -> float:
        return self._alpha * self._minimum / (self._alpha - 1.0)

    @property
    def variance(self) -> float:
        a, m = self._alpha, self._minimum
        return (a * m * m) / ((a - 1.0) ** 2 * (a - 2.0))

    def __repr__(self) -> str:
        return f"Pareto(alpha={self._alpha}, minimum={self._minimum})"


class Empirical(Distribution):
    """Discrete empirical distribution over observed non-negative values.

    Used to replay measured per-tuple costs (e.g. features-per-frame
    histograms standing in for the paper's soccer-video trace).
    """

    def __init__(self, values: Sequence[float], weights: Sequence[float] = None):
        if not values:
            raise ValueError("values must be non-empty")
        self._values = [float(v) for v in values]
        for v in self._values:
            if v < 0 or math.isnan(v) or math.isinf(v):
                raise ValueError(f"values must be finite and >= 0, got {v}")
        if weights is None:
            weights = [1.0] * len(self._values)
        if len(weights) != len(self._values):
            raise ValueError("weights must match values in length")
        total = float(sum(weights))
        if total <= 0 or any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative and sum > 0")
        self._probs = [w / total for w in weights]
        self._cumulative = []
        acc = 0.0
        for p in self._probs:
            acc += p
            self._cumulative.append(acc)
        self._cumulative[-1] = 1.0

    def sample(self, rng: random.Random) -> float:
        index = bisect.bisect_left(self._cumulative, rng.random())
        return self._values[min(index, len(self._values) - 1)]

    @property
    def mean(self) -> float:
        return sum(v * p for v, p in zip(self._values, self._probs))

    @property
    def variance(self) -> float:
        mean = self.mean
        second = sum(v * v * p for v, p in zip(self._values, self._probs))
        return max(0.0, second - mean * mean)

    def __repr__(self) -> str:
        return f"Empirical(n={len(self._values)})"


#: Families :func:`heavy_tailed` can fit to a (mean, SCV) target.
HEAVY_TAILED_FAMILIES = ("lognormal", "pareto", "hyperexponential")


def heavy_tailed(
    mean: float, scv: float, family: str = "lognormal"
) -> Distribution:
    """A heavy-tailed service-time distribution with the given moments.

    The workload layer threads this through service-time construction so
    scenarios can ask for "SCV 4, Pareto tail" without naming raw
    distribution parameters.  ``lognormal`` and ``pareto`` accept any
    ``scv > 0``; ``hyperexponential`` (the balanced-means H2 the
    fidelity audit uses) requires ``scv > 1``.

    >>> heavy_tailed(0.5, 4.0, "pareto")
    Pareto(alpha=2.118033988749895, minimum=0.2639320225002103)
    >>> round(heavy_tailed(0.5, 4.0, "lognormal").scv, 9)
    4.0
    """
    check_positive("mean", mean)
    check_positive("scv", scv)
    if family == "lognormal":
        return LogNormal(mean=mean, scv=scv)
    if family == "pareto":
        return Pareto.from_mean_scv(mean=mean, scv=scv)
    if family == "hyperexponential":
        return HyperExponential.balanced_from_mean_scv(mean=mean, scv=scv)
    raise ValueError(
        f"unknown heavy-tailed family {family!r}; available:"
        f" {HEAVY_TAILED_FAMILIES}"
    )


_SPEC_BUILDERS = {
    "deterministic": lambda s: Deterministic(s["value"]),
    "exponential": lambda s: (
        Exponential(s["rate"]) if "rate" in s else Exponential.from_mean(s["mean"])
    ),
    "uniform": lambda s: Uniform(s["low"], s["high"]),
    "lognormal": lambda s: LogNormal(s["mean"], s["scv"]),
    "gamma": lambda s: Gamma(s["shape"], s["scale"]),
    "erlang": lambda s: Erlang(s["k"], s["rate"]),
    "hyperexponential": lambda s: HyperExponential.balanced_from_mean_scv(
        s["mean"], s["scv"]
    ),
    "pareto": lambda s: (
        Pareto(s["alpha"], s["minimum"])
        if "alpha" in s
        else Pareto.from_mean_scv(s["mean"], s["scv"])
    ),
}


def distribution_from_spec(spec: Mapping) -> Distribution:
    """Build a distribution from a plain dict, e.g. from a config file.

    The spec must contain a ``"type"`` key naming one of the registered
    distributions plus that distribution's parameters, for example
    ``{"type": "exponential", "mean": 0.05}``.
    """
    if "type" not in spec:
        raise ValueError("distribution spec requires a 'type' key")
    kind = str(spec["type"]).lower()
    builder = _SPEC_BUILDERS.get(kind)
    if builder is None:
        known = ", ".join(sorted(_SPEC_BUILDERS))
        raise ValueError(f"unknown distribution type {kind!r}; known: {known}")
    try:
        return builder(spec)
    except KeyError as missing:
        raise ValueError(f"distribution spec for {kind!r} missing key {missing}")
