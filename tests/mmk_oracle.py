"""M/M/k oracle: an independent check on :mod:`repro.queueing.erlang`.

:class:`MMkQueue` packages the Erlang results together with the
stationary queue-length distribution and waiting-time quantiles.  The
paper's DRS only needs ``E[T]``, so the library does not ship this
class; the test suite uses it to check ``queueing.erlang``, the
percentile bound and the simulator's empirical distributions against
closed-form M/M/k results.
"""

from __future__ import annotations

import math
from typing import List

from repro.queueing import erlang
from repro.utils.validation import check_non_negative, check_positive


class MMkQueue:
    """An M/M/k queue with arrival rate ``lam`` and service rate ``mu``.

    Raises ``ValueError`` for non-positive ``mu`` or ``k``; an unstable
    configuration (``lam >= k*mu``) is representable — moments simply
    return ``inf`` — so optimisers can probe infeasible points safely.
    """

    def __init__(self, lam: float, mu: float, k: int):
        self._lam = check_non_negative("lam", lam)
        self._mu = check_positive("mu", mu)
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"k must be an int >= 1, got {k}")
        self._k = k

    # ------------------------------------------------------------------
    # basic quantities
    # ------------------------------------------------------------------
    @property
    def lam(self) -> float:
        return self._lam

    @property
    def mu(self) -> float:
        return self._mu

    @property
    def k(self) -> int:
        return self._k

    @property
    def offered_load(self) -> float:
        """``a = lam / mu`` — mean number of busy servers if stable."""
        return self._lam / self._mu

    @property
    def utilisation(self) -> float:
        """``rho = lam / (k mu)``."""
        return self._lam / (self._k * self._mu)

    @property
    def is_stable(self) -> bool:
        """True iff ``rho < 1`` (strict, per the paper's Eq. 1)."""
        return self.utilisation < 1.0

    # ------------------------------------------------------------------
    # moments
    # ------------------------------------------------------------------
    @property
    def wait_probability(self) -> float:
        """Erlang-C: probability an arrival queues before service."""
        return erlang.erlang_c(self._k, self.offered_load)

    @property
    def mean_waiting_time(self) -> float:
        """``E[W]`` — mean time in queue."""
        return erlang.expected_waiting_time(self._lam, self._mu, self._k)

    @property
    def mean_sojourn_time(self) -> float:
        """``E[T]`` — the paper's Eq. (1)."""
        return erlang.expected_sojourn_time(self._lam, self._mu, self._k)

    @property
    def mean_queue_length(self) -> float:
        """``E[Lq]`` — mean number of waiting tuples."""
        return erlang.expected_queue_length(self._lam, self._mu, self._k)

    @property
    def mean_number_in_system(self) -> float:
        """``E[L]`` = ``E[Lq]`` + mean busy servers (Little's law)."""
        lq = self.mean_queue_length
        if math.isinf(lq):
            return math.inf
        return lq + self.offered_load

    # ------------------------------------------------------------------
    # distributions
    # ------------------------------------------------------------------
    def state_probabilities(self, max_n: int) -> List[float]:
        """Stationary probabilities ``P[L = n]`` for ``n = 0..max_n``.

        Computed by the standard birth-death recurrence, normalised with
        the closed-form tail (geometric beyond ``k``).  Requires a stable
        queue.
        """
        if not self.is_stable:
            raise ValueError("state distribution undefined for unstable queue")
        if max_n < 0:
            raise ValueError(f"max_n must be >= 0, got {max_n}")
        a = self.offered_load
        rho = self.utilisation
        # Unnormalised terms t_n = a^n/n! for n < k, then geometric decay.
        terms = [1.0]
        for n in range(1, max_n + 1):
            if n <= self._k:
                terms.append(terms[-1] * a / n)
            else:
                terms.append(terms[-1] * rho)
        # Normalisation: sum_{n<k} a^n/n! + (a^k/k!) * 1/(1-rho).
        total = 0.0
        term = 1.0
        for n in range(self._k):
            total += term
            term *= a / (n + 1)
        # 'term' is now a^k / k!.
        total += term / (1.0 - rho)
        return [t / total for t in terms]

    def waiting_time_cdf(self, t: float) -> float:
        """``P[W <= t]`` for the queueing delay (excluding service).

        For a stable M/M/k, ``P[W > t] = C(k, a) * exp(-(k*mu - lam) t)``.
        """
        check_non_negative("t", t)
        if not self.is_stable:
            return 0.0
        tail = self.wait_probability * math.exp(-(self._k * self._mu - self._lam) * t)
        return 1.0 - tail

    def waiting_time_quantile(self, q: float) -> float:
        """Smallest ``t`` with ``P[W <= t] >= q`` (0 <= q < 1)."""
        if not 0.0 <= q < 1.0:
            raise ValueError(f"q must be in [0, 1), got {q}")
        if not self.is_stable:
            return math.inf
        wait_prob = self.wait_probability
        if q <= 1.0 - wait_prob:
            return 0.0
        return -math.log((1.0 - q) / wait_prob) / (self._k * self._mu - self._lam)

    def sojourn_time_tail(self, t: float, *, samples: int = 2048) -> float:
        """Approximate ``P[T > t]`` for total time in the operator.

        ``T = W + S`` with ``S ~ Exp(mu)`` independent of ``W``; the tail
        is the convolution integral, evaluated in closed form when the
        two exponential rates differ and by trapezoidal quadrature in the
        degenerate case ``k*mu - lam == mu``.
        """
        check_non_negative("t", t)
        if not self.is_stable:
            return 1.0
        theta = self._k * self._mu - self._lam  # decay rate of W's tail
        c = self.wait_probability
        mu = self._mu
        # P(T > t) = (1-c) P(S > t) + c * P(W' + S > t) where W' ~ Exp(theta).
        no_wait = (1.0 - c) * math.exp(-mu * t)
        if abs(theta - mu) > 1e-9 * max(theta, mu):
            hypo = (
                mu * math.exp(-theta * t) - theta * math.exp(-mu * t)
            ) / (mu - theta)
        else:
            # Erlang-2-like degenerate case.
            hypo = math.exp(-mu * t) * (1.0 + mu * t)
        return min(1.0, max(0.0, no_wait + c * hypo))

    def __repr__(self) -> str:
        return f"MMkQueue(lam={self._lam}, mu={self._mu}, k={self._k})"
