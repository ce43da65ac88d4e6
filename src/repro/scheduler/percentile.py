"""Percentile-aware scheduling — an extension beyond the paper.

The paper's Program 6 targets the *mean* total sojourn time.  Real-time
SLOs are usually stated on a tail ("95% of updates within Tmax"), so
this module provides the natural extension:

- :func:`sojourn_quantile_bound` — a normal-approximation bound on the
  q-quantile of the total sojourn time for an allocation, built from
  the exact per-operator M/M/k mean and variance (W is 0 with
  probability ``1 - ErlangC`` and exponential otherwise; S independent
  exponential) combined across visits assuming independence;
- :func:`min_processors_for_quantile` — Program 6 with the quantile
  bound as the constraint, solved by the same greedy (the bound is
  monotone decreasing in every ``k_i``, so the greedy terminates at a
  feasible point; minimality is heuristic and validated empirically in
  the tests).

The independence and normality assumptions parallel the Jackson-network
assumptions of the paper's own model: approximate, but accurate enough
to *rank* allocations and pick budgets, which is what the controller
needs.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import List, Sequence

from repro.exceptions import InfeasibleAllocationError
from repro.model.performance import PerformanceModel
from repro.queueing import erlang
from repro.scheduler.allocation import Allocation
from repro.utils.validation import check_positive


# Standard normal quantiles for the canonical SLO levels; kept as exact
# constants so long-standing controller configurations are bit-stable.
_Z_TABLE = {0.5: 0.0, 0.9: 1.2816, 0.95: 1.6449, 0.99: 2.3263}


def _z_for(q: float) -> float:
    """Upper-tail standard normal quantile ``z_q`` for ``q in [0.5, 1]``.

    The four canonical SLO levels come from the exact table; any other
    ``q`` uses the Abramowitz & Stegun 26.2.23 rational approximation
    (|error| < 4.5e-4 — far below the normal approximation's own error).
    ``q = 1.0`` returns ``inf``: the sojourn distribution has unbounded
    support, so its 100th percentile is genuinely infinite — callers
    must treat it as an unreachable target, not divide by it.  The bound
    is built for upper tails only; ``q < 0.5`` raises (the normal
    approximation of a skewed, non-negative sojourn time has no validity
    below the median — see :func:`sojourn_quantile_bound`).
    """
    if not 0.5 <= q <= 1.0:
        raise ValueError(
            f"quantile must be in [0.5, 1.0], got {q}; the normal bound"
            " is only valid for upper tails"
        )
    z = _Z_TABLE.get(round(q, 2))
    if z is not None and math.isclose(q, round(q, 2), abs_tol=1e-12):
        return z
    if q == 1.0:
        return math.inf
    # A&S 26.2.23: z = t - (c0 + c1 t + c2 t^2)/(1 + d1 t + d2 t^2 + d3 t^3)
    # with t = sqrt(-2 ln(1 - q)).
    t = math.sqrt(-2.0 * math.log(1.0 - q))
    numerator = 2.515517 + t * (0.802853 + t * 0.010328)
    denominator = 1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    return t - numerator / denominator


def operator_sojourn_moments(lam: float, mu: float, k: int) -> tuple:
    """(mean, variance) of one visit's sojourn time in an M/M/k.

    ``T = W + S``; ``W`` is 0 w.p. ``1 - C`` and Exp(k*mu - lam) w.p.
    ``C`` (Erlang-C), independent of ``S ~ Exp(mu)``.
    """
    mean = erlang.expected_sojourn_time(lam, mu, k)
    if math.isinf(mean):
        return math.inf, math.inf
    if lam == 0.0:
        return mean, 1.0 / (mu * mu)
    c = erlang.erlang_c(k, lam / mu)
    theta = k * mu - lam
    if theta <= 0.0:
        # Defensive: Eq. (1) already returns inf for the fp-degenerate
        # critically-loaded case, but keep the moments safe if the two
        # stability tests ever disagree again — never divide by <= 0.
        return math.inf, math.inf
    mean_w = c / theta
    second_w = 2.0 * c / (theta * theta)
    # Analytically var_w = c*(2 - c)/theta^2 >= 0; the subtraction can
    # still cancel to a tiny negative in floating point when c ~ 0
    # (ErlangC ~ 0 at low utilisation), so floor it at zero.
    var_w = max(0.0, second_w - mean_w * mean_w)
    var_s = 1.0 / (mu * mu)
    return mean, var_w + var_s


def sojourn_quantile_bound(
    model: PerformanceModel, allocation: Sequence[int], q: float = 0.95
) -> float:
    """Normal-approximation q-quantile of the total sojourn time.

    ``mean_total = Eq. (3)``; ``var_total = sum_i (lambda_i/lambda_0) *
    Var[T_i]`` (each visit an independent draw); the bound is
    ``mean + z_q * sqrt(var)``.  Returns ``inf`` for saturated
    allocations and for ``q = 1.0`` (unbounded support).

    Validity range (measured by the ``repro fidelity`` audit): the
    normal approximation is meant for ``q in [0.5, 0.99]`` on stable,
    exponential-service operators, where the p95 bound lands within
    ~9-14% of the simulated p95 on single operators and chains (a touch
    low — the exponential tail is more skewed than a normal's).  It is
    *conservative* for fan-outs (tree completion is a max, not a sum:
    bound ~30-45% above the simulated p95) and *optimistic* for
    feedback loops (geometric visit counts fatten the tail: ~35-46%
    below) and for heavy-tailed service (SCV 4: up to ~80% below).
    Outside the domain — q -> 1, zero-variance cells — the bound
    degrades gracefully (clamped variance, ``inf`` at q = 1) but is a
    ranking heuristic only; ``tests/golden/fidelity_tolerances.json``
    pins the enforced per-regime envelope.
    """
    z = _z_for(q)
    if math.isinf(z):
        return math.inf
    network = model.network
    mean_total = 0.0
    var_total = 0.0
    for load, k in zip(network.loads, allocation):
        mean, variance = operator_sojourn_moments(
            load.arrival_rate, load.service_rate, int(k)
        )
        if math.isinf(mean):
            return math.inf
        visits = load.arrival_rate / network.external_rate
        mean_total += visits * mean
        var_total += visits * variance
    return mean_total + z * math.sqrt(max(0.0, var_total))


def min_processors_for_quantile(
    model: PerformanceModel,
    tmax: float,
    *,
    q: float = 0.95,
    hard_limit: int = 100_000,
) -> Allocation:
    """Fewest processors with ``quantile_bound(q) <= tmax`` (greedy).

    Same structure as the Program 6 solver; the marginal-benefit order
    uses the mean (which dominates the bound's derivative) while the
    stopping rule uses the full quantile bound.
    """
    check_positive("tmax", tmax)
    if math.isinf(_z_for(q)):  # validate early; q = 1.0 is unreachable
        raise InfeasibleAllocationError(
            f"quantile target q={q} is unreachable: the sojourn"
            " distribution has unbounded support"
        )
    network = model.network
    names = network.names
    lambdas = network.arrival_rates
    mus = network.service_rates

    counts: List[int] = model.min_allocation()
    total = sum(counts)
    current = sojourn_quantile_bound(model, counts, q)

    counter = itertools.count()
    heap = []
    for i in range(len(names)):
        delta = erlang.marginal_benefit(lambdas[i], mus[i], counts[i])
        heapq.heappush(heap, (-delta, next(counter), i))

    while current > tmax:
        if total >= hard_limit:
            raise InfeasibleAllocationError(
                f"hit hard_limit={hard_limit} with bound {current:.6g} >"
                f" Tmax={tmax}"
            )
        neg_delta, _, i = heapq.heappop(heap)
        if -neg_delta <= 0.0 and not math.isinf(current):
            # No operator improves the mean any more; the variance terms
            # also stop shrinking meaningfully — declare infeasible
            # rather than looping to the cap.
            raise InfeasibleAllocationError(
                f"quantile target Tmax={tmax} (q={q}) unreachable: bound"
                f" plateaued at {current:.6g}"
            )
        counts[i] += 1
        total += 1
        current = sojourn_quantile_bound(model, counts, q)
        delta = erlang.marginal_benefit(lambdas[i], mus[i], counts[i])
        heapq.heappush(heap, (-delta, next(counter), i))

    return Allocation(names, counts)
