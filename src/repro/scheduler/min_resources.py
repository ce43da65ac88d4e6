"""Program 6 — minimum processors to meet the real-time target.

    min  sum_i k_i
    s.t. E[T](k) <= Tmax,  k_i integer

Solved greedily exactly like Algorithm 1 (the objective and constraint
are both convex in ``k``): start from the minimal stable allocation and
repeatedly add one processor where the marginal benefit is largest,
stopping as soon as ``E[T] <= Tmax``.  The paper omits the near-identical
correctness proof; our test suite cross-checks against exhaustive search.
"""

from __future__ import annotations

import heapq
import itertools
import math
from repro.exceptions import InfeasibleAllocationError
from repro.model.performance import PerformanceModel
from repro.scheduler.allocation import Allocation
from repro.scheduler.assign import marginal_evaluators_for
from repro.utils.validation import check_positive


def min_processors_for_target(
    model: PerformanceModel,
    tmax: float,
    *,
    hard_limit: int = 100_000,
) -> Allocation:
    """Solve Program 6: the smallest allocation with ``E[T](k) <= Tmax``.

    Parameters
    ----------
    model:
        Performance model carrying per-operator rates.
    tmax:
        Real-time constraint (same time unit as the model's rates).
    hard_limit:
        Safety cap on total processors.  ``E[T]`` is bounded below by
        ``sum_i (lambda_i/lambda_0) / mu_i`` (pure service time, no
        queueing); if ``tmax`` is below that bound no finite allocation
        can meet it, and we detect this analytically rather than looping
        to the cap.

    Raises
    ------
    InfeasibleAllocationError
        If ``tmax`` is below the zero-queueing lower bound, or the
        ``hard_limit`` cap is hit.
    """
    check_positive("tmax", tmax)
    network = model.network
    names = network.names
    lambdas = network.arrival_rates
    mus = network.service_rates
    lambda0 = network.external_rate

    # Analytic feasibility: with infinite processors, queueing vanishes
    # and E[T] -> sum_i lambda_i/(lambda_0 * mu_i).
    service_floor = sum(
        lam / (lambda0 * mu) for lam, mu in zip(lambdas, mus)
    )
    if tmax < service_floor:
        raise InfeasibleAllocationError(
            f"Tmax={tmax} is below the pure-service-time floor"
            f" {service_floor:.6g}; no allocation can satisfy it"
        )

    counts = model.min_allocation()
    total = sum(counts)
    if total > hard_limit:
        raise InfeasibleAllocationError(
            f"minimal stable allocation needs {total} > hard_limit={hard_limit}"
        )

    current = model.expected_sojourn(counts)

    # Incremental per-operator evaluators: refreshing delta after an
    # increment carries the Erlang-B recurrence forward in O(1).
    evaluators = marginal_evaluators_for(model, counts)
    counter = itertools.count()
    heap = []
    for i in range(len(names)):
        delta = evaluators[i].delta()
        heapq.heappush(heap, (-delta, next(counter), i))
    expected_sojourn = model.expected_sojourn

    while current > tmax:
        if total >= hard_limit:
            raise InfeasibleAllocationError(
                f"hit hard_limit={hard_limit} with E[T]={current:.6g} >"
                f" Tmax={tmax}"
            )
        neg_delta, _, i = heapq.heappop(heap)
        delta = -neg_delta
        counts[i] += 1
        total += 1
        if math.isinf(current):
            current = expected_sojourn(counts)
        else:
            # delta already equals lambda_i*(E[Ti](k)-E[Ti](k+1)); Eq. (3)
            # scales it by 1/lambda_0.  The subtraction cancels two
            # nearly-equal quantities, so near the Tmax boundary — or
            # when the previous value was huge (rho ~ 1) — the rounding
            # error can flip the termination test in either direction.
            # Recompute exactly before trusting a terminal verdict.
            previous = current
            current -= delta / lambda0
            if current <= tmax or abs(current - tmax) <= 1e-9 * max(tmax, previous):
                current = expected_sojourn(counts)
        heapq.heappush(heap, (-evaluators[i].advance(), next(counter), i))

    return Allocation(names, counts)
