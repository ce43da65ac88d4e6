"""Closed-form predictions for one fidelity cell.

For a :class:`~repro.apps.fidelity.FidelityWorkload` every quantity the
audit compares is available analytically:

- ``mean_sojourn`` — Eq. (3) with the Allen-Cunneen service-SCV
  correction (:class:`~repro.model.refined.RefinedPerformanceModel`),
  which reduces to the paper's plain M/M/k model at SCV 1;
- ``mean_sojourn_mmk`` — the *uncorrected* M/M/k value, reported so the
  audit quantifies how much the paper's exponential assumption costs on
  non-exponential cells;
- ``waiting_time`` — the visit-weighted mean waiting time
  ``sum_i (lambda_i/lambda_0) * E[W_i]`` (same composition as Eq. (3)
  minus the service terms);
- ``service_time`` — the visit-weighted service component
  ``sum_i (lambda_i/lambda_0) / mu_i`` (exact: service draws are i.i.d.
  from the declared distribution);
- ``p95_sojourn`` — the normal-approximation quantile bound from
  :func:`repro.scheduler.percentile.sojourn_quantile_bound` (M/M/k
  moments; the audit records its error envelope per topology/SCV).

Known approximation gaps the audit is *expected* to surface (and the
tolerance manifest documents rather than hides):

- fan-out topologies: the simulator measures tuple-*tree* completion,
  the max over parallel branches, while Eq. (3) adds the branches — the
  model systematically over-predicts there;
- non-exponential service: per-operator waits follow Allen-Cunneen only
  approximately, and downstream arrival processes are no longer Poisson;
- the p95 bound: a planning bound, not an estimator (see its docstring).

:func:`predict_sojourn` computes the two numbers a campaign record
stores (``mean_sojourn`` and ``p95_sojourn``); :func:`predict` calls it
and adds the audit-only fields.  The traffic solve (building the
topology and its :class:`~repro.queueing.jackson.JacksonNetwork`) and
the p95 bound do not depend on the service SCV, so both can be shared
across calls: the hybrid campaign path (:mod:`repro.campaigns.hybrid`)
pays them once per distinct rate structure (and allocation) instead of
once per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.apps.fidelity import FidelityWorkload, service_distribution
from repro.model.refined import RefinedPerformanceModel
from repro.queueing import mgk
from repro.queueing.jackson import JacksonNetwork
from repro.scheduler.percentile import sojourn_quantile_bound


@dataclass(frozen=True)
class AnalyticPrediction:
    """Every model-side number for one cell (see module docstring)."""

    mean_sojourn: float
    mean_sojourn_mmk: float
    waiting_time: float
    service_time: float
    p95_sojourn: float
    utilisation: float

    def to_dict(self) -> Dict[str, float]:
        return {
            "mean_sojourn": self.mean_sojourn,
            "mean_sojourn_mmk": self.mean_sojourn_mmk,
            "waiting_time": self.waiting_time,
            "service_time": self.service_time,
            "p95_sojourn": self.p95_sojourn,
            "utilisation": self.utilisation,
        }


@dataclass(frozen=True)
class SojournPrediction:
    """The two numbers an analytic campaign record stores, plus the
    model and allocation that produced them."""

    mean_sojourn: float
    p95_sojourn: float
    model: RefinedPerformanceModel
    allocation: Tuple[int, ...]


def predict_sojourn(
    workload: FidelityWorkload,
    *,
    q: float = 0.95,
    networks: Optional[Dict[Tuple, JacksonNetwork]] = None,
    bounds: Optional[Dict[Tuple, float]] = None,
) -> SojournPrediction:
    """Eq. (3) with the Allen-Cunneen correction, and the p95 bound,
    for ``workload`` at its own allocation.

    ``networks`` memoizes the traffic solve across calls.  Its key
    holds every input the solve reads: the topology shape
    (``topology``, ``branches``, ``feedback``), the external rate and
    the per-operator service rate.  That rate is the one the topology
    carries, ``1 / mean`` of the cell's service law, not ``mu``: a
    gamma, hyperexponential or Pareto law's mean can miss ``1 / mu`` in
    the last bit, and sharing a solve across such laws would move the
    answer.  ``bounds`` memoizes the p95 bound, which reads only the
    traffic solve and the allocation (never the SCV), on ``(solve key,
    allocation, q)``.  Without them each is computed fresh.
    """
    service_time = service_distribution(
        workload.mu, workload.scv, workload.service_family
    )
    key = (
        workload.topology,
        workload.branches,
        workload.feedback,
        workload.external_rate,
        1.0 / service_time.mean,
    )
    network = networks.get(key) if networks is not None else None
    if network is None:
        network = JacksonNetwork.from_topology(workload.build())
        if networks is not None:
            networks[key] = network
    refined = RefinedPerformanceModel(
        network, service_scvs=[service_time.scv] * network.num_operators
    )
    allocation = (workload.servers,) * network.num_operators
    bound_key = (key, allocation, q)
    p95 = bounds.get(bound_key) if bounds is not None else None
    if p95 is None:
        p95 = sojourn_quantile_bound(refined.plain(), allocation, q=q)
        if bounds is not None:
            bounds[bound_key] = p95
    return SojournPrediction(
        mean_sojourn=refined.expected_sojourn(allocation),
        p95_sojourn=p95,
        model=refined,
        allocation=allocation,
    )


def predict(
    workload: FidelityWorkload, *, q: float = 0.95
) -> AnalyticPrediction:
    """Analytic predictions for ``workload`` at its own allocation:
    :func:`predict_sojourn` plus the fields only the audit reads."""
    sojourn = predict_sojourn(workload, q=q)
    refined = sojourn.model
    network = refined.network
    allocation = sojourn.allocation
    mean_mmk = refined.plain().expected_sojourn(allocation)

    waiting = 0.0
    service = 0.0
    for load, k, cs2 in zip(network.loads, allocation, refined.service_scvs):
        visits = load.arrival_rate / network.external_rate
        wait = mgk.expected_waiting_time_gg(
            load.arrival_rate, load.service_rate, k, ca2=1.0, cs2=cs2
        )
        if math.isinf(wait):
            waiting = math.inf
        elif not math.isinf(waiting):
            waiting += visits * wait
        service += visits / load.service_rate

    utilisation = max(
        load.arrival_rate / (k * load.service_rate)
        for load, k in zip(network.loads, allocation)
    )
    return AnalyticPrediction(
        mean_sojourn=sojourn.mean_sojourn,
        mean_sojourn_mmk=mean_mmk,
        waiting_time=waiting,
        service_time=service,
        p95_sojourn=sojourn.p95_sojourn,
        utilisation=utilisation,
    )
