"""One replication of a scenario spec, and the merge of many.

:func:`run_replication` executes replication ``index`` of a
:class:`~repro.scenarios.spec.ScenarioSpec`.  Its seed is *derived from
the spec's base seed and the replication index*
(:func:`replication_seed`), so a result set is identical no matter how
many worker processes execute it (replication 0 runs the base seed
itself, keeping single-replication scenarios bit-for-bit compatible
with the legacy figure drivers).  :func:`summarize_replications`
merges results in index order into one :class:`ScenarioSummary`.

Fanning replications out over processes is the campaign runner's job
(:class:`~repro.campaigns.runner.CampaignRunner`); a bare scenario runs
as a one-cell campaign through :func:`repro.api.run_scenario`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.config import (
    ClusterSpec,
    MeasurementConfig,
    OptimizationGoal,
    cluster_from_dict,
    measurement_from_dict,
)
from repro.exceptions import ConfigurationError
from repro.model.performance import PerformanceModel
from repro.platform import PlatformSpec
from repro.scenarios.binding import (
    PolicyBinding,
    passive_recommendation,
)
from repro.scenarios.policies import DRSControllerPolicy
from repro.scenarios.registry import create_policy, policy_uses_cluster
from repro.scenarios.spec import DEFAULT_HOP_LATENCY, ScenarioSpec
from repro.scheduler.allocation import Allocation
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.negotiator import SimResourceNegotiator
from repro.sim.runtime import RuntimeOptions, TopologyRuntime
from repro.utils.rng import derive_seed
from repro.workloads.closed_loop import create_closed_loop_source
from repro.workloads.models import create_arrival_model


def replication_seed(base_seed: int, index: int) -> int:
    """Deterministic seed of replication ``index``.

    Replication 0 is the base seed itself (bit-for-bit compatibility
    with the single-run figure drivers); later replications derive
    independent seeds via SHA-256, stable across platforms and worker
    counts.

    >>> replication_seed(7, 0)
    7
    >>> replication_seed(7, 1)
    15687403071522711833
    >>> replication_seed(7, 1) == replication_seed(7, 1)   # stable
    True
    """
    if index < 0:
        raise ConfigurationError(f"replication index must be >= 0, got {index}")
    if index == 0:
        return int(base_seed)
    return derive_seed(base_seed, "replication", str(index))


@dataclass(frozen=True)
class AppliedAction:
    """One policy decision the binding actually executed."""

    time: float
    action: str
    allocation: str
    machines: Optional[int]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "action": self.action,
            "allocation": self.allocation,
            "machines": self.machines,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "AppliedAction":
        return cls(
            time=float(raw["time"]),
            action=str(raw["action"]),
            allocation=str(raw["allocation"]),
            machines=raw.get("machines"),
        )


@dataclass(frozen=True)
class ReplicationResult:
    """Everything one replication reports back to the merger."""

    index: int
    seed: int
    duration: float
    external_tuples: int
    completed_trees: int
    dropped_tuples: int
    dropped_trees: int
    rebalances: int
    mean_sojourn: Optional[float]
    std_sojourn: Optional[float]
    p95_sojourn: Optional[float]
    final_allocation: str
    final_machines: Optional[int]
    actions: Tuple[AppliedAction, ...]
    timeline: Tuple[Tuple[float, Optional[float], int], ...]
    recommendation: Optional[str]
    #: Per-operator mean waiting / service time over the whole run (the
    #: runtime's cumulative accumulators; ``None`` for operators that
    #: processed nothing).  Added for the fidelity audit — absent in
    #: records stored before it existed, hence the ``None`` defaults.
    operator_waits: Optional[Dict[str, Optional[float]]] = None
    operator_services: Optional[Dict[str, Optional[float]]] = None
    #: Reactive-load counters (closed-loop clients / backpressure):
    #: total source-blocked simulated seconds, admission-controller
    #: rejections, and requests clients attempted.  Additive-optional
    #: like the fields above, so pre-existing stored records rehydrate.
    blocked_time: Optional[float] = None
    admission_rejected: Optional[int] = None
    issued_requests: Optional[int] = None

    def sibling(self, index: int, seed: int) -> "ReplicationResult":
        """This result under replication ``index`` and ``seed``: an
        analytic cell's replications share one answer.  It copies the
        fields as they are, where ``dataclasses.replace`` would run
        ``__init__`` over all of them."""
        sibling = object.__new__(ReplicationResult)
        sibling.__dict__.update(self.__dict__, index=index, seed=seed)
        return sibling

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "seed": self.seed,
            "duration": self.duration,
            "external_tuples": self.external_tuples,
            "completed_trees": self.completed_trees,
            "dropped_tuples": self.dropped_tuples,
            "dropped_trees": self.dropped_trees,
            "rebalances": self.rebalances,
            "mean_sojourn": self.mean_sojourn,
            "std_sojourn": self.std_sojourn,
            "p95_sojourn": self.p95_sojourn,
            "final_allocation": self.final_allocation,
            "final_machines": self.final_machines,
            "actions": [a.to_dict() for a in self.actions],
            "timeline": [list(b) for b in self.timeline],
            "recommendation": self.recommendation,
            "operator_waits": (
                dict(self.operator_waits)
                if self.operator_waits is not None
                else None
            ),
            "operator_services": (
                dict(self.operator_services)
                if self.operator_services is not None
                else None
            ),
            "blocked_time": self.blocked_time,
            "admission_rejected": self.admission_rejected,
            "issued_requests": self.issued_requests,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ReplicationResult":
        """Inverse of :meth:`to_dict` — rehydrates stored records so a
        resumed campaign merges cached and fresh replications alike."""
        return cls(
            index=int(raw["index"]),
            seed=int(raw["seed"]),
            duration=float(raw["duration"]),
            external_tuples=int(raw["external_tuples"]),
            completed_trees=int(raw["completed_trees"]),
            dropped_tuples=int(raw["dropped_tuples"]),
            dropped_trees=int(raw["dropped_trees"]),
            rebalances=int(raw["rebalances"]),
            mean_sojourn=raw.get("mean_sojourn"),
            std_sojourn=raw.get("std_sojourn"),
            p95_sojourn=raw.get("p95_sojourn"),
            final_allocation=str(raw["final_allocation"]),
            final_machines=raw.get("final_machines"),
            actions=tuple(
                AppliedAction.from_dict(a) for a in raw.get("actions", ())
            ),
            timeline=tuple(tuple(b) for b in raw.get("timeline", ())),
            recommendation=raw.get("recommendation"),
            operator_waits=raw.get("operator_waits"),
            operator_services=raw.get("operator_services"),
            blocked_time=raw.get("blocked_time"),
            admission_rejected=raw.get("admission_rejected"),
            issued_requests=raw.get("issued_requests"),
        )


@dataclass(frozen=True)
class ScenarioSummary:
    """Merged view over a scenario's replications.

    ``mean_sojourn`` is the mean of the replication means (each
    replication is one i.i.d. sample of the scenario's mean sojourn
    time); ``std_between`` is the sample standard deviation across
    those means — the replication-level uncertainty.
    """

    name: str
    policy: str
    replications: Tuple[ReplicationResult, ...]
    mean_sojourn: Optional[float]
    std_between: Optional[float]
    min_sojourn: Optional[float]
    max_sojourn: Optional[float]
    total_external: int
    total_completed: int
    total_rebalances: int
    extra: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "policy": self.policy,
            "replications": [r.to_dict() for r in self.replications],
            "mean_sojourn": self.mean_sojourn,
            "std_between": self.std_between,
            "min_sojourn": self.min_sojourn,
            "max_sojourn": self.max_sojourn,
            "total_external": self.total_external,
            "total_completed": self.total_completed,
            "total_rebalances": self.total_rebalances,
            "extra": self.extra,
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# one replication (module-level so process pools can pickle it)
# ----------------------------------------------------------------------
def _resolve_policy_params(spec: ScenarioSpec) -> Dict[str, Any]:
    params = dict(spec.policy_params)
    if spec.cluster is not None and policy_uses_cluster(spec.policy):
        # The negotiator and the controller must agree on the machine
        # accounting, so the spec-level cluster is the default.
        params.setdefault("cluster", dict(spec.cluster))
    return params


def _initial_allocation(
    spec: ScenarioSpec, policy, model: PerformanceModel, topology
) -> Allocation:
    if spec.initial_allocation is not None:
        return Allocation.parse(
            list(topology.operator_names), spec.initial_allocation
        )
    picked = policy.initial_allocation(model)
    if picked is None:
        raise ConfigurationError(
            f"scenario {spec.name!r}: policy {spec.policy!r} cannot derive a"
            " starting point; set initial_allocation explicitly"
        )
    return picked


def _check_machine_pool(spec: ScenarioSpec, policy) -> None:
    """Reject pool-sizing policies with no pool *before* simulating.

    Without this a MIN_RESOURCE controller only fails at its first
    measurement report, mid-replication inside a worker process, with
    a controller-internal message that never names the spec field.
    """
    if spec.initial_machines is not None:
        return
    if (
        isinstance(policy, DRSControllerPolicy)
        and policy.controller.config.goal is OptimizationGoal.MIN_RESOURCE
    ):
        raise ConfigurationError(
            f"scenario {spec.name!r}: policy {spec.policy!r} sizes the"
            " machine pool; set initial_machines (and cluster) in the spec"
        )


def run_replication(spec: ScenarioSpec, index: int) -> ReplicationResult:
    """Execute replication ``index`` of ``spec`` and collect its results."""
    if spec.kind != "simulation":
        raise ConfigurationError(
            f"scenario kind {spec.kind!r} has no simulation replications"
        )
    seed = replication_seed(spec.seed, index)
    workload = spec.build_workload()
    topology = workload.build()
    model = PerformanceModel.from_topology(topology)
    policy = create_policy(spec.policy, topology, _resolve_policy_params(spec))
    _check_machine_pool(spec, policy)
    allocation = _initial_allocation(spec, policy, model, topology)

    if spec.platform is not None:
        # Per-edge link transfers replace the global hop constant (the
        # spec already rejected hop_latency + platform together).
        platform = PlatformSpec.from_dict(spec.platform)
        hop_latency = 0.0
    else:
        platform = None
        hop_latency = (
            spec.hop_latency
            if spec.hop_latency is not None
            else getattr(workload, "hop_latency", DEFAULT_HOP_LATENCY)
        )
    measurement = (
        measurement_from_dict(spec.measurement)
        if spec.measurement is not None
        else MeasurementConfig()
    )
    options = RuntimeOptions(
        seed=seed,
        hop_latency=hop_latency,
        queue_discipline=spec.queue_discipline,
        timeline_bucket=spec.timeline_bucket,
        measurement=measurement,
        arrival_rate_phases=(
            tuple((p.start, p.rate_multiplier) for p in spec.rate_phases)
            or None
        ),
        # The spec stores the model as its canonical plain dict; the
        # runtime wants the built object (sim is duck-typed on it so
        # the simulator layer never imports repro.workloads).
        arrival_model=(
            create_arrival_model(spec.arrival_model)
            if spec.arrival_model is not None
            else None
        ),
        platform=platform,
        queue_limit=spec.queue_limit,
        backpressure=spec.backpressure,
        # Same canonical-dict-to-object contract as arrival_model.
        closed_loop=(
            create_closed_loop_source(spec.closed_loop)
            if spec.closed_loop is not None
            else None
        ),
    )
    simulator = Simulator()
    runtime = TopologyRuntime(simulator, topology, allocation, options)

    negotiator = None
    cluster = None
    if spec.initial_machines is not None:
        cluster_spec = (
            cluster_from_dict(spec.cluster)
            if spec.cluster is not None
            else ClusterSpec()
        )
        cluster = Cluster(
            slots_per_machine=cluster_spec.slots_per_machine,
            reserved_executors=cluster_spec.reserved_executors,
        )
        negotiator = SimResourceNegotiator(simulator, cluster, cluster_spec)
        negotiator.bootstrap(spec.initial_machines)

    binding = PolicyBinding(
        runtime,
        policy,
        negotiator=negotiator,
        enable_at=spec.enable_at,
        min_action_gap=spec.min_action_gap,
    )
    runtime.start()
    simulator.run_until(spec.duration)
    # O(clients): every tracked tree and closed-loop request is
    # accounted for, or the replication fails loudly.
    runtime.check_conservation()

    stats = runtime.stats(warmup=spec.warmup)
    recommendation = None
    if spec.recommend_kmax is not None:
        picked = passive_recommendation(runtime, spec.recommend_kmax)
        recommendation = picked.spec() if picked is not None else None
    actions = tuple(
        AppliedAction(
            time=event.time,
            action=event.decision.action.value,
            allocation=event.decision.target_allocation.spec(),
            machines=event.decision.target_machines,
        )
        for event in binding.applied_events
    )
    return ReplicationResult(
        index=index,
        seed=seed,
        duration=stats.duration,
        external_tuples=stats.external_tuples,
        completed_trees=stats.completed_trees,
        dropped_tuples=stats.dropped_tuples,
        dropped_trees=stats.dropped_trees,
        rebalances=stats.rebalances,
        mean_sojourn=stats.mean_sojourn,
        std_sojourn=stats.std_sojourn,
        p95_sojourn=stats.p95_sojourn,
        final_allocation=runtime.allocation.spec(),
        final_machines=cluster.num_running if cluster is not None else None,
        actions=actions,
        timeline=tuple(runtime.timeline()),
        recommendation=recommendation,
        operator_waits=dict(stats.per_operator_wait),
        operator_services=dict(stats.per_operator_service),
        blocked_time=stats.blocked_time,
        admission_rejected=stats.admission_rejected,
        issued_requests=stats.issued_requests,
    )


def summarize_replications(
    spec: ScenarioSpec, results: Sequence[ReplicationResult]
) -> ScenarioSummary:
    """Merge replications — freshly computed or store-cached, in index
    order — into a :class:`ScenarioSummary`."""
    means = [r.mean_sojourn for r in results if r.mean_sojourn is not None]
    mean = sum(means) / len(means) if means else None
    if len(means) > 1:
        centered = [(m - mean) ** 2 for m in means]
        std_between = math.sqrt(sum(centered) / (len(means) - 1))
    elif means:
        std_between = 0.0
    else:
        std_between = None
    return ScenarioSummary(
        name=spec.name,
        policy=spec.policy,
        replications=tuple(results),
        mean_sojourn=mean,
        std_between=std_between,
        min_sojourn=min(means) if means else None,
        max_sojourn=max(means) if means else None,
        total_external=sum(r.external_tuples for r in results),
        total_completed=sum(r.completed_trees for r in results),
        total_rebalances=sum(r.rebalances for r in results),
    )
