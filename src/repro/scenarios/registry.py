"""String-keyed registry of scheduling policies.

A scenario spec names its policy (``"drs.min_sojourn"``,
``"static.uniform"``, ...) and supplies a parameter mapping; the
registry turns that pair into a live :class:`SchedulingPolicy` bound to
a topology.  Third-party policies plug in with::

    @register_policy("mylab.greedy", "greedy allocator from our paper")
    def _make(topology, params):
        return MyGreedyPolicy(...)

:data:`POLICIES` is a :class:`repro.utils.registry.Registry`, so
policies follow the same contract as every other plugin kind: factories
receive a *mutable copy* of the parameters and must consume every key
they understand; leftovers are rejected so spec typos fail loudly
instead of silently running with defaults.  Errors are
:class:`~repro.exceptions.SchedulingError`.

>>> sorted(available_policies())
['drs.min_resource', 'drs.min_sojourn', 'none', 'slo_feedback', \
'static.proportional', 'static.random', 'static.uniform', 'threshold']
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, MutableMapping, Optional

from repro.baselines.static import (
    ProportionalAllocator,
    RandomAllocator,
    UniformAllocator,
)
from repro.baselines.threshold import ThresholdScaler
from repro.config import ClusterSpec, DRSConfig, OptimizationGoal, cluster_from_dict
from repro.exceptions import SchedulingError
from repro.scenarios.policies import (
    DRSControllerPolicy,
    PassivePolicy,
    SchedulingPolicy,
    SloFeedbackPolicy,
    StaticAllocatorPolicy,
    ThresholdPolicy,
)
from repro.scheduler.controller import DRSController
from repro.topology.graph import Topology
from repro.utils.registry import Registry

PolicyFactory = Callable[
    [Topology, MutableMapping[str, object]], SchedulingPolicy
]

#: Every registered scheduling policy.
POLICIES = Registry("policy", plural="policies", error=SchedulingError)

available_policies = POLICIES.available


def register_policy(
    name: str, description: str, *, uses_cluster: bool = False
) -> Callable[[PolicyFactory], PolicyFactory]:
    """Decorator registering ``factory`` under ``name``.

    ``uses_cluster`` declares that the factory consumes a ``cluster``
    parameter (machine-pool accounting); the scenario runner forwards
    the spec-level cluster to such policies so the controller and the
    negotiator always agree on capacity.
    """
    return POLICIES.register(name, description, uses_cluster=uses_cluster)


def policy_uses_cluster(name: str) -> bool:
    """Whether the policy registered under ``name`` consumes a
    ``cluster`` parameter (unknown names resolve to ``False``; the
    runner surfaces them later via :func:`create_policy`)."""
    return POLICIES.attrs(name).get("uses_cluster", False)


def create_policy(
    name: str,
    topology: Topology,
    params: Optional[Mapping[str, object]] = None,
) -> SchedulingPolicy:
    """Instantiate the policy registered under ``name`` for ``topology``."""
    return POLICIES.create(name, params, topology)


def _pop_cluster(params: MutableMapping[str, object]) -> ClusterSpec:
    raw = params.pop("cluster", None)
    if raw is None:
        return ClusterSpec()
    if isinstance(raw, ClusterSpec):
        return raw
    return cluster_from_dict(raw)


# ----------------------------------------------------------------------
# built-in policies
# ----------------------------------------------------------------------
@register_policy("none", "passive: keep the initial allocation, never act")
def _make_passive(topology: Topology, params) -> SchedulingPolicy:
    return PassivePolicy()


@register_policy(
    "drs.min_sojourn",
    "DRS Program 4: best E[T] within a fixed Kmax (Algorithm 1 + rebalance"
    " hysteresis)",
)
def _make_drs_min_sojourn(topology: Topology, params) -> SchedulingPolicy:
    config = DRSConfig(
        goal=OptimizationGoal.MIN_SOJOURN,
        kmax=int(POLICIES.require(params, "kmax", "drs.min_sojourn")),
        migration_cost=float(params.pop("migration_cost", 5.0)),
        amortisation_horizon=float(params.pop("amortisation_horizon", 600.0)),
        rebalance_threshold=float(params.pop("rebalance_threshold", 0.05)),
    )
    return DRSControllerPolicy(
        DRSController(list(topology.operator_names), config)
    )


@register_policy(
    "drs.min_resource",
    "DRS Program 6: fewest machines meeting Tmax, full budget spread with"
    " Algorithm 1",
    uses_cluster=True,
)
def _make_drs_min_resource(topology: Topology, params) -> SchedulingPolicy:
    config = DRSConfig(
        goal=OptimizationGoal.MIN_RESOURCE,
        tmax=float(POLICIES.require(params, "tmax", "drs.min_resource")),
        cluster=_pop_cluster(params),
        migration_cost=float(params.pop("migration_cost", 5.0)),
        amortisation_horizon=float(params.pop("amortisation_horizon", 600.0)),
        rebalance_threshold=float(params.pop("rebalance_threshold", 0.05)),
        headroom=float(params.pop("headroom", 0.0)),
        scale_in_safety=float(params.pop("scale_in_safety", 0.8)),
    )
    return DRSControllerPolicy(
        DRSController(list(topology.operator_names), config)
    )


@register_policy(
    "static.uniform", "spread Kmax evenly over operators (naive manual tuning)"
)
def _make_static_uniform(topology: Topology, params) -> SchedulingPolicy:
    kmax = int(POLICIES.require(params, "kmax", "static.uniform"))
    return StaticAllocatorPolicy(UniformAllocator(), kmax)


@register_policy(
    "static.proportional",
    "split Kmax proportionally to per-operator offered load",
)
def _make_static_proportional(topology: Topology, params) -> SchedulingPolicy:
    kmax = int(POLICIES.require(params, "kmax", "static.proportional"))
    return StaticAllocatorPolicy(ProportionalAllocator(), kmax)


@register_policy(
    "static.random", "random feasible placement of Kmax (sanity floor)"
)
def _make_static_random(topology: Topology, params) -> SchedulingPolicy:
    kmax = int(POLICIES.require(params, "kmax", "static.random"))
    rng = random.Random(int(params.pop("seed", 0)))
    return StaticAllocatorPolicy(RandomAllocator(rng), kmax)


@register_policy(
    "slo_feedback",
    "p95-target feedback scaler: grow the bottleneck while measured tail"
    " latency exceeds the SLO, reclaim slack capacity when it falls",
)
def _make_slo_feedback(topology: Topology, params) -> SchedulingPolicy:
    return SloFeedbackPolicy(
        p95_target=float(POLICIES.require(params, "p95_target", "slo_feedback")),
        kmax=int(POLICIES.require(params, "kmax", "slo_feedback")),
        step=int(params.pop("step", 1)),
        low_fraction=float(params.pop("low_fraction", 0.5)),
        scale_in_utilisation=float(params.pop("scale_in_utilisation", 0.85)),
    )


@register_policy(
    "threshold",
    "reactive watermark scaler (Dhalion/Flink-reactive style), one step per"
    " interval",
)
def _make_threshold(topology: Topology, params) -> SchedulingPolicy:
    kmax = int(POLICIES.require(params, "kmax", "threshold"))
    scaler = ThresholdScaler(
        high_watermark=float(params.pop("high_watermark", 0.85)),
        low_watermark=float(params.pop("low_watermark", 0.5)),
        max_steps_per_update=int(params.pop("max_steps_per_update", 1)),
    )
    return ThresholdPolicy(
        scaler,
        kmax,
        converge_on_model=bool(params.pop("converge_on_model", False)),
        convergence_iterations=int(params.pop("convergence_iterations", 50)),
    )
