"""The scenario engine: declarative experiments over pluggable policies.

Three pieces replace the per-figure driver pattern:

- :mod:`repro.scenarios.spec` — :class:`ScenarioSpec`, a JSON-round-
  trippable description of a workload + policy + protocol + replication
  plan;
- :mod:`repro.scenarios.registry` — the string-keyed policy registry
  (``"drs.min_sojourn"``, ``"drs.min_resource"``, ``"static.*"``,
  ``"threshold"``, ``"none"``) with :func:`create_policy` /
  :func:`register_policy`;
- :mod:`repro.scenarios.runner` — :func:`run_replication`, executing
  one replication with a deterministic per-replication seed, and
  :func:`summarize_replications`, merging replications into one
  :class:`ScenarioSummary`.

Replications are scheduled by the campaign runner
(:class:`~repro.campaigns.runner.CampaignRunner`): the figure drivers
under :mod:`repro.experiments` build campaigns, and the CLI's
``run-scenario`` verb (:func:`repro.api.run_scenario`) runs any spec
as a one-cell campaign straight from a JSON file.
"""

from repro.scenarios.binding import (
    BindingEvent,
    PolicyBinding,
    model_from_report,
    passive_recommendation,
)
from repro.scenarios.policies import (
    DRSControllerPolicy,
    PassivePolicy,
    PolicyObservation,
    SchedulingPolicy,
    StaticAllocatorPolicy,
    ThresholdPolicy,
)
from repro.scenarios.registry import (
    available_policies,
    create_policy,
    register_policy,
)
from repro.scenarios.runner import (
    AppliedAction,
    ReplicationResult,
    ScenarioSummary,
    replication_seed,
    run_replication,
)
from repro.scenarios.spec import RatePhase, ScenarioSpec, WORKLOADS

__all__ = [
    "AppliedAction",
    "BindingEvent",
    "DRSControllerPolicy",
    "PassivePolicy",
    "PolicyBinding",
    "PolicyObservation",
    "RatePhase",
    "ReplicationResult",
    "ScenarioSpec",
    "ScenarioSummary",
    "SchedulingPolicy",
    "StaticAllocatorPolicy",
    "ThresholdPolicy",
    "WORKLOADS",
    "available_policies",
    "create_policy",
    "model_from_report",
    "passive_recommendation",
    "register_policy",
    "replication_seed",
    "run_replication",
]
