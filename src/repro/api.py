"""``repro.api`` — the one stable programmatic surface over the engine.

Every front end — the CLI verbs in :mod:`repro.cli`, the HTTP service
in :mod:`repro.service`, a notebook, a third-party driver — goes
through the same handful of functions here, so "what the CLI does" and
"what the service does" can never drift apart:

- :func:`load_scenario` / :func:`load_campaign` parse a spec from a
  path, JSON text, mapping or an already-built spec object.
- :func:`open_store` opens a result store, sniffing its on-disk layout
  (classic per-file vs compacted segments).
- :func:`campaign_evaluator` builds the analytic fast-path evaluator a
  hybrid/analytic campaign needs (``None`` for ``simulate``).
- :func:`plan` / :func:`run_scenario` / :func:`run_campaign` /
  :func:`aggregate` execute, returning the same typed result objects
  the engine uses internally (:class:`~repro.campaigns.runner.CampaignPlan`,
  :class:`~repro.scenarios.runner.ScenarioSummary`,
  :class:`~repro.campaigns.runner.CampaignResult`,
  :class:`~repro.campaigns.aggregate.CampaignAggregator`).
- :func:`available_policies` / :func:`available_arrival_models` /
  :func:`available_evaluation_modes` / :func:`available_placements` /
  :func:`available_failure_models` expose the registries.

Missing-artifact errors are typed (:class:`SpecNotFoundError`,
:class:`StoreNotFoundError`, :class:`ManifestNotFoundError` — all
:class:`~repro.exceptions.ConfigurationError` subclasses) so callers
can map them onto their own failure surface: the CLI converts them to
``SystemExit``, the HTTP service to a 400 response.

>>> from repro import api
>>> spec = api.load_scenario({
...     "name": "doc", "workload": "synthetic",
...     "workload_params": {"total_cpu": 0.03, "arrival_rate": 20.0},
...     "policy": "none", "initial_allocation": "10:10:10",
...     "duration": 5.0, "seed": 7})
>>> summary = api.run_scenario(spec, workers=1)
>>> summary.name
'doc'
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.campaigns.aggregate import CampaignAggregator, aggregate_from_store
from repro.campaigns.hybrid import (
    EVALUATION_MODE_DESCRIPTIONS,
    AnalyticCellEvaluator,
)
from repro.campaigns.runner import CampaignPlan, CampaignResult, CampaignRunner
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore
from repro.exceptions import ConfigurationError
from repro.fidelity.manifest import ToleranceManifest
from repro.platform import available_failure_models, available_placements
from repro.scenarios.registry import available_policies
from repro.scenarios.runner import ScenarioSummary
from repro.scenarios.spec import ScenarioSpec
from repro.workloads import (
    available_arrival_models,
    available_closed_loop_sources,
)

__all__ = [
    "SpecNotFoundError",
    "StoreNotFoundError",
    "ManifestNotFoundError",
    "load_scenario",
    "load_campaign",
    "open_store",
    "campaign_evaluator",
    "plan",
    "run_scenario",
    "run_campaign",
    "aggregate",
    "available_policies",
    "available_arrival_models",
    "available_closed_loop_sources",
    "available_evaluation_modes",
    "available_placements",
    "available_failure_models",
]

#: Anything the loaders accept as a spec source.
SpecSource = Union[str, Path, Mapping[str, Any]]


class SpecNotFoundError(ConfigurationError):
    """A scenario/campaign spec path names no readable file."""


class StoreNotFoundError(ConfigurationError):
    """A read-only operation was pointed at a store that does not exist."""


class ManifestNotFoundError(ConfigurationError):
    """An explicitly named tolerance manifest does not exist."""


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def _load_spec(source: SpecSource, cls, what: str):
    """Shared loader behind :func:`load_scenario` / :func:`load_campaign`.

    A mapping is validated directly, a string/path is read from disk;
    a string that cannot be a file but *looks* like JSON (leading
    ``{``) is parsed as inline JSON text.
    """
    if isinstance(source, cls):
        return source
    if isinstance(source, Mapping):
        return cls.from_dict(source)
    text = str(source)
    path = Path(text)
    try:
        if path.is_file():
            return cls.from_json(path.read_text())
    except OSError:
        pass
    if text.lstrip().startswith("{"):
        return cls.from_json(text)
    raise SpecNotFoundError(f"{what} spec not found: {path}")


def load_scenario(source: SpecSource) -> ScenarioSpec:
    """A validated :class:`ScenarioSpec` from a path, mapping or JSON.

    Raises :class:`SpecNotFoundError` when ``source`` is a path that
    does not exist, :class:`~repro.exceptions.ConfigurationError` when
    the content fails validation.
    """
    return _load_spec(source, ScenarioSpec, "scenario")


def load_campaign(source: SpecSource) -> CampaignSpec:
    """A validated :class:`CampaignSpec` from a path, mapping or JSON."""
    return _load_spec(source, CampaignSpec, "campaign")


# ----------------------------------------------------------------------
# stores
# ----------------------------------------------------------------------
def open_store(
    root: Union[str, Path],
    *,
    segment: Optional[str] = None,
    require: bool = False,
) -> ResultStore:
    """Open a result store, sniffing its on-disk layout.

    Stores that have been compacted (or written by a sharded run) carry
    a ``segments/`` directory and get the segment-aware reader;
    everything else gets the classic per-file store.  ``segment`` names
    this writer's NDJSON segment when the layout is segmented; giving
    each concurrent writer process (a ``repro serve``, a sharded run)
    its own name keeps their appends in separate files.
    ``require=True`` raises :class:`StoreNotFoundError` instead of
    creating a missing directory — the contract of read-only callers
    like ``repro campaign-report``.
    """
    path = Path(root)
    if require and not path.is_dir():
        raise StoreNotFoundError(f"result store not found: {path}")
    if (path / "segments").is_dir():
        from repro.campaigns.segstore import SegmentedResultStore

        return SegmentedResultStore(path, segment=segment or "main")
    return ResultStore(path)


# ----------------------------------------------------------------------
# evaluators
# ----------------------------------------------------------------------
def campaign_evaluator(
    evaluation: str,
    *,
    manifest: Optional[Union[str, Path]] = None,
    safety_margin: float = 1.0,
) -> Optional[AnalyticCellEvaluator]:
    """The :class:`AnalyticCellEvaluator` for ``evaluation`` mode.

    ``simulate`` returns ``None`` — the default mode loads no manifest
    and builds no evaluator.  ``manifest`` names a tolerance-manifest
    path and must exist (:class:`ManifestNotFoundError` otherwise);
    when omitted, the evaluator falls back to its own search for the
    committed manifest (working directory, then package checkout).
    """
    if evaluation == "simulate":
        return None
    kwargs: Dict[str, Any] = {"safety_margin": safety_margin}
    if manifest is not None:
        manifest_path = Path(manifest)
        if not manifest_path.exists():
            raise ManifestNotFoundError(
                f"tolerance manifest not found: {manifest_path}"
            )
        return AnalyticCellEvaluator(
            ToleranceManifest.load(manifest_path),
            manifest_path=manifest_path,
            **kwargs,
        )
    return AnalyticCellEvaluator.default(**kwargs)


def _with_evaluation(
    campaign: CampaignSpec, evaluation: Optional[str]
) -> CampaignSpec:
    if evaluation is None or evaluation == campaign.evaluation:
        return campaign
    return dataclasses.replace(campaign, evaluation=evaluation)


def _resolve(
    campaign: CampaignSpec,
    evaluation: Optional[str],
    evaluator: Optional[AnalyticCellEvaluator],
    manifest: Optional[Union[str, Path]],
    safety_margin: float,
):
    campaign = _with_evaluation(campaign, evaluation)
    if evaluator is None:
        evaluator = campaign_evaluator(
            campaign.evaluation, manifest=manifest, safety_margin=safety_margin
        )
    return campaign, evaluator


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def run_scenario(
    source: SpecSource,
    *,
    workers: Optional[int] = None,
    replications: Optional[int] = None,
) -> ScenarioSummary:
    """Execute one scenario and merge its replications.

    The scenario runs as a one-cell campaign through
    :class:`~repro.campaigns.runner.CampaignRunner` (no store), so its
    replications fan out over ``workers`` processes exactly as a
    campaign's do.  ``replications`` overrides the spec's replication
    count without touching its identity (the scenario content hash
    ignores the count, so grown runs still reuse stored results).
    """
    spec = load_scenario(source)
    if replications is not None:
        spec = ScenarioSpec.from_dict(
            {**spec.to_dict(), "replications": replications}
        )
    campaign = CampaignSpec.from_scenario(spec)
    return CampaignRunner(max_workers=workers).run(campaign).cells[0].summary


def plan(
    source: SpecSource,
    *,
    store: Optional[Union[str, Path, ResultStore]] = None,
    evaluation: Optional[str] = None,
    evaluator: Optional[AnalyticCellEvaluator] = None,
    manifest: Optional[Union[str, Path]] = None,
    safety_margin: float = 1.0,
) -> CampaignPlan:
    """What a campaign run would do, without running anything.

    Mirrors :func:`run_campaign` exactly — unique jobs, cache hits
    against ``store``, per-path (analytic vs simulated) splits — so
    ``plan(...).to_compute`` predicts ``run_campaign(...).computed``.
    """
    campaign, evaluator = _resolve(
        load_campaign(source), evaluation, evaluator, manifest, safety_margin
    )
    opened = _as_store(store)
    return CampaignRunner(opened, evaluator=evaluator).plan(campaign)


def run_campaign(
    source: SpecSource,
    *,
    store: Optional[Union[str, Path, ResultStore]] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    evaluation: Optional[str] = None,
    evaluator: Optional[AnalyticCellEvaluator] = None,
    manifest: Optional[Union[str, Path]] = None,
    safety_margin: float = 1.0,
    cancel=None,
) -> CampaignResult:
    """Expand and execute a campaign grid, resumable against ``store``.

    Replications fan out over ``workers`` processes from this one.
    ``shards`` is the same process pool with ``shards`` workers on a
    segmented store (a store is required; a path opens or creates one
    writing to ``segments/coordinator.ndjson``).
    ``evaluation`` overrides the spec's mode; ``evaluator`` injects a
    pre-built analytic evaluator (otherwise hybrid/analytic modes build
    one from ``manifest``/``safety_margin``).  ``cancel`` is an optional
    :class:`threading.Event`; setting it makes the runner persist all
    completed work and raise
    :class:`~repro.exceptions.CampaignCancelled` — the hook the job
    service's cancel endpoint uses.
    """
    campaign, evaluator = _resolve(
        load_campaign(source), evaluation, evaluator, manifest, safety_margin
    )
    if shards is None:
        runner = CampaignRunner(
            _as_store(store),
            max_workers=workers,
            evaluator=evaluator,
            cancel=cancel,
        )
    else:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if store is None:
            raise ConfigurationError("sharded execution requires a store")
        from repro.campaigns.segstore import SegmentedResultStore
        from repro.campaigns.shard import ShardedCampaignRunner

        if isinstance(store, SegmentedResultStore):
            seg_store = store
        else:
            root = store.root if isinstance(store, ResultStore) else store
            seg_store = SegmentedResultStore(root, segment="coordinator")
        runner = ShardedCampaignRunner(
            seg_store, shards=shards, evaluator=evaluator, cancel=cancel
        )
    return runner.run(campaign)


def aggregate(
    source: SpecSource,
    store: Union[str, Path, ResultStore],
) -> CampaignAggregator:
    """Re-aggregate a campaign from stored results, simulating nothing.

    Read-only: a path that names no existing store raises
    :class:`StoreNotFoundError` instead of silently creating an empty
    directory and reporting every replication missing.
    """
    campaign = load_campaign(source)
    if not isinstance(store, ResultStore):
        store = open_store(store, require=True)
    return aggregate_from_store(campaign, store)


def _as_store(
    store: Optional[Union[str, Path, ResultStore]],
) -> Optional[ResultStore]:
    if store is None or isinstance(store, ResultStore):
        return store
    return open_store(store)


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------
def available_evaluation_modes() -> Dict[str, str]:
    """Campaign evaluation modes mapped to one-line descriptions —
    same shape as :func:`available_policies` and
    :func:`available_arrival_models`."""
    return dict(EVALUATION_MODE_DESCRIPTIONS)
