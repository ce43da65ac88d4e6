"""Execute campaigns: one planner, one executor.

:class:`CampaignRunner` is the only campaign planner.  One planning
step, shared by :meth:`~CampaignRunner.plan` (``--dry-run``) and
:meth:`~CampaignRunner.run`, expands the grid into one *job* per
``(cell, replication index)``, decides each unique spec hash's
evaluation path once, deduplicates jobs by ``(spec hash, seed)`` — two
grid cells that expand to identical simulation inputs share one
computation — and splits them three ways:

- *cached*: the store holds a usable record (:func:`load_usable`);
- *analytic*: answered inline by the hybrid fast path, always in the
  coordinating process;
- *simulated*: run by :meth:`~CampaignRunner._execute`.

The executor runs simulated jobs in-process or over a
:class:`ProcessPoolExecutor`, and the coordinator writes every result
to the store *the moment it completes*, so killing a campaign mid-run
loses at most the replications in flight.  ``--shards N``
(:class:`~repro.campaigns.shard.ShardedCampaignRunner`) is the same
pool with ``N`` workers on a segmented store.  So a campaign's
:class:`CampaignResult` — per-cell ``computed``/``reused``/``path``
included — is identical whatever the worker count.

Evaluation modes (:attr:`CampaignSpec.evaluation`): ``simulate`` (the
default) computes every job with the discrete-event engine, exactly as
before.  ``hybrid`` routes each cell through an
:class:`~repro.campaigns.hybrid.AnalyticCellEvaluator` first — cells
the committed tolerance manifest certifies are answered from the
queueing model inline (microseconds instead of seconds) and persisted
with ``path: "analytic"`` provenance; the rest simulate.  ``analytic``
demands the fast path for every cell and errors on the first one the
envelope cannot certify.

Determinism: each replication's outcome depends only on its scenario
spec and derived seed (see :func:`repro.scenarios.runner.run_replication`),
so worker count, completion order and cache hits cannot change a
campaign's merged summaries — the property the equivalence tests pin.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.campaigns.hybrid import (
    AnalyticCellEvaluator,
    AnalyticDecision,
    record_usable,
    resolve_evaluator,
)
from repro.campaigns.spec import CampaignCell, CampaignSpec
from repro.campaigns.store import ResultStore
from repro.exceptions import CampaignCancelled, ConfigurationError
from repro.scenarios.runner import (
    ReplicationResult,
    ScenarioSummary,
    replication_seed,
    run_replication,
    summarize_replications,
)
from repro.scenarios.spec import ScenarioSpec

#: One unit of simulation work: (spec hash, derived seed) plus the spec
#: and replication index that produce it.
_Job = Tuple[str, int, ScenarioSpec, int]

#: A job's content address: (spec hash, derived seed).
_Key = Tuple[str, int]


def _run_job(job: _Job) -> ReplicationResult:
    _, _, spec, index = job
    return run_replication(spec, index)


def load_usable(
    store: Optional[ResultStore], spec_hash: str, seed: int, path: str
) -> Optional[ReplicationResult]:
    """The stored result for one job, or ``None`` when it must compute.

    The one cache predicate every planner and executor shares: the
    record's path must satisfy the decided one (:func:`record_usable`)
    *and* the record must rehydrate.  A shape-corrupted record is
    recomputed — the same contract as a torn write.
    """
    if store is None:
        return None
    record = store.load_record(spec_hash, seed)
    if record is None or not record_usable(record, path):
        return None
    try:
        return ReplicationResult.from_dict(record["result"])
    except (KeyError, TypeError, ValueError):
        return None


#: Rough serialized size of one stored replication record in the
#: classic one-file-per-replication layout.  Observed classic records
#: run 2–6 KiB depending on topology width and timeline length; the
#: estimate is for sanity-checking a sweep's disk cost before launching
#: it, not for accounting.
ESTIMATED_RECORD_BYTES = 4096

#: Per-record estimate for the segmented NDJSON layout when the store
#: holds no records yet to measure (packed lines, no per-file block
#: rounding).  A store with indexed records reports its observed mean
#: instead (:meth:`SegmentedResultStore.mean_record_bytes`).
ESTIMATED_SEGMENT_RECORD_BYTES = 2048

#: Analytic-path records carry no timeline, action log or spread stats,
#: so they serialize far smaller than simulated ones.
ESTIMATED_ANALYTIC_RECORD_BYTES = 1024

#: Coarse per-job wall-time heuristics for the plan's by-path breakdown.
#: Simulated jobs vary over orders of magnitude with duration and load;
#: this is a planning aid ("hours vs seconds"), not a promise.
ESTIMATED_SIMULATED_SECONDS_PER_JOB = 1.0
ESTIMATED_ANALYTIC_SECONDS_PER_JOB = 1e-4


@dataclass(frozen=True)
class CampaignPlan:
    """What a run would do: which jobs are cached, which must compute.

    ``axes`` lists ``(axis_name, point_count)`` pairs and ``cells`` the
    expanded grid size, so a dry run shows the sweep's shape.  The
    store estimate is layout-aware: classic stores cost
    :data:`ESTIMATED_RECORD_BYTES` per uncached job, segmented stores
    their observed (or :data:`ESTIMATED_SEGMENT_RECORD_BYTES` default)
    NDJSON bytes per record, analytic-path jobs the slimmer
    :data:`ESTIMATED_ANALYTIC_RECORD_BYTES` — and overhead cells, which
    never write records, cost nothing.

    ``analytic_cells`` / ``simulated_cells`` split the grid by decided
    path; ``analytic_jobs`` counts uncached jobs the fast path would
    answer.  The two ``estimated_*_seconds`` fields give the coarse
    by-path wall-time breakdown a ``--dry-run`` prints.
    """

    total: int
    cached: int
    axes: Tuple[Tuple[str, int], ...] = ()
    cells: int = 0
    estimated_store_bytes: int = 0
    evaluation: str = "simulate"
    analytic_cells: int = 0
    simulated_cells: int = 0
    analytic_jobs: int = 0
    estimated_analytic_seconds: float = 0.0
    estimated_simulated_seconds: float = 0.0

    @property
    def to_compute(self) -> int:
        return self.total - self.cached


@dataclass(frozen=True)
class CampaignCellResult:
    """One grid cell's merged summary plus its result provenance.

    ``computed``/``reused`` count this cell's replications by where
    their results came from: computed by this run, or loaded from the
    store.  Cells that expand to identical simulation inputs share one
    computation, so summing cell counts over-states executed work —
    campaign-level totals live on :class:`CampaignResult`, which counts
    unique jobs.  ``path`` records how the cell was evaluated
    (``simulated`` or ``analytic``).
    """

    cell: CampaignCell
    summary: ScenarioSummary
    computed: int
    reused: int
    path: str = "simulated"

    def to_dict(self) -> dict:
        return {
            "label": self.cell.label,
            "coordinates": self.cell.coordinates,
            "spec_hash": self.cell.spec_hash,
            "computed": self.computed,
            "reused": self.reused,
            "path": self.path,
            "summary": self.summary.to_dict(),
        }


@dataclass(frozen=True)
class CampaignResult:
    """All cells of one campaign run.

    ``computed`` / ``reused`` count *unique* ``(spec hash, seed)`` jobs
    — simulations actually executed by this run vs. loaded from the
    store — so deduplicated identical cells are not double-counted.
    ``analytic`` counts the subset of ``computed`` answered by the
    model fast path (always 0 in ``simulate`` mode).
    """

    campaign: CampaignSpec
    cells: Tuple[CampaignCellResult, ...]
    computed: int
    reused: int
    analytic: int = 0

    @property
    def summaries(self) -> List[ScenarioSummary]:
        return [c.summary for c in self.cells]

    def cell(self, label: str) -> CampaignCellResult:
        for result in self.cells:
            if result.cell.label == label:
                return result
        raise KeyError(label)

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign.name,
            "evaluation": self.campaign.evaluation,
            "computed": self.computed,
            "reused": self.reused,
            "analytic": self.analytic,
            "cells": [c.to_dict() for c in self.cells],
        }


@dataclass(frozen=True)
class _Planned:
    """The shared planning step's output: the expanded grid, per-hash
    path decisions, the derived replication seeds, and the unique jobs
    split into cached results, analytic-path jobs and simulated-path
    jobs (sweep order)."""

    cells: List[CampaignCell]
    evaluator: Optional[AnalyticCellEvaluator]
    decisions: Dict[str, AnalyticDecision]
    seeds: Dict[int, List[int]]
    cached: Dict[_Key, ReplicationResult]
    analytic: List[_Job]
    simulated: List[_Job]

    def path(self, spec_hash: str) -> str:
        """The decided evaluation path of one spec hash."""
        return _cell_path(self.decisions, spec_hash)

    def replications(self, cell: CampaignCell) -> Iterator[Tuple[int, int]]:
        """``(index, seed)`` of each of ``cell``'s replications."""
        return zip(range(cell.spec.replications), self.seeds[cell.spec.seed])


class CampaignRunner:
    """Plans and runs campaigns, optionally against a resumable store.

    It is the only thing that runs replications: a bare scenario runs
    as a one-cell campaign (:func:`repro.api.run_scenario`).  Without a
    store every replication is computed fresh; with one, completed
    replications are loaded instead of recomputed and fresh ones are
    persisted as they finish.

    ``evaluator`` injects a configured
    :class:`~repro.campaigns.hybrid.AnalyticCellEvaluator` for
    hybrid/analytic campaigns; when omitted, those modes build the
    default evaluator from the committed tolerance manifest.  Campaigns
    with ``evaluation: "simulate"`` never consult it.

    ``cancel`` is an optional :class:`threading.Event` (anything with
    an ``is_set()`` method) polled between job completions.  Once set,
    the runner stops dispatching, persists every result that already
    finished, and raises :class:`~repro.exceptions.CampaignCancelled` —
    so a cancelled campaign resumes from its store losing only work in
    flight.  This is the hook the job service's cancel endpoint (and
    its shutdown path) relies on.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        *,
        max_workers: Optional[int] = None,
        evaluator: Optional[AnalyticCellEvaluator] = None,
        cancel=None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1 when set")
        self._store = store
        self._max_workers = max_workers
        self._evaluator = evaluator
        self._cancel = cancel

    def _check_cancelled(self, campaign: CampaignSpec) -> None:
        if self._cancel is not None and self._cancel.is_set():
            raise CampaignCancelled(
                f"campaign {campaign.name!r} cancelled; completed"
                " replications are persisted in the store"
            )

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, campaign: CampaignSpec) -> CampaignPlan:
        """Cache accounting without running anything (``--dry-run``).

        Built from the same planning step :meth:`run` executes: unique
        ``(spec hash, seed)`` jobs (identical cells share one), plus one
        uncacheable job per overhead cell — so ``to_compute`` equals
        ``run()``'s ``computed`` count, path decisions included.
        """
        planned = self._plan(campaign)
        simulation = _simulation_cells(planned.cells)
        analytic_cells = sum(
            1
            for cell in simulation
            if planned.path(cell.spec_hash) == "analytic"
        )
        overhead = len(planned.cells) - len(simulation)
        analytic = len(planned.analytic)
        simulated = len(planned.simulated)
        return CampaignPlan(
            total=len(planned.cached) + analytic + simulated + overhead,
            cached=len(planned.cached),
            axes=tuple(
                (axis.name, len(axis.values)) for axis in campaign.axes
            ),
            cells=len(planned.cells),
            estimated_store_bytes=self._estimate_store_bytes(
                simulated, analytic
            ),
            evaluation=campaign.evaluation,
            analytic_cells=analytic_cells,
            simulated_cells=len(planned.cells) - analytic_cells,
            analytic_jobs=analytic,
            estimated_analytic_seconds=analytic
            * ESTIMATED_ANALYTIC_SECONDS_PER_JOB,
            estimated_simulated_seconds=(simulated + overhead)
            * ESTIMATED_SIMULATED_SECONDS_PER_JOB,
        )

    def _plan(self, campaign: CampaignSpec) -> _Planned:
        """Expand, decide, dedup and load: the one planning step."""
        cells = campaign.expand()
        evaluator = resolve_evaluator(campaign.evaluation, self._evaluator)
        decisions = self._decide_cells(campaign, cells, evaluator)
        # Derived seeds per base seed, as many as its longest cell has
        # replications: most grids share one base seed.
        seeds: Dict[int, List[int]] = {}
        cached: Dict[_Key, ReplicationResult] = {}
        analytic: List[_Job] = []
        simulated: List[_Job] = []
        pending = set()
        for cell in _simulation_cells(cells):
            spec_hash = cell.spec_hash
            path = _cell_path(decisions, spec_hash)
            base = seeds.setdefault(cell.spec.seed, [])
            for index in range(len(base), cell.spec.replications):
                base.append(replication_seed(cell.spec.seed, index))
            for index, seed in zip(range(cell.spec.replications), base):
                key = (spec_hash, seed)
                if key in cached or key in pending:
                    continue
                result = load_usable(self._store, spec_hash, seed, path)
                if result is not None:
                    cached[key] = result
                    continue
                pending.add(key)
                job = (spec_hash, seed, cell.spec, index)
                (analytic if path == "analytic" else simulated).append(job)
        return _Planned(
            cells, evaluator, decisions, seeds, cached, analytic, simulated
        )

    def _estimate_store_bytes(self, simulated: int, analytic: int) -> int:
        """Layout-aware size estimate for uncached store-bound jobs.

        Overhead cells are excluded by the caller: they run through the
        figure drivers and never write store records — the classic
        flat-rate estimate wrongly billed them.
        """
        per_record: float = ESTIMATED_RECORD_BYTES
        # Imported here: segstore subclasses ResultStore and is imported
        # by the package __init__ after this module.
        from repro.campaigns.segstore import SegmentedResultStore

        if isinstance(self._store, SegmentedResultStore):
            observed = self._store.mean_record_bytes()
            per_record = (
                observed
                if observed is not None
                else ESTIMATED_SEGMENT_RECORD_BYTES
            )
        per_analytic = min(per_record, ESTIMATED_ANALYTIC_RECORD_BYTES)
        return int(round(simulated * per_record + analytic * per_analytic))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, campaign: CampaignSpec) -> CampaignResult:
        planned = self._plan(campaign)
        if not planned.cells:
            raise ConfigurationError(
                f"campaign {campaign.name!r} expands to no cells"
            )
        computed = self._answer_analytic(campaign, planned)
        computed.update(
            self._execute(campaign, planned.cells, planned.simulated)
        )

        results: List[CampaignCellResult] = []
        overhead_runs = 0
        for cell in planned.cells:
            if cell.spec.kind != "simulation":
                self._check_cancelled(campaign)
                # Imported lazily: table2 builds its campaign on this
                # runner.
                from repro.experiments.table2 import overhead_summary

                summary = overhead_summary(cell.spec)
                overhead_runs += 1
                results.append(
                    CampaignCellResult(
                        cell=cell, summary=summary, computed=1, reused=0
                    )
                )
                continue
            spec_hash = cell.spec_hash
            merged: List[ReplicationResult] = []
            fresh = 0
            reused = 0
            for index, seed in planned.replications(cell):
                key = (spec_hash, seed)
                if key in computed:
                    fresh += 1
                    result = computed[key]
                else:
                    reused += 1
                    result = planned.cached[key]
                # A cell whose rep index differs from the cached record
                # (same inputs reached via another cell) still reports
                # its own index.
                if result.index != index:
                    result = result.sibling(index, result.seed)
                merged.append(result)
            results.append(
                CampaignCellResult(
                    cell=cell,
                    summary=summarize_replications(cell.spec, merged),
                    computed=fresh,
                    reused=reused,
                    path=planned.path(spec_hash),
                )
            )
        return CampaignResult(
            campaign=campaign,
            cells=tuple(results),
            computed=len(computed) + overhead_runs,
            reused=len(planned.cached),
            analytic=len(planned.analytic),
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _decide_cells(
        self,
        campaign: CampaignSpec,
        cells: Sequence[CampaignCell],
        evaluator: Optional[AnalyticCellEvaluator],
    ) -> Dict[str, AnalyticDecision]:
        """Per-``spec_hash`` path decisions, in sweep order (so the
        evaluator's memoized Erlang state advances monotonically across
        neighboring cells).  ``analytic`` mode fails on the first cell
        the envelope cannot certify, naming it."""
        if evaluator is None:
            return {}
        decisions: Dict[str, AnalyticDecision] = {}
        for cell in _simulation_cells(cells):
            if cell.spec_hash in decisions:
                continue
            decision = evaluator.decide(cell.spec)
            if (
                campaign.evaluation == "analytic"
                and not decision.analytic_capable
            ):
                raise ConfigurationError(
                    f"evaluation 'analytic': cell {cell.label!r} cannot be"
                    f" answered analytically ({decision.reason})"
                )
            decisions[cell.spec_hash] = decision
        return decisions

    def _answer_analytic(
        self, campaign: CampaignSpec, planned: _Planned
    ) -> Dict[_Key, ReplicationResult]:
        """Answer the analytic-path jobs inline, with provenance.

        Runs in the coordinating process — an answer is a handful of
        memoized float operations, so no pool worker should ever see
        these jobs.  A cell's replications share one answer:
        the model's stationary expectations do not depend on the seed.
        So each cell (spec hash) is evaluated once, for its first
        uncached replication, and every other replication gets that
        result under its own ``index`` and ``seed``; the provenance
        dict is built once per cell too.  Each run of jobs with one
        spec hash is stored by one ``put`` (the first job's record plus
        its siblings), in plan order, so the records match a
        per-replication run byte for byte.  A cancel is honoured
        between those runs: the store holds whole cells.
        """
        computed: Dict[_Key, ReplicationResult] = {}
        if not planned.analytic:
            return computed
        evaluator = planned.evaluator
        assert evaluator is not None  # jobs only exist with an evaluator
        label_by_hash = {c.spec_hash: c.label for c in planned.cells}
        answers: Dict[str, Tuple[ReplicationResult, Dict]] = {}
        for spec_hash, run in groupby(planned.analytic, key=itemgetter(0)):
            self._check_cancelled(campaign)
            _, seed, spec, index = next(run)
            answer = answers.get(spec_hash)
            if answer is None:
                answer = answers[spec_hash] = (
                    evaluator.evaluate(spec, index),
                    evaluator.provenance(planned.decisions[spec_hash]),
                )
                result = answer[0]
            else:
                result = answer[0].sibling(index, seed)
            computed[(spec_hash, seed)] = result
            siblings = [(job[3], job[1]) for job in run]
            for sibling_index, sibling_seed in siblings:
                computed[(spec_hash, sibling_seed)] = result.sibling(
                    sibling_index, sibling_seed
                )
            if self._store is not None:
                self._store.put(
                    spec,
                    spec_hash,
                    seed,
                    result,
                    campaign=campaign.name,
                    cell=label_by_hash.get(spec_hash, ""),
                    path="analytic",
                    provenance=answer[1],
                    siblings=siblings,
                )
        return computed

    def _execute(
        self,
        campaign: CampaignSpec,
        cells: Sequence[CampaignCell],
        jobs: Sequence[_Job],
    ) -> Dict[_Key, ReplicationResult]:
        """Run every simulated-path job, persist each result, and
        return them all keyed by ``(spec hash, seed)``."""
        if not jobs:
            return {}
        label_by_hash = {c.spec_hash: c.label for c in cells}
        computed: Dict[_Key, ReplicationResult] = {}

        def persist(job: _Job, result: ReplicationResult) -> None:
            spec_hash, seed, spec, _ = job
            computed[(spec_hash, seed)] = result
            if self._store is not None:
                self._store.put(
                    spec,
                    spec_hash,
                    seed,
                    result,
                    campaign=campaign.name,
                    cell=label_by_hash.get(spec_hash, ""),
                )

        workers = self._max_workers or os.cpu_count() or 1
        workers = min(workers, len(jobs))
        if workers <= 1:
            for job in jobs:
                self._check_cancelled(campaign)
                persist(job, _run_job(job))
            return computed
        # A cancel set before dispatch computes nothing, as serially.
        self._check_cancelled(campaign)
        # submit/wait rather than map: each result is persisted the
        # moment it completes, so an interrupt loses only in-flight
        # replications instead of a whole ordered prefix.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_job, job): job for job in jobs}
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    persist(futures[future], future.result())
                if (
                    pending
                    and self._cancel is not None
                    and self._cancel.is_set()
                ):
                    # Completed results above are already persisted;
                    # unstarted jobs are withdrawn and in-flight ones
                    # finish but are discarded — the store keeps
                    # exactly the work that completed.
                    for future in pending:
                        future.cancel()
                    self._check_cancelled(campaign)
        return computed


def _cell_path(decisions: Dict[str, AnalyticDecision], spec_hash: str) -> str:
    decision = decisions.get(spec_hash)
    return decision.path if decision is not None else "simulated"


def _simulation_cells(
    cells: Sequence[CampaignCell],
) -> List[CampaignCell]:
    return [c for c in cells if c.spec.kind == "simulation"]
