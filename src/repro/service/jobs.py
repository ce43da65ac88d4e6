"""Persistent job queue and worker pool over the campaign engine.

A *job* is one campaign submission: its spec (content-addressed into
the job id), its lifecycle state, and — once finished — a condensed
result.  :class:`JobQueue` keeps the authoritative in-memory table and
mirrors every transition to one JSON file per job under
``<store>/jobs/``, so a killed server reboots knowing exactly what was
queued, what finished, and what was interrupted; interrupted jobs are
re-enqueued and — because execution runs through the content-addressed
:class:`~repro.campaigns.store.ResultStore` — resume computing only the
replications that never landed.

:class:`JobExecutor` is the worker pool: N daemon threads claim queued
jobs and execute them through :func:`repro.api.run_campaign` (each job
still fans its replications out over a process pool).  Cancellation is
cooperative: every job carries a :class:`threading.Event` that the
cancel endpoint sets and the campaign runner polls between replication
completions.

Job ids are content addresses (:func:`job_id_for`): the SHA-256 of the
campaign's canonical JSON, so resubmitting the same campaign re-runs
the *same* job — and, with the store already populated, reports
``computed=0``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import api
from repro.campaigns.hybrid import AnalyticCellEvaluator
from repro.campaigns.runner import CampaignResult, CampaignRunner
from repro.campaigns.segstore import SEGMENT_DIR, SegmentedResultStore
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore, write_json_atomic
from repro.exceptions import CampaignCancelled, ConfigurationError, DRSError
from repro.scenarios.runner import replication_seed

#: Every state a job can be in.  ``queued`` and ``running`` are live;
#: the rest are terminal (``cancelled`` jobs may be resubmitted, which
#: re-enqueues the same job id).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves on its own.
TERMINAL_STATES = ("done", "failed", "cancelled")


def job_id_for(campaign: CampaignSpec) -> str:
    """Content-addressed job id: SHA-256 of the canonical campaign JSON.

    Submitting byte-different spellings of the same campaign (key
    order, whitespace) yields the same id; changing any field — axes,
    base, evaluation mode — yields a new job.
    """
    canonical = json.dumps(
        campaign.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def condense_result(result: CampaignResult) -> Dict[str, Any]:
    """The slice of a :class:`CampaignResult` worth persisting per job.

    Full results carry every replication's timeline and action log;
    the job record keeps only run accounting (computed / reused /
    analytic) and one summary row per cell — everything else stays
    reconstructable from the store.
    """
    return {
        "campaign": result.campaign.name,
        "evaluation": result.campaign.evaluation,
        "computed": result.computed,
        "reused": result.reused,
        "analytic": result.analytic,
        "cells": [
            {
                "label": cell.cell.label,
                "path": cell.path,
                "computed": cell.computed,
                "reused": cell.reused,
                "mean_sojourn": cell.summary.mean_sojourn,
                "std_between": cell.summary.std_between,
            }
            for cell in result.cells
        ],
    }


def job_progress(
    campaign: CampaignSpec,
    store: ResultStore,
    evaluator: Optional[AnalyticCellEvaluator] = None,
) -> Dict[str, Any]:
    """Per-cell completion against the store, split by evaluation path.

    Read from the campaign planner that ``plan()`` and ``run()`` share:
    a replication counts as stored exactly when a resume would reuse
    it, under its cell's decided path.  Pass the job's own
    ``evaluator`` so hybrid decisions match.  ``analytic`` jobs plan as
    ``hybrid`` — same decisions, but an uncertifiable cell shows as
    simulated instead of raising.
    """
    if campaign.evaluation == "analytic":
        campaign = replace(campaign, evaluation="hybrid")
    planned = CampaignRunner(store, evaluator=evaluator)._plan(campaign)
    cells: List[Dict[str, Any]] = []
    total = stored = 0
    for cell in planned.cells:
        if cell.spec.kind != "simulation":
            continue
        replications = cell.spec.replications
        done = sum(
            (cell.spec_hash, replication_seed(cell.spec.seed, index))
            in planned.cached
            for index in range(replications)
        )
        analytic = planned.path(cell.spec_hash) == "analytic"
        cells.append(
            {
                "cell": cell.label,
                "replications": replications,
                "simulated": 0 if analytic else done,
                "analytic": done if analytic else 0,
                "missing": replications - done,
            }
        )
        total += replications
        stored += done
    return {"total": total, "stored": stored, "cells": cells}


@dataclass
class JobRecord:
    """One submitted campaign and everything known about its lifecycle."""

    id: str
    campaign: Dict[str, Any]
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    workers: Optional[int] = None
    runs: int = 1
    error: str = ""
    result: Optional[Dict[str, Any]] = None
    #: Cooperative cancellation flag, owned by the queue (re-created on
    #: every enqueue; never persisted).
    cancel_event: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )
    #: True when a *user* requested the cancel (vs. a server shutdown
    #: interrupting the job) — decides cancelled-vs-requeued when the
    #: runner acknowledges.  In-memory only, like the event.
    user_cancelled: bool = field(default=False, repr=False, compare=False)

    @property
    def name(self) -> str:
        return str(self.campaign.get("name", ""))

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "state": self.state,
            "campaign": self.campaign,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "workers": self.workers,
            "runs": self.runs,
            "error": self.error,
            "result": self.result,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "JobRecord":
        state = str(raw.get("state", "queued"))
        if state not in JOB_STATES:
            state = "queued"
        return cls(
            id=str(raw["id"]),
            campaign=dict(raw["campaign"]),
            state=state,
            submitted_at=float(raw.get("submitted_at", 0.0)),
            started_at=raw.get("started_at"),
            finished_at=raw.get("finished_at"),
            workers=raw.get("workers"),
            runs=int(raw.get("runs", 1)),
            error=str(raw.get("error", "")),
            result=raw.get("result"),
        )


class JobQueue:
    """Thread-safe, disk-mirrored table of jobs.

    Every mutation happens under one lock and is immediately persisted
    by the store's own atomic writer, so the on-disk view is never
    ahead of or behind the in-memory one by more than a single
    transition.  On construction, jobs found in
    ``running`` state are demoted to ``queued``: they belong to a
    server that died mid-run, and their completed replications are
    already in the result store.
    """

    def __init__(self, root: os.PathLike):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._jobs: Dict[str, JobRecord] = {}
        self._load()

    @property
    def root(self) -> Path:
        return self._root

    def _load(self) -> None:
        for path in sorted(self._root.glob("*.json")):
            try:
                raw = json.loads(path.read_text())
                job = JobRecord.from_dict(raw)
            except (OSError, json.JSONDecodeError, KeyError, ValueError):
                continue  # torn write; the job is lost, the store is not
            if job.state == "running":
                # A server died mid-run: the store holds whatever
                # finished, so re-running computes only the remainder.
                job.state = "queued"
                job.started_at = None
                self._persist(job)
            self._jobs[job.id] = job

    def _persist(self, job: JobRecord) -> None:
        write_json_atomic(self._root / f"{job.id}.json", job.to_dict())

    # ------------------------------------------------------------------
    # submission & lookup
    # ------------------------------------------------------------------
    def submit(
        self, campaign: CampaignSpec, *, workers: Optional[int] = None
    ) -> Tuple[JobRecord, bool]:
        """Enqueue ``campaign``; returns ``(job, enqueued)``.

        A live job (queued/running) with the same content address is
        returned as-is (``enqueued=False``) — double-submitting an
        in-flight campaign never duplicates work.  A terminal job is
        re-enqueued as a fresh run of the same id; with the store
        already warm it completes immediately with ``computed=0``.
        """
        job_id = job_id_for(campaign)
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None and not job.terminal:
                return job, False
            if job is None:
                job = JobRecord(
                    id=job_id,
                    campaign=campaign.to_dict(),
                    submitted_at=time.time(),
                    workers=workers,
                )
                self._jobs[job_id] = job
            else:
                job.state = "queued"
                job.submitted_at = time.time()
                job.started_at = None
                job.finished_at = None
                job.error = ""
                job.result = None
                job.runs += 1
                job.workers = workers
                job.cancel_event = threading.Event()
                job.user_cancelled = False
            self._persist(job)
            return job, True

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> List[JobRecord]:
        with self._lock:
            return sorted(
                self._jobs.values(), key=lambda j: (j.submitted_at, j.id)
            )

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts

    # ------------------------------------------------------------------
    # lifecycle transitions
    # ------------------------------------------------------------------
    def claim_next(self) -> Optional[JobRecord]:
        """Atomically claim the oldest queued job (-> running)."""
        with self._lock:
            for job in self.list():
                if job.state == "queued":
                    job.state = "running"
                    job.started_at = time.time()
                    self._persist(job)
                    return job
            return None

    def finish(
        self,
        job_id: str,
        state: str,
        *,
        result: Optional[Dict[str, Any]] = None,
        error: str = "",
    ) -> None:
        if state not in TERMINAL_STATES:
            raise ConfigurationError(f"{state!r} is not a terminal job state")
        with self._lock:
            job = self._jobs[job_id]
            job.state = state
            job.finished_at = time.time()
            job.result = result
            job.error = error
            self._persist(job)

    def requeue(self, job_id: str) -> None:
        """Put an interrupted job back in line (server shutdown path)."""
        with self._lock:
            job = self._jobs[job_id]
            job.state = "queued"
            job.started_at = None
            job.cancel_event = threading.Event()
            job.user_cancelled = False
            self._persist(job)

    def cancel(self, job_id: str) -> Optional[JobRecord]:
        """Request cancellation; returns the job, or ``None`` if unknown.

        Queued jobs transition to ``cancelled`` immediately; running
        jobs get their event set and transition when the runner
        acknowledges (completed replications stay persisted either
        way).  Terminal jobs are returned unchanged.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            job.user_cancelled = True
            job.cancel_event.set()
            if job.state == "queued":
                job.state = "cancelled"
                job.finished_at = time.time()
                job.error = "cancelled before starting"
                self._persist(job)
            return job

    def running(self) -> List[JobRecord]:
        with self._lock:
            return [j for j in self._jobs.values() if j.state == "running"]


class JobExecutor:
    """Background worker pool draining a :class:`JobQueue`.

    ``job_workers`` threads run concurrent *jobs*; each job's
    replications additionally fan out over ``campaign_workers``
    processes (``None`` = all cores) via the campaign runner.  All
    execution goes through :func:`repro.api.run_campaign` — the same
    call the CLI makes — against one store opened for the executor's
    lifetime (:meth:`store`), so concurrent tenants automatically share
    results through content addressing.  On a segmented root every job
    appends to the one writer segment ``serve-<pid>``.
    """

    def __init__(
        self,
        queue: JobQueue,
        store_root: os.PathLike,
        *,
        job_workers: int = 2,
        campaign_workers: Optional[int] = None,
        manifest: Optional[os.PathLike] = None,
        safety_margin: float = 1.0,
    ):
        if job_workers < 1:
            raise ConfigurationError(
                f"job_workers must be >= 1, got {job_workers}"
            )
        self._queue = queue
        self._store_root = Path(store_root)
        self._segment = f"serve-{os.getpid()}"
        self._store_lock = threading.Lock()
        self._store = api.open_store(self._store_root, segment=self._segment)
        self._campaign_workers = campaign_workers
        self._manifest = manifest
        self._safety_margin = safety_margin
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._threads = [
            threading.Thread(
                target=self._loop, name=f"repro-job-{i}", daemon=True
            )
            for i in range(job_workers)
        ]

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def store(self) -> ResultStore:
        """The one store every job and view of this executor shares,
        caught up with all writers' appends.

        A segmented store is refreshed, which reads only the bytes
        appended since the last call.  A classic root is re-checked for
        a ``segments/`` directory, so a ``repro store-compact`` run
        under a live server is picked up.
        """
        store = self._store
        if isinstance(store, SegmentedResultStore):
            store.refresh()
            return store
        if not (self._store_root / SEGMENT_DIR).is_dir():
            return store
        with self._store_lock:
            if not isinstance(self._store, SegmentedResultStore):
                self._store = api.open_store(
                    self._store_root, segment=self._segment
                )
            return self._store

    def notify(self) -> None:
        """Wake idle workers (called after every submission)."""
        self._wake.set()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop accepting work and interrupt running jobs.

        Running jobs see their cancel event, persist completed work,
        and are *re-queued* (not cancelled): on the next server start
        they resume from the store with zero recomputation.
        """
        self._stop.set()
        for job in self._queue.running():
            job.cancel_event.set()
        self._wake.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        if isinstance(self._store, SegmentedResultStore):
            self._store.close()

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            job = self._queue.claim_next()
            if job is None:
                self._wake.wait(timeout=0.1)
                self._wake.clear()
                continue
            self._run(job)

    def _run(self, job: JobRecord) -> None:
        try:
            campaign = CampaignSpec.from_dict(job.campaign)
            result = api.run_campaign(
                campaign,
                store=self.store(),
                workers=job.workers or self._campaign_workers,
                manifest=self._manifest,
                safety_margin=self._safety_margin,
                cancel=job.cancel_event,
            )
            self._queue.finish(job.id, "done", result=condense_result(result))
        except CampaignCancelled:
            if self._stop.is_set() and not job.user_cancelled:
                # Shutdown interrupt, not a user cancel: resume later.
                self._queue.requeue(job.id)
            else:
                self._queue.finish(
                    job.id, "cancelled", error="cancelled by request"
                )
        except DRSError as exc:
            self._queue.finish(job.id, "failed", error=str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._queue.finish(
                job.id, "failed", error=f"{type(exc).__name__}: {exc}"
            )
