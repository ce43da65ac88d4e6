"""Claim-racing shard executor for campaigns.

:class:`~repro.campaigns.runner.CampaignRunner` is the one campaign
planner; it hands its simulated-path jobs to an executor hook.  This
module's :class:`ShardedCampaignRunner` is the second executor next to
the runner's own process pool.  It gives every worker process the
*full* job list and lets workers race: each job is claimed exactly once
through an exclusive-create file under ``<store>/claims/`` keyed by the
job's content address (``<spec_hash>_<seed>``), so a worker that
stalls or dies simply loses the race for the jobs it never claimed —
the definition of work stealing without a queue server.  Workers start
at staggered offsets so they collide rarely in the common case.

Results are appended to one
:class:`~repro.campaigns.segstore.SegmentedResultStore` segment per
worker (no write contention).  Analytic-path cells never reach a
worker: the planner answers them in the coordinator.  Planning,
accounting and merging are the runner's, so a sharded run returns the
same :class:`~repro.campaigns.runner.CampaignResult` as an unsharded
one.

Resumability: correctness never depends on the claim files — they are
wiped at every coordinator start and only order the *current* run.  A
killed run leaves its completed records in the segments; the next run
re-plans against the store and computes only what is missing, so a
campaign interrupted after all cells landed resumes with 0 recomputed.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaigns.hybrid import AnalyticCellEvaluator
from repro.campaigns.runner import (
    CampaignResult,
    CampaignRunner,
    _Job,
    _Key,
    load_usable,
)
from repro.campaigns.segstore import SegmentedResultStore
from repro.campaigns.spec import CampaignCell, CampaignSpec
from repro.exceptions import ConfigurationError
from repro.scenarios.runner import ReplicationResult, run_replication
from repro.scenarios.spec import ScenarioSpec

#: Claim files live here, under the store root (shared by all workers).
CLAIMS_DIR = "claims"

#: A job shipped to workers: everything needed to run and persist one
#: replication without the coordinator (specs travel as plain dicts —
#: ScenarioSpec is picklable, but dicts keep the payload inspectable).
_WireJob = Tuple[str, int, dict, int, str]  # hash, seed, spec, index, cell


def _claim(claims: Path, spec_hash: str, seed: int) -> bool:
    """Atomically claim one job; False when another worker owns it."""
    path = claims / f"{spec_hash}_{seed}"
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.write(fd, str(os.getpid()).encode())
    os.close(fd)
    return True


def _shard_worker(
    store_root: str,
    worker_id: int,
    total_workers: int,
    campaign_name: str,
    jobs: Sequence[_WireJob],
) -> Dict[_Key, ReplicationResult]:
    """One shard: race the full job list, claim-run-persist each win.

    Returns the results this worker computed, keyed by
    ``(spec hash, seed)``.
    """
    claims = Path(store_root) / CLAIMS_DIR
    executed: Dict[_Key, ReplicationResult] = {}
    with SegmentedResultStore(
        store_root, segment=f"shard-{worker_id:02d}"
    ) as store:
        n = len(jobs)
        # Staggered start: worker i begins at its own stripe and wraps
        # through everyone else's — collision-free while all workers are
        # healthy, full coverage (stealing) when any worker stalls.
        offset = 0 if n == 0 else (worker_id * n) // total_workers
        for position in range(n):
            spec_hash, seed, spec_dict, index, cell = jobs[
                (offset + position) % n
            ]
            # The planner's cache predicate: only jobs decided simulated
            # are shipped, so a stale analytic record — or one that no
            # longer rehydrates — does not count as landed.
            if load_usable(store, spec_hash, seed, "simulated") is not None:
                continue  # landed in a segment before this run
            if not _claim(claims, spec_hash, seed):
                continue  # another worker owns it
            spec = ScenarioSpec.from_dict(spec_dict)
            result = run_replication(spec, index)
            store.put(
                spec,
                spec_hash,
                seed,
                result,
                campaign=campaign_name,
                cell=cell,
            )
            executed[(spec_hash, seed)] = result
    return executed


class ShardedCampaignRunner(CampaignRunner):
    """Runs a campaign's simulated jobs on ``shards`` claim-racing
    worker processes.

    Requires a :class:`SegmentedResultStore` (or a path to create one):
    per-worker segments are what make lock-free parallel persistence
    safe.  Everything but execution — planning, analytic answers,
    cancellation and the merge — is inherited from
    :class:`CampaignRunner`.
    """

    def __init__(
        self,
        store: SegmentedResultStore,
        *,
        shards: int = 2,
        evaluator: Optional[AnalyticCellEvaluator] = None,
        cancel=None,
    ):
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if not isinstance(store, SegmentedResultStore):
            raise ConfigurationError(
                "sharded execution needs a SegmentedResultStore"
            )
        super().__init__(store, evaluator=evaluator, cancel=cancel)
        self._shards = shards

    def run(self, campaign: CampaignSpec) -> CampaignResult:
        self._store.refresh()
        # Claims only order the current run; stale ones from a killed
        # run must not mask unfinished work.
        claims = self._store.root / CLAIMS_DIR
        claims.mkdir(parents=True, exist_ok=True)
        for path in claims.iterdir():
            path.unlink()
        return super().run(campaign)

    def _execute(
        self,
        campaign: CampaignSpec,
        cells: Sequence[CampaignCell],
        jobs: Sequence[_Job],
    ) -> Dict[_Key, ReplicationResult]:
        """Ship the jobs to the claim race; return every job's result."""
        if not jobs:
            return {}
        self._check_cancelled(campaign)
        label_by_hash = {c.spec_hash: c.label for c in cells}
        spec_dicts = {job[0]: job[2].to_dict() for job in jobs}
        wire: List[_WireJob] = [
            (spec_hash, seed, spec_dicts[spec_hash], index,
             label_by_hash.get(spec_hash, ""))
            for spec_hash, seed, _, index in jobs
        ]
        root = str(self._store.root)
        workers = min(self._shards, len(wire))
        if workers == 1:
            returned = _shard_worker(root, 0, 1, campaign.name, wire)
        else:
            returned = {}
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(
                        _shard_worker,
                        root,
                        worker_id,
                        workers,
                        campaign.name,
                        wire,
                    )
                    for worker_id in range(workers)
                ]
                for future in futures:
                    returned.update(future.result())
        self._store.refresh()
        self._check_cancelled(campaign)
        # A job no worker returned landed some other way (a concurrent
        # writer won its claim): read it back from the store, and run
        # whatever is still missing here, so no shipped job is lost.
        computed: Dict[_Key, ReplicationResult] = {}
        missing: List[_Job] = []
        for job in jobs:
            spec_hash, seed = job[0], job[1]
            result = returned.get((spec_hash, seed))
            if result is None:
                result = load_usable(self._store, spec_hash, seed, "simulated")
            if result is None:
                missing.append(job)
            else:
                computed[(spec_hash, seed)] = result
        computed.update(super()._execute(campaign, cells, missing))
        return computed
