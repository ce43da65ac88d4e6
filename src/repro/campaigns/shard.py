"""``--shards N``: the campaign runner's process pool on a segmented store.

:class:`ShardedCampaignRunner` is a :class:`CampaignRunner` with
``max_workers=shards`` that insists on a
:class:`~repro.campaigns.segstore.SegmentedResultStore` and re-reads it
before planning, so appends by other writers since the store was opened
count as cached.  Execution is the runner's own pool: the coordinator
persists each simulated result into its one segment as it completes, so
a sharded run stores the same record lines and returns the same
:class:`~repro.campaigns.runner.CampaignResult` as ``--workers N``.

Two coordinators on one store may duplicate work, never lose it: each
computes what its plan found missing, and any number of them append to
a segmented store safely.
"""

from __future__ import annotations

from typing import Optional

from repro.campaigns.hybrid import AnalyticCellEvaluator
from repro.campaigns.runner import CampaignResult, CampaignRunner
from repro.campaigns.segstore import SegmentedResultStore
from repro.campaigns.spec import CampaignSpec
from repro.exceptions import ConfigurationError


class ShardedCampaignRunner(CampaignRunner):
    """Runs a campaign's simulated jobs on ``shards`` pool processes
    against a :class:`SegmentedResultStore`."""

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
        super().__init__(
            store, max_workers=shards, evaluator=evaluator, cancel=cancel
        )

    def run(self, campaign: CampaignSpec) -> CampaignResult:
        self._store.refresh()
        return super().run(campaign)
