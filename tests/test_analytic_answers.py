"""Pinned analytic answers: the hybrid fast path's records, byte for byte.

The analytic path shares work across a campaign: one evaluation per
cell, whose replications differ only in ``index`` and ``seed``, and
a traffic solve shared between cells whose rates coincide.  None of that
may move a float.  This suite pins every replication's
:meth:`ReplicationResult.to_dict` over a grid built to catch the ways
such sharing can go wrong:

- topologies ``single``, ``linear`` and ``fanout``;
- service SCV 0, 0.5, 1, 1.5, 2 and 4, and for SCV > 1 every service
  family (their means can differ from ``1/mu`` by an ulp, so siblings
  at the same ``mu`` need not share rates);
- (k, rho) pairs with the same external rate ``rho * k * mu`` (rho 0.2
  with k 1 and rho 0.1 with k 2), whose traffic solves coincide but
  whose allocations and p95 bounds do not;
- three replications per cell.

The answers are checked twice: straight from
:meth:`AnalyticCellEvaluator.evaluate`, and as the records an
``analytic`` campaign writes to each store layout.

Regenerate the fixture (only when the analytic model itself is meant
to change, never for an optimisation):

    PYTHONPATH=src python tests/test_analytic_answers.py --regen
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.campaigns.hybrid import GATED_METRICS, AnalyticCellEvaluator
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.segstore import SegmentedResultStore
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore
from repro.fidelity.manifest import ToleranceManifest
from repro.scenarios.runner import replication_seed

GOLDEN = pathlib.Path(__file__).parent / "golden" / "analytic_answers.json"

#: (servers, rho, mu) load points.  The first two share an external
#: rate, and so do the next two.
LOAD_POINTS = (
    (1, 0.2, 1.0),
    (2, 0.1, 1.0),
    (1, 0.6, 0.7),
    (2, 0.3, 0.7),
    (4, 0.85, 3.0),
)

#: (scv, service family) pairs: one family at SCV <= 1, every family
#: above.
SERVICES = tuple(
    [(scv, "auto") for scv in (0.0, 0.5, 1.0)]
    + [
        (scv, family)
        for scv in (1.5, 2.0, 4.0)
        for family in ("auto", "hyperexponential", "lognormal", "pareto")
    ]
)

REPLICATIONS = 3


def grid_campaign(
    *,
    topologies=("single", "linear", "fanout"),
    services=SERVICES,
    loads=LOAD_POINTS,
    replications=REPLICATIONS,
) -> CampaignSpec:
    """The pinned grid as an ``analytic`` campaign, in sweep order
    topology x service x load."""
    return CampaignSpec.from_dict(
        {
            "name": "analytic-answers",
            "evaluation": "analytic",
            "base": {
                "workload": "fidelity",
                "policy": "none",
                "queue_discipline": "shared",
                "duration": 1000.0,
                "warmup": 100.0,
                "timeline_bucket": 1000.0,
                "replications": replications,
                "seed": 2015,
            },
            "axes": [
                {
                    "name": "topology",
                    "field": "workload_params.topology",
                    "values": list(topologies),
                },
                {
                    "name": "service",
                    "values": [
                        {
                            "label": f"scv{scv:g}-{family}",
                            "set": {
                                "workload_params.scv": scv,
                                "workload_params.service_family": family,
                            },
                        }
                        for scv, family in services
                    ],
                },
                {
                    "name": "load",
                    "values": [
                        {
                            "label": f"k{k}-r{rho:g}-mu{mu:g}",
                            "set": {
                                "workload_params.servers": k,
                                "workload_params.rho": rho,
                                "workload_params.mu": mu,
                            },
                        }
                        for k, rho, mu in loads
                    ],
                },
            ],
        }
    )


def permissive_evaluator() -> AnalyticCellEvaluator:
    """An evaluator that admits every structurally eligible cell, so
    the whole grid takes the analytic path."""
    manifest = ToleranceManifest(
        metrics={metric: {"default": 0.0} for metric in GATED_METRICS}
    )
    return AnalyticCellEvaluator(manifest)


def evaluated_answers() -> dict:
    """``{cell label: [to_dict() per replication]}`` from ``evaluate``,
    one fresh evaluator, cells in sweep order."""
    evaluator = permissive_evaluator()
    return {
        cell.label: [
            evaluator.evaluate(cell.spec, index).to_dict()
            for index in range(cell.spec.replications)
        ]
        for cell in grid_campaign().expand()
    }


def _load_golden() -> dict:
    if not GOLDEN.exists():
        pytest.fail(
            f"golden fixture {GOLDEN} missing; run"
            " `PYTHONPATH=src python tests/test_analytic_answers.py --regen`"
        )
    return json.loads(GOLDEN.read_text())


def _expected(golden: dict) -> dict:
    """The fixture expanded to ``{cell label: [to_dict() per
    replication]}``.  It stores each cell's answer once: replications
    of a cell differ only in ``index`` and ``seed``."""
    return {
        label: [
            {**entry["answer"], "index": index, "seed": seed}
            for index, seed in enumerate(entry["seeds"])
        ]
        for label, entry in golden.items()
    }


def test_evaluate_matches_golden():
    golden = _expected(_load_golden())
    answers = evaluated_answers()
    assert list(answers) == list(golden)
    for label, replications in answers.items():
        assert replications == golden[label], label


@pytest.mark.parametrize("layout", ["classic", "segmented"])
def test_campaign_records_match_golden(tmp_path, layout):
    golden = _expected(_load_golden())
    if layout == "segmented":
        (tmp_path / "segments").mkdir()
        store = SegmentedResultStore(tmp_path)
    else:
        store = ResultStore(tmp_path)
    campaign = grid_campaign()
    result = CampaignRunner(store, evaluator=permissive_evaluator()).run(
        campaign
    )
    cells = campaign.expand()
    assert result.analytic == len(cells) * REPLICATIONS
    for cell in cells:
        stored = []
        for index in range(cell.spec.replications):
            seed = replication_seed(cell.spec.seed, index)
            record = store.load_record(cell.spec_hash, seed)
            assert record["path"] == "analytic"
            stored.append(record["result"])
        assert stored == golden[cell.label], cell.label


class TestSharedWork:
    """Each piece of analytic work runs once per distinct input."""

    def test_one_evaluation_and_prediction_per_cell(self, monkeypatch):
        import repro.fidelity.analytic as analytic

        calls = {"evaluate": 0, "predict_sojourn": 0}
        evaluate = AnalyticCellEvaluator.evaluate
        predict_sojourn = analytic.predict_sojourn

        def counted_evaluate(self, spec, index):
            calls["evaluate"] += 1
            return evaluate(self, spec, index)

        def counted_predict_sojourn(*args, **kwargs):
            calls["predict_sojourn"] += 1
            return predict_sojourn(*args, **kwargs)

        monkeypatch.setattr(AnalyticCellEvaluator, "evaluate", counted_evaluate)
        monkeypatch.setattr(analytic, "predict_sojourn", counted_predict_sojourn)
        campaign = grid_campaign(
            topologies=("linear",),
            services=((1.0, "auto"),),
            loads=((2, 0.5, 1.0),),
            replications=5,
        )
        result = CampaignRunner(evaluator=permissive_evaluator()).run(campaign)
        assert result.analytic == 5
        assert calls == {"evaluate": 1, "predict_sojourn": 1}

    def test_scv_siblings_share_one_traffic_solve(self, monkeypatch):
        from repro.queueing.jackson import JacksonNetwork

        solves = []
        from_topology = JacksonNetwork.from_topology.__func__

        def counted(cls, topology):
            solves.append(topology.name)
            return from_topology(cls, topology)

        monkeypatch.setattr(JacksonNetwork, "from_topology", classmethod(counted))
        campaign = grid_campaign(
            topologies=("single", "linear"),
            services=[(scv, "auto") for scv in (0.0, 0.5, 1.0, 1.5, 2.0, 4.0)],
            loads=((1, 0.2, 1.0), (2, 0.1, 1.0)),
            replications=2,
        )
        result = CampaignRunner(evaluator=permissive_evaluator()).run(campaign)
        assert result.analytic == 2 * 6 * 2 * 2
        # One solve per (topology, external rate): the k1/rho0.2 and
        # k2/rho0.1 loads share lambda_0, and SCV never enters the rates.
        assert sorted(solves) == ["fidelity_linear", "fidelity_single"]

    def test_scv_siblings_share_one_p95_bound(self, monkeypatch):
        import repro.fidelity.analytic as analytic

        bounds = []
        bound = analytic.sojourn_quantile_bound

        def counted(model, allocation, q=0.95):
            bounds.append((model.network.external_rate, tuple(allocation)))
            return bound(model, allocation, q=q)

        monkeypatch.setattr(analytic, "sojourn_quantile_bound", counted)
        campaign = grid_campaign(
            topologies=("single", "linear"),
            services=[(scv, "auto") for scv in (0.0, 0.5, 1.0, 1.5, 2.0, 4.0)],
            loads=((1, 0.2, 1.0), (2, 0.1, 1.0)),
            replications=2,
        )
        result = CampaignRunner(evaluator=permissive_evaluator()).run(campaign)
        assert result.analytic == 2 * 6 * 2 * 2
        # One bound per (traffic solve, allocation): the two loads share
        # a solve but not an allocation, and SCV enters neither.
        assert sorted(bounds) == sorted(
            [(0.2, (1,)), (0.2, (2,)), (0.2, (1, 1, 1)), (0.2, (2, 2, 2))]
        )

    @pytest.mark.parametrize("counts", [(2, 5), (5, 2)])
    def test_cells_differing_only_in_replications(self, tmp_path, counts):
        # ``replications`` is left out of the spec hash, so both cells
        # share one hash: the longer cell's extra replications must
        # still be answered, and each cell must report its own count.
        from repro.service.jobs import job_progress

        campaign = CampaignSpec.from_dict(
            {
                "name": "replication-axis",
                "evaluation": "analytic",
                "base": {
                    "workload": "fidelity",
                    "workload_params": {
                        "topology": "linear",
                        "servers": 2,
                        "rho": 0.5,
                    },
                    "policy": "none",
                    "queue_discipline": "shared",
                    "duration": 1000.0,
                    "warmup": 100.0,
                    "timeline_bucket": 1000.0,
                    "seed": 2015,
                },
                "axes": [
                    {
                        "name": "replications",
                        "field": "replications",
                        "values": list(counts),
                    }
                ],
            }
        )
        first, second = campaign.expand()
        assert first.spec_hash == second.spec_hash
        store = ResultStore(tmp_path)
        runner = CampaignRunner(store, evaluator=permissive_evaluator())
        plan = runner.plan(campaign)
        result = runner.run(campaign)
        assert plan.to_compute == result.computed == max(counts)
        assert plan.analytic_jobs == result.analytic == max(counts)
        for count, cell in zip(counts, result.cells):
            assert cell.computed == count
            assert len(cell.summary.replications) == count
            assert [r.index for r in cell.summary.replications] == list(
                range(count)
            )
        progress = job_progress(campaign, store, permissive_evaluator())
        assert [c["missing"] for c in progress["cells"]] == [0, 0]
        assert [c["analytic"] for c in progress["cells"]] == list(counts)


class CancelAfter:
    """A cancel whose ``is_set()`` turns true on call ``calls + 1``."""

    def __init__(self, calls: int):
        self.left = calls

    def is_set(self) -> bool:
        self.left -= 1
        return self.left < 0


@pytest.mark.parametrize("layout", ["classic", "segmented"])
def test_cancel_between_cells_keeps_whole_cells(tmp_path, layout):
    from repro.exceptions import CampaignCancelled

    if layout == "segmented":
        (tmp_path / "segments").mkdir()
        store = SegmentedResultStore(tmp_path)
    else:
        store = ResultStore(tmp_path)
    campaign = grid_campaign(
        topologies=("single",), services=((1.0, "auto"), (2.0, "auto"))
    )
    cells = campaign.expand()
    answered = 3
    runner = CampaignRunner(
        store, evaluator=permissive_evaluator(), cancel=CancelAfter(answered)
    )
    with pytest.raises(CampaignCancelled):
        runner.run(campaign)
    for position, cell in enumerate(cells):
        stored = [
            store.load_record(
                cell.spec_hash, replication_seed(cell.spec.seed, index)
            )
            is not None
            for index in range(cell.spec.replications)
        ]
        assert stored == [position < answered] * REPLICATIONS, cell.label
    resumed = CampaignRunner(store, evaluator=permissive_evaluator()).run(
        campaign
    )
    assert resumed.reused == answered * REPLICATIONS
    assert resumed.computed == (len(cells) - answered) * REPLICATIONS


def _regen() -> None:
    answers = evaluated_answers()
    golden = {}
    for label, replications in answers.items():
        answer = {
            key: value
            for key, value in replications[0].items()
            if key not in ("index", "seed")
        }
        golden[label] = {
            "seeds": [r["seed"] for r in replications],
            "answer": answer,
        }
    # The compact form must lose nothing.
    assert _expected(golden) == answers
    # One line per cell, in sweep order.
    lines = [
        f"{json.dumps(label)}: {json.dumps(entry)}"
        for label, entry in golden.items()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
