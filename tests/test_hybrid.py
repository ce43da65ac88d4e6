"""Hybrid campaign evaluation: envelope admission, provenance, resume.

Covers the :mod:`repro.campaigns.hybrid` fast path end to end: the
structural and envelope gates of :class:`AnalyticCellEvaluator`,
tolerance-edge and override-group admission, safety-margin
monotonicity, store provenance round-trips (both layouts, plus
pre-provenance rehydration), resume semantics across evaluation modes,
the layout-aware plan estimates, sharded coordination, and the
hybrid-vs-simulated agreement the tolerance manifest promises.
"""

import dataclasses
import json
import math

import pytest

from repro.campaigns.hybrid import (
    DEFAULT_MAX_REL_ERROR,
    GATED_METRICS,
    AnalyticCellEvaluator,
    record_usable,
    resolve_evaluator,
)
from repro.campaigns.runner import (
    ESTIMATED_ANALYTIC_RECORD_BYTES,
    ESTIMATED_RECORD_BYTES,
    ESTIMATED_SEGMENT_RECORD_BYTES,
    CampaignRunner,
)
from repro.campaigns.segstore import SegmentedResultStore
from repro.campaigns.shard import ShardedCampaignRunner
from repro.campaigns.spec import EVALUATION_MODES, CampaignSpec, scenario_hash
from repro.campaigns.store import RECORD_PATHS, ResultStore, record_path
from repro.exceptions import ConfigurationError
from repro.fidelity.cases import build_case, fidelity_campaign
from repro.fidelity.manifest import ToleranceManifest
from repro.queueing.erlang import ErlangMarginalEvaluator
from repro.queueing.mgk import expected_waiting_time_gg
from repro.scenarios.runner import replication_seed, run_replication

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _manifest(default=0.04, **metric_overrides):
    """A manifest listing every gated metric at ``default``, with
    per-metric override groups supplied as keyword arguments, e.g.
    ``mean_sojourn={"rho": {"0.9": 0.3}}``."""
    metrics = {}
    for metric in GATED_METRICS:
        entry = {"default": default}
        entry.update(metric_overrides.get(metric, {}))
        metrics[metric] = entry
    return ToleranceManifest(metrics=metrics)


def _campaign(cases, *, evaluation="simulate", name="hybrid-test"):
    camp = fidelity_campaign("test", cases=cases)
    return dataclasses.replace(camp, name=name, evaluation=evaluation)


def _case(topology="single", rho=0.7, servers=4, scv=1.0, discipline="shared",
          arrival_model=None, replications=2, target_tuples=300):
    return build_case(
        topology, rho, servers, scv, discipline, arrival_model,
        replications=replications, target_tuples=target_tuples,
    )


def _cell_spec(case):
    return _campaign([case]).expand()[0].spec


# ---------------------------------------------------------------------------
# admission: structural gates
# ---------------------------------------------------------------------------


class TestStructuralGates:
    def setup_method(self):
        self.evaluator = AnalyticCellEvaluator(_manifest())

    def test_baseline_cell_is_admitted(self):
        decision = self.evaluator.decide(_cell_spec(_case()))
        assert decision.analytic_capable
        assert decision.path == "analytic"
        assert decision.rule  # names the governing manifest entry

    def test_loop_topology_is_rejected(self):
        decision = self.evaluator.decide(_cell_spec(_case(topology="loop")))
        assert not decision.analytic_capable
        assert "feed-forward" in decision.reason
        assert decision.path == "simulated"

    def test_fanout_is_feed_forward_capable(self):
        decision = self.evaluator.decide(_cell_spec(_case(topology="fanout")))
        assert decision.analytic_capable

    def test_non_poisson_arrivals_are_rejected(self):
        mmpp = {"kind": "mmpp2", "burst_ratio": 5.0,
                "mean_burst": 5.0, "mean_gap": 15.0}
        decision = self.evaluator.decide(
            _cell_spec(_case(arrival_model=mmpp))
        )
        assert not decision.analytic_capable
        assert "mmpp2" in decision.reason

    def test_non_fidelity_workload_is_rejected(self):
        spec = _cell_spec(_case())
        spec = dataclasses.replace(spec, workload="synthetic")
        decision = self.evaluator.decide(spec)
        assert not decision.analytic_capable
        assert "synthetic" in decision.reason

    def test_adaptive_policy_is_rejected(self):
        spec = dataclasses.replace(_cell_spec(_case()), policy="drs")
        decision = self.evaluator.decide(spec)
        assert not decision.analytic_capable
        assert "drs" in decision.reason


# ---------------------------------------------------------------------------
# admission: envelope edges and override groups
# ---------------------------------------------------------------------------


class TestEnvelopeAdmission:
    def test_tolerance_exactly_on_the_edge_is_admitted(self):
        evaluator = AnalyticCellEvaluator(
            _manifest(default=DEFAULT_MAX_REL_ERROR)
        )
        assert evaluator.decide(_cell_spec(_case())).analytic_capable

    def test_tolerance_just_past_the_edge_is_rejected(self):
        evaluator = AnalyticCellEvaluator(
            _manifest(default=DEFAULT_MAX_REL_ERROR * (1 + 1e-9))
        )
        decision = evaluator.decide(_cell_spec(_case()))
        assert not decision.analytic_capable
        assert "exceeds max_rel_error" in decision.reason

    def test_override_group_rejection_names_the_rule(self):
        # Default admits, but the rho:0.9 override pushes the envelope
        # past the acceptable error for high-utilisation cells only.
        overrides = {"rho": {"0.9": 0.3}}
        evaluator = AnalyticCellEvaluator(
            _manifest(
                default=0.04,
                mean_sojourn=overrides,
                waiting_time=overrides,
            )
        )
        assert evaluator.decide(_cell_spec(_case(rho=0.7))).analytic_capable
        decision = evaluator.decide(_cell_spec(_case(rho=0.9)))
        assert not decision.analytic_capable
        assert "rho:0.9" in decision.rule
        assert decision.tolerance == pytest.approx(0.3)

    def test_committed_manifest_rejects_rho_090(self):
        evaluator = AnalyticCellEvaluator.default()
        assert evaluator.decide(_cell_spec(_case(rho=0.7))).analytic_capable
        decision = evaluator.decide(_cell_spec(_case(rho=0.9)))
        assert not decision.analytic_capable
        assert "rho:0.9" in decision.rule

    def test_safety_margin_is_monotone(self):
        """Tightening the margin never converts simulated -> analytic."""
        cases = [
            _case(rho=rho, servers=servers, scv=scv, discipline=discipline)
            for rho, servers, scv, discipline in (
                (0.3, 2, 1.0, "shared"),
                (0.7, 4, 1.0, "shared"),
                (0.7, 4, 1.0, "jsq"),
                (0.7, 4, 4.0, "shared"),
                (0.9, 4, 1.0, "shared"),
            )
        ]
        specs = [cell.spec for cell in _campaign(cases).expand()]
        manifest = ToleranceManifest.load(
            "tests/golden/fidelity_tolerances.json"
        )
        previous = None
        for margin in (0.5, 1.0, 1.5, 2.0, 4.0):
            evaluator = AnalyticCellEvaluator(manifest, safety_margin=margin)
            admitted = {
                spec.name
                for spec in specs
                if evaluator.decide(spec).analytic_capable
            }
            if previous is not None:
                assert admitted <= previous
            previous = admitted

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ConfigurationError):
            AnalyticCellEvaluator(_manifest(), max_rel_error=0.0)
        with pytest.raises(ConfigurationError):
            AnalyticCellEvaluator(_manifest(), safety_margin=-1.0)
        with pytest.raises(ConfigurationError):
            AnalyticCellEvaluator(_manifest(), metrics=())


# ---------------------------------------------------------------------------
# evaluation: values and memoization
# ---------------------------------------------------------------------------


class TestAnalyticEvaluation:
    def test_result_matches_direct_prediction(self):
        from repro.fidelity.analytic import predict

        case = _case(servers=4)
        spec = _cell_spec(case)
        evaluator = AnalyticCellEvaluator(_manifest())
        result = evaluator.evaluate(spec, 1)
        prediction = predict(case.workload)
        assert result.mean_sojourn == prediction.mean_sojourn
        assert result.p95_sojourn == prediction.p95_sojourn
        assert result.seed == replication_seed(spec.seed, 1)
        assert result.index == 1
        assert result.std_sojourn is None
        assert result.actions == ()
        # Per-operator waits reproduce the Allen-Cunneen formula.
        lam = case.workload.external_rate
        expected = expected_waiting_time_gg(lam, 1.0, 4, ca2=1.0, cs2=1.0)
        assert result.operator_waits["op"] == pytest.approx(expected)

    def test_prediction_memoized_across_replications(self):
        evaluator = AnalyticCellEvaluator(_manifest())
        spec = _cell_spec(_case())
        first = evaluator.evaluate(spec, 0)
        assert len(evaluator._predictions) == 1
        second = evaluator.evaluate(spec, 1)
        assert len(evaluator._predictions) == 1
        assert first.mean_sojourn == second.mean_sojourn

    def test_erlang_state_reused_across_ascending_k(self):
        """Cells sharing (lam, mu) advance one recurrence forward."""
        evaluator = AnalyticCellEvaluator(_manifest())
        workloads = []
        for servers in (2, 4, 8):
            # Pin lam by holding rho*servers constant via rho variation.
            case = _case(rho=0.8 * 2 / servers, servers=servers)
            spec = _cell_spec(case)
            evaluator.evaluate(spec, 0)
            workloads.append(case.workload)
        lam = workloads[0].external_rate
        assert all(
            abs(w.external_rate - lam) < 1e-12 for w in workloads
        )
        assert len(evaluator._erlang) == 1
        assert evaluator._erlang[(lam, 1.0)].k == 8

    def test_advance_to_matches_fresh_construction(self):
        evaluator = ErlangMarginalEvaluator(3.0, 1.0, 4)
        value = evaluator.advance_to(16)
        fresh = ErlangMarginalEvaluator(3.0, 1.0, 16)
        assert value == fresh.sojourn  # bit-identical forward recurrence
        with pytest.raises(ValueError):
            evaluator.advance_to(8)


# ---------------------------------------------------------------------------
# store provenance
# ---------------------------------------------------------------------------


class TestStoreProvenance:
    def _result(self, spec):
        evaluator = AnalyticCellEvaluator(_manifest())
        return evaluator.evaluate(spec, 0)

    @pytest.mark.parametrize("layout", ["classic", "segmented"])
    def test_path_and_provenance_round_trip(self, tmp_path, layout):
        spec = _cell_spec(_case())
        store = (
            ResultStore(tmp_path)
            if layout == "classic"
            else SegmentedResultStore(tmp_path)
        )
        digest = scenario_hash(spec)
        store.put(
            spec, digest, spec.seed, self._result(spec),
            path="analytic",
            provenance={"manifest_version": 1, "rule": "mean_sojourn/default"},
        )
        record = store.load_record(digest, spec.seed)
        assert record_path(record) == "analytic"
        assert record["analytic"]["rule"] == "mean_sojourn/default"
        # Simulated puts carry the tag too, with no provenance blob.
        store.put(spec, digest, spec.seed + 1, self._result(spec))
        record = store.load_record(digest, spec.seed + 1)
        assert record_path(record) == "simulated"
        assert "analytic" not in record

    def test_pre_provenance_records_rehydrate_as_simulated(self):
        assert record_path({}) == "simulated"
        assert record_path({"path": "analytic"}) == "analytic"
        assert RECORD_PATHS == ("simulated", "analytic")

    def test_unknown_path_is_rejected(self, tmp_path):
        spec = _cell_spec(_case())
        store = ResultStore(tmp_path)
        with pytest.raises(ConfigurationError):
            store.put(
                spec, scenario_hash(spec), spec.seed,
                self._result(spec), path="oracular",
            )

    def test_record_usable_matrix(self):
        analytic = {"path": "analytic"}
        simulated = {"path": "simulated"}
        legacy = {}
        # Simulated-path decisions only trust simulated records.
        assert record_usable(simulated, "simulated")
        assert record_usable(legacy, "simulated")
        assert not record_usable(analytic, "simulated")
        # Analytic-path decisions accept either.
        assert record_usable(analytic, "analytic")
        assert record_usable(simulated, "analytic")


# ---------------------------------------------------------------------------
# runner integration: hybrid runs, resume semantics, plan estimates
# ---------------------------------------------------------------------------


def _mixed_campaign(evaluation="hybrid"):
    """One in-envelope cell plus one loop (simulate-only) cell."""
    return _campaign(
        [
            _case(servers=1, target_tuples=200),
            _case(topology="loop", rho=0.5, servers=1, target_tuples=200),
        ],
        evaluation=evaluation,
    )


class TestHybridRunner:
    def test_hybrid_run_tags_store_records(self, tmp_path):
        campaign = _mixed_campaign()
        store = ResultStore(tmp_path)
        evaluator = AnalyticCellEvaluator(_manifest())
        result = CampaignRunner(store, evaluator=evaluator).run(campaign)
        assert result.analytic == 2  # one cell x 2 replications
        assert result.computed == 4
        by_label = {c.cell.label: c for c in result.cells}
        assert by_label[campaign.expand()[0].label].path == "analytic"
        assert by_label[campaign.expand()[1].label].path == "simulated"
        for cell in campaign.expand():
            for index in range(cell.spec.replications):
                record = store.load_record(
                    cell.spec_hash, replication_seed(cell.spec.seed, index)
                )
                expected = (
                    "analytic" if cell.spec.workload_params["topology"]
                    == "single" else "simulated"
                )
                assert record_path(record) == expected
                if expected == "analytic":
                    assert record["analytic"]["manifest_version"] == 1
                    assert record["analytic"]["rule"]

    def test_resume_hybrid_to_hybrid_recomputes_nothing(self, tmp_path):
        campaign = _mixed_campaign()
        evaluator = AnalyticCellEvaluator(_manifest())
        CampaignRunner(ResultStore(tmp_path), evaluator=evaluator).run(campaign)
        again = CampaignRunner(
            ResultStore(tmp_path), evaluator=AnalyticCellEvaluator(_manifest())
        ).run(campaign)
        assert again.computed == 0
        assert again.reused == 4
        assert again.analytic == 0

    def test_resume_in_simulate_mode_recomputes_only_analytic_cells(
        self, tmp_path
    ):
        hybrid = _mixed_campaign()
        evaluator = AnalyticCellEvaluator(_manifest())
        CampaignRunner(ResultStore(tmp_path), evaluator=evaluator).run(hybrid)
        simulate = dataclasses.replace(hybrid, evaluation="simulate")
        plan = CampaignRunner(ResultStore(tmp_path)).plan(simulate)
        # The loop cell's simulated records are reusable; the analytic
        # records are not good enough for a simulate-mode run.
        assert plan.cached == 2
        assert plan.to_compute == 2
        result = CampaignRunner(ResultStore(tmp_path)).run(simulate)
        assert result.computed == 2
        assert result.reused == 2
        assert result.analytic == 0

    def test_simulated_records_satisfy_analytic_decisions(self, tmp_path):
        """The reverse direction reuses: simulation is strictly more
        accurate than the envelope demands."""
        campaign = _campaign(
            [_case(servers=1, target_tuples=200)], evaluation="simulate"
        )
        CampaignRunner(ResultStore(tmp_path)).run(campaign)
        hybrid = dataclasses.replace(campaign, evaluation="hybrid")
        result = CampaignRunner(
            ResultStore(tmp_path), evaluator=AnalyticCellEvaluator(_manifest())
        ).run(hybrid)
        assert result.computed == 0
        assert result.reused == 2

    def test_analytic_mode_errors_on_out_of_envelope_cell(self, tmp_path):
        campaign = _mixed_campaign(evaluation="analytic")
        runner = CampaignRunner(
            ResultStore(tmp_path), evaluator=AnalyticCellEvaluator(_manifest())
        )
        with pytest.raises(ConfigurationError, match="loop"):
            runner.run(campaign)

    def test_plan_estimates_are_layout_and_path_aware(self, tmp_path):
        campaign = _mixed_campaign()
        evaluator = AnalyticCellEvaluator(_manifest())
        classic = CampaignRunner(
            ResultStore(tmp_path / "classic"), evaluator=evaluator
        ).plan(campaign)
        assert classic.evaluation == "hybrid"
        assert classic.analytic_cells == 1
        assert classic.simulated_cells == 1
        assert classic.analytic_jobs == 2
        assert classic.estimated_store_bytes == (
            2 * ESTIMATED_RECORD_BYTES + 2 * ESTIMATED_ANALYTIC_RECORD_BYTES
        )
        assert classic.estimated_analytic_seconds < 0.1
        assert classic.estimated_simulated_seconds > 0.0
        # An empty segmented store uses the packed-line default.
        segmented = CampaignRunner(
            SegmentedResultStore(tmp_path / "seg"), evaluator=evaluator
        ).plan(campaign)
        assert segmented.estimated_store_bytes == (
            2 * ESTIMATED_SEGMENT_RECORD_BYTES
            + 2 * ESTIMATED_ANALYTIC_RECORD_BYTES
        )

    def test_plan_uses_observed_segment_record_bytes(self, tmp_path):
        campaign = _campaign(
            [_case(topology="loop", rho=0.5, servers=1, target_tuples=200)],
            evaluation="simulate",
        )
        store = SegmentedResultStore(tmp_path)
        CampaignRunner(store, evaluator=None).run(campaign)
        observed = store.mean_record_bytes()
        assert observed is not None and observed > 0
        # A second, uncached cell is estimated at the observed rate.
        wider = _campaign(
            [
                _case(topology="loop", rho=0.5, servers=1, target_tuples=200),
                _case(topology="loop", rho=0.6, servers=1, target_tuples=200),
            ],
            evaluation="simulate",
        )
        plan = CampaignRunner(store).plan(wider)
        assert plan.cached == 2
        assert plan.estimated_store_bytes == int(round(2 * observed))

    def test_simulate_mode_ignores_evaluator_and_stays_default(self):
        assert resolve_evaluator("simulate", None) is None
        sentinel = AnalyticCellEvaluator(_manifest())
        assert resolve_evaluator("simulate", sentinel) is None
        assert resolve_evaluator("hybrid", sentinel) is sentinel


# ---------------------------------------------------------------------------
# sharded coordination
# ---------------------------------------------------------------------------


class TestShardedHybrid:
    def test_analytic_cells_answered_in_coordinator(
        self, tmp_path, monkeypatch
    ):
        campaign = _mixed_campaign()
        store = SegmentedResultStore(tmp_path, segment="coordinator")
        evaluator = AnalyticCellEvaluator(_manifest())
        runner = ShardedCampaignRunner(store, shards=2, evaluator=evaluator)
        executed = []
        execute = runner._execute

        def spy(campaign, cells, jobs):
            executed.extend(job[0] for job in jobs)
            return execute(campaign, cells, jobs)

        monkeypatch.setattr(runner, "_execute", spy)
        result = runner.run(campaign)
        assert result.analytic == 2
        assert result.computed == 4
        assert result.reused == 0
        # The executor received only the simulated cell's jobs.
        analytic = {
            c.cell.spec_hash for c in result.cells if c.path == "analytic"
        }
        assert len(executed) == 2
        assert analytic and analytic.isdisjoint(executed)
        coordinator = (tmp_path / "segments" / "coordinator.ndjson").read_text()
        records = [
            json.loads(line)
            for line in coordinator.splitlines()
            if line.strip() and json.loads(line).get("kind") != "spec"
        ]
        assert sorted(record_path(r) for r in records) == [
            "analytic",
            "analytic",
            "simulated",
            "simulated",
        ]

    def test_sharded_resume_recomputes_nothing(self, tmp_path):
        campaign = _mixed_campaign()
        store = SegmentedResultStore(tmp_path, segment="coordinator")
        evaluator = AnalyticCellEvaluator(_manifest())
        ShardedCampaignRunner(store, shards=2, evaluator=evaluator).run(
            campaign
        )
        again = ShardedCampaignRunner(
            SegmentedResultStore(tmp_path, segment="coordinator"),
            shards=2,
            evaluator=AnalyticCellEvaluator(_manifest()),
        ).run(campaign)
        assert again.computed == 0
        assert again.reused == 4


#: Every executor the one planner can hand simulated jobs to.
EXECUTORS = {
    "pool-1": lambda store, ev: CampaignRunner(
        store, max_workers=1, evaluator=ev
    ),
    "pool-2": lambda store, ev: CampaignRunner(
        store, max_workers=2, evaluator=ev
    ),
    "shards-1": lambda store, ev: ShardedCampaignRunner(
        store, shards=1, evaluator=ev
    ),
    "shards-2": lambda store, ev: ShardedCampaignRunner(
        store, shards=2, evaluator=ev
    ),
}


def _cold_then_warm(executor, root):
    """``to_dict()`` of a cold run, then of a warm run over its store."""
    outputs = []
    for _ in range(2):
        runner = EXECUTORS[executor](
            SegmentedResultStore(root, segment="coordinator"),
            AnalyticCellEvaluator(_manifest()),
        )
        outputs.append(runner.run(_mixed_campaign()).to_dict())
    return outputs


class TestExecutorEquivalence:
    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_result_identical_across_executors(self, tmp_path, executor):
        cold, warm = _cold_then_warm(executor, tmp_path / executor)
        reference_cold, reference_warm = _cold_then_warm(
            "pool-1", tmp_path / "reference"
        )
        assert cold == reference_cold
        assert warm == reference_warm
        # Per-cell accounting: a cold run computed every replication,
        # whichever executor ran it, and a warm one reused them all.
        assert [(c["computed"], c["reused"], c["path"]) for c in cold["cells"]] == [
            (2, 0, "analytic"),
            (2, 0, "simulated"),
        ]
        assert [(c["computed"], c["reused"]) for c in warm["cells"]] == [
            (0, 2),
            (0, 2),
        ]


# ---------------------------------------------------------------------------
# spec round-trip and aggregation
# ---------------------------------------------------------------------------


class TestSpecAndAggregate:
    def test_evaluation_modes_constant(self):
        assert EVALUATION_MODES == ("simulate", "hybrid", "analytic")

    def test_spec_round_trips_evaluation(self):
        campaign = _mixed_campaign(evaluation="hybrid")
        payload = campaign.to_dict()
        assert payload["evaluation"] == "hybrid"
        assert CampaignSpec.from_dict(payload).evaluation == "hybrid"

    def test_simulate_is_omitted_from_payload_and_hash(self):
        simulate = _mixed_campaign(evaluation="simulate")
        hybrid = _mixed_campaign(evaluation="hybrid")
        assert "evaluation" not in simulate.to_dict()
        # Evaluation mode is orchestration, not simulation content: the
        # same cell keeps the same content address in either mode, which
        # is exactly what makes cross-mode resume work.
        assert [scenario_hash(c.spec) for c in simulate.expand()] == [
            scenario_hash(c.spec) for c in hybrid.expand()
        ]

    def test_unknown_evaluation_mode_is_rejected(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(_mixed_campaign(), evaluation="psychic")

    def test_aggregate_counts_paths(self, tmp_path):
        from repro.campaigns.aggregate import aggregate_from_store

        campaign = _mixed_campaign()
        evaluator = AnalyticCellEvaluator(_manifest())
        CampaignRunner(ResultStore(tmp_path), evaluator=evaluator).run(campaign)
        aggregator = aggregate_from_store(campaign, ResultStore(tmp_path))
        rows = {row["label"]: row for row in aggregator.rows()}
        analytic_label = campaign.expand()[0].label
        loop_label = campaign.expand()[1].label
        assert rows[analytic_label]["analytic"] == 2
        assert rows[analytic_label]["simulated"] == 0
        assert rows[loop_label]["analytic"] == 0
        assert rows[loop_label]["simulated"] == 2


# ---------------------------------------------------------------------------
# agreement: the envelope the fast path promises
# ---------------------------------------------------------------------------


class TestHybridAgreement:
    def test_analytic_answer_within_manifest_tolerance_of_simulation(self):
        """The golden contract: on an in-envelope cell, the analytic
        answer agrees with the simulated one within the committed
        manifest tolerance (which absorbs both model error and the
        replication noise of this deterministic protocol)."""
        case = _case(servers=4, replications=3, target_tuples=2000)
        spec = _cell_spec(case)
        manifest = ToleranceManifest.load(
            "tests/golden/fidelity_tolerances.json"
        )
        evaluator = AnalyticCellEvaluator(manifest)
        decision = evaluator.decide(spec)
        assert decision.analytic_capable
        analytic = evaluator.evaluate(spec, 0).mean_sojourn
        simulated = [
            run_replication(spec, index).mean_sojourn
            for index in range(spec.replications)
        ]
        observed = sum(simulated) / len(simulated)
        rel_error = abs(analytic - observed) / observed
        tolerance = manifest.tolerance_for(
            "mean_sojourn",
            topology="single",
            discipline="shared",
            scv=1.0,
            rho=0.7,
        )
        assert math.isfinite(rel_error)
        assert rel_error <= tolerance, (
            f"analytic {analytic:.4f} vs simulated {observed:.4f}:"
            f" rel error {rel_error:.4f} > tolerance {tolerance:.4f}"
        )
