"""Tests for the campaign layer: grid expansion, store, aggregation,
resumable execution."""

import json
import statistics

import pytest

from repro import api
from repro.campaigns.aggregate import CellAggregate, aggregate_from_store
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import (
    CampaignAxis,
    CampaignSpec,
    apply_patch,
    scenario_hash,
)
from repro.campaigns.store import ResultStore
from repro.exceptions import ConfigurationError
from repro.scenarios.runner import (
    AppliedAction,
    ReplicationResult,
    replication_seed,
)
from repro.scenarios.spec import ScenarioSpec


BASE = {
    "workload": "synthetic",
    "workload_params": {
        "total_cpu": 0.03,
        "arrival_rate": 20.0,
        "hop_latency": 0.004,
    },
    "policy": "none",
    "initial_allocation": "10:10:10",
    "duration": 40.0,
    "warmup": 5.0,
    "replications": 1,
    "seed": 17,
}


def small_campaign(**overrides) -> CampaignSpec:
    raw = {
        "name": "camp",
        "base": dict(BASE),
        "axes": [
            {
                "name": "alloc",
                "field": "initial_allocation",
                "values": ["8:8:8", "10:10:10"],
            },
            {
                "name": "rate",
                "field": "workload_params.arrival_rate",
                "values": [15.0, 20.0],
            },
        ],
    }
    raw.update(overrides)
    return CampaignSpec.from_dict(raw)


def make_result(index=0, seed=17, mean=1.0) -> ReplicationResult:
    return ReplicationResult(
        index=index,
        seed=seed,
        duration=10.0,
        external_tuples=100,
        completed_trees=99,
        dropped_tuples=1,
        dropped_trees=0,
        rebalances=2,
        mean_sojourn=mean,
        std_sojourn=0.1,
        p95_sojourn=2.0 * mean,
        final_allocation="1:1",
        final_machines=3,
        actions=(AppliedAction(5.0, "rebalance", "1:1", None),),
        timeline=((0.0, 0.5, 3), (10.0, None, 0)),
        recommendation="1:1",
    )


class TestExpansion:
    def test_nested_loop_order(self):
        cells = small_campaign().expand()
        assert [c.label for c in cells] == [
            "8:8:8-15.0",
            "8:8:8-20.0",
            "10:10:10-15.0",
            "10:10:10-20.0",
        ]
        assert [c.index for c in cells] == [0, 1, 2, 3]

    def test_expansion_is_deterministic(self):
        campaign = small_campaign()
        first = [c.spec.to_dict() for c in campaign.expand()]
        second = [c.spec.to_dict() for c in campaign.expand()]
        assert first == second
        rebuilt = CampaignSpec.from_json(campaign.to_json())
        assert [c.spec.to_dict() for c in rebuilt.expand()] == first

    def test_cell_names_and_coords(self):
        cell = small_campaign().expand()[1]
        assert cell.spec.name == "camp-8:8:8-20.0"
        assert cell.coordinates == {"alloc": "8:8:8", "rate": "20.0"}

    def test_dotted_patch_reaches_nested_field(self):
        cells = small_campaign().expand()
        assert cells[0].spec.workload_params["arrival_rate"] == 15.0
        # the untouched nested keys survive the patch
        assert cells[0].spec.workload_params["total_cpu"] == 0.03

    def test_patches_do_not_leak_across_cells(self):
        cells = small_campaign().expand()
        assert cells[0].spec.workload_params["arrival_rate"] == 15.0
        assert cells[1].spec.workload_params["arrival_rate"] == 20.0

    def test_axis_free_campaign_is_one_cell(self):
        campaign = CampaignSpec.from_dict({"name": "solo", "base": dict(BASE)})
        cells = campaign.expand()
        assert len(cells) == 1
        assert cells[0].spec.name == "solo"
        assert cells[0].label == "solo"

    def test_multi_field_points(self):
        campaign = CampaignSpec.from_dict(
            {
                "name": "pairs",
                "base": dict(BASE),
                "axes": [
                    {
                        "name": "config",
                        "values": [
                            {
                                "label": "a",
                                "set": {
                                    "initial_allocation": "8:8:8",
                                    "seed": 5,
                                },
                            },
                            {
                                "label": "b",
                                "set": {
                                    "initial_allocation": "9:9:9",
                                    "seed": 6,
                                },
                            },
                        ],
                    }
                ],
            }
        )
        cells = campaign.expand()
        assert [(c.spec.initial_allocation, c.spec.seed) for c in cells] == [
            ("8:8:8", 5),
            ("9:9:9", 6),
        ]

    def test_range_axis(self):
        campaign = small_campaign(
            axes=[{"name": "seed", "field": "seed", "range": [7, 13, 2]}]
        )
        assert [c.spec.seed for c in campaign.expand()] == [7, 9, 11]

    def test_total_replications(self):
        campaign = small_campaign()
        assert campaign.total_replications() == 4
        base = dict(BASE, replications=3)
        assert small_campaign(base=base).total_replications() == 12


class TestSpecValidation:
    def test_unknown_campaign_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec.from_dict(
                {"name": "x", "base": dict(BASE), "bogus": 1}
            )

    def test_base_may_not_set_name(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec.from_dict(
                {"name": "x", "base": dict(BASE, name="fixed")}
            )

    def test_scalar_values_need_axis_field(self):
        with pytest.raises(ConfigurationError):
            CampaignAxis.from_dict({"name": "a", "values": [1, 2]})

    def test_duplicate_axis_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignAxis.from_dict(
                {"name": "a", "field": "seed", "values": [1, 1]}
            )

    def test_bad_cell_reports_campaign_and_label(self):
        campaign = small_campaign(
            axes=[{"name": "duration", "field": "duration", "values": [-5.0]}]
        )
        with pytest.raises(ConfigurationError, match="camp.*-5.0"):
            campaign.expand()

    def test_range_and_values_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            CampaignAxis.from_dict(
                {"name": "a", "field": "seed", "values": [1], "range": [1, 3]}
            )

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignAxis.from_dict(
                {"name": "a", "field": "seed", "range": [3, 3]}
            )

    def test_apply_patch_copies_nested_mappings(self):
        shared = {"workload_params": {"x": 1}}
        raw = dict(shared)
        apply_patch(raw, "workload_params.x", 2)
        assert shared["workload_params"]["x"] == 1
        assert raw["workload_params"]["x"] == 2


class TestScenarioHash:
    def test_name_and_replications_excluded(self):
        a = ScenarioSpec(**BASE, name="one")
        b_fields = dict(BASE, replications=5)
        b = ScenarioSpec(**b_fields, name="two")
        assert scenario_hash(a) == scenario_hash(b)

    def test_simulation_inputs_change_the_hash(self):
        a = ScenarioSpec(**BASE, name="x")
        for field, value in [
            ("seed", 18),
            ("duration", 41.0),
            ("initial_allocation", "9:9:9"),
            ("queue_discipline", "shared"),
        ]:
            other = ScenarioSpec(**{**BASE, field: value}, name="x")
            assert scenario_hash(a) != scenario_hash(other), field

    def test_int_and_float_spellings_hash_identically(self):
        """"duration": 60 and "duration": 60.0 are the same simulation —
        a rewritten spec must keep addressing its stored results."""
        as_float = ScenarioSpec(**{**BASE, "duration": 40.0}, name="x")
        as_int = ScenarioSpec(**{**BASE, "duration": 40}, name="x")
        assert scenario_hash(as_float) == scenario_hash(as_int)
        rate_float = ScenarioSpec(
            **{
                **BASE,
                "workload_params": {**BASE["workload_params"], "arrival_rate": 20.0},
            },
            name="x",
        )
        rate_int = ScenarioSpec(
            **{
                **BASE,
                "workload_params": {**BASE["workload_params"], "arrival_rate": 20},
            },
            name="x",
        )
        assert scenario_hash(rate_float) == scenario_hash(rate_int)


class TestResultStore:
    def spec(self):
        return ScenarioSpec(**BASE, name="store-spec")

    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = self.spec()
        digest = scenario_hash(spec)
        original = make_result()
        store.put(spec, digest, 17, original, campaign="c", cell="l")
        loaded = store.load(digest, 17)
        assert loaded == original
        assert store.has(digest, 17)

    def test_missing_record(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load("ab" * 32, 17) is None
        assert not store.has("ab" * 32, 17)

    def test_torn_record_treated_as_missing(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = self.spec()
        digest = scenario_hash(spec)
        store.put(spec, digest, 17, make_result())
        path = store.record_path(digest, 17)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.load(digest, 17) is None

    def test_shape_corrupt_record_treated_as_missing(self, tmp_path):
        """Valid JSON with a gutted result payload must read as absent,
        not crash a resumed campaign."""
        store = ResultStore(tmp_path)
        spec = self.spec()
        digest = scenario_hash(spec)
        store.put(spec, digest, 17, make_result())
        path = store.record_path(digest, 17)
        record = json.loads(path.read_text())
        record["result"] = {}
        path.write_text(json.dumps(record))
        assert store.load(digest, 17) is None

    def test_version_mismatch_ignored(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = self.spec()
        digest = scenario_hash(spec)
        store.put(spec, digest, 17, make_result())
        path = store.record_path(digest, 17)
        record = json.loads(path.read_text())
        record["version"] = 999
        path.write_text(json.dumps(record))
        assert store.load(digest, 17) is None

    def test_provenance_written_once(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = self.spec()
        digest = scenario_hash(spec)
        store.put(spec, digest, 1, make_result(seed=1))
        provenance = store.record_path(digest, 1).parent / "spec.json"
        assert json.loads(provenance.read_text()) == spec.to_dict()

    def test_malformed_hash_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ConfigurationError):
            store.record_path("../escape", 1)

    def test_record_bytes_are_sorted_key_json(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = self.spec()
        digest = scenario_hash(spec)
        store.put(
            spec, digest, 17, make_result(), campaign="c", cell="l",
            path="analytic", provenance={"rule": "r", "tolerance": 0.05},
        )
        path = store.record_path(digest, 17)
        record = json.loads(path.read_text())
        assert path.read_bytes() == json.dumps(
            record, sort_keys=True
        ).encode()

    def test_job_record_bytes_are_sorted_key_json(self, tmp_path):
        from repro.campaigns.store import write_json_atomic
        from repro.service.jobs import JobRecord

        job = JobRecord(
            id="job-1",
            campaign={"name": "c", "base": {"seed": 7, "policy": "none"}},
            state="done",
            submitted_at=1.5,
            started_at=2.0,
            finished_at=3.25,
            workers=2,
            result={"computed": 4, "reused": 0, "mean": [0.1, None]},
        )
        payload = job.to_dict()
        path = tmp_path / "job-1.json"
        write_json_atomic(path, payload)
        assert path.read_bytes() == json.dumps(payload, sort_keys=True).encode()
        assert [p.name for p in tmp_path.iterdir()] == ["job-1.json"]


class TestCampaignRunner:
    def test_no_store_matches_scenario_runner(self):
        campaign = small_campaign()
        cells = campaign.expand()
        via_campaign = CampaignRunner(max_workers=1).run(campaign)
        via_scenarios = [api.run_scenario(c.spec, workers=1) for c in cells]
        assert [s.to_json() for s in via_campaign.summaries] == [
            s.to_json() for s in via_scenarios
        ]

    def test_worker_count_does_not_change_results(self):
        campaign = small_campaign()
        serial = CampaignRunner(max_workers=1).run(campaign)
        pooled = CampaignRunner(max_workers=4).run(campaign)
        assert [s.to_json() for s in serial.summaries] == [
            s.to_json() for s in pooled.summaries
        ]

    def test_second_run_reuses_everything(self, tmp_path):
        campaign = small_campaign()
        runner = CampaignRunner(ResultStore(tmp_path), max_workers=2)
        first = runner.run(campaign)
        assert (first.computed, first.reused) == (4, 0)
        second = runner.run(campaign)
        assert (second.computed, second.reused) == (0, 4)
        assert [s.to_json() for s in first.summaries] == [
            s.to_json() for s in second.summaries
        ]

    def test_resume_after_interrupt_recomputes_only_the_hole(self, tmp_path):
        campaign = small_campaign()
        store = ResultStore(tmp_path)
        runner = CampaignRunner(store, max_workers=2)
        first = runner.run(campaign)
        # Simulate a kill: one replication's record vanishes (an
        # in-flight result never reached the store).
        victim = campaign.expand()[2]
        store.record_path(
            victim.spec_hash, replication_seed(victim.spec.seed, 0)
        ).unlink()
        resumed = runner.run(campaign)
        assert (resumed.computed, resumed.reused) == (1, 3)
        assert [s.to_json() for s in resumed.summaries] == [
            s.to_json() for s in first.summaries
        ]

    def test_growing_replications_only_adds(self, tmp_path):
        store = ResultStore(tmp_path)
        campaign = small_campaign()
        CampaignRunner(store, max_workers=2).run(campaign)
        grown = small_campaign(base=dict(BASE, replications=3))
        result = CampaignRunner(store, max_workers=2).run(grown)
        # 4 cells x 3 replications; the original 4 are reused.
        assert (result.computed, result.reused) == (8, 4)

    def test_identical_cells_share_one_computation(self, tmp_path):
        campaign = CampaignSpec.from_dict(
            {
                "name": "dup",
                "base": dict(BASE),
                "axes": [
                    {
                        "name": "who",
                        "values": [
                            {"label": "a", "set": {"seed": 17}},
                            {"label": "b", "set": {"seed": 17}},
                        ],
                    }
                ],
            }
        )
        store = ResultStore(tmp_path)
        result = CampaignRunner(store, max_workers=1).run(campaign)
        cells = campaign.expand()
        assert cells[0].spec_hash == cells[1].spec_hash
        # one record on disk, one job at campaign level; both cells
        # still report their replication as computed-this-run
        assert store.load_record(cells[0].spec_hash, 17) is not None
        assert (result.computed, result.reused) == (1, 0)
        assert [(c.computed, c.reused) for c in result.cells] == [(1, 0), (1, 0)]
        first, second = result.summaries
        assert (
            first.replications[0].mean_sojourn
            == second.replications[0].mean_sojourn
        )

    def test_plan_accounting(self, tmp_path):
        campaign = small_campaign()
        store = ResultStore(tmp_path)
        runner = CampaignRunner(store, max_workers=2)
        plan = runner.plan(campaign)
        assert (plan.total, plan.cached, plan.to_compute) == (4, 0, 4)
        runner.run(campaign)
        plan = runner.plan(campaign)
        assert (plan.total, plan.cached, plan.to_compute) == (4, 4, 0)

    def test_plan_matches_run_for_deduplicated_cells(self, tmp_path):
        """--dry-run must predict run()'s computed count, identical
        cells included."""
        campaign = CampaignSpec.from_dict(
            {
                "name": "dup-plan",
                "base": dict(BASE),
                "axes": [
                    {
                        "name": "who",
                        "values": [
                            {"label": "a", "set": {"seed": 17}},
                            {"label": "b", "set": {"seed": 17}},
                        ],
                    }
                ],
            }
        )
        runner = CampaignRunner(ResultStore(tmp_path), max_workers=1)
        plan = runner.plan(campaign)
        result = runner.run(campaign)
        assert plan.to_compute == result.computed == 1

    def test_overhead_cells_counted_and_never_cached(self, tmp_path):
        from repro.experiments import table2

        campaign = table2.campaign(kmax_values=[12], repetitions=5)
        store = ResultStore(tmp_path)
        runner = CampaignRunner(store, max_workers=1)
        plan = runner.plan(campaign)
        assert (plan.total, plan.cached, plan.to_compute) == (1, 0, 1)
        result = runner.run(campaign)
        assert (result.computed, result.reused) == (1, 0)
        # wall-clock timings are re-taken every run, never stored
        assert runner.plan(campaign).to_compute == 1
        aggregator = aggregate_from_store(campaign, store)
        assert aggregator.cells == {}
        assert aggregator.missing == {}
        assert result.cells[0].summary.extra["overhead_rows"]

    def test_result_to_dict_shape(self):
        result = CampaignRunner(max_workers=1).run(small_campaign())
        payload = result.to_dict()
        assert payload["campaign"] == "camp"
        assert len(payload["cells"]) == 4
        assert {"label", "coordinates", "spec_hash", "computed", "reused",
                "summary"} <= set(payload["cells"][0])


class TestAggregator:
    def test_fold_matches_batch_statistics(self):
        means = [0.4, 1.1, 0.9, 2.3, 1.7, 0.6, 1.2]
        aggregate = CellAggregate("cell")
        for i, mean in enumerate(means):
            aggregate.fold(make_result(index=i, seed=i, mean=mean).to_dict())
        assert aggregate.replications == len(means)
        assert aggregate.mean_sojourn == pytest.approx(
            statistics.fmean(means), rel=1e-12
        )
        assert aggregate.std_between == pytest.approx(
            statistics.stdev(means), rel=1e-12
        )
        batch_p95 = statistics.quantiles(means, n=100, method="inclusive")[94]
        assert aggregate.p95_of_means == pytest.approx(batch_p95, rel=1e-12)
        assert aggregate.mean_p95_sojourn == pytest.approx(
            statistics.fmean(2.0 * m for m in means), rel=1e-12
        )
        assert aggregate.total_completed == 99 * len(means)
        assert aggregate.total_rebalances == 2 * len(means)

    def test_ci_half_width(self):
        means = [1.0, 2.0, 3.0, 4.0]
        aggregate = CellAggregate("cell")
        for i, mean in enumerate(means):
            aggregate.fold(make_result(index=i, mean=mean).to_dict())
        expected = 1.959963984540054 * statistics.stdev(means) / 2.0
        assert aggregate.ci95_half_width == pytest.approx(expected, rel=1e-12)

    def test_empty_cell(self):
        aggregate = CellAggregate("cell")
        assert aggregate.mean_sojourn is None
        assert aggregate.std_between is None
        assert aggregate.ci95_half_width is None
        assert aggregate.p95_of_means is None

    def test_aggregate_from_store_matches_run_summaries(self, tmp_path):
        campaign = small_campaign(base=dict(BASE, replications=3))
        store = ResultStore(tmp_path)
        result = CampaignRunner(store, max_workers=2).run(campaign)
        aggregator = aggregate_from_store(campaign, store)
        for cell_result in result.cells:
            aggregate = aggregator.cells[cell_result.cell.label]
            assert aggregate.replications == 3
            assert aggregate.mean_sojourn == pytest.approx(
                cell_result.summary.mean_sojourn, rel=1e-12
            )
            assert aggregate.std_between == pytest.approx(
                cell_result.summary.std_between, rel=1e-12
            )
            assert aggregator.missing[cell_result.cell.label] == 0

    def test_aggregate_reports_missing_replications(self, tmp_path):
        campaign = small_campaign()
        store = ResultStore(tmp_path)
        CampaignRunner(store, max_workers=2).run(campaign)
        victim = campaign.expand()[0]
        store.record_path(
            victim.spec_hash, replication_seed(victim.spec.seed, 0)
        ).unlink()
        aggregator = aggregate_from_store(campaign, store)
        assert aggregator.missing[victim.label] == 1
        row = next(
            r for r in aggregator.rows() if r["label"] == victim.label
        )
        assert row["missing"] == 1
        assert row["replications"] == 0


class TestReplicationResultRoundTrip:
    def test_to_from_dict_round_trip(self):
        original = make_result()
        assert ReplicationResult.from_dict(original.to_dict()) == original

    def test_json_round_trip(self):
        original = make_result()
        rehydrated = ReplicationResult.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert rehydrated == original
