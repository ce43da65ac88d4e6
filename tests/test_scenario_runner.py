"""Tests for scenario runs: determinism, merging, policies live.

Whole scenarios run through :func:`repro.api.run_scenario` (a one-cell
campaign); single replications through :func:`run_replication`.
"""

import pytest

from repro import api
from repro.exceptions import ConfigurationError, SimulationError
from repro.scenarios.runner import replication_seed, run_replication
from repro.scenarios.spec import RatePhase, ScenarioSpec
from repro.sim.runtime import TopologyRuntime


def smoke_spec(**overrides) -> ScenarioSpec:
    """Small, fast synthetic-chain scenario (deterministic service)."""
    base = dict(
        name="runner-smoke",
        workload="synthetic",
        workload_params={
            "total_cpu": 0.03,
            "arrival_rate": 20.0,
            "hop_latency": 0.004,
        },
        policy="none",
        initial_allocation="10:10:10",
        duration=90.0,
        warmup=15.0,
        seed=17,
        replications=3,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestReplicationSeeds:
    def test_rep0_is_base_seed(self):
        assert replication_seed(42, 0) == 42

    def test_later_reps_derive(self):
        seeds = [replication_seed(42, i) for i in range(5)]
        assert len(set(seeds)) == 5

    def test_derivation_is_stable(self):
        assert replication_seed(42, 3) == replication_seed(42, 3)

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            replication_seed(42, -1)


class TestDeterminism:
    def test_worker_count_does_not_change_results(self):
        """The satellite regression: 1 worker and 4 workers produce
        byte-identical merged summaries."""
        spec = smoke_spec()
        serial = api.run_scenario(spec, workers=1)
        pooled = api.run_scenario(spec, workers=4)
        assert serial.to_json(indent=2) == pooled.to_json(indent=2)

    def test_rerun_is_identical(self):
        spec = smoke_spec(replications=2)
        first = api.run_scenario(spec, workers=2)
        assert first.to_json() == api.run_scenario(spec, workers=2).to_json()


class TestMerging:
    @pytest.fixture(scope="class")
    def summary(self):
        return api.run_scenario(smoke_spec(), workers=2)

    def test_replications_in_index_order(self, summary):
        assert [r.index for r in summary.replications] == [0, 1, 2]

    def test_distinct_seeds(self, summary):
        seeds = [r.seed for r in summary.replications]
        assert len(set(seeds)) == 3
        assert seeds[0] == 17

    def test_mean_of_means(self, summary):
        means = [r.mean_sojourn for r in summary.replications]
        assert summary.mean_sojourn == pytest.approx(sum(means) / len(means))
        assert summary.min_sojourn == min(means)
        assert summary.max_sojourn == max(means)

    def test_totals(self, summary):
        assert summary.total_completed == sum(
            r.completed_trees for r in summary.replications
        )
        assert summary.total_completed > 0

    def test_summary_is_json_ready(self, summary):
        text = summary.to_json(indent=2)
        assert '"runner-smoke"' in text


class TestPoliciesLive:
    def test_drs_rebalances_vld_from_bad_start(self):
        spec = ScenarioSpec(
            name="drs-live",
            workload="vld",
            policy="drs.min_sojourn",
            policy_params={"kmax": 22, "rebalance_threshold": 0.12},
            initial_allocation="8:12:2",
            duration=300.0,
            enable_at=120.0,
            min_action_gap=60.0,
            seed=19,
            hop_latency=0.002,
            measurement={"alpha": 0.85},
        )
        result = run_replication(spec, 0)
        assert result.rebalances >= 1
        assert result.actions
        assert result.actions[0].time >= 120.0
        assert result.final_allocation != "8:12:2"

    def test_policy_derives_initial_allocation(self):
        spec = ScenarioSpec(
            name="derived-start",
            workload="vld",
            policy="drs.min_sojourn",
            policy_params={"kmax": 22},
            duration=60.0,
            seed=11,
        )
        result = run_replication(spec, 0)
        assert result.final_allocation == "10:11:1"

    def test_missing_initial_allocation_fails_clearly(self):
        broken = smoke_spec(initial_allocation=None)
        with pytest.raises(ConfigurationError, match="initial_allocation"):
            run_replication(broken, 0)

    def test_min_resource_without_machines_fails_upfront(self):
        """A pool-sizing policy with no pool must fail before simulating,
        naming the spec field to set."""
        spec = smoke_spec()
        broken = ScenarioSpec.from_dict(
            {**spec.to_dict(), "policy": "drs.min_resource",
             "policy_params": {"tmax": 1.0}}
        )
        with pytest.raises(ConfigurationError, match="initial_machines"):
            run_replication(broken, 0)

    def test_rate_phases_increase_load(self):
        calm = smoke_spec(replications=1, duration=120.0)
        surged = smoke_spec(
            name="runner-smoke-surge",
            replications=1,
            duration=120.0,
            rate_phases=(RatePhase(start=60.0, rate_multiplier=3.0),),
        )
        base = api.run_scenario(calm, workers=1).replications[0]
        surge = api.run_scenario(surged, workers=1).replications[0]
        assert surge.external_tuples > base.external_tuples * 1.5

    def test_recommendation_recorded(self):
        spec = ScenarioSpec(
            name="recommend",
            workload="vld",
            policy="none",
            initial_allocation="10:11:1",
            duration=120.0,
            warmup=20.0,
            seed=11,
            hop_latency=0.002,
            recommend_kmax=22,
        )
        result = run_replication(spec, 0)
        assert result.recommendation is not None
        assert result.recommendation.count(":") == 2


class TestConservation:
    def test_every_replication_checks_conservation(self, monkeypatch):
        """run_replication audits the runtime once the run is over."""
        checked = []
        original = TopologyRuntime.check_conservation

        def spy(runtime):
            checked.append(runtime.simulator.now)
            original(runtime)

        monkeypatch.setattr(TopologyRuntime, "check_conservation", spy)
        spec = smoke_spec(duration=20.0, warmup=5.0)
        run_replication(spec, 0)
        assert checked == [20.0]

    def test_violation_fails_the_replication(self, monkeypatch):
        def violated(runtime):
            raise SimulationError("conservation violated")

        monkeypatch.setattr(TopologyRuntime, "check_conservation", violated)
        with pytest.raises(SimulationError, match="conservation"):
            run_replication(smoke_spec(duration=5.0, warmup=1.0), 0)


class TestOverheadKind:
    def test_table2_spec_runs_through_runner(self):
        from repro.experiments import table2

        summary = api.run_scenario(
            table2.spec(kmax_values=[12, 48], repetitions=20), workers=1
        )
        assert (summary.name, summary.replications) == ("table2", ())
        rows = summary.extra["overhead_rows"]
        assert [r["kmax"] for r in rows] == [12, 48]
        assert all(r["scheduling_ms"] > 0 for r in rows)


class TestRunnerValidation:
    def test_bad_worker_count(self):
        with pytest.raises(ConfigurationError, match="max_workers"):
            api.run_scenario(smoke_spec(), workers=0)

    def test_overhead_replication_rejected(self):
        from repro.experiments import table2

        with pytest.raises(ConfigurationError, match="overhead"):
            run_replication(table2.spec(), 0)
