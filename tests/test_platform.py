"""Tests for the platform layer: specs, placement, failure models, the
runtime integration (weighted links, machine speeds, node churn) and
its end-to-end plumbing through scenarios, campaigns and the service.

The two invariants everything else leans on:

- **No platform, no change** — a spec without a ``platform`` block
  keeps its pre-platform content address (pinned as a hardcoded hash
  below) and simulates byte-identically (pinned replication values and
  a degenerate-platform digest comparison).
- **Churn is deterministic** — the churn golden fixture pins the full
  completion stream of a flapping-node scenario.  Regenerate (only on
  an intended semantic change)::

      PYTHONPATH=src python tests/test_platform.py --regen
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.campaigns.hybrid import AnalyticCellEvaluator
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.segstore import SegmentedResultStore
from repro.campaigns.shard import ShardedCampaignRunner
from repro.campaigns.spec import CampaignSpec, scenario_hash
from repro.campaigns.store import ResultStore
from repro.exceptions import (
    ConfigurationError,
    InfeasibleAllocationError,
    SchedulingError,
    SimulationError,
)
from repro.model.performance import PerformanceModel
from repro.platform import (
    PlatformSpec,
    available_failure_models,
    available_placements,
    create_failure_model,
    create_placement,
)
from repro.queueing.jackson import JacksonNetwork, OperatorLoad
from repro.scenarios.runner import run_replication
from repro.scenarios.spec import ScenarioSpec
from repro.scheduler.allocation import Allocation
from repro.scheduler.heterogeneous import (
    ProcessorClass,
    assign_heterogeneous,
    expected_sojourn_heterogeneous,
)
from repro.sim.engine import Simulator
from repro.sim.runtime import RuntimeOptions, TopologyRuntime
from repro.topology.builder import TopologyBuilder

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: ``scenario_hash`` of LEGACY_SPEC computed on the pre-platform tree.
#: If this pin ever breaks, every content-addressed store in the wild
#: silently recomputes — treat as a release blocker, not a fixture to
#: regenerate.
LEGACY_HASH = "ebca555fa95edeafec4055ed827f80de7e3ad55c69acd980d6d2585dfc47dd17"

LEGACY_SPEC = {
    "name": "legacy-pin",
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
    "replications": 2,
    "seed": 17,
}

PLATFORM = {
    "machines": [
        {"name": "m0", "speed": 1.0, "slots": 8},
        {"name": "m1", "speed": 1.0, "slots": 8},
        {"name": "m2", "speed": 0.5, "slots": 8},
    ],
    "links": [{"source": "m0", "target": "m1", "latency": 0.001}],
    "default_latency": 0.002,
    "placement": {"kind": "round_robin"},
}


def _chain_topology(rate=20.0, mu=100.0):
    return (
        TopologyBuilder("plat_chain")
        .add_spout("src", rate=rate)
        .add_operator("a", mu=mu)
        .add_operator("b", mu=mu)
        .connect("src", "a")
        .connect("a", "b")
        .build()
    )


def _completions_digest(runtime: TopologyRuntime) -> str:
    digest = hashlib.sha256()
    for t, s in runtime.completions:
        digest.update(f"{t!r}:{s!r};".encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# PlatformSpec
# ----------------------------------------------------------------------
class TestPlatformSpec:
    def test_round_trip_and_canonical_equality(self):
        spec = PlatformSpec.from_dict(PLATFORM)
        again = PlatformSpec.from_dict(spec.to_dict())
        assert again == spec
        assert hash(again) == hash(spec)
        # Omitted optional fields canonicalise identically to explicit
        # defaults, so equal platforms always serialise equally.
        minimal = PlatformSpec.from_dict({"machines": [{"name": "m0"}]})
        explicit = PlatformSpec.from_dict(
            {
                "machines": [{"name": "m0", "speed": 1.0, "slots": 4}],
                "placement": {"kind": "colocated"},
                "failure": {"kind": "none"},
            }
        )
        assert minimal.to_dict() == explicit.to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown platform"):
            PlatformSpec.from_dict(
                {"machines": [{"name": "m0"}], "typo": True}
            )
        with pytest.raises(ConfigurationError, match="unknown machine"):
            PlatformSpec.from_dict({"machines": [{"name": "m0", "cpus": 4}]})

    def test_machine_validation(self):
        with pytest.raises(ConfigurationError, match="at least one machine"):
            PlatformSpec.from_dict({"machines": []})
        with pytest.raises(ConfigurationError, match="duplicate"):
            PlatformSpec.from_dict(
                {"machines": [{"name": "m0"}, {"name": "m0"}]}
            )
        with pytest.raises(ConfigurationError, match="speed"):
            PlatformSpec.from_dict({"machines": [{"name": "m0", "speed": 0}]})

    def test_link_validation(self):
        with pytest.raises(ConfigurationError, match="unknown machine"):
            PlatformSpec.from_dict(
                {
                    "machines": [{"name": "m0"}],
                    "links": [
                        {"source": "m0", "target": "mX", "latency": 0.1}
                    ],
                }
            )
        with pytest.raises(ConfigurationError):
            PlatformSpec.from_dict(
                {
                    "machines": [{"name": "m0"}],
                    "links": [{"source": "m0", "target": "m0"}],
                }
            )

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf")], ids=["nan", "inf"]
    )
    @pytest.mark.parametrize(
        "path",
        [
            ("machines", 0, "speed"),
            ("links", 0, "latency"),
            ("links", 0, "bandwidth"),
            ("default_latency",),
            ("default_bandwidth",),
            ("tuple_bytes",),
            ("failure", "mean_up"),
            ("failure", "mean_down"),
        ],
        ids=lambda path: ".".join(str(key) for key in path),
    )
    def test_non_finite_numbers_fail_at_spec_load(self, path, bad):
        """NaN passes ``<= 0`` guards and inf passes ``> 0``: either one
        used to load and then crash mid-replication."""
        platform = {
            "machines": [{"name": "m0"}, {"name": "m1"}],
            "links": [{"source": "m0", "target": "m1", "latency": 0.001,
                       "bandwidth": 1e8}],
            "default_latency": 0.002,
            "default_bandwidth": 1e8,
            "tuple_bytes": 512,
            "failure": {"kind": "exponential", "mean_up": 60.0,
                        "mean_down": 5.0},
        }
        scenario = dict(LEGACY_SPEC, workload_params={"total_cpu": 0.03})
        ScenarioSpec.from_dict(dict(scenario, platform=platform))  # valid
        target = platform
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bad
        with pytest.raises(ConfigurationError, match=path[-1]):
            ScenarioSpec.from_dict(dict(scenario, platform=platform))

    def test_transfer_matrix(self):
        spec = PlatformSpec.from_dict(
            {
                "machines": [{"name": "m0"}, {"name": "m1"}, {"name": "m2"}],
                "links": [
                    {"source": "m0", "target": "m1", "latency": 0.001},
                    {
                        "source": "m1",
                        "target": "m0",
                        "latency": 0.005,
                    },
                ],
                "default_latency": 0.05,
                "default_bandwidth": 1e6,
                "tuple_bytes": 100.0,
            }
        )
        topology = _chain_topology()
        binding = spec.bind(topology, Allocation(["a", "b"], [1, 1]))
        matrix = binding.transfer
        assert matrix[0][0] == 0.0  # intra-machine is free
        # An explicit link without a bandwidth charges latency only.
        assert matrix[0][1] == pytest.approx(0.001)
        # Explicit reverse direction wins over symmetry.
        assert matrix[1][0] == pytest.approx(0.005)
        # Unlinked pairs fall back to the defaults, symmetrically.
        assert matrix[0][2] == matrix[2][0] == pytest.approx(0.0501)


# ----------------------------------------------------------------------
# placement policies
# ----------------------------------------------------------------------
class TestPlacement:
    def test_registry_lists_builtins(self):
        kinds = available_placements()
        assert {"colocated", "round_robin", "heterogeneous"} <= set(kinds)
        with pytest.raises(ConfigurationError, match="unknown placement"):
            create_placement({"kind": "nope"})
        with pytest.raises(ConfigurationError, match="unknown parameters"):
            create_placement({"kind": "round_robin", "typo": 1})

    def test_colocated_default_and_named(self):
        spec = PlatformSpec.from_dict(PLATFORM)
        topology = _chain_topology()
        allocation = Allocation(["a", "b"], [3, 2])
        policy = create_placement(None)
        patterns = policy.place(topology, allocation, spec.machines)
        assert patterns == {"a": (0, 0, 0), "b": (0, 0)}
        named = create_placement({"kind": "colocated", "machine": "m2"})
        patterns = named.place(topology, allocation, spec.machines)
        assert patterns == {"a": (2, 2, 2), "b": (2, 2)}
        bad = create_placement({"kind": "colocated", "machine": "mX"})
        with pytest.raises(ConfigurationError, match="unknown machine"):
            bad.place(topology, allocation, spec.machines)

    def test_round_robin_rotates_across_operators(self):
        spec = PlatformSpec.from_dict(PLATFORM)
        topology = _chain_topology()
        allocation = Allocation(["a", "b"], [4, 3])
        policy = create_placement({"kind": "round_robin"})
        patterns = policy.place(topology, allocation, spec.machines)
        assert patterns == {"a": (0, 1, 2, 0), "b": (1, 2, 0)}

    def test_heterogeneous_prefers_fast_machines(self):
        spec = PlatformSpec.from_dict(PLATFORM)
        topology = _chain_topology(rate=20.0, mu=30.0)
        allocation = Allocation(["a", "b"], [2, 2])
        policy = create_placement({"kind": "heterogeneous"})
        patterns = policy.place(topology, allocation, spec.machines)
        assert set(patterns) == {"a", "b"}
        for pattern in patterns.values():
            assert len(pattern) == 2
            # The fastest class (speed 1.0: machines 0 and 1) is filled
            # first; the half-speed m2 is only used when needed.
            assert pattern[0] in (0, 1)
        assert policy.predicted_sojourn is not None
        assert policy.predicted_sojourn > 0.0


# ----------------------------------------------------------------------
# failure models
# ----------------------------------------------------------------------
class TestFailureModels:
    def test_registry_lists_builtins(self):
        kinds = available_failure_models()
        assert {"none", "exponential", "trace"} <= set(kinds)
        with pytest.raises(ConfigurationError, match="unknown failure"):
            create_failure_model({"kind": "nope"})

    def test_exponential_validation(self):
        with pytest.raises(ConfigurationError, match="mean_up"):
            create_failure_model({"kind": "exponential", "mean_down": 1.0})
        with pytest.raises(ConfigurationError, match="must be > 0"):
            create_failure_model(
                {"kind": "exponential", "mean_up": 0.0, "mean_down": 1.0}
            )
        model = create_failure_model(
            {
                "kind": "exponential",
                "mean_up": 10.0,
                "mean_down": 2.0,
                "machines": ["m1"],
            }
        )
        assert model.to_dict()["machines"] == ["m1"]
        with pytest.raises(ConfigurationError, match="unknown machine"):
            model.initial_events(("m0",), None)

    def test_trace_validation(self):
        with pytest.raises(ConfigurationError, match="events"):
            create_failure_model({"kind": "trace"})
        with pytest.raises(ConfigurationError, match="state"):
            create_failure_model(
                {
                    "kind": "trace",
                    "events": [
                        {"time": 1.0, "machine": "m0", "state": "exploded"}
                    ],
                }
            )
        model = create_failure_model(
            {
                "kind": "trace",
                "events": [
                    {"time": 9.0, "machine": "m0", "state": "up"},
                    {"time": 4.0, "machine": "m0", "state": "down"},
                ],
            }
        )
        # Events are replayed in time order regardless of input order.
        assert [e["time"] for e in model.to_dict()["events"]] == [4.0, 9.0]


# ----------------------------------------------------------------------
# hash + byte-identity preservation (satellite: legacy specs)
# ----------------------------------------------------------------------
class TestLegacyPreservation:
    def test_legacy_hash_pinned(self):
        spec = ScenarioSpec.from_dict(LEGACY_SPEC)
        assert scenario_hash(spec) == LEGACY_HASH
        assert "platform" not in spec.to_dict()

    def test_legacy_replication_pinned(self):
        """The legacy (no-platform) simulate path is byte-identical to
        the pre-platform tree: values pinned from a pre-change run."""
        result = run_replication(ScenarioSpec.from_dict(LEGACY_SPEC), 0)
        assert repr(result.mean_sojourn) == "0.0420000000000003"
        assert result.completed_trees == 812
        assert repr(result.p95_sojourn) == "0.0420000000000087"

    def test_platform_changes_the_hash(self):
        legacy = ScenarioSpec.from_dict(LEGACY_SPEC)
        platform = ScenarioSpec.from_dict(
            {
                **LEGACY_SPEC,
                "workload_params": {"total_cpu": 0.03, "arrival_rate": 20.0},
                "platform": PLATFORM,
            }
        )
        assert scenario_hash(platform) != scenario_hash(legacy)
        # ...and equal platform blocks hash equally after canonicalising.
        again = ScenarioSpec.from_dict(platform.to_dict())
        assert scenario_hash(again) == scenario_hash(platform)

    def test_degenerate_platform_is_byte_identical(self):
        """One full-speed machine, free links, no churn == legacy."""
        topology = _chain_topology()
        allocation = Allocation(["a", "b"], [2, 2])
        digests = []
        for options in (
            RuntimeOptions(seed=11),
            RuntimeOptions(
                seed=11,
                platform=PlatformSpec.from_dict(
                    {"machines": [{"name": "m0", "slots": 64}]}
                ),
            ),
        ):
            sim = Simulator()
            runtime = TopologyRuntime(sim, topology, allocation, options)
            runtime.start()
            sim.run_until(80.0)
            digests.append(_completions_digest(runtime))
        assert digests[0] == digests[1]

    def test_mutual_exclusion(self):
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            ScenarioSpec.from_dict(
                {
                    **LEGACY_SPEC,
                    "hop_latency": 0.004,
                    "platform": PLATFORM,
                }
            )
        with pytest.raises(SimulationError, match="mutually exclusive"):
            RuntimeOptions(
                hop_latency=0.01,
                platform=PlatformSpec.from_dict(PLATFORM),
            )
        with pytest.raises(SimulationError, match="bind"):
            RuntimeOptions(platform="not a platform")


# ----------------------------------------------------------------------
# runtime semantics: speeds, transfers, churn
# ----------------------------------------------------------------------
class TestPlatformRuntime:
    def _run(self, platform_dict, *, seed=13, duration=60.0, topology=None,
             allocation=None):
        topology = topology or _chain_topology()
        allocation = allocation or Allocation(["a", "b"], [2, 2])
        options = RuntimeOptions(
            seed=seed, platform=PlatformSpec.from_dict(platform_dict)
        )
        sim = Simulator()
        runtime = TopologyRuntime(sim, topology, allocation, options)
        runtime.start()
        sim.run_until(duration)
        runtime.check_conservation()
        return runtime

    def test_slow_machines_stretch_service(self):
        fast = self._run({"machines": [{"name": "m0", "speed": 1.0}]})
        slow = self._run({"machines": [{"name": "m0", "speed": 0.25}]})
        assert (
            slow.stats().mean_sojourn > 2.0 * fast.stats().mean_sojourn
        )

    def test_link_latency_adds_transfer_delay(self):
        free = self._run(
            {
                "machines": [{"name": "m0"}, {"name": "m1"}],
                "placement": {"kind": "round_robin"},
            }
        )
        linked = self._run(
            {
                "machines": [{"name": "m0"}, {"name": "m1"}],
                "placement": {"kind": "round_robin"},
                "default_latency": 0.05,
            }
        )
        # Two platform hops (src->a, a->b) of expected cost ~0.05 each
        # (half the executor pairs cross machines... exact mean depends
        # on placement); the shift must be clearly visible.
        delta = linked.stats().mean_sojourn - free.stats().mean_sojourn
        assert delta > 0.02

    def test_trace_churn_records_exact_transitions(self):
        runtime = self._run(
            {
                "machines": [{"name": "m0"}, {"name": "m1"}],
                "placement": {"kind": "round_robin"},
                "failure": {
                    "kind": "trace",
                    "events": [
                        {"time": 10.0, "machine": "m1", "state": "down"},
                        {"time": 20.0, "machine": "m1", "state": "up"},
                    ],
                },
            }
        )
        assert runtime.node_events == [
            (10.0, "m1", "down"),
            (20.0, "m1", "up"),
        ]

    def test_down_node_drops_in_flight_work(self):
        """A saturated executor is busy when its machine dies: the tuple
        in service is lost, queued tuples survive via redelivery."""
        topology = _chain_topology(rate=40.0, mu=10.0)  # heavily loaded
        runtime = self._run(
            {
                "machines": [{"name": "m0"}, {"name": "m1"}],
                "placement": {"kind": "round_robin"},
                "failure": {
                    "kind": "trace",
                    "events": [
                        {"time": 5.0, "machine": "m1", "state": "down"}
                    ],
                },
            },
            topology=topology,
            allocation=Allocation(["a", "b"], [1, 1]),
            duration=20.0,
        )
        assert runtime.node_events == [(5.0, "m1", "down")]
        stats = runtime.stats()
        assert stats.dropped_tuples >= 1
        # Conservation already checked in _run: every external tuple is
        # accounted for as completed, dropped or in flight.

    def test_exponential_churn_is_deterministic(self):
        first = self._run(
            {
                "machines": [{"name": "m0"}, {"name": "m1"}],
                "placement": {"kind": "round_robin"},
                "failure": {
                    "kind": "exponential",
                    "mean_up": 15.0,
                    "mean_down": 3.0,
                },
            }
        )
        second = self._run(
            {
                "machines": [{"name": "m0"}, {"name": "m1"}],
                "placement": {"kind": "round_robin"},
                "failure": {
                    "kind": "exponential",
                    "mean_up": 15.0,
                    "mean_down": 3.0,
                },
            }
        )
        assert first.node_events == second.node_events
        assert _completions_digest(first) == _completions_digest(second)
        assert first.node_events  # churn actually fired

    def test_churn_survives_a_rebalance(self):
        """A transition landing inside the rebalance pause retries and
        applies after resume; patterns follow the new allocation."""
        topology = _chain_topology()
        allocation = Allocation(["a", "b"], [2, 2])
        options = RuntimeOptions(
            seed=3,
            platform=PlatformSpec.from_dict(
                {
                    "machines": [{"name": "m0"}, {"name": "m1"}],
                    "placement": {"kind": "round_robin"},
                    "failure": {
                        "kind": "trace",
                        "events": [
                            # Lands mid-pause: Storm-default pause is
                            # triggered at t=10 below.
                            {"time": 10.5, "machine": "m1", "state": "down"},
                            {"time": 30.0, "machine": "m1", "state": "up"},
                        ],
                    },
                }
            ),
        )
        sim = Simulator()
        runtime = TopologyRuntime(sim, topology, allocation, options)
        runtime.start()
        sim.schedule(
            10.0,
            lambda: runtime.apply_allocation(Allocation(["a", "b"], [3, 1])),
        )
        sim.run_until(60.0)
        runtime.check_conservation()
        assert [e[2] for e in runtime.node_events] == ["down", "up"]
        # The down transition was deferred past the pause, not lost.
        assert runtime.node_events[0][0] > 10.5


# ----------------------------------------------------------------------
# churn golden: the fixture pins the full completion stream
# ----------------------------------------------------------------------
def _churn_case() -> dict:
    topology = (
        TopologyBuilder("golden_churn")
        .add_spout("src", rate=12.0)
        .add_operator("a", mu=30.0)
        .add_operator("b", mu=24.0)
        .connect("src", "a")
        .connect("a", "b", gain=1.5)
        .build()
    )
    allocation = Allocation(["a", "b"], [2, 3])
    options = RuntimeOptions(
        seed=37,
        platform=PlatformSpec.from_dict(
            {
                "machines": [
                    {"name": "m0", "speed": 1.0, "slots": 4},
                    {"name": "m1", "speed": 0.5, "slots": 4},
                ],
                "links": [
                    {"source": "m0", "target": "m1", "latency": 0.003}
                ],
                "placement": {"kind": "round_robin"},
                "failure": {
                    "kind": "exponential",
                    "mean_up": 40.0,
                    "mean_down": 6.0,
                    "machines": ["m1"],
                },
            }
        ),
    )
    sim = Simulator()
    runtime = TopologyRuntime(sim, topology, allocation, options)
    runtime.start()
    sim.run_until(200.0)
    runtime.check_conservation()
    stats = runtime.stats(warmup=20.0)
    return {
        "completions_sha256": _completions_digest(runtime),
        "num_completions": len(runtime.completions),
        "node_events": [
            [repr(t), machine, state]
            for t, machine, state in runtime.node_events
        ],
        "mean_sojourn": repr(stats.mean_sojourn),
        "completed_trees": stats.completed_trees,
        "dropped_tuples": stats.dropped_tuples,
        "processed_events": runtime.simulator.processed_events,
    }


def test_churn_golden():
    path = GOLDEN_DIR / "platform_churn.json"
    if not path.exists():
        pytest.fail(
            f"golden fixture {path} missing; run"
            " `PYTHONPATH=src python tests/test_platform.py --regen`"
        )
    assert _churn_case() == json.loads(path.read_text())


# ----------------------------------------------------------------------
# the hybrid fast path declines platform cells
# ----------------------------------------------------------------------
class TestFastPathGating:
    def test_hybrid_evaluator_declines_platform(self):
        evaluator = AnalyticCellEvaluator.default()
        fidelity = {
            "name": "cell",
            "workload": "fidelity",
            "workload_params": {
                "topology": "single",
                "rho": 0.5,
                "servers": 2,
                "arrival_rate": 10.0,
            },
            "policy": "none",
            "duration": 50.0,
            "queue_discipline": "shared",
        }
        admitted = evaluator.decide(ScenarioSpec.from_dict(fidelity))
        declined = evaluator.decide(
            ScenarioSpec.from_dict({**fidelity, "platform": PLATFORM})
        )
        assert declined.analytic_capable is False
        assert "platform" in declined.reason
        # The platform cell must not inherit the platform-free cell's
        # memoized decision (the decision key includes the block).
        assert admitted.reason != declined.reason


# ----------------------------------------------------------------------
# heterogeneous scheduler edge cases (satellite: dormant guards)
# ----------------------------------------------------------------------
class TestHeterogeneousGuards:
    def _model(self, external=10.0):
        loads = [OperatorLoad("a", 10.0, 25.0), OperatorLoad("b", 15.0, 40.0)]
        return PerformanceModel(JacksonNetwork(loads, external_rate=external))

    def test_empty_classes_rejected(self):
        with pytest.raises(SchedulingError, match="at least one"):
            assign_heterogeneous(self._model(), ())

    def test_all_zero_counts_rejected(self):
        with pytest.raises(SchedulingError, match="count 0"):
            assign_heterogeneous(
                self._model(), (ProcessorClass("slow", 1.0, 0),)
            )

    def test_zero_operator_model_rejected(self):
        # JacksonNetwork itself refuses empty load lists, so the guard
        # defends against models built through other paths — stub one.
        from types import SimpleNamespace

        empty = SimpleNamespace(network=SimpleNamespace(num_operators=0))
        with pytest.raises(SchedulingError, match="no operators"):
            assign_heterogeneous(empty, (ProcessorClass("c", 1.0, 4),))

    def test_zero_external_rate_rejected(self):
        from types import SimpleNamespace

        model = self._model()
        assignment = assign_heterogeneous(
            model, (ProcessorClass("c", 1.0, 8),)
        )
        broken = SimpleNamespace(network=SimpleNamespace(external_rate=0.0))
        with pytest.raises(SchedulingError, match="positive external"):
            expected_sojourn_heterogeneous(broken, assignment)

    def test_exhausted_pools_still_infeasible(self):
        with pytest.raises(InfeasibleAllocationError):
            assign_heterogeneous(
                self._model(), (ProcessorClass("tiny", 0.1, 1),)
            )

    def test_zero_speed_class_rejected(self):
        with pytest.raises((SchedulingError, ValueError)):
            ProcessorClass("zero", 0.0, 4)


# ----------------------------------------------------------------------
# campaigns + sharded resume + service jobs carry platform cells
# ----------------------------------------------------------------------
def _churn_campaign(name="churn-camp") -> CampaignSpec:
    return CampaignSpec.from_dict(
        {
            "name": name,
            "base": {
                "workload": "synthetic",
                "workload_params": {"total_cpu": 0.03, "arrival_rate": 20.0},
                "policy": "none",
                "initial_allocation": "6:6:6",
                "duration": 30.0,
                "warmup": 5.0,
                "replications": 1,
                "seed": 23,
                "platform": {
                    "machines": [
                        {"name": "m0", "slots": 8},
                        {"name": "m1", "speed": 0.5, "slots": 8},
                    ],
                    "placement": {"kind": "round_robin"},
                    "failure": {
                        "kind": "exponential",
                        "mean_up": 20.0,
                        "mean_down": 4.0,
                        "machines": ["m1"],
                    },
                },
            },
            "axes": [
                {
                    "name": "churn",
                    "field": "platform.failure.mean_up",
                    "values": [20.0, 10.0],
                }
            ],
        }
    )


class TestPlatformCampaigns:
    def test_axes_patch_the_platform_block(self):
        cells = _churn_campaign().expand()
        ups = {
            cell.spec.platform["failure"]["mean_up"] for cell in cells
        }
        assert ups == {20.0, 10.0}
        assert len({scenario_hash(cell.spec) for cell in cells}) == 2

    def test_campaign_reuses_churn_cells(self, tmp_path):
        campaign = _churn_campaign()
        runner = CampaignRunner(ResultStore(tmp_path))
        first = runner.run(campaign)
        assert first.computed == 2 and first.reused == 0
        second = runner.run(campaign)
        assert second.computed == 0 and second.reused == 2
        assert [c.summary.to_dict() for c in first.cells] == [
            c.summary.to_dict() for c in second.cells
        ]

    def test_sharded_resume_recomputes_nothing(self, tmp_path):
        """A killed-and-restarted sharded run of churn cells resumes
        from the store: the second run computes zero replications."""
        campaign = _churn_campaign("churn-shard")
        store = SegmentedResultStore(tmp_path, segment="coordinator")
        first = ShardedCampaignRunner(store, shards=2).run(campaign)
        assert first.computed == 2 and first.reused == 0
        second = ShardedCampaignRunner(store, shards=2).run(campaign)
        assert second.computed == 0 and second.reused == 2


class TestServicePlatformJobs:
    def test_job_executor_runs_churn_campaign(self, tmp_path):
        import time

        from repro.service.jobs import JobExecutor, JobQueue

        queue = JobQueue(tmp_path / "jobs")
        executor = JobExecutor(
            queue, tmp_path / "store", campaign_workers=1
        )
        executor.start()
        try:
            job, _ = queue.submit(_churn_campaign("churn-svc"))
            executor.notify()
            deadline = time.monotonic() + 60
            while not job.terminal and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            executor.shutdown()
        assert job.state == "done"
        assert job.result["computed"] == 2 and job.result["reused"] == 0


# ----------------------------------------------------------------------
# fixture regeneration
# ----------------------------------------------------------------------
def _regen() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / "platform_churn.json"
    path.write_text(json.dumps(_churn_case(), indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:  # pragma: no cover
        print(__doc__)
