"""Golden fixture for the runtime features acting together.

The other goldens pin one feature each: ``closed_loop.json`` has clients
and backpressure but no platform or rebalance, ``platform_churn.json``
has churn but no clients or backpressure.  This one pins a replication
where all of them interact on the same tuples:

- platform churn (exponential failures of one slow machine);
- closed-loop clients with latency-aware admission control;
- backpressure under a ``queue_limit``;
- a mid-run ``apply_allocation``;
- under both the ``shared`` and the ``jsq`` queue discipline.

The crossings are where the runtime's features hand state to each
other: a churn resize or a rebalance resume re-derives the full flags,
and a tuple lost with its machine frees the client that issued it.
Under backpressure nothing is dropped at the queue limit, so every
dropped tuple in these runs died on an executor whose machine failed.

Regenerate (only on an intended semantic change)::

    PYTHONPATH=src python tests/test_feature_mix.py --regen
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.platform import PlatformSpec
from repro.scheduler.allocation import Allocation
from repro.sim.engine import Simulator
from repro.sim.runtime import RuntimeOptions, TopologyRuntime
from repro.topology.builder import TopologyBuilder
from repro.topology.grouping import BroadcastGrouping
from repro.workloads import create_closed_loop_source

GOLDEN = pathlib.Path(__file__).parent / "golden" / "feature_mix.json"
DISCIPLINES = ("shared", "jsq")


def _case(discipline: str) -> dict:
    topology = (
        TopologyBuilder("feature_mix")
        .add_spout("src", rate=10.0)
        .add_operator("a", mu=60.0)
        .add_operator("b", mu=40.0)
        .connect("src", "a")
        .connect("a", "b", gain=1.5)
        .build()
    )
    options = RuntimeOptions(
        seed=41,
        queue_discipline=discipline,
        queue_limit=6,
        backpressure=True,
        closed_loop=create_closed_loop_source(
            {
                "kind": "closed_loop",
                "clients": 8,
                "think_time": 0.3,
                "max_outstanding": 2,
                "admission_latency": 0.4,
                "admission_alpha": 0.3,
            }
        ),
        platform=PlatformSpec.from_dict(
            {
                "machines": [
                    {"name": "m0", "speed": 1.0, "slots": 4},
                    {"name": "m1", "speed": 0.5, "slots": 4},
                ],
                "links": [
                    {"source": "m0", "target": "m1", "latency": 0.002}
                ],
                "placement": {"kind": "round_robin"},
                "failure": {
                    "kind": "exponential",
                    "mean_up": 20.0,
                    "mean_down": 4.0,
                    "machines": ["m1"],
                },
            }
        ),
    )
    sim = Simulator()
    runtime = TopologyRuntime(sim, topology, Allocation(["a", "b"], [2, 2]), options)
    runtime.start()
    sim.schedule(
        60.0, lambda: runtime.apply_allocation(Allocation(["a", "b"], [2, 3]))
    )
    sim.run_until(150.0)
    runtime.check_conservation()
    stats = runtime.stats(warmup=10.0)
    digest = hashlib.sha256()
    for t, s in runtime.completions:
        digest.update(f"{t!r}:{s!r};".encode())
    return {
        "completions_sha256": digest.hexdigest(),
        "num_completions": len(runtime.completions),
        "node_events": [
            [repr(t), machine, state] for t, machine, state in runtime.node_events
        ],
        "blocked_time": repr(stats.blocked_time),
        "issued_requests": stats.issued_requests,
        "admission_rejected": stats.admission_rejected,
        "dropped_tuples": stats.dropped_tuples,
        "dropped_trees": stats.dropped_trees,
        "rebalances": stats.rebalances,
        "mean_sojourn": repr(stats.mean_sojourn),
        "processed_events": sim.processed_events,
    }


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_matches_fixture(fixture, discipline):
    assert _case(discipline) == fixture[discipline]


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_every_feature_fires(fixture, discipline):
    case = fixture[discipline]
    assert float(case["blocked_time"]) > 0.0
    assert any(state == "down" for _, _, state in case["node_events"])
    assert case["admission_rejected"] > 0
    # Backpressure never drops at the limit: these are tuples that were
    # in service on m1 when it failed.
    assert case["dropped_tuples"] > 0
    assert case["rebalances"] == 1


class TestBackpressureSyncAfterChurn:
    """``Backpressure.sync`` repairs a full flag that delivery left
    stale.

    A broadcast delivery marks its queue full only when the queue
    already sits one below the limit, so several copies can push it
    past ``queue_limit`` with ``full`` still unset.  A churn transition
    redelivers only the operators hosted on the flipped machine; the
    stale operator keeps its queue, and only ``sync`` sets its flag.
    """

    LIMIT = 2

    def _churn_after_stale_broadcast(self, monkeypatch):
        from repro.sim.features import Platform

        topology = (
            TopologyBuilder("sync_churn")
            .add_spout("src", rate=40.0)
            .add_operator("a", mu=200.0)
            .add_operator("b", mu=5.0)
            .connect("src", "a")
            .connect("a", "b", grouping=BroadcastGrouping())
            .build()
        )
        options = RuntimeOptions(
            seed=3,
            queue_limit=self.LIMIT,
            backpressure=True,
            platform=PlatformSpec.from_dict(
                {
                    "machines": [
                        {"name": f"m{i}", "speed": 1.0, "slots": 4}
                        for i in range(3)
                    ],
                    "placement": {"kind": "round_robin"},
                }
            ),
        )
        stale = []
        after_churn = []
        deliver = TopologyRuntime._deliver

        def watched_deliver(rt, op, payload, grouping):
            deliver(rt, op, payload, grouping)
            if (
                not stale
                and op.name == "b"
                and not op.full
                and op.queued >= self.LIMIT
            ):
                stale.append(op.queued)
                # m0 goes down next: only a is resized and redelivered.
                rt.simulator.schedule_event(0.0, rt._platform._kind, 0, 1)

        on_node_event = Platform._on_node_event

        def watched_node_event(platform, machine, flag):
            on_node_event(platform, machine, flag)
            b = platform._rt._operators["b"]
            after_churn.append((b.full, b.queued >= self.LIMIT))

        monkeypatch.setattr(TopologyRuntime, "_deliver", watched_deliver)
        monkeypatch.setattr(Platform, "_on_node_event", watched_node_event)
        # Round robin puts a's one executor on m0 and b's two on m1, m2.
        sim = Simulator()
        runtime = TopologyRuntime(
            sim, topology, Allocation(["a", "b"], [1, 2]), options
        )
        runtime.start()
        sim.run_until(20.0)
        runtime.check_conservation()
        assert stale, "no broadcast pushed b past its limit unmarked"
        return after_churn[0]

    def test_sync_sets_the_stale_flag(self, monkeypatch):
        assert self._churn_after_stale_broadcast(monkeypatch) == (True, True)

    def test_without_sync_the_flag_stays_stale(self, monkeypatch):
        from repro.sim.features import Backpressure

        monkeypatch.setattr(Backpressure, "sync", lambda self: None)
        assert self._churn_after_stale_broadcast(monkeypatch) == (False, True)


if __name__ == "__main__":
    if "--regen" in sys.argv:
        payload = {discipline: _case(discipline) for discipline in DISCIPLINES}
        GOLDEN.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        sys.exit(pytest.main([__file__, "-v"]))
