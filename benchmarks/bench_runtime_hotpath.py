"""Hot-path throughput benchmark: simulator events/sec + solver solves/sec.

Measures the two quantities that bound every figure reproduction in this
repo (see README "Performance"):

- **events/sec** of the discrete-event engine + topology runtime on
  four canonical topology shapes: ``linear`` (chain), ``diamond``
  (fan-out heavy — the paper's SIFT-style multiplier shape), ``loop``
  (feedback with broadcast) and ``fanout`` (homogeneous shared-queue
  fan-out);
- **events/sec** of the bare event core draining a self-rescheduling
  churn workload (``drain_heap``);
- **solves/sec** of Algorithm 1 (``assign_processors`` at Kmax=200
  total processors) and of the Program-6 solver
  (``min_processors_for_target``).

Emits machine-readable JSON (the ``BENCH_RUNTIME.json`` schema below)
for the perf trajectory; ``benchmarks/check_regression.py`` compares two
such files in CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_runtime_hotpath.py \
        --out BENCH_RUNTIME.json [--scale 1.0] [--repeat 3]

``--scale`` multiplies simulated durations (CI uses 0.25); ``--repeat``
re-runs every measurement and keeps the best round (least scheduler
noise).  Simulation results themselves are seed-deterministic — only the
wall-clock varies between rounds.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from dataclasses import replace

from repro.model.performance import PerformanceModel
from repro.platform.spec import MachineSpec, PlatformSpec
from repro.queueing.jackson import JacksonNetwork, OperatorLoad
from repro.scheduler.allocation import Allocation
from repro.scheduler.assign import assign_processors
from repro.scheduler.min_resources import min_processors_for_target
from repro.sim.engine import Simulator
from repro.sim.runtime import RuntimeOptions, TopologyRuntime
from repro.topology.builder import TopologyBuilder
from repro.topology.grouping import BroadcastGrouping, FieldsGrouping

#: v3 drops the ``simulator.fanout_array`` and ``simulator.drain_calendar``
#: rows and the ``scheduler`` / ``spilled_events`` keys of
#: ``simulator.drain_heap``.  Every other key is unchanged from v2.
SCHEMA = "bench_runtime_hotpath/v3"


# ----------------------------------------------------------------------
# canonical topologies
# ----------------------------------------------------------------------
def linear_case():
    topology = (
        TopologyBuilder("bench_linear")
        .add_spout("src", rate=120.0)
        .add_operator("a", mu=40.0)
        .add_operator("b", mu=70.0)
        .add_operator("c", mu=140.0)
        .connect("src", "a")
        .connect("a", "b", gain=2.0)
        .connect("b", "c", gain=0.5)
        .build()
    )
    allocation = Allocation(["a", "b", "c"], [5, 6, 2])
    return topology, allocation, RuntimeOptions(seed=31, queue_discipline="jsq")


def diamond_case():
    """Fan-out heavy: ~13 derived tuples per external tuple through wide
    JSQ operators (SIFT-style feature fan-out at high parallelism) —
    the acceptance-criteria hot path."""
    topology = (
        TopologyBuilder("bench_diamond")
        .add_spout("src", rate=60.0)
        .add_operator("split", mu=8.6)
        .add_operator("left", mu=2.0)
        .add_operator("right", mu=2.0)
        .add_operator("merge", mu=10.5)
        .connect("src", "split")
        .connect("split", "left", gain=4.0)
        .connect("split", "right", gain=3.0)
        .connect("left", "merge", gain=0.5)
        .connect("right", "merge", gain=1.0)
        .build()
    )
    allocation = Allocation(
        ["split", "left", "right", "merge"], [8, 128, 96, 32]
    )
    # ~0.94 utilisation on the wide operators and a (never-reached) queue
    # bound: the per-routed-tuple queue-limit test and the shortest-queue
    # selection are both exercised at scale.
    return topology, allocation, RuntimeOptions(
        seed=32, queue_discipline="jsq", queue_limit=100_000
    )


def loop_case():
    topology = (
        TopologyBuilder("bench_loop")
        .add_spout("src", rate=50.0)
        .add_operator("a", mu=60.0)
        .add_operator("b", mu=45.0)
        .add_operator("det", mu=300.0)
        .connect("src", "a")
        .connect("a", "b", gain=0.6)
        .connect("a", "det", gain=0.4, grouping=FieldsGrouping(["root"]))
        .connect("b", "det", gain=0.3, grouping=BroadcastGrouping())
        .connect("det", "a", gain=0.2)
        .build()
    )
    allocation = Allocation(["a", "b", "det"], [2, 2, 2])
    return topology, allocation, RuntimeOptions(seed=33, queue_discipline="jsq")


def fanout_case():
    """Homogeneous shared-queue fan-out: one spout broadcasting to eight
    identical M/M/k operators."""
    builder = TopologyBuilder("bench_fanout").add_spout("src", rate=400.0)
    names = [f"op{i}" for i in range(8)]
    for name in names:
        builder.add_operator(name, mu=60.0)
        builder.connect("src", name)
    topology = builder.build()
    allocation = Allocation(names, [8] * len(names))
    return topology, allocation, RuntimeOptions(
        seed=34, queue_discipline="shared"
    )


def platform_off_case():
    """``linear`` on a platform that changes no outcome: four unit-speed
    machines, round-robin placement, free links and no failure model.
    Tracked separately to bound the cost of the platform path (machine
    pinning, the per-service speed divide and the ``dead`` check per
    finish).  The baseline entry is a copy of pre-platform ``linear``,
    so the CI gate on this row, relative to ``linear``, proves that
    path stays within tolerance."""
    topology, allocation, options = linear_case()
    spec = PlatformSpec(
        machines=tuple(
            MachineSpec(name=f"m{i}", speed=1.0, slots=4) for i in range(4)
        ),
        placement={"kind": "round_robin"},
        failure={"kind": "none"},
    )
    return topology, allocation, replace(options, platform=spec)


SIM_CASES = {
    "linear": (linear_case, 120.0),
    "platform_off": (platform_off_case, 120.0),
    "diamond": (diamond_case, 90.0),
    "loop": (loop_case, 150.0),
    "fanout": (fanout_case, 60.0),
}


def run_sim_case(name: str, scale: float) -> dict:
    build, base_duration = SIM_CASES[name]
    topology, allocation, options = build()
    duration = base_duration * scale
    sim = Simulator()
    runtime = TopologyRuntime(sim, topology, allocation, options)
    runtime.start()
    started = time.perf_counter()
    sim.run_until(duration)
    wall = time.perf_counter() - started
    events = sim.processed_events
    return {
        "simulated_seconds": duration,
        "events": events,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall > 0 else None,
        "completed_trees": runtime.stats().completed_trees,
    }


def run_drain_case(scale: float) -> dict:
    """Bare event core: drain a self-rescheduling churn workload.

    Seeds the heap with a large live backlog, then every dispatched
    event reschedules itself until the budget is spent — exercising push
    and pop with no topology-runtime work in the loop.
    """
    rng = random.Random(99)
    sim = Simulator()
    budget = int(160_000 * scale)
    initial = min(budget, int(16_000 * scale))
    scheduled = 0

    def tick():
        nonlocal scheduled
        if scheduled < budget:
            scheduled += 1
            sim.schedule(rng.expovariate(0.5), tick)

    for _ in range(initial):
        scheduled += 1
        sim.schedule_at(rng.uniform(0.0, 50.0), tick)
    started = time.perf_counter()
    sim.run_until(1e12)
    wall = time.perf_counter() - started
    events = sim.processed_events
    return {
        "events": events,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall > 0 else None,
    }


# ----------------------------------------------------------------------
# solver benchmarks
# ----------------------------------------------------------------------
def solver_model() -> PerformanceModel:
    loads = [
        OperatorLoad("sift", 13.0, 1.75),
        OperatorLoad("matcher", 130.0, 17.5),
        OperatorLoad("agg", 39.0, 150.0),
        OperatorLoad("filter", 6.5, 3.1),
        OperatorLoad("sink", 19.5, 80.0),
    ]
    return PerformanceModel(JacksonNetwork(loads, external_rate=13.0))


def _timed_solves(solve, min_solves: int, min_seconds: float = 0.2) -> dict:
    """Time ``solve()`` repeatedly, growing the batch until the timed
    window is at least ``min_seconds`` (sub-millisecond batches are
    dominated by timer jitter and defeat the CI regression gate)."""
    solves = min_solves
    while True:
        started = time.perf_counter()
        for _ in range(solves):
            solve()
        wall = time.perf_counter() - started
        if wall >= min_seconds:
            return {
                "solves": solves,
                "wall_seconds": wall,
                "solves_per_sec": solves / wall if wall > 0 else None,
            }
        solves *= 4


def run_assign_bench(solves: int) -> dict:
    model = solver_model()
    # One warm solve outside the timer (imports, memo priming).
    reference = assign_processors(model, 200)
    result = _timed_solves(lambda: assign_processors(model, 200), solves)
    result["kmax"] = 200
    result["allocation"] = list(reference.vector)
    return result


def run_assign_cold_bench(solves: int) -> dict:
    """Cold-path variant: a fresh model per solve, as the controller
    builds one from measurements every decision cycle — covers evaluator
    construction and the Erlang-B warm-up that the warm bench's memos
    skip."""
    reference = assign_processors(solver_model(), 200)
    result = _timed_solves(lambda: assign_processors(solver_model(), 200), solves)
    result["kmax"] = 200
    result["allocation"] = list(reference.vector)
    return result


def run_min_resources_bench(solves: int) -> dict:
    model = solver_model()
    reference = min_processors_for_target(model, 8.05)
    result = _timed_solves(lambda: min_processors_for_target(model, 8.05), solves)
    result["tmax"] = 8.05
    result["total_processors"] = reference.total
    return result


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Host-speed reference: fixed pure-Python work, in units/sec.

    ``check_regression.py`` divides every throughput metric by this so a
    committed baseline from one machine can gate CI runs on another —
    interpreter and hardware speed cancel out, leaving only real code
    regressions.
    """
    best = 0.0
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i & 0xFF
        elapsed = time.perf_counter() - started
        best = max(best, 200_000 / elapsed)
    return best


def best_of(rounds: int, fn, *args):
    """Keep the round with the highest throughput (least noise)."""
    best = None
    for _ in range(rounds):
        result = fn(*args)
        key = result.get("events_per_sec") or result.get("solves_per_sec") or 0
        if best is None or key > (
            best.get("events_per_sec") or best.get("solves_per_sec") or 0
        ):
            best = result
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_RUNTIME.json")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--solver-iters",
        type=int,
        default=20,
        help="solver solves per timed round",
    )
    args = parser.parse_args(argv)

    result = {
        "schema": SCHEMA,
        "config": {
            "scale": args.scale,
            "repeat": args.repeat,
            "solver_iters": args.solver_iters,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
        "calibration_ops_per_sec": calibrate(),
        "simulator": {},
        "solver": {},
    }
    # Round-major order: every round times each case once, back to
    # back, and the best round per case wins.  Host-speed drift over
    # the run then hits all cases alike, so *ratios* between rows
    # (e.g. platform_off / linear, which check_regression.py gates
    # with --relative-to) stay far tighter than with per-case blocks.
    sim_rows: dict = {}
    for _ in range(args.repeat):
        for name in SIM_CASES:
            candidate = run_sim_case(name, args.scale)
            prev = sim_rows.get(name)
            if (
                prev is None
                or candidate["events_per_sec"] > prev["events_per_sec"]
            ):
                sim_rows[name] = candidate
    for name in SIM_CASES:
        result["simulator"][name] = sim_rows[name]
        rate = result["simulator"][name]["events_per_sec"]
        print(f"simulator/{name}: {rate:,.0f} events/sec", file=sys.stderr)
    result["simulator"]["drain_heap"] = best_of(
        args.repeat, run_drain_case, args.scale
    )
    rate = result["simulator"]["drain_heap"]["events_per_sec"]
    print(f"simulator/drain_heap: {rate:,.0f} events/sec", file=sys.stderr)
    result["solver"]["assign_k200"] = best_of(
        args.repeat, run_assign_bench, args.solver_iters
    )
    print(
        f"solver/assign_k200: "
        f"{result['solver']['assign_k200']['solves_per_sec']:,.1f} solves/sec",
        file=sys.stderr,
    )
    result["solver"]["assign_k200_cold"] = best_of(
        args.repeat, run_assign_cold_bench, args.solver_iters
    )
    print(
        f"solver/assign_k200_cold: "
        f"{result['solver']['assign_k200_cold']['solves_per_sec']:,.1f}"
        " solves/sec",
        file=sys.stderr,
    )
    result["solver"]["min_resources"] = best_of(
        args.repeat, run_min_resources_bench, args.solver_iters
    )
    print(
        f"solver/min_resources: "
        f"{result['solver']['min_resources']['solves_per_sec']:,.1f} solves/sec",
        file=sys.stderr,
    )

    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
