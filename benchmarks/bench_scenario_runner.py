"""Serial vs process-pool replication throughput of ``api.run_scenario``.

Runs the same small synthetic-chain scenario (a one-cell campaign) with
one worker and with all cores, printing replications/second and the speedup.  The merged
summaries are asserted byte-identical — parallelism must never change
results.
"""

import os
import time

from repro import api
from repro.scenarios.spec import ScenarioSpec
from benchmarks.conftest import full_scale, timed_pedantic


def scenario(replications: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="bench-runner",
        workload="synthetic",
        workload_params={
            "total_cpu": 0.03,
            "arrival_rate": 40.0,
            "hop_latency": 0.004,
        },
        policy="none",
        initial_allocation="10:10:10",
        duration=240.0 if full_scale() else 120.0,
        warmup=20.0,
        seed=17,
        replications=replications,
    )


def test_serial_vs_pool_throughput(benchmark):
    replications = max(4, (os.cpu_count() or 1))
    spec = scenario(replications)

    started = time.perf_counter()
    serial = api.run_scenario(spec, workers=1)
    serial_s = time.perf_counter() - started

    def pooled_run():
        return api.run_scenario(spec)

    pooled, pooled_s = timed_pedantic(benchmark, pooled_run)

    assert serial.to_json() == pooled.to_json()
    print()
    print(
        f"run_scenario: {replications} replications |"
        f" serial {serial_s:.2f}s ({replications / serial_s:.2f} reps/s) |"
        f" pool {pooled_s:.2f}s ({replications / pooled_s:.2f} reps/s) |"
        f" speedup x{serial_s / pooled_s:.2f}"
    )
