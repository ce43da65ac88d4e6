"""Campaign-layer overhead: expansion, store round-trips, resume planning.

The sweep layer must stay negligible next to simulation time: expanding
a 1000-cell grid, hashing every cell and planning a resume against a
fully-populated store are all metadata operations.  This benchmark
times them standalone (no simulation) and prints cells/second and
records/second figures.
"""

import time

from repro.campaigns.runner import CampaignRunner
from repro.campaigns.segstore import SegmentedResultStore, compact_store
from repro.campaigns.spec import CampaignSpec, scenario_hash
from repro.campaigns.store import ResultStore
from repro.scenarios.runner import ReplicationResult, replication_seed
from benchmarks.conftest import timed_pedantic

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


def make_result(seed: int) -> ReplicationResult:
    return ReplicationResult(
        index=0,
        seed=seed,
        duration=40.0,
        external_tuples=800,
        completed_trees=799,
        dropped_tuples=0,
        dropped_trees=0,
        rebalances=0,
        mean_sojourn=0.042,
        std_sojourn=0.001,
        p95_sojourn=0.084,
        final_allocation="10:10:10",
        final_machines=None,
        actions=(),
        timeline=((0.0, 0.042, 400),),
        recommendation=None,
    )


def big_campaign(side: int) -> CampaignSpec:
    return CampaignSpec.from_dict(
        {
            "name": "bench-grid",
            "base": dict(BASE),
            "axes": [
                {
                    "name": "rate",
                    "field": "workload_params.arrival_rate",
                    "values": [10.0 + i for i in range(side)],
                },
                {
                    "name": "cpu",
                    "field": "workload_params.total_cpu",
                    "values": [0.01 + 0.001 * i for i in range(side)],
                },
                {"name": "seed", "field": "seed", "range": [1, side + 1]},
            ],
        }
    )


def test_expansion_and_hash_throughput(benchmark):
    campaign = big_campaign(10)  # 1000 cells

    def expand_and_hash():
        return [cell.spec_hash for cell in campaign.expand()]

    hashes, expand_s = timed_pedantic(benchmark, expand_and_hash, rounds=3)
    per_cell = expand_s / len(hashes)
    print()
    print(
        f"campaign expansion+hash: {len(hashes)} cells |"
        f" {expand_s * 1000:.1f} ms/expansion |"
        f" {per_cell * 1e6:.1f} us/cell"
    )
    assert len(set(hashes)) == len(hashes) - 0  # all distinct here


def test_store_write_read_and_resume_plan(benchmark, tmp_path):
    campaign = big_campaign(6)  # 216 cells
    cells = campaign.expand()
    store = ResultStore(tmp_path)

    started = time.perf_counter()
    for cell in cells:
        digest = cell.spec_hash
        seed = replication_seed(cell.spec.seed, 0)
        store.put(cell.spec, digest, seed, make_result(seed=seed))
    write_s = time.perf_counter() - started

    started = time.perf_counter()
    loaded = sum(
        1
        for cell in cells
        if store.load(cell.spec_hash, replication_seed(cell.spec.seed, 0))
        is not None
    )
    read_s = time.perf_counter() - started
    assert loaded == len(cells)

    runner = CampaignRunner(store, max_workers=1)

    def plan():
        return runner.plan(campaign)

    result, plan_s = timed_pedantic(benchmark, plan, rounds=3)
    assert (result.total, result.cached) == (len(cells), len(cells))
    print()
    print(
        f"result store: {len(cells)} records |"
        f" write {len(cells) / write_s:.0f} rec/s |"
        f" read {len(cells) / read_s:.0f} rec/s |"
        f" resume plan {plan_s * 1000:.1f} ms"
        f" ({len(cells) / plan_s:.0f} cells/s)"
    )


def test_segmented_store_write_read_and_compact(benchmark, tmp_path):
    """The segmented backend vs the classic per-file layout.

    Appending NDJSON lines must beat one atomic-rename file per record,
    and compacting a classic store must be a linear pass — both are
    metadata operations that may not rival simulation time.
    """
    campaign = big_campaign(6)  # 216 cells
    cells = campaign.expand()

    seg_store = SegmentedResultStore(tmp_path / "seg", segment="bench")
    started = time.perf_counter()
    for cell in cells:
        digest = cell.spec_hash
        seed = replication_seed(cell.spec.seed, 0)
        seg_store.put(cell.spec, digest, seed, make_result(seed=seed))
    write_s = time.perf_counter() - started
    seg_store.close()

    started = time.perf_counter()
    reader = SegmentedResultStore(tmp_path / "seg", segment="reader")
    loaded = sum(
        1
        for cell in cells
        if reader.load(cell.spec_hash, replication_seed(cell.spec.seed, 0))
        is not None
    )
    read_s = time.perf_counter() - started
    assert loaded == len(cells)

    classic = ResultStore(tmp_path / "classic")
    for cell in cells:
        digest = cell.spec_hash
        seed = replication_seed(cell.spec.seed, 0)
        classic.put(cell.spec, digest, seed, make_result(seed=seed))

    def compact():
        return compact_store(tmp_path / "classic")

    stats, compact_s = timed_pedantic(benchmark, compact)
    assert stats["migrated"] == len(cells)
    print()
    print(
        f"segmented store: {len(cells)} records |"
        f" write {len(cells) / write_s:.0f} rec/s |"
        f" scan+read {len(cells) / read_s:.0f} rec/s |"
        f" compact {len(cells) / compact_s:.0f} rec/s"
    )


def test_hash_stability(benchmark):
    """scenario_hash must be cheap and deterministic (it keys the store)."""
    campaign = big_campaign(4)
    spec = campaign.expand()[0].spec

    digest = benchmark(lambda: scenario_hash(spec))
    assert digest == scenario_hash(spec)
