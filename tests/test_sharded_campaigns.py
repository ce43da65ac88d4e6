"""Tests for sharded campaign runs (the process pool on a segmented
store) and the compacted (segmented) result-store backend."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import api
from repro.campaigns.runner import (
    ESTIMATED_RECORD_BYTES,
    CampaignRunner,
    load_usable,
)
from repro.campaigns.segstore import SegmentedResultStore, compact_store
from repro.campaigns.shard import ShardedCampaignRunner
from repro.campaigns.spec import CampaignSpec, scenario_hash
from repro.campaigns.store import ResultStore
from repro.exceptions import CampaignCancelled, ConfigurationError
from repro.experiments import report
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
    "replications": 2,
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


def sample_spec() -> ScenarioSpec:
    return ScenarioSpec.from_dict({**BASE, "name": "one", "replications": 1})


class TestSegmentedStore:
    def test_round_trip(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        store = SegmentedResultStore(tmp_path, segment="w0")
        result = make_result(seed=5)
        store.put(spec, digest, 5, result, campaign="c", cell="l")
        assert store.load(digest, 5) == result
        assert store.has(digest, 5)
        assert store.refresh() == 1  # one indexed record
        # One segment file, no per-replication files.
        assert [p.name for p in (tmp_path / "segments").glob("*.ndjson")] == [
            "w0.ndjson"
        ]
        assert not (tmp_path / digest[:2]).exists()

    def test_other_writers_visible_after_refresh(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        writer = SegmentedResultStore(tmp_path, segment="w0")
        writer.put(spec, digest, 5, make_result(seed=5))
        reader = SegmentedResultStore(tmp_path, segment="w1")
        assert reader.load(digest, 5) is not None  # indexed on open
        writer.put(spec, digest, 6, make_result(seed=6))
        assert reader.load(digest, 6) is None  # written after open...
        reader.refresh()
        assert reader.load(digest, 6) is not None  # ...visible on rescan

    def test_classic_layout_still_readable(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        classic = ResultStore(tmp_path)
        classic.put(spec, digest, 7, make_result(seed=7))
        segmented = SegmentedResultStore(tmp_path)
        assert segmented.load(digest, 7) is not None
        # And a segment record sits beside the classic one.
        segmented.put(spec, digest, 3, make_result(seed=3))
        assert segmented.load_record(digest, 3)["seed"] == 3
        assert segmented.load_record(digest, 7)["seed"] == 7

    def test_torn_trailing_line_skipped(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        store = SegmentedResultStore(tmp_path, segment="w0")
        store.put(spec, digest, 5, make_result(seed=5))
        store.close()
        with open(store.segment_path, "a") as handle:
            handle.write('{"version": 1, "spec_hash": "' + digest)  # torn
        fresh = SegmentedResultStore(tmp_path, segment="w1")
        assert fresh.load(digest, 5) is not None  # intact line survives
        assert fresh.refresh() == 1  # the torn line is not indexed

    def test_malformed_segment_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SegmentedResultStore(tmp_path, segment="../evil")

    def test_provenance_travels_in_segment(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        store = SegmentedResultStore(tmp_path, segment="w0")
        store.put(spec, digest, 5, make_result(seed=5))
        store.put(spec, digest, 6, make_result(seed=6))
        store.close()
        lines = [
            json.loads(line)
            for line in store.segment_path.read_text().splitlines()
        ]
        specs = [line for line in lines if line.get("kind") == "spec"]
        assert len(specs) == 1  # once per hash, not per record
        assert specs[0]["spec"] == spec.to_dict()


def _eager_index(root):
    """What a full decode of every segment yields: each key's last
    record, scanning segments in name order (the lazy index's rule)."""
    index = {}
    for path in sorted((root / "segments").glob("*.ndjson")):
        for line in path.read_text().splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("kind") != "spec":
                index[(record["spec_hash"], record["seed"])] = record
    return index


class TestSegmentIndex:
    """The index holds (segment, offset, length); bodies load lazily
    and ``refresh()`` reads only appended bytes."""

    def test_lazy_index_equals_eager_decode(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        w0 = SegmentedResultStore(tmp_path, segment="w0")
        w1 = SegmentedResultStore(tmp_path, segment="w1")
        for seed in (1, 2, 3, 4):
            w0.put(spec, digest, seed, make_result(seed=seed), cell="w0")
        for seed in (3, 4, 5, 6):
            w1.put(spec, digest, seed, make_result(seed=seed), cell="w1")
        w0.put(spec, digest, 1, make_result(seed=1, mean=3.0), cell="again")
        # A hand-edited line of another shape is decoded while indexing.
        hand = dict(w0.load_record(digest, 2), seed=9, cell="hand")
        with open(w1.segment_path, "a") as handle:
            handle.write(json.dumps(hand, separators=(",", ":")) + "\n")
        eager = _eager_index(tmp_path)
        for store in (SegmentedResultStore(tmp_path, segment="r"), w0, w1):
            assert store.refresh() == len(eager) == 7
            for (spec_hash, seed), record in eager.items():
                assert store.load_record(spec_hash, seed) == record
        assert eager[(digest, 1)]["cell"] == "again"  # later line wins
        assert eager[(digest, 3)]["cell"] == "w1"

    def test_index_keeps_locations_not_records(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        SegmentedResultStore(tmp_path, segment="w0").put(
            spec, digest, 5, make_result(seed=5)
        )
        store = SegmentedResultStore(tmp_path, segment="r")
        (location,) = store._index.values()
        path, offset, length = location
        line = path.read_bytes()[offset : offset + length]
        assert json.loads(line) == store.load_record(digest, 5)

    def test_refresh_picks_up_another_writers_appends(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        writer = SegmentedResultStore(tmp_path, segment="w0")
        reader = SegmentedResultStore(tmp_path, segment="r")
        for seed in (5, 6):
            writer.put(spec, digest, seed, make_result(seed=seed))
            assert reader.load_record(digest, seed) is None
            assert reader.refresh() == seed - 4
            assert reader.load(digest, seed) == make_result(seed=seed)

    def test_torn_tail_indexed_once_completed(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        writer = SegmentedResultStore(tmp_path, segment="w0")
        writer.put(spec, digest, 5, make_result(seed=5))
        writer.close()
        record = writer.load_record(digest, 5)
        line = json.dumps(dict(record, seed=6), sort_keys=True) + "\n"
        reader = SegmentedResultStore(tmp_path, segment="r")
        with open(writer.segment_path, "a") as handle:
            handle.write(line[:40])
        assert reader.refresh() == 1
        assert reader.load_record(digest, 6) is None  # torn: not indexed
        with open(writer.segment_path, "a") as handle:
            handle.write(line[40:])
        assert reader.refresh() == 2
        assert reader.load_record(digest, 6)["seed"] == 6

    def test_truncated_segment_rebuilds(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        writer = SegmentedResultStore(tmp_path, segment="w0")
        writer.put(spec, digest, 5, make_result(seed=5))
        writer.close()
        keep = writer.segment_path.stat().st_size
        writer.put(spec, digest, 6, make_result(seed=6))
        writer.close()
        reader = SegmentedResultStore(tmp_path, segment="r")
        assert reader.refresh() == 2
        with open(writer.segment_path, "r+b") as handle:
            handle.truncate(keep)
        assert reader.refresh() == 1
        assert reader.load_record(digest, 6) is None
        assert reader.load(digest, 5) == make_result(seed=5)

    def test_corrupt_body_with_valid_tail_is_recomputed(self, tmp_path):
        campaign = small_campaign()
        CampaignRunner(
            SegmentedResultStore(tmp_path), max_workers=1
        ).run(campaign)
        segment = tmp_path / "segments" / "main.ndjson"
        lines = segment.read_text().splitlines(keepends=True)
        victim = next(
            i for i, line in enumerate(lines) if '"kind": "spec"' not in line
        )
        key = json.loads(lines[victim])
        lines[victim] = lines[victim].replace('"result": {', '"result": {{', 1)
        segment.write_text("".join(lines))
        store = SegmentedResultStore(tmp_path, segment="r")
        assert store.refresh() == 4  # the tail still parses
        assert store.load_record(key["spec_hash"], key["seed"]) is None
        runner = CampaignRunner(store, max_workers=1)
        assert runner.plan(campaign).to_compute == 1
        assert runner.run(campaign).computed == 1

    def test_record_after_torn_line_is_not_lost(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        store = SegmentedResultStore(tmp_path, segment="main")
        store.put(spec, digest, 5, make_result(seed=5))
        store.close()
        with open(store.segment_path, "a") as handle:
            handle.write('{"version": 1, "spec_hash": "' + digest)  # torn
        again = SegmentedResultStore(tmp_path, segment="main")
        again.put(spec, digest, 6, make_result(seed=6))
        again.close()
        fresh = SegmentedResultStore(tmp_path, segment="r")
        assert fresh.load(digest, 6) == make_result(seed=6)
        assert fresh.load(digest, 5) == make_result(seed=5)

    def test_own_appends_bytes_match_json_dumps(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        store = SegmentedResultStore(tmp_path, segment="w0")
        store.put(spec, digest, 5, make_result(seed=5), campaign="c")
        store.close()
        spec_line, record_line = store.segment_path.read_bytes().splitlines()
        record = store.load_record(digest, 5)
        assert record_line == json.dumps(record, sort_keys=True).encode()
        assert json.loads(spec_line)["spec"] == spec.to_dict()

    def test_classic_path_probed_only_when_buckets_exist(
        self, tmp_path, monkeypatch
    ):
        spec = sample_spec()
        digest = scenario_hash(spec)
        store = SegmentedResultStore(tmp_path)
        probes = []
        classic_load = ResultStore.load_record

        def spy(self, spec_hash, seed):
            probes.append(seed)
            return classic_load(self, spec_hash, seed)

        monkeypatch.setattr(ResultStore, "load_record", spy)
        assert store.load_record(digest, 7) is None
        assert probes == []  # no classic bucket: no filesystem probe
        ResultStore(tmp_path).put(spec, digest, 7, make_result(seed=7))
        store.refresh()
        assert store.load(digest, 7) == make_result(seed=7)
        assert probes == [7]

    def test_threads_share_one_store(self, tmp_path):
        """Writers and refreshing readers on one instance: every put
        lands as one whole line and stays loadable (a lost cursor or
        index update would drop or duplicate keys)."""
        import sys

        spec = sample_spec()
        digest = scenario_hash(spec)
        store = SegmentedResultStore(tmp_path, segment="shared")
        errors = []

        def write(first):
            for seed in range(first, first + 40):
                store.put(spec, digest, seed, make_result(seed=seed))
                if store.load_record(digest, seed) is None:
                    errors.append(seed)

        def read():
            for _ in range(100):
                store.refresh()
                store.load_record(digest, 0)

        threads = [
            threading.Thread(target=write, args=(100 * i,)) for i in range(6)
        ] + [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.refresh() == 240
        assert all(
            store.load_record(digest, 100 * i + j) for i in range(6) for j in range(40)
        )
        lines = store.segment_path.read_text().splitlines()
        assert len(lines) == 241  # one spec line, 240 records
        assert all(json.loads(line) for line in lines)
        assert SegmentedResultStore(tmp_path, segment="r").refresh() == 240

    def test_dropped_store_leaks_no_descriptor(self, tmp_path):
        import gc
        import os

        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):
            pytest.skip("needs /proc/self/fd")
        spec = sample_spec()
        digest = scenario_hash(spec)
        gc.collect()
        before = len(os.listdir(fd_dir))
        store = SegmentedResultStore(tmp_path, segment="w0")
        store.put(spec, digest, 5, make_result(seed=5))
        assert store.load(digest, 5) is not None
        store.refresh()
        assert len(os.listdir(fd_dir)) > before  # the append descriptor
        del store
        gc.collect()
        assert len(os.listdir(fd_dir)) == before


class TestCompactStore:
    def test_compact_migrates_and_removes(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        classic = ResultStore(tmp_path)
        for seed in (3, 5):
            classic.put(spec, digest, seed, make_result(seed=seed))
        stats = compact_store(tmp_path)
        assert stats["migrated"] == 2
        assert stats["skipped"] == 0
        # Buckets are gone, segments hold everything.
        assert not (tmp_path / digest[:2]).exists()
        store = SegmentedResultStore(tmp_path)
        assert store.refresh() == 2
        assert [store.load_record(digest, seed)["seed"] for seed in (3, 5)] == [3, 5]

    def test_compact_is_idempotent(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        ResultStore(tmp_path).put(spec, digest, 3, make_result(seed=3))
        assert compact_store(tmp_path)["migrated"] == 1
        again = compact_store(tmp_path)
        assert again["migrated"] == 0
        assert SegmentedResultStore(tmp_path).load(digest, 3) is not None

    def test_compact_skips_unreadable_records(self, tmp_path):
        spec = sample_spec()
        digest = scenario_hash(spec)
        classic = ResultStore(tmp_path)
        classic.put(spec, digest, 3, make_result(seed=3))
        classic.record_path(digest, 9).write_text("{torn")
        stats = compact_store(tmp_path)
        assert stats["migrated"] == 1
        assert stats["skipped"] == 1


class TestShardedRunner:
    def test_requires_segmented_store(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ShardedCampaignRunner(ResultStore(tmp_path), shards=2)
        with pytest.raises(ConfigurationError):
            ShardedCampaignRunner(
                SegmentedResultStore(tmp_path), shards=0
            )

    def test_full_run_then_resume_computes_zero(self, tmp_path):
        campaign = small_campaign()
        store = SegmentedResultStore(tmp_path, segment="coordinator")
        runner = ShardedCampaignRunner(store, shards=2)
        first = runner.run(campaign)
        assert first.computed == 4
        assert first.reused == 0
        second = runner.run(campaign)
        assert second.computed == 0
        assert second.reused == 4
        # Both runs merged to identical per-cell summaries.
        assert [c.summary.to_dict() for c in first.cells] == [
            c.summary.to_dict() for c in second.cells
        ]

    def test_sharded_matches_unsharded(self, tmp_path):
        campaign = small_campaign()
        sharded_store = SegmentedResultStore(
            tmp_path / "sharded", segment="coordinator"
        )
        sharded = ShardedCampaignRunner(sharded_store, shards=2).run(campaign)
        plain = CampaignRunner(ResultStore(tmp_path / "plain")).run(campaign)
        assert [c.summary.to_dict() for c in sharded.cells] == [
            c.summary.to_dict() for c in plain.cells
        ]

    def test_sharded_records_match_pool_records(self, tmp_path):
        campaign = small_campaign()
        CampaignRunner(
            SegmentedResultStore(tmp_path / "pool"), max_workers=2
        ).run(campaign)
        ShardedCampaignRunner(
            SegmentedResultStore(tmp_path / "sharded", segment="coordinator"),
            shards=2,
        ).run(campaign)
        pool = (tmp_path / "pool" / "segments" / "main.ndjson").read_text()
        sharded = tmp_path / "sharded" / "segments" / "coordinator.ndjson"
        assert sorted(sharded.read_text().splitlines()) == sorted(
            pool.splitlines()
        )
        assert [p.name for p in (tmp_path / "sharded").iterdir()] == [
            "segments"
        ]

    def test_interrupted_run_resumes_only_missing(self, tmp_path):
        # Simulate an interrupt: a prior run landed half the results
        # (one cell of two) before dying.
        campaign = small_campaign()
        half = CampaignSpec.from_dict(
            {
                "name": "camp",
                "base": dict(BASE),
                "axes": [
                    {
                        "name": "alloc",
                        "field": "initial_allocation",
                        "values": ["8:8:8"],
                    },
                ],
            }
        )
        store = SegmentedResultStore(tmp_path, segment="coordinator")
        ShardedCampaignRunner(store, shards=2).run(half)
        result = ShardedCampaignRunner(store, shards=2).run(campaign)
        # Only the missing cell's replications were computed.
        assert result.computed == 2
        assert result.reused == 2
        assert [(c.computed, c.reused) for c in result.cells] == [
            (0, 2),
            (2, 0),
        ]
        assert SegmentedResultStore(tmp_path, segment="r").refresh() == 4

    def test_computed_jobs_are_stored(self, tmp_path):
        campaign = small_campaign()
        store = SegmentedResultStore(tmp_path, segment="coordinator")
        result = ShardedCampaignRunner(store, shards=2).run(campaign)
        assert result.computed == 4
        reader = SegmentedResultStore(tmp_path, segment="r")
        assert reader.refresh() == result.computed
        assert _stored_keys(reader, campaign) == 4

    def test_cancel_reaches_sharded_runs(self, tmp_path):
        campaign = small_campaign()
        event = threading.Event()
        event.set()
        with pytest.raises(CampaignCancelled):
            api.run_campaign(campaign, store=tmp_path, shards=2, cancel=event)
        store = SegmentedResultStore(tmp_path, segment="coordinator")
        assert store.refresh() == 0  # no record of any cell

    def test_cancel_set_before_pool_dispatch_computes_nothing(
        self, tmp_path
    ):
        event = threading.Event()
        event.set()
        store = SegmentedResultStore(tmp_path)
        with pytest.raises(CampaignCancelled):
            api.run_campaign(
                small_campaign(), store=store, workers=2, cancel=event
            )
        assert SegmentedResultStore(tmp_path, segment="r").refresh() == 0

    def test_two_coordinators_on_one_store_lose_no_work(self, tmp_path):
        campaign = small_campaign()
        start = threading.Barrier(2, timeout=60)

        def coordinate():
            # Both write the segment two CLI runs on one store share.
            runner = ShardedCampaignRunner(
                SegmentedResultStore(tmp_path, segment="coordinator"),
                shards=2,
            )
            start.wait()
            return runner.run(campaign)

        with ThreadPoolExecutor(max_workers=2) as threads:
            futures = [threads.submit(coordinate) for _ in range(2)]
            first, second = (f.result(timeout=300) for f in futures)
        assert [c.summary.to_dict() for c in first.cells] == [
            c.summary.to_dict() for c in second.cells
        ]
        # Each job ran at least once; duplicates are allowed.
        assert first.computed + first.reused == 4
        assert second.computed + second.reused == 4
        reader = SegmentedResultStore(tmp_path, segment="r")
        assert reader.refresh() == 4
        assert _stored_keys(reader, campaign) == 4
        assert not (tmp_path / "claims").exists()
        resumed = ShardedCampaignRunner(reader, shards=2).run(campaign)
        assert resumed.computed == 0 and resumed.reused == 4


def _stored_keys(store, campaign):
    """How many of ``campaign``'s jobs ``store`` holds a usable record
    for."""
    return sum(
        load_usable(
            store,
            cell.spec_hash,
            replication_seed(cell.spec.seed, index),
            "simulated",
        )
        is not None
        for cell in campaign.expand()
        for index in range(cell.spec.replications)
    )


def _seed_shape_corrupted_record(root, campaign):
    """One record ``load_record`` accepts but ``from_dict`` rejects."""
    cell = campaign.expand()[0]
    seed = replication_seed(cell.spec.seed, 0)
    classic = ResultStore(root)
    classic.put(cell.spec, cell.spec_hash, seed, make_result(seed=seed))
    path = classic.record_path(cell.spec_hash, seed)
    record = json.loads(path.read_text())
    record["result"] = {"index": 0}
    path.write_text(json.dumps(record))
    assert classic.load_record(cell.spec_hash, seed) is not None
    assert classic.load(cell.spec_hash, seed) is None


class TestShapeCorruptedRecord:
    """``plan()`` and ``run()`` share one cache predicate, so a record
    that no longer rehydrates is planned as work and recomputed."""

    def test_serial_plan_matches_run(self, tmp_path):
        campaign = small_campaign()
        _seed_shape_corrupted_record(tmp_path, campaign)
        runner = CampaignRunner(ResultStore(tmp_path), max_workers=1)
        plan = runner.plan(campaign)
        result = runner.run(campaign)
        assert plan.to_compute == result.computed == 4
        assert result.reused == 0

    def test_sharded_plan_matches_run(self, tmp_path):
        campaign = small_campaign()
        _seed_shape_corrupted_record(tmp_path, campaign)
        runner = ShardedCampaignRunner(
            SegmentedResultStore(tmp_path, segment="coordinator"), shards=2
        )
        plan = runner.plan(campaign)
        result = runner.run(campaign)
        assert plan.to_compute == result.computed == 4
        assert result.reused == 0
        # The recomputed record landed in the segment and now loads.
        reader = SegmentedResultStore(tmp_path, segment="r")
        assert reader.refresh() == 4
        assert _stored_keys(reader, campaign) == 4


class TestPlanReport:
    def test_plan_reports_axes_cells_and_size(self, tmp_path):
        campaign = small_campaign()
        runner = CampaignRunner(ResultStore(tmp_path))
        plan = runner.plan(campaign)
        assert plan.axes == (("alloc", 2),)
        assert plan.cells == 2
        assert plan.total == 4
        assert plan.estimated_store_bytes == 4 * ESTIMATED_RECORD_BYTES
        rendered = report.render_campaign_plan(campaign.name, plan)
        assert "grid: 2(alloc) = 2 cells" in rendered
        assert "estimated new store size" in rendered

    def test_cached_jobs_do_not_count_toward_size(self, tmp_path):
        campaign = small_campaign()
        store = SegmentedResultStore(tmp_path, segment="coordinator")
        ShardedCampaignRunner(store, shards=1).run(campaign)
        store.refresh()
        plan = CampaignRunner(store).plan(campaign)
        assert plan.cached == 4
        assert plan.estimated_store_bytes == 0
        rendered = report.render_campaign_plan(campaign.name, plan)
        assert "estimated new store size" not in rendered
