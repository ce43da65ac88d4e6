"""One encode per cell: sibling records put together from one
``json.dumps``, stored by one ``put``, byte for byte what encoding
each record on its own gives.

An analytic cell's replications share one answer, so their records
differ only in ``seed`` and in the result's ``index`` and ``seed``.
:func:`encode_replications` encodes the first record once and puts
those three integers into its text for every sibling.  The segment
index reads keys from a line's tail on the promise that every line is
``json.dumps(record, sort_keys=True)``; these tests hold the encoder to
that promise.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns import segstore, store as store_module
from repro.campaigns.segstore import SegmentedResultStore
from repro.campaigns.spec import scenario_hash
from repro.campaigns.store import (
    RECORD_VERSION,
    ResultStore,
    encode_replications,
)
from repro.scenarios.runner import ReplicationResult
from repro.scenarios.spec import ScenarioSpec

SPEC = ScenarioSpec.from_dict(
    {
        "name": "encoding",
        "workload": "fidelity",
        "workload_params": {"topology": "linear", "servers": 2, "rho": 0.5},
        "policy": "none",
        "queue_discipline": "shared",
        "duration": 100.0,
        "warmup": 10.0,
        "replications": 4,
        "seed": 2015,
    }
)
DIGEST = scenario_hash(SPEC)


def answer(index=0, seed=2015, waits=None, **fields) -> ReplicationResult:
    """An analytic-shaped result (no actions, no timeline)."""
    values = dict(
        index=index,
        seed=seed,
        duration=100.0,
        external_tuples=50,
        completed_trees=50,
        dropped_tuples=0,
        dropped_trees=0,
        rebalances=0,
        mean_sojourn=1.25,
        std_sojourn=None,
        p95_sojourn=2.5,
        final_allocation="2:2:2",
        final_machines=None,
        actions=(),
        timeline=(),
        recommendation=None,
        operator_waits=waits if waits is not None else {"op0": 0.25},
        operator_services={"op0": 1.0},
    )
    values.update(fields)
    return ReplicationResult(**values)


def record_of(result, *, seed, campaign="c", cell="l", provenance=None):
    """The record both store layouts write for ``result``."""
    record = {
        "version": RECORD_VERSION,
        "spec_hash": DIGEST,
        "seed": seed,
        "campaign": campaign,
        "cell": cell,
        "path": "analytic",
        "result": result.to_dict(),
    }
    if provenance is not None:
        record["analytic"] = provenance
    return record


def dumped_one_by_one(record, siblings):
    """The oracle: every record encoded on its own."""
    lines = [json.dumps(record, sort_keys=True)]
    for index, seed in siblings:
        sibling = {
            **record,
            "seed": seed,
            "result": {**record["result"], "index": index, "seed": seed},
        }
        lines.append(json.dumps(sibling, sort_keys=True))
    return lines


#: Text that JSON escapes or that looks like the fields being replaced.
awkward_text = st.lists(
    st.sampled_from(
        ["\x00", '"', "\\", "é", "漢", "\n", "a", ":", ",", " ", "}", "1"]
        + ["seed", "index", '"seed": 7, ', '"index": 0}']
    ),
    max_size=8,
).map("".join)
#: Member names, often those of the fields being replaced.
keys = st.sampled_from(["seed", "index", 'x"seed']) | awkward_text
#: Small values collide with each other and with the awkward text's;
#: large ones exceed 64 bits.
small = st.integers(min_value=0, max_value=8)
seeds = small | st.integers(min_value=-(2**70), max_value=2**80)
indexes = small | st.integers(min_value=0, max_value=10**6)
floats = st.none() | st.floats(allow_nan=True, allow_infinity=True)


class TestEncodeReplications:
    @settings(max_examples=300, deadline=None)
    @given(
        campaign=awkward_text,
        cell=awkward_text,
        index=indexes,
        seed=seeds,
        result_seed=seeds,
        mean=floats,
        p95=floats,
        waits=st.dictionaries(keys, floats | small, max_size=3),
        provenance=st.none()
        | st.dictionaries(
            keys, small | awkward_text, max_size=3
        ),
        siblings=st.lists(
            st.tuples(indexes, seeds),
            max_size=5,
        ),
    )
    def test_equals_one_dumps_per_record(
        self,
        campaign,
        cell,
        index,
        seed,
        result_seed,
        mean,
        p95,
        waits,
        provenance,
        siblings,
    ):
        result = answer(
            index=index,
            seed=result_seed,
            waits=waits,
            mean_sojourn=mean,
            p95_sojourn=p95,
        )
        record = record_of(
            result,
            seed=seed,
            campaign=campaign,
            cell=cell,
            provenance=provenance,
        )
        assert encode_replications(record, siblings) == dumped_one_by_one(
            record, siblings
        )

    def _count_dumps(self, monkeypatch):
        calls = []
        dumps = json.dumps

        def counted(*args, **kwargs):
            calls.append(1)
            return dumps(*args, **kwargs)

        monkeypatch.setattr(store_module.json, "dumps", counted)
        return calls

    def test_unambiguous_template_encodes_once(self, monkeypatch):
        record = record_of(answer(seed=2015), seed=2015)
        siblings = [(1, 11), (2, 22), (3, 33)]
        calls = self._count_dumps(monkeypatch)
        lines = encode_replications(record, siblings)
        assert len(calls) == 1
        assert lines == dumped_one_by_one(record, siblings)

    @pytest.mark.parametrize(
        "waits",
        [
            {"seed": 2015},  # an operator named like the field, same value
            {"index": 0},
            {'x"seed': 2015},  # escapes to ..\"seed": 2015
        ],
    )
    def test_ambiguous_template_encodes_each_record(self, monkeypatch, waits):
        record = record_of(answer(seed=2015, waits=waits), seed=2015)
        siblings = [(1, 11), (2, 22)]
        calls = self._count_dumps(monkeypatch)
        lines = encode_replications(record, siblings)
        assert len(calls) == 1 + len(siblings)
        assert lines == dumped_one_by_one(record, siblings)

    def test_no_siblings_is_one_dumps(self):
        record = record_of(answer(), seed=2015)
        assert encode_replications(record) == [json.dumps(record, sort_keys=True)]


SIBLINGS = [(1, 11), (2, 22), (3, 33)]


def put_cell(store):
    return store.put(
        SPEC,
        DIGEST,
        2015,
        answer(),
        campaign="c",
        cell="l",
        path="analytic",
        provenance={"rule": "waiting_time/default"},
        siblings=SIBLINGS,
    )


def expected_records():
    record = record_of(
        answer(), seed=2015, provenance={"rule": "waiting_time/default"}
    )
    return [json.loads(line) for line in dumped_one_by_one(record, SIBLINGS)]


class TestPutSiblings:
    def test_segmented_put_is_one_write(self, tmp_path, monkeypatch):
        store = SegmentedResultStore(tmp_path)
        writes = []
        write = os.write

        def counted(fd, data):
            writes.append(len(data))
            return write(fd, data)

        monkeypatch.setattr(segstore.os, "write", counted)
        put_cell(store)
        store.close()
        assert len(writes) == 1
        lines = store.segment_path.read_bytes().splitlines()
        assert writes == [sum(len(line) + 1 for line in lines)]
        spec_line, *record_lines = lines
        assert json.loads(spec_line)["kind"] == "spec"
        assert [json.loads(line) for line in record_lines] == expected_records()
        for line in record_lines:
            assert line == json.dumps(json.loads(line), sort_keys=True).encode()

    @pytest.mark.parametrize("layout", [ResultStore, SegmentedResultStore])
    def test_every_sibling_loads(self, tmp_path, layout):
        store = layout(tmp_path)
        put_cell(store)
        for expected in expected_records():
            assert store.load_record(DIGEST, expected["seed"]) == expected
        # A fresh reader finds the same keys.
        again = layout(tmp_path)
        for expected in expected_records():
            assert again.load_record(DIGEST, expected["seed"]) == expected

    def test_classic_put_writes_one_file_per_replication(self, tmp_path):
        store = ResultStore(tmp_path)
        first = put_cell(store)
        assert first == store.record_path(DIGEST, 2015)
        for expected in expected_records():
            path = store.record_path(DIGEST, expected["seed"])
            assert path.read_text() == json.dumps(expected, sort_keys=True)

    def test_load_record_checks_the_seed(self, tmp_path):
        # A misplaced index entry (as a short write on a shared segment
        # could leave) points one key at its sibling's line.
        store = SegmentedResultStore(tmp_path)
        put_cell(store)
        store._index[(DIGEST, 11)] = store._index[(DIGEST, 22)]
        assert store.load_record(DIGEST, 11) is None
        assert store.load_record(DIGEST, 22)["seed"] == 22
