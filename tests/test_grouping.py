"""Tests for stream groupings."""

import random

import pytest

from repro.exceptions import RoutingError
from repro.topology.grouping import (
    BroadcastGrouping,
    FieldsGrouping,
    GlobalGrouping,
    LocalOrShuffleGrouping,
    ShuffleGrouping,
)


class TestShuffle:
    def test_single_task(self, rng):
        assert ShuffleGrouping().select_tasks({}, 1, rng) == (0,)

    def test_tasks_in_range(self, rng):
        grouping = ShuffleGrouping()
        for _ in range(100):
            (task,) = grouping.select_tasks({}, 7, rng)
            assert 0 <= task < 7

    def test_roughly_uniform(self):
        rng = random.Random(5)
        grouping = ShuffleGrouping()
        counts = [0] * 4
        for _ in range(8000):
            (task,) = grouping.select_tasks({}, 4, rng)
            counts[task] += 1
        for count in counts:
            assert 1700 <= count <= 2300

    def test_rejects_zero_tasks(self, rng):
        with pytest.raises(RoutingError):
            ShuffleGrouping().select_tasks({}, 0, rng)


class TestFields:
    def test_deterministic_for_same_key(self, rng):
        grouping = FieldsGrouping(["user"])
        a = grouping.select_tasks({"user": "alice"}, 8, rng)
        b = grouping.select_tasks({"user": "alice"}, 8, rng)
        assert a == b

    def test_stable_across_instances(self, rng):
        # The hash must not depend on Python's per-process salt.
        a = FieldsGrouping(["k"]).select_tasks({"k": 42}, 16, rng)
        b = FieldsGrouping(["k"]).select_tasks({"k": 42}, 16, rng)
        assert a == b

    def test_multi_field_key(self, rng):
        grouping = FieldsGrouping(["a", "b"])
        x = grouping.select_tasks({"a": 1, "b": 2}, 8, rng)
        y = grouping.select_tasks({"a": 1, "b": 3}, 8, rng)
        assert x == x
        # Different keys *may* collide but a fixed pair is checked stable.
        assert grouping.select_tasks({"a": 1, "b": 2}, 8, rng) == x
        assert isinstance(y[0], int)

    def test_missing_field_raises(self, rng):
        with pytest.raises(RoutingError, match="missing"):
            FieldsGrouping(["user"]).select_tasks({"other": 1}, 4, rng)

    def test_requires_fields(self):
        with pytest.raises(RoutingError):
            FieldsGrouping([])

    def test_spreads_over_tasks(self, rng):
        grouping = FieldsGrouping(["k"])
        tasks = {
            grouping.select_tasks({"k": i}, 16, rng)[0] for i in range(200)
        }
        assert len(tasks) > 8  # most of the 16 tasks used


class TestGlobal:
    def test_always_task_zero(self, rng):
        grouping = GlobalGrouping()
        for _ in range(10):
            assert grouping.select_tasks({}, 9, rng) == (0,)


class TestBroadcast:
    def test_all_tasks(self, rng):
        assert BroadcastGrouping().select_tasks({}, 4, rng) == (0, 1, 2, 3)


class TestLocalOrShuffle:
    def test_prefers_local(self, rng):
        grouping = LocalOrShuffleGrouping()
        payload = {
            LocalOrShuffleGrouping.RESERVED_MACHINE_KEY: "m1",
            LocalOrShuffleGrouping.RESERVED_LOCAL_TASKS_KEY: {"m1": [2, 3]},
        }
        for _ in range(20):
            (task,) = grouping.select_tasks(payload, 8, rng)
            assert task in (2, 3)

    def test_falls_back_to_shuffle(self, rng):
        grouping = LocalOrShuffleGrouping()
        (task,) = grouping.select_tasks({}, 8, rng)
        assert 0 <= task < 8
