"""Stream groupings: how tuples on an edge are routed to executor tasks.

Mirrors Storm's partitioning rules (shuffle, fields, global, ...).  A
grouping maps a concrete tuple to one or more target task indices out of
``num_tasks``.  Groupings matter to the simulator only — the queueing
model sees operator-level aggregates — but they are exactly what makes
the real system deviate from the idealised M/M/k shared queue, which the
paper observes and which our ablation benchmarks quantify.
"""

from __future__ import annotations

import random
from typing import Any, Mapping, Sequence

from repro.exceptions import RoutingError


class Grouping:
    """Abstract stream grouping."""

    def select_tasks(
        self,
        payload: Mapping[str, Any],
        num_tasks: int,
        rng: random.Random,
    ) -> Sequence[int]:
        """Return the task indices (subset of ``range(num_tasks)``) that
        should receive this tuple."""
        raise NotImplementedError

    def _check_num_tasks(self, num_tasks: int) -> None:
        if num_tasks < 1:
            raise RoutingError(f"num_tasks must be >= 1, got {num_tasks}")


class ShuffleGrouping(Grouping):
    """Route each tuple to a uniformly random task (Storm's default).

    This is the closest discipline to the model's load-balancing
    assumption: in expectation every task receives an equal share.
    """

    def select_tasks(self, payload, num_tasks, rng):
        self._check_num_tasks(num_tasks)
        return (rng.randrange(num_tasks),)

    def __repr__(self) -> str:
        return "ShuffleGrouping()"


class FieldsGrouping(Grouping):
    """Hash-partition on the values of the named payload fields.

    Tuples with equal key fields always land on the same task, which is
    what stateful operators (e.g. the FPD detector) require.  Skewed keys
    produce unequal load — one of the model-assumption violations the
    paper's experiments exercise.
    """

    def __init__(self, fields: Sequence[str]):
        if not fields:
            raise RoutingError("FieldsGrouping requires at least one field")
        self._fields = tuple(fields)

    @property
    def fields(self) -> Sequence[str]:
        return self._fields

    def select_tasks(self, payload, num_tasks, rng):
        self._check_num_tasks(num_tasks)
        try:
            key = tuple(payload[f] for f in self._fields)
        except KeyError as missing:
            raise RoutingError(
                f"tuple payload missing grouping field {missing}"
            ) from None
        # A stable multiplicative-xor hash: Python's hash() is salted per
        # process for str keys, which would break reproducibility.
        acc = 0x9E3779B97F4A7C15
        for part in key:
            for byte in repr(part).encode("utf-8"):
                acc ^= byte
                acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return (acc % num_tasks,)

    def __repr__(self) -> str:
        return f"FieldsGrouping(fields={list(self._fields)})"


class GlobalGrouping(Grouping):
    """Route every tuple to task 0 (Storm's global grouping)."""

    def select_tasks(self, payload, num_tasks, rng):
        self._check_num_tasks(num_tasks)
        return (0,)

    def __repr__(self) -> str:
        return "GlobalGrouping()"


class BroadcastGrouping(Grouping):
    """Replicate each tuple to every task (Storm's *all* grouping).

    The FPD detector's feedback loop uses this: a state-change
    notification must reach every detector instance because each holds
    only a portion of the state records.
    """

    def select_tasks(self, payload, num_tasks, rng):
        self._check_num_tasks(num_tasks)
        return tuple(range(num_tasks))

    def __repr__(self) -> str:
        return "BroadcastGrouping()"


class LocalOrShuffleGrouping(Grouping):
    """Prefer tasks co-located with the sender; fall back to shuffle.

    The simulator passes the sender's machine through the payload under
    the reserved ``__machine__`` key together with a ``__local_tasks__``
    map; when absent this degrades gracefully to shuffle.
    """

    RESERVED_MACHINE_KEY = "__machine__"
    RESERVED_LOCAL_TASKS_KEY = "__local_tasks__"

    def select_tasks(self, payload, num_tasks, rng):
        self._check_num_tasks(num_tasks)
        local_map = payload.get(self.RESERVED_LOCAL_TASKS_KEY)
        machine = payload.get(self.RESERVED_MACHINE_KEY)
        if local_map and machine is not None:
            local = [t for t in local_map.get(machine, ()) if t < num_tasks]
            if local:
                return (local[rng.randrange(len(local))],)
        return (rng.randrange(num_tasks),)

    def __repr__(self) -> str:
        return "LocalOrShuffleGrouping()"
