"""Placement policies: which machine hosts each executor.

A placement policy turns ``(topology, allocation, machines)`` into a
per-operator tuple of machine indices — executor ``i`` of operator
``o`` runs on ``pattern[o][i]``.  Policies are registered in
:data:`PLACEMENTS`, a :class:`repro.utils.registry.Registry` like the
scheduling-policy and arrival-model ones, so a platform block names its
placement the same way a scenario names its policy::

    {"placement": {"kind": "round_robin"}}

Factories receive a *mutable copy* of the parameters and must consume
every key they understand; leftovers are rejected so platform typos
fail loudly instead of silently placing everything on one machine.

>>> sorted(available_placements())
['colocated', 'heterogeneous', 'round_robin']
>>> create_placement(None).to_dict()
{'kind': 'colocated'}

Built-in kinds
--------------
- ``colocated`` — every executor on one machine (the first, or the
  named ``machine``).  All transfers are intra-machine and free: the
  closest platform analogue of the legacy zero-hop runtime.
- ``round_robin`` — executors rotate across machines in declaration
  order, operator by operator, spreading load uniformly.
- ``heterogeneous`` — machines are pooled into speed classes and
  :func:`repro.scheduler.heterogeneous.assign_heterogeneous` (the
  paper's Sec. III-A heterogeneous generalisation of Algorithm 1)
  decides which classes serve which operator; the resulting class mix
  is scaled to the actual allocation.  The model-predicted sojourn of
  the full assignment (:func:`expected_sojourn_heterogeneous`) is kept
  on the policy as ``predicted_sojourn`` for reports and tests.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, MutableMapping, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.model.performance import PerformanceModel
from repro.scheduler.allocation import Allocation
from repro.scheduler.heterogeneous import (
    ProcessorClass,
    assign_heterogeneous,
    expected_sojourn_heterogeneous,
)
from repro.topology.graph import Topology
from repro.utils.registry import Registry


class PlacementPolicy:
    """Abstract placement policy.

    ``place`` returns, for every operator, a machine-index tuple whose
    length equals the operator's allocated parallelism.  ``to_dict()``
    must round-trip through :func:`create_placement`; the campaign
    layer relies on it for content addressing.
    """

    #: Registry kind, as registered in :data:`PLACEMENTS`.
    kind: str = ""

    def place(
        self,
        topology: Topology,
        allocation: Allocation,
        machines: Tuple,
    ) -> Dict[str, Tuple[int, ...]]:
        """Machine index per executor, keyed by operator name."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready parameters, including the ``kind`` key."""
        raise NotImplementedError


#: Every registered placement policy.
PLACEMENTS = Registry("placement")

register_placement = PLACEMENTS.register
available_placements = PLACEMENTS.available


def create_placement(spec: Optional[Mapping[str, Any]]) -> PlacementPolicy:
    """Build the placement a platform block names (default: colocated)."""
    return PLACEMENTS.from_spec(spec, default="colocated")


# ----------------------------------------------------------------------
# built-in policies
# ----------------------------------------------------------------------
class ColocatedPlacement(PlacementPolicy):
    """Everything on one machine: all transfers are free."""

    kind = "colocated"

    def __init__(self, machine: Optional[str] = None):
        self.machine = machine

    def place(self, topology, allocation, machines):
        index = 0
        if self.machine is not None:
            names = [m.name for m in machines]
            if self.machine not in names:
                raise ConfigurationError(
                    f"colocated placement names unknown machine"
                    f" {self.machine!r}; machines: {names}"
                )
            index = names.index(self.machine)
        return {
            name: (index,) * allocation[name]
            for name in topology.operator_names
        }

    def to_dict(self):
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.machine is not None:
            payload["machine"] = self.machine
        return payload


class RoundRobinPlacement(PlacementPolicy):
    """Rotate executors across machines in declaration order."""

    kind = "round_robin"

    def place(self, topology, allocation, machines):
        count = len(machines)
        patterns: Dict[str, Tuple[int, ...]] = {}
        cursor = 0
        for name in topology.operator_names:
            k = allocation[name]
            patterns[name] = tuple(
                (cursor + i) % count for i in range(k)
            )
            cursor += k
        return patterns

    def to_dict(self):
        return {"kind": self.kind}


class HeterogeneousPlacement(PlacementPolicy):
    """Speed-aware placement driven by the paper's heterogeneous solver.

    Machines are grouped into :class:`ProcessorClass` pools by speed
    (``count`` = the pooled slots), ``assign_heterogeneous`` decides
    each operator's class mix from the topology's queueing model, and
    the mix is scaled to the actual allocation: executor ``i`` cycles
    through the machines of the classes the solver picked, fastest
    class first.
    """

    kind = "heterogeneous"

    def __init__(self) -> None:
        #: Model-predicted E[T] of the full heterogeneous assignment,
        #: set by :meth:`place` (``expected_sojourn_heterogeneous``).
        self.predicted_sojourn: Optional[float] = None

    def place(self, topology, allocation, machines):
        if not machines:
            raise ConfigurationError(
                "heterogeneous placement needs at least one machine"
            )
        # One processor class per distinct speed; members keep
        # declaration order so the expansion below is deterministic.
        by_speed: Dict[float, List[int]] = {}
        for index, machine in enumerate(machines):
            by_speed.setdefault(machine.speed, []).append(index)
        classes = tuple(
            ProcessorClass(
                name=f"speed={speed!r}",
                speed=speed,
                count=sum(machines[i].slots for i in members),
            )
            for speed, members in sorted(by_speed.items(), reverse=True)
        )
        model = PerformanceModel.from_topology(topology)
        assignment = assign_heterogeneous(model, classes)
        self.predicted_sojourn = expected_sojourn_heterogeneous(
            model, assignment
        )
        class_members = {
            f"speed={speed!r}": members
            for speed, members in by_speed.items()
        }
        fastest = max(range(len(machines)), key=lambda i: machines[i].speed)
        patterns: Dict[str, Tuple[int, ...]] = {}
        for name in topology.operator_names:
            mix = assignment.counts(name)
            sequence: List[int] = []
            for cls in classes:  # fastest class first
                members = class_members[cls.name]
                for j in range(mix.get(cls.name, 0)):
                    sequence.append(members[j % len(members)])
            if not sequence:
                sequence = [fastest]
            k = allocation[name]
            patterns[name] = tuple(sequence[i % len(sequence)] for i in range(k))
        return patterns

    def to_dict(self):
        return {"kind": self.kind}


@register_placement(
    "colocated",
    "every executor on one machine; all transfers intra-machine (free)",
)
def _make_colocated(params: MutableMapping[str, Any]) -> PlacementPolicy:
    machine = params.pop("machine", None)
    if machine is not None and not isinstance(machine, str):
        raise ConfigurationError(
            f"colocated 'machine' must be a machine name, got {machine!r}"
        )
    return ColocatedPlacement(machine=machine)


@register_placement(
    "round_robin",
    "rotate executors across machines in declaration order",
)
def _make_round_robin(params: MutableMapping[str, Any]) -> PlacementPolicy:
    return RoundRobinPlacement()


@register_placement(
    "heterogeneous",
    "speed-aware placement via assign_heterogeneous (Sec. III-A greedy)",
)
def _make_heterogeneous(params: MutableMapping[str, Any]) -> PlacementPolicy:
    return HeterogeneousPlacement()
