"""Operator-topology model: spouts, bolts, streams, groupings, routing.

A :class:`~repro.topology.graph.Topology` is the static description of a
streaming application — the directed graph of Fig. 1/2 in the paper,
with splits, joins and feedback loops all allowed.  It is consumed by

- the queueing model (:mod:`repro.queueing`), which needs per-edge mean
  *gains* (selectivities) to solve the traffic equations; and
- the simulator (:mod:`repro.sim`), which additionally needs per-tuple
  fan-out samplers and groupings to route concrete tuples to executors.
"""

from repro.topology.graph import Operator, Spout, Edge, Topology
from repro.topology.grouping import (
    Grouping,
    ShuffleGrouping,
    FieldsGrouping,
    GlobalGrouping,
    BroadcastGrouping,
    LocalOrShuffleGrouping,
)
from repro.topology.builder import TopologyBuilder
from repro.topology.routing import GainMatrix, external_arrival_vector
from repro.topology.serialization import topology_from_dict

__all__ = [
    "Operator",
    "Spout",
    "Edge",
    "Topology",
    "Grouping",
    "ShuffleGrouping",
    "FieldsGrouping",
    "GlobalGrouping",
    "BroadcastGrouping",
    "LocalOrShuffleGrouping",
    "TopologyBuilder",
    "GainMatrix",
    "external_arrival_vector",
    "topology_from_dict",
]
