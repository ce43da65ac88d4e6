"""Topology loading from plain dicts — config-driven pipelines.

Lets users describe an application in JSON/YAML (loaded by any parser
into a dict) and hand it to DRS without writing builder code::

    spec = {
        "name": "vld",
        "spouts": [{"name": "frames", "rate": 13.0}],
        "operators": [
            {"name": "sift",
             "service_time": {"type": "lognormal", "mean": 0.571, "scv": 1.5}},
            {"name": "matcher", "mu": 17.5},
            {"name": "aggregator", "mu": 150.0},
        ],
        "edges": [
            {"source": "frames", "target": "sift"},
            {"source": "sift", "target": "matcher", "gain": 10.0},
            {"source": "matcher", "target": "aggregator", "gain": 0.3,
             "grouping": {"type": "fields", "fields": ["root"]}},
        ],
    }
    topology = topology_from_dict(spec)

Service times and fan-outs take any :func:`distribution_from_spec` kind;
spouts take a Poisson ``rate`` or a ``uniform_rate`` range.  The loader
is one-way: nothing serialises a built :class:`Topology` back to a dict.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.exceptions import TopologyError
from repro.randomness.arrival import UniformRateProcess
from repro.randomness.distributions import distribution_from_spec
from repro.topology.builder import TopologyBuilder
from repro.topology.graph import Topology
from repro.topology.grouping import (
    BroadcastGrouping,
    FieldsGrouping,
    GlobalGrouping,
    Grouping,
    LocalOrShuffleGrouping,
    ShuffleGrouping,
)


_GROUPING_BUILDERS = {
    "shuffle": lambda spec: ShuffleGrouping(),
    "fields": lambda spec: FieldsGrouping(spec["fields"]),
    "global": lambda spec: GlobalGrouping(),
    "broadcast": lambda spec: BroadcastGrouping(),
    "local_or_shuffle": lambda spec: LocalOrShuffleGrouping(),
}


def _grouping_from_spec(spec: Mapping[str, Any]) -> Grouping:
    kind = str(spec.get("type", "shuffle")).lower()
    builder = _GROUPING_BUILDERS.get(kind)
    if builder is None:
        known = ", ".join(sorted(_GROUPING_BUILDERS))
        raise TopologyError(f"unknown grouping type {kind!r}; known: {known}")
    try:
        return builder(spec)
    except KeyError as missing:
        raise TopologyError(f"grouping spec for {kind!r} missing key {missing}")


def topology_from_dict(spec: Mapping[str, Any]) -> Topology:
    """Build a :class:`Topology` from a plain-dict description."""
    for key in ("name", "spouts", "operators", "edges"):
        if key not in spec:
            raise TopologyError(f"topology spec missing key {key!r}")
    builder = TopologyBuilder(spec["name"])
    for spout in spec["spouts"]:
        if "name" not in spout:
            raise TopologyError("spout spec missing 'name'")
        if "rate" in spout:
            builder.add_spout(spout["name"], rate=float(spout["rate"]))
        elif "uniform_rate" in spout:
            bounds = spout["uniform_rate"]
            builder.add_spout(
                spout["name"],
                arrivals=UniformRateProcess(
                    float(bounds["low"]), float(bounds["high"])
                ),
            )
        else:
            raise TopologyError(
                f"spout {spout['name']!r} needs 'rate' or 'uniform_rate'"
            )
    for operator in spec["operators"]:
        if "name" not in operator:
            raise TopologyError("operator spec missing 'name'")
        kwargs: Dict[str, Any] = {
            "stateful": bool(operator.get("stateful", False))
        }
        if "mu" in operator:
            kwargs["mu"] = float(operator["mu"])
        elif "service_time" in operator:
            kwargs["service_time"] = distribution_from_spec(
                operator["service_time"]
            )
        else:
            raise TopologyError(
                f"operator {operator['name']!r} needs 'mu' or 'service_time'"
            )
        builder.add_operator(operator["name"], **kwargs)
    for edge in spec["edges"]:
        for key in ("source", "target"):
            if key not in edge:
                raise TopologyError(f"edge spec missing {key!r}")
        kwargs = {"gain": float(edge.get("gain", 1.0))}
        if "grouping" in edge:
            kwargs["grouping"] = _grouping_from_spec(edge["grouping"])
        if "fanout" in edge:
            kwargs["fanout"] = distribution_from_spec(edge["fanout"])
        builder.connect(edge["source"], edge["target"], **kwargs)
    return builder.build()
