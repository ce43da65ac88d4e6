"""Tests for topology dict (de)serialisation."""

import json

import pytest

from repro.exceptions import TopologyError
from repro.model import PerformanceModel
from repro.scheduler import assign_processors
from repro.topology import FieldsGrouping, topology_from_dict


VLD_SPEC = {
    "name": "vld",
    "spouts": [{"name": "frames", "uniform_rate": {"low": 1.0, "high": 25.0}}],
    "operators": [
        {
            "name": "sift",
            "service_time": {"type": "lognormal", "mean": 0.5714, "scv": 1.5},
        },
        {"name": "matcher", "mu": 17.5},
        {"name": "aggregator", "mu": 150.0, "stateful": True},
    ],
    "edges": [
        {"source": "frames", "target": "sift"},
        {"source": "sift", "target": "matcher", "gain": 10.0},
        {
            "source": "matcher",
            "target": "aggregator",
            "gain": 0.3,
            "grouping": {"type": "fields", "fields": ["root"]},
        },
    ],
}


class TestFromDict:
    def test_builds_vld(self):
        topology = topology_from_dict(VLD_SPEC)
        assert topology.operator_names == ("sift", "matcher", "aggregator")
        assert topology.external_rate == pytest.approx(13.0)
        assert topology.operator("aggregator").stateful

    def test_model_usable(self):
        topology = topology_from_dict(VLD_SPEC)
        model = PerformanceModel.from_topology(topology)
        allocation = assign_processors(model, 22)
        assert allocation.total == 22

    def test_grouping_restored(self):
        topology = topology_from_dict(VLD_SPEC)
        edge = topology.in_edges("aggregator")[0]
        assert isinstance(edge.grouping, FieldsGrouping)
        assert list(edge.grouping.fields) == ["root"]

    def test_json_round_trip_of_spec(self):
        """The spec survives a JSON encode/decode (config-file path)."""
        loaded = json.loads(json.dumps(VLD_SPEC))
        topology = topology_from_dict(loaded)
        assert topology.name == "vld"

    def test_missing_key_rejected(self):
        with pytest.raises(TopologyError, match="missing key"):
            topology_from_dict({"name": "x", "spouts": [], "operators": []})

    def test_bad_spout_rejected(self):
        spec = dict(VLD_SPEC, spouts=[{"name": "s"}])
        with pytest.raises(TopologyError, match="rate"):
            topology_from_dict(spec)

    def test_bad_operator_rejected(self):
        spec = dict(VLD_SPEC, operators=[{"name": "op"}])
        with pytest.raises(TopologyError, match="mu"):
            topology_from_dict(spec)

    def test_distribution_parameters_preserved(self):
        topology = topology_from_dict(
            {
                "name": "t",
                "spouts": [{"name": "s", "rate": 2.0}],
                "operators": [
                    {"name": "det",
                     "service_time": {"type": "deterministic", "value": 0.25}},
                    {"name": "log",
                     "service_time": {"type": "lognormal", "mean": 0.5, "scv": 2.0}},
                ],
                "edges": [
                    {"source": "s", "target": "det"},
                    {"source": "det", "target": "log"},
                ],
            }
        )
        assert topology.operator("det").service_time.mean == pytest.approx(0.25)
        assert topology.operator("log").service_time.scv == pytest.approx(2.0)

    def test_unknown_grouping_rejected(self):
        spec = json.loads(json.dumps(VLD_SPEC))
        spec["edges"][0]["grouping"] = {"type": "rainbow"}
        with pytest.raises(TopologyError, match="unknown grouping"):
            topology_from_dict(spec)
