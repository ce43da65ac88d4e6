"""Tests for DRSConfig and the scenario-block parsers."""

import pytest

from repro.config import (
    ClusterSpec,
    DRSConfig,
    MeasurementConfig,
    OptimizationGoal,
    SmoothingKind,
    cluster_from_dict,
    measurement_from_dict,
)
from repro.exceptions import ConfigurationError


class TestDRSConfig:
    def test_min_sojourn_requires_kmax(self):
        with pytest.raises(ConfigurationError, match="kmax"):
            DRSConfig(goal=OptimizationGoal.MIN_SOJOURN)

    def test_min_resource_requires_tmax(self):
        with pytest.raises(ConfigurationError, match="tmax"):
            DRSConfig(goal=OptimizationGoal.MIN_RESOURCE)

    def test_valid_min_sojourn(self):
        config = DRSConfig(goal=OptimizationGoal.MIN_SOJOURN, kmax=22)
        assert config.kmax == 22

    def test_valid_min_resource(self):
        config = DRSConfig(goal=OptimizationGoal.MIN_RESOURCE, tmax=1.5)
        assert config.tmax == 1.5

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ConfigurationError):
            DRSConfig(kmax=1, rebalance_threshold=1.5)
        with pytest.raises(ConfigurationError):
            DRSConfig(kmax=1, migration_cost=-1.0)
        with pytest.raises(ConfigurationError):
            DRSConfig(kmax=1, scale_in_safety=0.0)
        with pytest.raises(ConfigurationError):
            DRSConfig(kmax=1, headroom=-0.1)


class TestMeasurementConfig:
    def test_defaults_valid(self):
        config = MeasurementConfig()
        assert config.sample_every >= 1

    def test_rejects_bad_nm(self):
        with pytest.raises(ConfigurationError):
            MeasurementConfig(sample_every=0)

    def test_rejects_bad_tm(self):
        with pytest.raises(ConfigurationError):
            MeasurementConfig(pull_interval=0.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            MeasurementConfig(alpha=1.0)


class TestClusterSpecValidation:
    def test_rejects_bad_slots(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(slots_per_machine=0)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(min_machines=5, max_machines=2)


class TestFromDict:
    def test_measurement_section_parsed(self):
        config = measurement_from_dict(
            {
                "sample_every": 5,
                "pull_interval": 20.0,
                "smoothing": "window",
                "window": 8,
            }
        )
        assert config.smoothing is SmoothingKind.WINDOW
        assert config.window == 8

    def test_cluster_section_parsed(self):
        cluster = cluster_from_dict({"slots_per_machine": 4, "reserved_executors": 2})
        assert cluster.slots_per_machine == 4

    def test_unknown_smoothing_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown smoothing"):
            measurement_from_dict({"smoothing": "kalman"})

    def test_bad_section_type_rejected(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            cluster_from_dict("big")

    def test_bad_section_key_rejected(self):
        with pytest.raises(ConfigurationError, match="cluster"):
            cluster_from_dict({"floors": 3})

    def test_enum_passthrough(self):
        config = measurement_from_dict({"smoothing": SmoothingKind.WINDOW})
        assert config.smoothing is SmoothingKind.WINDOW
