"""Configuration objects and the configuration-reader module.

Paper Appendix B-C lists the parameters the configuration reader
manages: (a) the optimisation problem type (Program 4 vs Program 6);
(b) ``Kmax`` / ``Tmax``; (c) measurer parameters — sampling rate ``Nm``,
trigger interval ``Tm``, smoothing (``alpha`` or window ``w``); (d)
scheduler parameters — current allocation, re-allocation cost.
:class:`DRSConfig` bundles them; :func:`cluster_from_dict` and
:func:`measurement_from_dict` validate the ``cluster`` and
``measurement`` blocks of a scenario spec.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.exceptions import ConfigurationError


class OptimizationGoal(enum.Enum):
    """Which optimisation problem the optimiser solves."""

    MIN_SOJOURN = "min_sojourn"  # Program 4: best E[T] within Kmax
    MIN_RESOURCE = "min_resource"  # Program 6: fewest processors for Tmax


class SmoothingKind(enum.Enum):
    """Measurement-smoothing options (paper Appendix B)."""

    ALPHA = "alpha"  # D(n) = alpha*D(n-1) + (1-alpha)*d(n)
    WINDOW = "window"  # D(n) = mean of last w intervals


@dataclass(frozen=True)
class ClusterSpec:
    """Physical-cluster accounting used by the negotiator.

    The paper's testbed: 5 worker machines x 5 executor slots, with 2
    spout executors and 1 DRS executor reserved, giving ``Kmax = 22``
    bolt executors at 5 machines and ``Kmax = 17`` at 4.
    """

    slots_per_machine: int = 5
    reserved_executors: int = 3
    min_machines: int = 1
    max_machines: int = 100
    machine_boot_time: float = 30.0
    machine_stop_time: float = 2.0

    def __post_init__(self):
        if self.slots_per_machine < 1:
            raise ConfigurationError("slots_per_machine must be >= 1")
        if self.reserved_executors < 0:
            raise ConfigurationError("reserved_executors must be >= 0")
        if not 1 <= self.min_machines <= self.max_machines:
            raise ConfigurationError(
                "need 1 <= min_machines <= max_machines, got"
                f" [{self.min_machines}, {self.max_machines}]"
            )
        if self.machine_boot_time < 0 or self.machine_stop_time < 0:
            raise ConfigurationError("machine timings must be >= 0")

    def kmax_for_machines(self, machines: int) -> int:
        """Bolt-executor budget available on ``machines`` machines."""
        if machines < 1:
            raise ConfigurationError(f"machines must be >= 1, got {machines}")
        return machines * self.slots_per_machine - self.reserved_executors

    def machines_for_executors(self, executors: int) -> int:
        """Fewest machines able to host ``executors`` bolt executors."""
        if executors < 0:
            raise ConfigurationError(f"executors must be >= 0, got {executors}")
        total = executors + self.reserved_executors
        machines = -(-total // self.slots_per_machine)
        return max(self.min_machines, machines)


@dataclass(frozen=True)
class MeasurementConfig:
    """Measurer parameters (paper Appendix B).

    ``sample_every`` is the paper's ``Nm`` (record one tuple's metrics
    out of every ``Nm``); ``pull_interval`` is ``Tm`` (seconds between
    pulls by the central measurement operator); smoothing is either
    alpha-weighted (``alpha``) or window-based (``window``).
    """

    sample_every: int = 1
    pull_interval: float = 10.0
    smoothing: SmoothingKind = SmoothingKind.ALPHA
    alpha: float = 0.5
    window: int = 6

    def __post_init__(self):
        if self.sample_every < 1:
            raise ConfigurationError("sample_every (Nm) must be >= 1")
        if self.pull_interval <= 0:
            raise ConfigurationError("pull_interval (Tm) must be > 0")
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigurationError("alpha must be in [0, 1)")
        if self.window < 1:
            raise ConfigurationError("window (w) must be >= 1")


@dataclass(frozen=True)
class DRSConfig:
    """Complete DRS-layer configuration.

    Exactly one of ``kmax`` (Program 4) / ``tmax`` (Program 6) must be
    set, matching ``goal``.
    """

    goal: OptimizationGoal = OptimizationGoal.MIN_SOJOURN
    kmax: Optional[int] = None
    tmax: Optional[float] = None
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    migration_cost: float = 5.0
    amortisation_horizon: float = 600.0
    rebalance_threshold: float = 0.05
    # Headroom applied on top of Program 6's answer before translating to
    # machines: a 0.1 value provisions 10% extra executors.
    headroom: float = 0.0
    # Scale-in only happens when the smaller pool's (bias-corrected)
    # estimate stays below this fraction of Tmax — an asymmetric deadband
    # that prevents add/remove oscillation around the target.
    scale_in_safety: float = 0.8

    def __post_init__(self):
        if self.goal is OptimizationGoal.MIN_SOJOURN:
            if self.kmax is None:
                raise ConfigurationError("goal MIN_SOJOURN requires kmax")
            if self.kmax < 1:
                raise ConfigurationError(f"kmax must be >= 1, got {self.kmax}")
        elif self.goal is OptimizationGoal.MIN_RESOURCE:
            if self.tmax is None:
                raise ConfigurationError("goal MIN_RESOURCE requires tmax")
            if self.tmax <= 0:
                raise ConfigurationError(f"tmax must be > 0, got {self.tmax}")
        if self.migration_cost < 0:
            raise ConfigurationError("migration_cost must be >= 0")
        if self.amortisation_horizon <= 0:
            raise ConfigurationError("amortisation_horizon must be > 0")
        if not 0.0 <= self.rebalance_threshold <= 1.0:
            raise ConfigurationError("rebalance_threshold must be in [0, 1]")
        if self.headroom < 0:
            raise ConfigurationError("headroom must be >= 0")
        if not 0.0 < self.scale_in_safety <= 1.0:
            raise ConfigurationError("scale_in_safety must be in (0, 1]")


def _parse_smoothing(value: Any) -> SmoothingKind:
    if isinstance(value, SmoothingKind):
        return value
    try:
        return SmoothingKind(str(value))
    except ValueError:
        options = [s.value for s in SmoothingKind]
        raise ConfigurationError(
            f"unknown smoothing {value!r}; options: {options}"
        ) from None


def _parse_section(section: Mapping[str, Any], cls: type, name: str):
    if not isinstance(section, Mapping):
        raise ConfigurationError(f"{name} section must be a mapping")
    try:
        return cls(**dict(section))
    except TypeError as exc:
        raise ConfigurationError(f"bad {name} section: {exc}") from None


def cluster_from_dict(raw: Mapping[str, Any]) -> ClusterSpec:
    """Validated :class:`ClusterSpec` from a plain mapping."""
    return _parse_section(raw, ClusterSpec, "cluster")


def measurement_from_dict(raw: Mapping[str, Any]) -> MeasurementConfig:
    """Validated :class:`MeasurementConfig` from a plain mapping."""
    section = dict(raw)
    if "smoothing" in section:
        section["smoothing"] = _parse_smoothing(section["smoothing"])
    return _parse_section(section, MeasurementConfig, "measurement")
