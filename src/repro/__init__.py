"""DRS: Dynamic Resource Scheduling for Real-Time Analytics over Fast
Streams — a full reproduction of Fu et al., ICDCS 2015.

Public API tour
---------------

Model + optimiser (the paper's core contribution)::

    from repro import PerformanceModel, assign_processors, min_processors_for_target

    model = PerformanceModel.from_measurements(
        names=["sift", "matcher", "aggregator"],
        arrival_rates=[13.0, 130.0, 39.0],
        service_rates=[1.75, 17.5, 150.0],
        external_rate=13.0,
    )
    allocation = assign_processors(model, kmax=22)     # Program 4
    minimal = min_processors_for_target(model, tmax=2.0)  # Program 6

Simulated CSP layer + live control loop::

    from repro import Simulator, TopologyRuntime, RuntimeOptions
    from repro.apps import VLDWorkload
    from repro.experiments import DRSBinding

See ``examples/`` for complete programs and ``benchmarks/`` for the
reproduction of every table and figure in the paper's evaluation.
"""

from repro.config import (
    ClusterSpec,
    DRSConfig,
    MeasurementConfig,
    OptimizationGoal,
    SmoothingKind,
)
from repro.exceptions import (
    ConfigurationError,
    DRSError,
    InfeasibleAllocationError,
    MeasurementError,
    ModelError,
    NegotiationError,
    RoutingError,
    SchedulingError,
    SimulationError,
    StabilityError,
    TopologyError,
)
from repro.model import (
    ModelEstimate,
    PerformanceModel,
    PolynomialCalibrator,
    RefinedPerformanceModel,
)
from repro.queueing import JacksonNetwork, OperatorLoad
from repro.scheduler import (
    Allocation,
    ControllerAction,
    ControllerDecision,
    DRSController,
    RebalancePolicy,
    assign_processors,
    exhaustive_best_allocation,
    min_processors_for_target,
)
from repro.scheduler.controller import LoadSnapshot
from repro.sim import (
    Cluster,
    RebalanceCostModel,
    RebalanceStyle,
    RunStats,
    RuntimeOptions,
    SimResourceNegotiator,
    Simulator,
    TopologyRuntime,
)
from repro.topology import Topology, TopologyBuilder

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # config
    "ClusterSpec",
    "DRSConfig",
    "MeasurementConfig",
    "OptimizationGoal",
    "SmoothingKind",
    # exceptions
    "ConfigurationError",
    "DRSError",
    "InfeasibleAllocationError",
    "MeasurementError",
    "ModelError",
    "NegotiationError",
    "RoutingError",
    "SchedulingError",
    "SimulationError",
    "StabilityError",
    "TopologyError",
    # model
    "ModelEstimate",
    "PerformanceModel",
    "PolynomialCalibrator",
    "RefinedPerformanceModel",
    # queueing
    "JacksonNetwork",
    "OperatorLoad",
    # scheduler
    "Allocation",
    "ControllerAction",
    "ControllerDecision",
    "DRSController",
    "LoadSnapshot",
    "RebalancePolicy",
    "assign_processors",
    "exhaustive_best_allocation",
    "min_processors_for_target",
    # sim
    "Cluster",
    "RebalanceCostModel",
    "RebalanceStyle",
    "RunStats",
    "RuntimeOptions",
    "SimResourceNegotiator",
    "Simulator",
    "TopologyRuntime",
    # topology
    "Topology",
    "TopologyBuilder",
]
