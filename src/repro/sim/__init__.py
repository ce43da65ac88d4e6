"""Discrete-event simulation of a Storm-like CSP layer.

The paper evaluates DRS on a 6-machine Storm cluster.  Without that
hardware we substitute a discrete-event simulator that reproduces the
behaviours DRS interacts with:

- machines hosting a bounded number of executor slots
  (:mod:`repro.sim.cluster`);
- spouts emitting external tuples from arrival processes, bolts pulling
  from queues and emitting downstream with per-edge fan-out, routed by
  Storm-style groupings (:mod:`repro.sim.runtime`), with platform
  churn, backpressure and closed-loop clients as opt-in features
  (:mod:`repro.sim.features`);
- acker-style tuple-tree completion for sojourn measurement;
- rebalancing with configurable cost models — Storm's stop-the-world
  default vs. the authors' improved JVM-reuse version
  (:mod:`repro.sim.rebalancing`);
- machine provisioning with boot/stop delays
  (:mod:`repro.sim.negotiator`).

The DRS layer (measurer, optimiser, scheduler) runs unmodified on top:
it only consumes measured rates and sojourn times, exactly as it would
on a real cluster.
"""

from repro.sim.engine import Simulator
from repro.sim.cluster import Machine, Cluster
from repro.sim.rebalancing import RebalanceCostModel, RebalanceStyle
from repro.sim.negotiator import SimResourceNegotiator
from repro.sim.runtime import TopologyRuntime, RuntimeOptions, RunStats

__all__ = [
    "Simulator",
    "Machine",
    "Cluster",
    "RebalanceCostModel",
    "RebalanceStyle",
    "SimResourceNegotiator",
    "TopologyRuntime",
    "RuntimeOptions",
    "RunStats",
]
