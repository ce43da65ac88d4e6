"""Shared experiment machinery.

Two modes mirror the paper's two experiment families:

- **passive** (:func:`run_passive`): DRS monitors and recommends but
  never rebalances — used by Fig. 6/7/8 and as the "re-balancing
  disabled" phase of Fig. 9/10;
- **active** (:class:`DRSBinding`): the controller's decisions are
  applied to the running topology (rebalance / machine scaling), with an
  ``enable_at`` switch reproducing the paper's "disabled until the end
  of the 13th minute, enabled afterwards" protocol.

The generic execution layer lives in :mod:`repro.scenarios`:
:class:`DRSBinding` is a :class:`~repro.scenarios.binding.PolicyBinding`
specialised to a raw :class:`DRSController`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.config import DRSConfig, OptimizationGoal
from repro.scenarios.binding import PolicyBinding
from repro.scenarios.policies import DRSControllerPolicy
from repro.scheduler.allocation import Allocation
from repro.scheduler.controller import DRSController
from repro.sim.engine import Simulator
from repro.sim.negotiator import SimResourceNegotiator
from repro.sim.runtime import RunStats, RuntimeOptions, TopologyRuntime
from repro.topology.graph import Topology


def run_passive(
    topology: Topology,
    allocation: Allocation,
    duration: float,
    *,
    options: Optional[RuntimeOptions] = None,
    warmup: float = 0.0,
) -> Tuple[RunStats, TopologyRuntime]:
    """Run a fixed allocation for ``duration`` simulated seconds.

    Returns the (warmup-trimmed) statistics and the runtime for further
    inspection (reports, timeline, conservation checks).
    """
    simulator = Simulator()
    runtime = TopologyRuntime(simulator, topology, allocation, options)
    runtime.start()
    simulator.run_until(duration)
    return runtime.stats(warmup=warmup), runtime


class DRSBinding(PolicyBinding):
    """Wires a :class:`DRSController` to a live simulated topology.

    A :class:`PolicyBinding` whose policy is the DRS controller itself;
    kept as the convenience entry point for controller-level tests and
    examples.
    """

    def __init__(
        self,
        runtime: TopologyRuntime,
        controller: DRSController,
        *,
        negotiator: Optional[SimResourceNegotiator] = None,
        enable_at: float = 0.0,
        min_action_gap: float = 30.0,
    ):
        super().__init__(
            runtime,
            DRSControllerPolicy(controller),
            negotiator=negotiator,
            enable_at=enable_at,
            min_action_gap=min_action_gap,
        )
        self._controller = controller

    @property
    def controller(self) -> DRSController:
        return self._controller


def make_kmax_controller(
    topology: Topology,
    kmax: int,
    *,
    migration_cost: float = 5.0,
    rebalance_threshold: float = 0.05,
) -> DRSController:
    """Convenience: a MIN_SOJOURN controller for the given topology."""
    config = DRSConfig(
        goal=OptimizationGoal.MIN_SOJOURN,
        kmax=kmax,
        migration_cost=migration_cost,
        rebalance_threshold=rebalance_threshold,
    )
    return DRSController(list(topology.operator_names), config)
