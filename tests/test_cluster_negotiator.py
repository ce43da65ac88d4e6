"""Tests for the cluster model, rebalance costs, and the negotiator."""

import pytest

from repro.config import ClusterSpec
from repro.exceptions import NegotiationError, SimulationError
from repro.sim import (
    Cluster,
    RebalanceCostModel,
    RebalanceStyle,
    SimResourceNegotiator,
    Simulator,
)
from repro.sim.cluster import MachineState


class TestMachineLifecycle:
    def test_boot_then_run(self):
        cluster = Cluster(5, 3)
        machine = cluster.add_machine()
        assert machine.state is MachineState.BOOTING
        machine.mark_running(0.0)
        assert machine.is_running

    def test_invalid_transitions_rejected(self):
        cluster = Cluster(5, 3)
        machine = cluster.add_machine()
        with pytest.raises(SimulationError):
            machine.mark_stopping()  # not running yet
        machine.mark_running(0.0)
        with pytest.raises(SimulationError):
            machine.mark_running(1.0)


class TestClusterCapacity:
    def test_paper_accounting(self):
        """5 machines x 5 slots - 3 reserved = Kmax 22; 4 machines = 17."""
        cluster = Cluster(slots_per_machine=5, reserved_executors=3)
        for _ in range(5):
            cluster.add_machine().mark_running(0.0)
        assert cluster.bolt_capacity == 22
        assert cluster.can_host(22)
        assert not cluster.can_host(23)

    def test_booting_machines_do_not_count(self):
        cluster = Cluster(5, 3)
        cluster.add_machine().mark_running(0.0)
        cluster.add_machine()  # still booting
        assert cluster.num_running == 1
        assert cluster.bolt_capacity == 2

    def test_remove_stopped(self):
        cluster = Cluster(5, 3)
        machine = cluster.add_machine()
        machine.mark_running(0.0)
        machine.mark_stopping()
        machine.mark_stopped()
        assert cluster.remove_stopped() == 1
        assert cluster.num_total == 0


class TestClusterSpec:
    def test_kmax_for_machines(self):
        spec = ClusterSpec(slots_per_machine=5, reserved_executors=3)
        assert spec.kmax_for_machines(5) == 22
        assert spec.kmax_for_machines(4) == 17

    def test_machines_for_executors(self):
        spec = ClusterSpec(slots_per_machine=5, reserved_executors=3)
        assert spec.machines_for_executors(22) == 5
        assert spec.machines_for_executors(17) == 4
        assert spec.machines_for_executors(18) == 5

    def test_roundtrip(self):
        spec = ClusterSpec()
        for machines in range(1, 10):
            kmax = spec.kmax_for_machines(machines)
            assert spec.machines_for_executors(kmax) == machines


class TestRebalanceCostModel:
    def test_styles_ordered(self):
        default = RebalanceCostModel(style=RebalanceStyle.STORM_DEFAULT)
        improved = RebalanceCostModel(style=RebalanceStyle.IMPROVED)
        instant = RebalanceCostModel(style=RebalanceStyle.INSTANT)
        assert (
            default.pause_duration()
            > improved.pause_duration()
            > instant.pause_duration()
        )
        assert instant.pause_duration() == 0.0

    def test_boot_penalty_exceeds_stop_penalty(self):
        """The paper's ExpA (add machine) disrupts more than ExpB."""
        model = RebalanceCostModel()
        add = model.pause_duration(machines_added=1)
        remove = model.pause_duration(machines_removed=1)
        assert add > remove > model.pause_duration()

    def test_rejects_negative_deltas(self):
        with pytest.raises(SimulationError):
            RebalanceCostModel().pause_duration(machines_added=-1)

    def test_rejects_negative_costs(self):
        with pytest.raises(SimulationError):
            RebalanceCostModel(improved_pause=-1.0)


class TestNegotiator:
    def make(self, machines=4, boot_time=30.0):
        sim = Simulator()
        spec = ClusterSpec(
            slots_per_machine=5,
            reserved_executors=3,
            max_machines=10,
            machine_boot_time=boot_time,
        )
        cluster = Cluster(5, 3)
        negotiator = SimResourceNegotiator(sim, cluster, spec)
        negotiator.bootstrap(machines)
        return sim, cluster, negotiator

    def test_bootstrap(self):
        _, cluster, _ = self.make(4)
        assert cluster.num_running == 4

    def test_bootstrap_requires_empty(self):
        _, _, negotiator = self.make(4)
        with pytest.raises(NegotiationError):
            negotiator.bootstrap(1)

    def test_scale_out_takes_boot_time(self):
        sim, cluster, negotiator = self.make(4, boot_time=30.0)
        ready = []
        negotiator.scale_to(5, on_ready=lambda: ready.append(sim.now))
        assert negotiator.in_progress
        sim.run_until(29.0)
        assert cluster.num_running == 4
        sim.run_until(31.0)
        assert cluster.num_running == 5
        assert ready == [30.0]
        assert not negotiator.in_progress

    def test_scale_in_releases_immediately(self):
        sim, cluster, negotiator = self.make(5)
        ready = []
        negotiator.scale_to(4, on_ready=lambda: ready.append(sim.now))
        assert ready == [0.0]  # capacity released at once
        sim.run_until(10.0)
        assert cluster.num_running == 4
        assert cluster.num_total == 4  # stopped machine GC'd

    def test_noop_scale(self):
        sim, _, negotiator = self.make(4)
        ready = []
        negotiator.scale_to(4, on_ready=lambda: ready.append(True))
        assert ready == [True]

    def test_concurrent_scaling_rejected(self):
        sim, _, negotiator = self.make(4)
        negotiator.scale_to(5)
        with pytest.raises(NegotiationError, match="in progress"):
            negotiator.scale_to(6)

    def test_bounds_enforced(self):
        _, _, negotiator = self.make(4)
        with pytest.raises(NegotiationError):
            negotiator.scale_to(0)
        with pytest.raises(NegotiationError):
            negotiator.scale_to(11)
