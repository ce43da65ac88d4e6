"""Cluster model: machines with bounded executor slots.

Mirrors the paper's testbed accounting: each machine hosts at most
``slots`` executors ("we configured each of these 5 machines so that one
machine can host at most 5 executors"), some of which are reserved for
spouts and the DRS executor.  The cluster answers placement questions
(how many bolt executors fit) and tracks which machines are up, booting
or stopping — the state the negotiator manipulates.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.exceptions import NegotiationError, SimulationError


class MachineState(enum.Enum):
    """Lifecycle of a simulated machine."""

    BOOTING = "booting"
    RUNNING = "running"
    STOPPING = "stopping"
    STOPPED = "stopped"


class Machine:
    """One physical (or virtual) machine with a fixed slot count."""

    def __init__(self, machine_id: int, slots: int):
        if slots < 1:
            raise SimulationError(f"machine needs >= 1 slot, got {slots}")
        self._id = machine_id
        self._slots = slots
        self._state = MachineState.BOOTING
        self._boot_completed_at: Optional[float] = None

    @property
    def machine_id(self) -> int:
        return self._id

    @property
    def slots(self) -> int:
        return self._slots

    @property
    def state(self) -> MachineState:
        return self._state

    @property
    def is_running(self) -> bool:
        return self._state is MachineState.RUNNING

    def mark_running(self, now: float) -> None:
        if self._state is not MachineState.BOOTING:
            raise SimulationError(
                f"machine {self._id} cannot finish boot from {self._state}"
            )
        self._state = MachineState.RUNNING
        self._boot_completed_at = now

    def mark_stopping(self) -> None:
        if self._state is not MachineState.RUNNING:
            raise SimulationError(
                f"machine {self._id} cannot stop from {self._state}"
            )
        self._state = MachineState.STOPPING

    def mark_stopped(self) -> None:
        if self._state is not MachineState.STOPPING:
            raise SimulationError(
                f"machine {self._id} cannot finish stopping from {self._state}"
            )
        self._state = MachineState.STOPPED

    def __repr__(self) -> str:
        return f"Machine(id={self._id}, slots={self._slots}, {self._state.value})"


class Cluster:
    """The pool of machines hosting the topology's executors."""

    def __init__(self, slots_per_machine: int = 5, reserved_executors: int = 3):
        if slots_per_machine < 1:
            raise SimulationError("slots_per_machine must be >= 1")
        if reserved_executors < 0:
            raise SimulationError("reserved_executors must be >= 0")
        self._slots_per_machine = slots_per_machine
        self._reserved = reserved_executors
        self._machines: Dict[int, Machine] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def add_machine(self) -> Machine:
        """Create a machine in BOOTING state; returns it."""
        machine = Machine(self._next_id, self._slots_per_machine)
        self._machines[self._next_id] = machine
        self._next_id += 1
        return machine

    def machine(self, machine_id: int) -> Machine:
        try:
            return self._machines[machine_id]
        except KeyError:
            raise NegotiationError(f"unknown machine {machine_id}") from None

    def remove_stopped(self) -> int:
        """Garbage-collect fully stopped machines; returns count removed."""
        stopped = [
            mid
            for mid, machine in self._machines.items()
            if machine.state is MachineState.STOPPED
        ]
        for mid in stopped:
            del self._machines[mid]
        return len(stopped)

    # ------------------------------------------------------------------
    # capacity accounting
    # ------------------------------------------------------------------
    @property
    def slots_per_machine(self) -> int:
        return self._slots_per_machine

    @property
    def reserved_executors(self) -> int:
        return self._reserved

    @property
    def running_machines(self) -> List[Machine]:
        return [m for m in self._machines.values() if m.is_running]

    @property
    def num_running(self) -> int:
        return len(self.running_machines)

    @property
    def num_total(self) -> int:
        return len(self._machines)

    @property
    def bolt_capacity(self) -> int:
        """Bolt-executor slots on running machines (the runtime ``Kmax``)."""
        total = sum(m.slots for m in self.running_machines)
        return max(0, total - self._reserved)

    def can_host(self, bolt_executors: int) -> bool:
        """True iff the running machines can host this many bolt executors."""
        return bolt_executors <= self.bolt_capacity

    def __repr__(self) -> str:
        return (
            f"Cluster(running={self.num_running}/{self.num_total},"
            f" bolt_capacity={self.bolt_capacity})"
        )
