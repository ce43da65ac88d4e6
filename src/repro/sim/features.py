"""Opt-in features of the topology runtime.

:class:`~repro.sim.runtime.TopologyRuntime` is a plain open-loop core;
it builds each class here only when its ``RuntimeOptions`` field is set
(``platform``, ``backpressure``, ``closed_loop``).  A feature registers
its own event kind (``_on_node_event``, ``_on_client``), replaces the
runtime hook it changes (``_overflow``, ``_root_exit``) and otherwise
acts through state the core reads anyway and leaves inert without it:
``executor.speed`` / ``executor.dead`` / ``route.transfer`` for the
platform, ``op.full`` and the ``full_routes`` counts for backpressure.
See the runtime module docstring for which hook each feature uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import SimulationError

if TYPE_CHECKING:
    from repro.sim.runtime import TopologyRuntime, _OperatorRuntime

#: A churn transition that fires during a rebalance pause retries after
#: this many simulated seconds (the pause has already torn every
#: executor down; the transition applies once the resume rebuilds them).
_CHURN_RETRY = 1.0


def _mean_transfer(matrix, sources, targets) -> float:
    """Mean link cost over every ``source × target`` machine pair.

    Routes carry one expected transfer delay rather than sampling the
    pair per tuple: the per-edge cost stays a single attribute read on
    the emission hot path and the mean is exact for the uniform
    executor choice the router makes.
    """
    total = 0.0
    for source in sources:
        row = matrix[source]
        for target in targets:
            total += row[target]
    return total / (len(sources) * len(targets))


class Platform:
    """Placement, link costs and machine churn of a bound platform."""

    def __init__(self, runtime: "TopologyRuntime", spec: Any, allocation, rng):
        self._rt = runtime
        binding = spec.bind(runtime.topology, allocation)
        self._binding = binding
        self._up = [True] * len(binding.machine_names)
        self._patterns: Dict[str, Tuple[int, ...]] = binding.patterns_for(allocation)
        for name, op in runtime._operators.items():
            self._pin(op, self._patterns[name])
        self._refresh_transfers()
        self._rng = rng
        self._kind = runtime.simulator.register_handler(self._on_node_event)

    def start(self) -> None:
        """Schedule the failure model's first transitions."""
        binding = self._binding
        schedule = self._rt.simulator.schedule_event
        for delay, machine, goes_down in binding.failure.initial_events(
            binding.machine_names, self._rng
        ):
            schedule(delay, self._kind, machine, 1 if goes_down else 0)

    def rebind(self, allocation) -> None:
        """Place a rebalance's fresh executors on the alive machines."""
        self._patterns = self._binding.patterns_for(allocation)
        for name, op in self._rt._operators.items():
            pattern = self._alive_pattern(name)
            if len(pattern) != len(op.executors):
                op.set_executors(len(pattern))
            self._pin(op, pattern)
        self._refresh_transfers()

    def _pin(self, op: "_OperatorRuntime", pattern: Tuple[int, ...]) -> None:
        """Bind each of ``op``'s freshly built executors to its machine
        (index + speed)."""
        speeds = self._binding.machine_speeds
        for executor, machine in zip(op.executors, pattern):
            executor.machine = machine
            executor.speed = speeds[machine]

    def _alive_pattern(self, name: str) -> Tuple[int, ...]:
        """The operator's placement restricted to machines that are up.

        Falls back to the full pattern when every hosting machine is
        down: the operator keeps serving on the (nominally dead)
        machines — degraded realism, but routing never deadlocks.
        """
        pattern = self._patterns[name]
        up = self._up
        alive = tuple(m for m in pattern if up[m])
        return alive if alive else pattern

    def _refresh_transfers(self) -> None:
        """Recompute each route's expected transfer delay.

        A route's delay is the mean link cost over the alive placement
        pairs of its source and target operators (spout routes use the
        ingress machine as source).  Recomputed after placement changes:
        start-up, rebalance, node churn.
        """
        matrix = self._binding.transfer
        ingress = (self._binding.ingress,)
        for source in self._rt._spout_sources:
            for route in source.routes:
                route.transfer = _mean_transfer(
                    matrix, ingress, self._alive_pattern(route.op.name)
                )
        for name, op in self._rt._operators.items():
            sources = self._alive_pattern(name)
            for route in op.out_routes:
                route.transfer = _mean_transfer(
                    matrix, sources, self._alive_pattern(route.op.name)
                )

    def _on_node_event(self, machine: int, flag: int) -> None:
        """Apply a ``node_down`` / ``node_up`` transition for ``machine``.

        Down: executors on the machine vanish — their queued tuples are
        redelivered to survivors (or dropped by the queue-limit / no-
        survivor machinery) and any in-service tuple dies when its
        finish event fires (``executor.dead``).  Up: the machine rejoins
        and placements grow back.  During a rebalance pause the
        transition retries shortly after, mirroring how real clusters
        serialise membership changes behind a rebalance.
        """
        rt = self._rt
        sim = rt._sim
        down = bool(flag)
        if rt._paused:
            sim.schedule_event(_CHURN_RETRY, self._kind, machine, flag)
            return
        up = self._up
        if up[machine] == down:  # a genuine state flip
            up[machine] = not down
            rt.node_events.append(
                (
                    sim._now,
                    self._binding.machine_names[machine],
                    "down" if down else "up",
                )
            )
            if down:
                for op in rt._operators.values():
                    for executor in op.executors:
                        if executor.busy and executor.machine == machine:
                            executor.dead = True
            redeliveries = []
            for name, op in rt._operators.items():
                if machine not in self._patterns[name]:
                    continue
                pattern = self._alive_pattern(name)
                displaced = op.resize(len(pattern))
                self._pin(op, pattern)
                if displaced:
                    redeliveries.append((op, displaced))
            self._refresh_transfers()
            for op, displaced in redeliveries:
                for payload in displaced:
                    rt._deliver(op, payload, None)
            if rt._backpressure is not None:
                rt._backpressure.sync()
        delay = self._binding.failure.next_delay(machine, down, self._rng)
        if delay is not None:
            sim.schedule_event(delay, self._kind, machine, 0 if down else 1)


class Backpressure:
    """A full queue pauses its producers instead of dropping tuples.

    An operator is ``full`` once an enqueue brings it to ``queue_limit``
    and stops being full when a service start takes it back below.
    Every flip updates the ``full_routes`` count of each upstream
    operator and spout source, once per route into the flipped queue.
    Paused sources and clients wait in ``_waiters`` as
    ``(blocked_since, source, resume, arg)`` and are retried, FIFO, each
    time a queue drains.
    """

    def __init__(self, runtime: "TopologyRuntime", limit: int):
        self._rt = runtime
        self._limit = limit
        self._blocked = 0.0
        self._waiters: List[Tuple[float, Any, Callable, Any]] = []
        ops = runtime._operators.values()
        preds: Dict[Any, List[Any]] = {op: [] for op in ops}
        for op in ops:
            for route in op.out_routes:
                preds[route.op].append(op)
        #: Operators to restart when a queue drains, in tuple order.
        self._preds = {op: tuple(p) for op, p in preds.items()}
        #: Every holder of a ``full_routes`` count, once per route.
        self._upstream = {op: list(p) for op, p in preds.items()}
        for source in runtime._spout_sources:
            for route in source.routes:
                self._upstream[route.op].append(source)
        runtime._overflow_at = limit - 1
        runtime._overflow = self._mark_full

    @property
    def blocked_time(self) -> float:
        """Total simulated time sources/clients spent paused, including
        the still-open intervals of those paused now."""
        blocked = self._blocked
        if self._waiters:
            now = self._rt._sim.now
            for since, _, _, _ in self._waiters:
                blocked += now - since
        return blocked

    def park(self, source, resume: Callable, arg) -> None:
        """Pause a source (or a client of ``source``) whose routes hit a
        full queue; ``resume(arg, None)`` runs once they clear."""
        self._waiters.append((self._rt._sim._now, source, resume, arg))

    def _set_full(self, op, full: bool) -> None:
        op.full = full
        step = 1 if full else -1
        for upstream in self._upstream[op]:
            upstream.full_routes += step

    def _mark_full(self, op, _payload) -> bool:
        """The runtime's ``_overflow`` hook: never drop.  Tuples already
        in flight (emitted before the queue filled) still land — the
        limit is a signal line, not a hard wall."""
        if not op.full:
            self._set_full(op, True)
        return False

    def drained(self, op) -> None:
        """``op``'s queue just dropped below the limit."""
        self._set_full(op, False)
        self._release(op)

    def _release(self, op) -> None:
        """Restart idle predecessor executors of ``op``, then retry the
        paused sources and clients.

        Processing order (predecessors in precomputed tuple order, then
        waiters FIFO) is deterministic; a waiter whose targets refilled
        meanwhile re-parks with its original blocked timestamp.
        """
        rt = self._rt
        for pred in self._preds[op]:
            if pred.full_routes:
                continue  # still gated by another full successor
            if pred.shared:
                rt._kick_shared(pred)
                continue
            for executor in pred.executors:
                if not executor.busy and executor.queue:
                    rt._begin_service(pred, executor)
        if self._waiters:
            waiters = self._waiters
            self._waiters = []
            now = rt._sim._now
            for entry in waiters:
                since, source, resume, arg = entry
                if source.full_routes:
                    self._waiters.append(entry)
                    continue
                self._blocked += now - since
                resume(arg, None)

    def sync(self) -> None:
        """Re-derive every full flag from current queue depths (after a
        rebalance or churn resize moved tuples wholesale) and run the
        release path for queues that drained.

        Redelivery re-marks the queues it refills, but not a queue it
        leaves alone: a broadcast delivery marks its queue full only
        when the queue already sits one below the limit, so several
        copies can push it past the limit unmarked, and a churn
        transition redelivers only the operators on the flipped
        machine.  Such a flag is set here."""
        limit = self._limit
        drained = []
        for op in self._rt._operators.values():
            full = op.queued >= limit
            if op.full != full:
                if op.full:
                    drained.append(op)
                self._set_full(op, full)
        for op in drained:
            self._release(op)


class _ClientState:
    """One closed-loop client: its spout source, how many requests it
    has in flight, and whether it is ``waiting`` at its outstanding
    cap."""

    __slots__ = ("source", "outstanding", "waiting")

    def __init__(self, source):
        self.source = source
        self.outstanding = 0
        self.waiting = False


class ClosedLoopClients:
    """A finite client population in place of the spouts' arrivals.

    Each client thinks, issues a request (one external tuple on its
    spout's routes), and keeps at most ``max_outstanding`` in flight.
    With ``admission_latency`` set, a request is rejected while the
    EWMA of completed sojourns exceeds it, and the client thinks again.
    The EWMA moves only when an admitted request completes, so a
    request is always admitted while no admitted request is in flight:
    otherwise one overshoot would reject every later request.
    """

    def __init__(self, runtime: "TopologyRuntime", population: Any):
        self._rt = runtime
        self._think = population.think_gap
        self._max = population.max_outstanding
        # Admission knobs are optional on duck-typed sources.
        self._admission = getattr(population, "admission_latency", None)
        self._alpha = getattr(population, "admission_alpha", 0.2)
        self._ewma: Optional[float] = None
        self._clients = [
            _ClientState(source)
            for source in runtime._spout_sources
            for _ in range(population.clients)
        ]
        self._roots: Dict[int, _ClientState] = {}
        self.issued = 0
        self.rejected = 0
        self._kind = runtime.simulator.register_handler(self._on_client)
        runtime._root_exit = self._root_exit

    def start(self) -> None:
        """Every client starts thinking: its first request arrives after
        one think interval (drawn from its spout's RNG stream, in client
        order, so runs stay deterministic per seed)."""
        schedule = self._rt.simulator.schedule_event
        for client in self._clients:
            schedule(self._think(client.source.rng), self._kind, client)

    def _on_client(self, client: _ClientState, _unused) -> None:
        """A client finished thinking (or was unparked): issue now, or
        park it on whatever is in the way.

        A client at its cap waits for one of its requests to come back
        (``waiting``); one whose routes hit a full queue parks with the
        backpressure waiters.  Parked clients have no pending think
        event — the release path issues for them directly.
        """
        if client.outstanding >= self._max:
            client.waiting = True
            return
        rt = self._rt
        source = client.source
        if source.full_routes:
            rt._backpressure.park(source, self._on_client, client)
            return
        self.issued += 1
        admit_at = self._admission
        if (
            admit_at is not None
            and self._ewma is not None
            and self._ewma > admit_at
            and self._roots
        ):
            self.rejected += 1
        else:
            # The client holds the root (and a slot) before the
            # emission, so a queue-limit drop during it releases the
            # client the same way a completion does.
            self._roots[rt._root_counter] = client
            client.outstanding += 1
            rt._inject(source.routes, rt._sim._now)
        rt._sim.schedule_event(self._think(source.rng), self._kind, client)

    def _root_exit(self, root: int, sojourn: Optional[float]) -> None:
        """The runtime's ``_root_exit`` hook: a completion feeds the
        admission EWMA; completed or dropped, the root frees its
        client's slot, and a client waiting on its cap issues at once."""
        if sojourn is not None:
            alpha = self._alpha
            ewma = self._ewma
            self._ewma = (
                sojourn if ewma is None else alpha * sojourn + (1.0 - alpha) * ewma
            )
        client = self._roots.pop(root, None)
        if client is None:
            return
        client.outstanding -= 1
        if client.waiting:
            client.waiting = False
            self._on_client(client, None)

    def check_conservation(self, external_tuples: int) -> None:
        """Every issued request was admitted or rejected, no client is
        over its cap, and the clients' in-flight counts match the roots
        they hold."""
        if self.issued - self.rejected != external_tuples:
            raise SimulationError(
                f"closed-loop conservation violated: {self.issued} issued -"
                f" {self.rejected} rejected != {external_tuples} external tuples"
            )
        outstanding = [c.outstanding for c in self._clients]
        if max(outstanding, default=0) > self._max:
            raise SimulationError(
                f"closed-loop conservation violated: a client holds"
                f" {max(outstanding)} requests over its cap of {self._max}"
            )
        if sum(outstanding) != len(self._roots):
            raise SimulationError(
                f"closed-loop conservation violated: clients hold"
                f" {sum(outstanding)} outstanding requests but"
                f" {len(self._roots)} roots are mapped"
            )
