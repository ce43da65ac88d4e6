"""The discrete-event engine: a time-ordered typed-event queue.

Minimal by design — the hot loop is ``heappop``, advance the clock,
dispatch.  Events scheduled at equal times fire in scheduling order (a
monotonic sequence number breaks ties), which keeps runs deterministic
under a fixed RNG seed.

The queue is one binary heap of ``(time, seq, kind, a, b)`` records,
and every event is typed: the loop calls ``handlers[kind](a, b)``.  A
component registers a handler once (:meth:`Simulator.register_handler`
returns an integer *kind*) and then schedules plain records with
:meth:`Simulator.schedule_event` — no per-event closure or handle
object.  Callers may push such records into ``_queue`` directly (the
topology runtime inlines exactly that).

Kind 1 runs a plain callback: :meth:`Simulator.schedule` and
:meth:`Simulator.schedule_at` push ``(time, seq, 1, callback, None)``.
This is the surface for *rare* events (rebalance resumes, controller
actions, tests).  Both surfaces share one tie-breaking sequence.

Every push and pop costs ``O(log pending)``, which stays cheap at the
largest backlogs the shipped workloads reach (thousands of pending
events under a closed-loop client population).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional

from repro.exceptions import SimulationError


def _call(callback: Callable[[], None], _) -> None:
    """Kind 1: run a :meth:`Simulator.schedule` callback."""
    callback()


class Simulator:
    """Event loop with a virtual clock over one binary heap.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fired at", sim.now))
        sim.run_until(10.0)

    Events fire in ``(time, seq)`` order: by time, and at equal times in
    the order they were scheduled.
    """

    def __init__(self):
        self._now = 0.0
        self._queue = []  # (time, seq, kind, a, b)
        self._seq = 0
        self._processed = 0
        # Handler table indexed by kind: kind 0 is reserved, kind 1 runs
        # plain callbacks, registered handlers start at 2.
        self._handlers: List[Optional[Callable]] = [None, _call]

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Events still queued."""
        return len(self._queue)

    @property
    def spilled_events(self) -> int:
        """Always 0: every pending event lives in the one heap.

        Kept for instrumentation that samples it alongside
        :attr:`pending_events`.
        """
        return 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def register_handler(self, handler: Callable) -> int:
        """Register a typed-event handler; returns its *kind* id.

        The handler is called as ``handler(a, b)`` with the two payload
        slots of every :meth:`schedule_event` record of that kind.
        """
        self._handlers.append(handler)
        return len(self._handlers) - 1

    def schedule_event(self, delay: float, kind: int, a=None, b=None) -> None:
        """Allocation-free scheduling of a typed event ``delay`` from now.

        The hot path of the simulator: one heap tuple, no closure.
        Events of unknown kinds fail at dispatch time.
        """
        if not delay >= 0.0:  # catches all negative delays and NaN
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self._now + delay, seq, kind, a, b))

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now or math.isnan(time):
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, 1, callback, None))

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run_until(self, horizon: float) -> None:
        """Run events up to and including time ``horizon``.

        The clock is left at ``horizon`` even if the queue drains early,
        so periodic measurements and experiment bookkeeping line up.
        """
        if horizon < self._now:
            raise SimulationError(
                f"horizon {horizon} is before current time {self._now}"
            )
        queue = self._queue
        handlers = self._handlers
        heappop = heapq.heappop
        while queue:
            entry = queue[0]
            time = entry[0]
            if time > horizon:
                break
            heappop(queue)
            self._now = time
            self._processed += 1
            handlers[entry[2]](entry[3], entry[4])
        self._now = horizon

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self._now:.6g}, pending={self.pending_events},"
            f" processed={self._processed})"
        )
