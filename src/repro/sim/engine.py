"""The discrete-event engine: a time-ordered typed-event queue.

Minimal by design — the hot loop is ``heappop``, advance the clock,
dispatch.  Events scheduled at equal times fire in scheduling order (a
monotonic sequence number breaks ties), which keeps runs deterministic
under a fixed RNG seed.

Two scheduling surfaces share one queue (and one tie-breaking sequence):

- :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` — the
  general callback API.  Each call allocates an :class:`EventHandle`
  supporting O(1) cancellation; this is the right surface for *rare*
  events (rebalance resumes, controller actions, tests).
- :meth:`Simulator.schedule_event` — the allocation-free hot path.  A
  component registers a handler once (:meth:`Simulator.register_handler`
  returns an integer *kind*) and then schedules plain
  ``(time, seq, kind, a, b)`` records; the loop dispatches by kind
  through the handler table.  No per-event closure, no handle object.

The queue is a single binary heap of ``(time, seq, kind, a, b)``
records; callers may push such records into ``_queue`` directly (the
topology runtime inlines exactly that).  Every push and pop costs
``O(log pending)``, which stays cheap at the largest backlogs the shipped
workloads reach (thousands of pending events under a closed-loop client
population).

Cancelled handles are counted and excluded from :attr:`pending_events`;
when more than half of the queued entries are cancelled the heap is
compacted in place.  Compaction subtracts the entries it actually
removed (rather than zeroing the counter), so a drain that has already
consumed part of a cancelled backlog cannot trigger a second O(n) pass
over the same, already-clean backlog.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional

from repro.exceptions import SimulationError

#: Kind 1 is the handle-based callback surface; registered handlers
#: start at 2 (kind 0 is reserved).
_KIND_HANDLE = 1


class EventHandle:
    """Handle to a scheduled event; supports O(1) cancellation."""

    __slots__ = ("time", "callback", "cancelled", "_sim")

    def __init__(self, time: float, callback: Callable[[], None], sim=None):
        self.time = time
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired)."""
        if self.callback is None:  # already fired or already cancelled
            self.cancelled = True
            return
        self.cancelled = True
        self.callback = None  # free references early
        sim = self._sim
        if sim is not None:
            sim._note_cancelled()


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
        self._cancelled = 0
        # Handler table indexed by kind; slots 0/1 are the callback and
        # handle surfaces, dispatched inline by the loop.
        self._handlers: List[Optional[Callable]] = [None, None]  # kinds 0/1

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
        """Events still queued and not cancelled."""
        return len(self._queue) - self._cancelled

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

        The hot path of the simulator: one heap tuple, no handle, no
        closure.  Events of unknown kinds fail at dispatch time.
        """
        if not delay >= 0.0:  # catches all negative delays and NaN
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self._now + delay, seq, kind, a, b))

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now or math.isnan(time):
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self._now}"
            )
        handle = EventHandle(time, callback, self)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, _KIND_HANDLE, handle, None))
        return handle

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Account a cancellation; compact when more than half of the
        pending entries are dead weight."""
        self._cancelled += 1
        if self._cancelled > 8 and self._cancelled * 2 > len(self._queue):
            removed = self._compact()
            # Subtract what compaction actually removed instead of
            # zeroing the counter: entries of this backlog that an
            # in-progress drain already popped are no longer anywhere,
            # and a blind reset would let the next cancellation trigger
            # a second O(n) pass over the same, already-clean backlog.
            self._cancelled -= removed
            if self._cancelled < 0:
                self._cancelled = 0

    def _compact(self) -> int:
        """Drop cancelled handle entries from the heap; returns how many
        entries were removed."""
        queue = self._queue
        before = len(queue)
        queue[:] = [
            entry
            for entry in queue
            if not (entry[2] == _KIND_HANDLE and entry[3].cancelled)
        ]
        heapq.heapify(queue)
        return before - len(queue)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        queue = self._queue
        while queue:
            time, _, kind, a, b = heapq.heappop(queue)
            if kind >= 2:
                self._now = time
                self._processed += 1
                self._handlers[kind](a, b)
                return True
            if a.cancelled:
                self._cancelled -= 1
                continue
            self._now = time
            callback = a.callback
            a.callback = None
            self._processed += 1
            callback()
            return True
        return False

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
            kind = entry[2]
            if kind >= 2:
                self._now = time
                self._processed += 1
                handlers[kind](entry[3], entry[4])
            else:
                handle = entry[3]
                if handle.cancelled:
                    self._cancelled -= 1
                    continue
                self._now = time
                callback = handle.callback
                handle.callback = None
                self._processed += 1
                callback()
        self._now = horizon

    def run_all(self, *, max_events: int = 50_000_000) -> None:
        """Drain the queue completely (with a runaway guard)."""
        executed = 0
        while self.step():
            executed += 1
            if executed > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely an unstable"
                    " feedback loop or a self-rescheduling event"
                )

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self._now:.6g}, pending={self.pending_events},"
            f" processed={self._processed})"
        )
