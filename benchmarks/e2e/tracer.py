"""Outside-in tracing for the end-to-end benchmark.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
public callables of the program (methods on its classes, functions in
its modules) with timing wrappers, so a traced run records:

- **spans** at coarse layer boundaries (a campaign run, one
  replication, one ``run_until``, one HTTP request): trace id, span id,
  parent, name, start and end on the host's monotonic clock;
- **timers** for every wrapped name, including the per-event runtime
  handlers: calls, total seconds and *self* seconds (the call's
  duration minus the time its wrapped children took);
- **counts** and **gauges** measured where the work happens (events
  dispatched, record bytes, peak pending events).

Everything stays in memory and is written as NDJSON (one
``spans-<pid>.ndjson`` per process) by :meth:`Tracer.flush`.  Pool
workers forked while tracing inherit the wrappers; they append their
records after every replication, because a pool worker exits without
running ``atexit`` hooks.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Count of seconds spent in frames with no wrapped caller: in any
#: one thread, the self times of all frames add up to exactly this.
ROOT_COUNT = "trace.root_s"

#: Runtime handler method name -> timer name (the ``kind`` registry of
#: ``Simulator.register_handler``).
HANDLER_TIMERS = {
    "_on_spout": "runtime.spout",
    "_on_hop": "runtime.hop",
    "_on_finish": "runtime.finish",
    "_on_tick": "runtime.tick",
    "_on_client": "runtime.client",
    "_on_node_event": "runtime.node",
}

#: Timer name -> layer, for the per-layer report.  Names missing here
#: (the benchmark's own root span) count as ``bench``.
LAYER_OF = {
    "engine.run_until": "sim.engine",
    "runtime.spout": "sim.runtime",
    "runtime.hop": "sim.runtime",
    "runtime.finish": "sim.runtime",
    "runtime.client": "sim.runtime",
    "runtime.node": "sim.runtime",
    "runtime.other": "sim.runtime",
    "runtime.stats": "sim.runtime",
    "runtime.apply_allocation": "sim.runtime",
    "runtime.tick": "measurement",
    "policy.observe": "scenarios.policies",
    "scheduler.assign": "scheduler",
    "runner.replication": "scenarios.runner",
    "api.run_campaign": "api",
    "campaigns.runner.run": "campaigns.runner",
    "campaigns.shard.run": "campaigns.executor",
    "spec.expand": "campaigns.spec",
    "spec.hash": "campaigns.spec",
    "hybrid.decide": "campaigns.hybrid",
    "hybrid.evaluate": "campaigns.hybrid",
    "store.open": "campaigns.store",
    "store.refresh": "campaigns.store",
    "store.put": "campaigns.store",
    "store.load_record": "campaigns.store",
    "aggregate.from_store": "campaigns.aggregate",
    "aggregate.summarize": "campaigns.aggregate",
    "service.queue": "service.jobs",
    "service.job_status": "service",
    "service.job_aggregates": "service",
}


class _ThreadStats:
    """One thread's timers, counts and gauges (merged at flush time, so
    concurrent threads never race on a shared counter)."""

    __slots__ = ("timers", "counts", "gauges")

    def __init__(self):
        self.timers: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}


class Tracer:
    """Span and timer recorder shared by every wrapper of one process."""

    def __init__(self, out_dir: os.PathLike):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.forked = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadStats] = []
        self._spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------
    # per-thread state
    # ------------------------------------------------------------------
    def _thread(self):
        local = self._local
        try:
            return local.stack, local.stats
        except AttributeError:
            stats = _ThreadStats()
            with self._lock:
                self._threads.append(stats)
            local.stack = []
            local.stats = stats
            return local.stack, stats

    def _after_fork(self) -> None:
        # The child keeps the forking thread's open frames, so spans it
        # records name their parent in the coordinating process; the
        # records it inherited were already the parent's to write.
        self.pid = os.getpid()
        self.forked = True
        self._lock = threading.Lock()
        self._spans = []
        stats = getattr(self._local, "stats", None)
        self._threads = [stats] if stats is not None else []
        if stats is not None:
            stats.timers.clear()
            stats.counts.clear()
            stats.gauges.clear()

    def _new_id(self) -> str:
        return f"{self.pid:x}.{next(self._ids)}"

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add(self, name: str, value: float) -> None:
        """Add ``value`` to count ``name`` (e.g. events, bytes)."""
        counts = self._thread()[1].counts
        counts[name] = counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if higher."""
        gauges = self._thread()[1].gauges
        if value > gauges.get(name, float("-inf")):
            gauges[name] = value

    def _open(self, name: str, span: bool):
        stack, stats = self._thread()
        parent = stack[-1][1] if stack else None
        if span:
            span_id = self._new_id()
            context = (parent[0] if parent is not None else span_id, span_id)
        else:
            context = parent
        # [child seconds, (trace id, span id) in force, name, parent ctx]
        frame = [0.0, context, name, parent]
        stack.append(frame)
        return stack, stats, frame

    def _close(self, stack, stats, frame, start: float, end: float, span: bool):
        elapsed = end - start
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        else:
            stats.counts[ROOT_COUNT] = stats.counts.get(ROOT_COUNT, 0.0) + elapsed
        name = frame[2]
        timer = stats.timers.get(name)
        if timer is None:
            timer = stats.timers[name] = [0, 0.0, 0.0]
        timer[0] += 1
        timer[1] += elapsed
        timer[2] += elapsed - frame[0]
        if span:
            trace_id, span_id = frame[1]
            parent = frame[3]
            self._spans.append(
                {
                    "type": "span",
                    "trace": trace_id,
                    "span": span_id,
                    "parent": parent[1] if parent is not None else None,
                    "name": name,
                    "start": start,
                    "end": end,
                    "pid": self.pid,
                    "thread": threading.get_ident(),
                }
            )

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        span: bool = False,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A timing wrapper around ``fn`` recorded as ``name``.

        ``span`` also records a span.  ``before(args)`` runs ahead of the
        timed call and its value reaches ``after(args, result, token)``,
        which runs once the timed call has returned; both are charged
        to the caller's self time.  A call re-entering the same name
        directly (``super()`` chains) is timed once, by the outer frame.
        """
        thread = self._thread
        perf = time.perf_counter

        if not span and before is None and after is None:
            # The lean form: runtime handlers go through here once per
            # simulated event.
            def counted(*args, **kwargs):
                stack, stats = thread()
                if stack and stack[-1][2] == name:
                    return fn(*args, **kwargs)
                frame = [0.0, stack[-1][1] if stack else None, name, None]
                stack.append(frame)
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                    else:
                        counts = stats.counts
                        counts[ROOT_COUNT] = counts.get(ROOT_COUNT, 0.0) + elapsed
                    timer = stats.timers.get(name)
                    if timer is None:
                        timer = stats.timers[name] = [0, 0.0, 0.0]
                    timer[0] += 1
                    timer[1] += elapsed
                    timer[2] += elapsed - frame[0]

            counted.__wrapped__ = fn
            return counted

        def traced(*args, **kwargs):
            stack, _ = thread()
            if stack and stack[-1][2] == name:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            stack, stats, frame = self._open(name, span)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stack, stats, frame, start, perf(), span)
            if after is not None:
                after(args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span (the benchmark's root)."""
        stack, stats, frame = self._open(name, True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(stack, stats, frame, start, time.perf_counter(), True)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Append this process's records since the last flush to
        ``spans-<pid>.ndjson`` and start over (delta semantics)."""
        with self._lock:
            spans, self._spans = self._spans, []
            total = empty_stats()
            for stats in self._threads:
                # Copies: a daemon thread may still be recording.
                merge_stats(total, dict(stats.timers), dict(stats.counts), dict(stats.gauges))
                stats.timers.clear()
                stats.counts.clear()
                stats.gauges.clear()
        lines = [json.dumps(s) for s in spans]
        lines.append(json.dumps({"type": "stats", "pid": self.pid, **total}))
        path = self.out_dir / f"spans-{self.pid}.ndjson"
        with open(path, "a") as handle:
            handle.write("\n".join(lines) + "\n")


def empty_stats() -> Dict[str, Dict]:
    return {"timers": {}, "counts": {}, "gauges": {}}


def merge_stats(total: Dict[str, Dict], timers, counts, gauges) -> None:
    """Add timers (calls, seconds, self seconds) and counts into
    ``total``; gauges keep their maximum."""
    for name, (calls, seconds, own) in timers.items():
        timer = total["timers"].setdefault(name, [0, 0.0, 0.0])
        timer[0] += calls
        timer[1] += seconds
        timer[2] += own
    for name, value in counts.items():
        total["counts"][name] = total["counts"].get(name, 0) + value
    for name, value in gauges.items():
        total["gauges"][name] = max(total["gauges"].get(name, value), value)


# ----------------------------------------------------------------------
# installing the wrappers
# ----------------------------------------------------------------------
def _patch_method(cls: type, attr: str, wrapper_for: Callable) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, wrapper_for(original))


def _patch_function(module_name: str, attr: str, wrapper_for: Callable) -> None:
    """Replace ``module.attr`` and every ``from module import attr``
    copy held by another loaded ``repro`` module."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = wrapper_for(original)
    for name, module in list(sys.modules.items()):
        if (
            (name == "repro" or name.startswith("repro."))
            and module is not None
            and getattr(module, attr, None) is original
        ):
            setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries with ``tracer``'s timers."""
    import repro.api  # noqa: F401  (loads the campaign stack)
    import repro.campaigns.shard  # noqa: F401
    import repro.scenarios.policies as policies
    import repro.service  # noqa: F401
    from repro.campaigns.hybrid import AnalyticCellEvaluator
    from repro.campaigns.runner import CampaignRunner
    from repro.campaigns.segstore import SegmentedResultStore
    from repro.campaigns.shard import ShardedCampaignRunner
    from repro.campaigns.spec import CampaignSpec
    from repro.campaigns.store import ResultStore
    from repro.service.jobs import JobQueue
    from repro.service.server import CampaignService, _Handler
    from repro.sim.engine import Simulator
    from repro.sim.runtime import TopologyRuntime

    wrap = tracer.wrap

    # sim.engine: one span per run_until, events counted from the
    # simulator's own counter.
    def events_after(args, result, before_count):
        tracer.add("engine.events", args[0].processed_events - before_count)

    _patch_method(
        Simulator,
        "run_until",
        lambda fn: wrap(
            "engine.run_until",
            fn,
            span=True,
            before=lambda args: args[0].processed_events,
            after=events_after,
        ),
    )

    # sim.runtime: every typed-event handler, by kind.  The tick
    # handler also samples the queue gauges once per measurement pull.
    original_register = Simulator.register_handler

    def register_handler(sim, handler):
        name = HANDLER_TIMERS.get(getattr(handler, "__name__", ""), "runtime.other")
        if name == "runtime.tick":

            def sample(args, result, token):
                tracer.peak("engine.peak_pending", sim.pending_events)
                tracer.peak("engine.peak_spilled", sim.spilled_events)

            return original_register(sim, wrap(name, handler, after=sample))
        return original_register(sim, wrap(name, handler))

    Simulator.register_handler = register_handler
    _patch_method(TopologyRuntime, "stats", lambda fn: wrap("runtime.stats", fn))
    _patch_method(
        TopologyRuntime,
        "apply_allocation",
        lambda fn: wrap("runtime.apply_allocation", fn),
    )

    # scenarios.policies and scheduler.
    for value in list(vars(policies).values()):
        if (
            isinstance(value, type)
            and value.__module__ == policies.__name__
            and "observe" in value.__dict__
        ):
            _patch_method(value, "observe", lambda fn: wrap("policy.observe", fn))
    _patch_function(
        "repro.scheduler.assign",
        "assign_processors",
        lambda fn: wrap("scheduler.assign", fn),
    )

    # scenarios.runner: one span per replication; closed-loop counters
    # and applied actions come from the result it returns.
    def replication_after(args, result, token):
        tracer.add("policy.actions_applied", len(result.actions))
        tracer.add("closed_loop.issued", result.issued_requests or 0)
        tracer.add("closed_loop.admission_rejected", result.admission_rejected or 0)
        tracer.add("closed_loop.blocked_s", result.blocked_time or 0.0)
        if tracer.forked:
            tracer.flush()

    _patch_function(
        "repro.scenarios.runner",
        "run_replication",
        lambda fn: wrap("runner.replication", fn, span=True, after=replication_after),
    )
    _patch_function(
        "repro.scenarios.runner",
        "summarize_replications",
        lambda fn: wrap("aggregate.summarize", fn),
    )

    # campaigns: api entry, planner/merge, sharded coordinator.
    _patch_function(
        "repro.api", "run_campaign", lambda fn: wrap("api.run_campaign", fn, span=True)
    )
    _patch_method(
        CampaignRunner, "run", lambda fn: wrap("campaigns.runner.run", fn, span=True)
    )
    _patch_method(
        ShardedCampaignRunner,
        "run",
        lambda fn: wrap("campaigns.shard.run", fn, span=True),
    )
    _patch_method(
        CampaignSpec, "expand", lambda fn: wrap("spec.expand", fn, span=True)
    )
    _patch_function(
        "repro.campaigns.spec", "scenario_hash", lambda fn: wrap("spec.hash", fn)
    )

    # campaigns.hybrid.
    def decide_after(args, result, token):
        tracer.add("hybrid.decide.analytic", 1 if result.analytic_capable else 0)

    _patch_method(
        AnalyticCellEvaluator,
        "decide",
        lambda fn: wrap("hybrid.decide", fn, after=decide_after),
    )
    _patch_method(
        AnalyticCellEvaluator, "evaluate", lambda fn: wrap("hybrid.evaluate", fn)
    )

    # campaigns.store: both layouts.
    def put_before(args):
        store = args[0]
        if isinstance(store, SegmentedResultStore):
            path = store.segment_path
            return path.stat().st_size if path.exists() else 0
        return None

    def put_after(args, result, token):
        size = Path(result).stat().st_size
        tracer.add("store.put.bytes", size - token if token is not None else size)
        if tracer.forked:
            tracer.flush()

    def load_after(args, result, token):
        tracer.add("store.load_record.hits", 1 if result is not None else 0)

    for cls in (ResultStore, SegmentedResultStore):
        _patch_method(
            cls,
            "put",
            lambda fn: wrap("store.put", fn, before=put_before, after=put_after),
        )
        _patch_method(
            cls,
            "load_record",
            lambda fn: wrap("store.load_record", fn, after=load_after),
        )
    _patch_method(
        SegmentedResultStore, "refresh", lambda fn: wrap("store.refresh", fn)
    )
    _patch_function(
        "repro.api", "open_store", lambda fn: wrap("store.open", fn, span=True)
    )

    # campaigns.aggregate.
    _patch_function(
        "repro.campaigns.aggregate",
        "aggregate_from_store",
        lambda fn: wrap("aggregate.from_store", fn, span=True),
    )

    # service: HTTP routes as spans, queue transitions, status views.
    for method in ("do_GET", "do_POST"):
        _patch_method(_Handler, method, lambda fn: _route_wrapper(tracer, fn))
    for method in ("submit", "claim_next", "finish"):
        _patch_method(JobQueue, method, lambda fn: wrap("service.queue", fn))
    _patch_method(
        CampaignService, "job_status", lambda fn: wrap("service.job_status", fn)
    )
    _patch_method(
        CampaignService,
        "job_aggregates",
        lambda fn: wrap("service.job_aggregates", fn),
    )


def _route_name(method: str, path: str) -> str:
    """Span name of one HTTP request: ``http.<route>``."""
    parts = [p for p in path.split("?")[0].split("/") if p]
    if parts == ["jobs"]:
        return "http.post_jobs" if method == "POST" else "http.list_jobs"
    if len(parts) == 2 and parts[0] == "jobs":
        return "http.get_job"
    if len(parts) == 3 and parts[0] == "jobs":
        return f"http.job_{parts[2]}"
    return f"http.{parts[0] if parts else 'root'}"


def _route_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    method = fn.__name__[3:]
    wrappers: Dict[str, Callable] = {}

    def handle(handler):
        name = _route_name(method, handler.path)
        wrapped = wrappers.get(name)
        if wrapped is None:
            wrapped = wrappers[name] = tracer.wrap(name, fn, span=True)
        return wrapped(handler)

    return handle


# ----------------------------------------------------------------------
# reading traces back
# ----------------------------------------------------------------------
def read_trace(trace_dir: os.PathLike) -> Dict[str, Any]:
    """Every span and the per-process merged stats under ``trace_dir``."""
    spans: List[Dict[str, Any]] = []
    processes: Dict[int, Dict[str, Any]] = {}
    for path in sorted(Path(trace_dir).glob("spans-*.ndjson")):
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            if record["type"] == "span":
                spans.append(record)
                continue
            merge_stats(
                processes.setdefault(record["pid"], empty_stats()),
                record["timers"],
                record["counts"],
                record["gauges"],
            )
    return {"spans": spans, "processes": processes}


def span_tree_errors(spans: Iterable[Dict[str, Any]]) -> List[str]:
    """Why ``spans`` do not form a forest (empty when they do).

    Every parent must exist, share the child's trace id and enclose
    the child in time (one monotonic clock serves every process).
    """
    by_id = {}
    errors = []
    for span in spans:
        if span["span"] in by_id:
            errors.append(f"duplicate span id {span['span']}")
        by_id[span["span"]] = span
    for span in by_id.values():
        if span["end"] < span["start"]:
            errors.append(f"span {span['span']} ends before it starts")
        parent_id = span["parent"]
        if parent_id is None:
            if span["trace"] != span["span"]:
                errors.append(f"root {span['span']} is not its own trace")
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            errors.append(f"span {span['span']} has unknown parent {parent_id}")
            continue
        if parent["trace"] != span["trace"]:
            errors.append(f"span {span['span']} crosses traces")
        if span["start"] < parent["start"] - 1e-6 or span["end"] > parent["end"] + 1e-6:
            errors.append(f"span {span['span']} escapes parent {parent_id}")
    return errors


def layer_self_times(timers: Dict[str, List[float]]) -> Dict[str, float]:
    """Self seconds per layer from one process's merged timers."""
    layers: Dict[str, float] = {}
    for name, (_, _, own) in timers.items():
        layer = LAYER_OF.get(name) or (
            "service.http" if name.startswith("http.") else "bench"
        )
        layers[layer] = layers.get(layer, 0.0) + own
    return layers
