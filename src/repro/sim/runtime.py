"""Topology runtime: executes a topology on the discrete-event engine.

This is the simulated CSP layer.  It reproduces the execution behaviour
of a Storm topology that matters to DRS:

- **spouts** emit external tuples according to their arrival processes;
- **bolts** run ``k_i`` parallel executors; each tuple's processing time
  is drawn from the operator's service-time distribution;
- **routing** follows per-edge groupings.  Three queue disciplines are
  supported: ``"jsq"`` (default — per-executor queues, shuffle-grouped
  tuples join the shortest queue; approximates a load-balanced real
  deployment, under which the M/M/k model is accurate), ``"hashed"``
  (each shuffle tuple goes to a uniformly random executor queue — the
  worst-case "tuples are hashed to processors" deviation the paper
  notes) and ``"shared"`` (idealised M/M/k — one queue per operator,
  any idle executor takes the head).  Key-based groupings (fields,
  global, broadcast) route identically under jsq and hashed;
- **tuple trees** are tracked acker-style so the *total sojourn time*
  (arrival of the external tuple until every derived tuple is processed)
  is measured exactly as the paper defines it;
- **hop latency** adds a per-emission network/framework delay the
  performance model deliberately ignores — the knob behind the Fig. 8
  underestimation study;
- **rebalancing** pauses all bolts for a cost-model-determined duration
  while arrivals keep buffering, then resumes with the new allocation —
  reproducing the latency spikes of Fig. 9/10.

The DRS measurer is wired into the hot path; a measurement tick fires
every ``Tm`` simulated seconds and the resulting report is passed to the
``on_measurement`` hook (where the live controller sits).

Hot-path design
---------------
Every tuple movement goes through typed events (``Simulator.schedule_event``)
dispatched by kind — no per-event closures or handles.  Each tuple takes
one path: ``_emit_tuples`` samples the gain, ``_deliver`` picks the
executor and ``_begin_service`` starts the service and pushes the finish
event.  Routing state is precomputed once per runtime:

- ``_Route`` records carry the target operator runtime, the resolved
  grouping (``None`` for free-choice/shuffle), the deterministic-gain
  integer/fraction split and prebound measurement recorders, so an
  emission costs no dict lookups and no temporary objects;
- the copies of one emission on one delayed route share a single hop
  event ``(route, (payload, count))``: they would fire at one time with
  consecutive sequence numbers, so nothing can run between them, and
  ``_on_hop`` delivers them in order and adds ``count - 1`` to the
  simulator's processed-event count;
- each operator keeps an O(1) ``queued`` counter for the
  ``queue_limit`` test;
- ``jsq`` operators keep a per-executor load list ``jsq_loads``
  (``len(queue) + busy``, +1 on each delivery, -1 on each finish;
  ``check_conservation`` verifies it).  Below ``_JSQ_HEAP_MIN``
  executors the pick is ``loads.index(min(loads))``, two C-level passes
  with the scan's tie-breaking (lowest index among minimum load); from
  there up a lazy min-heap of ``(load, index)`` pairs over the same list
  gives O(log k) selection with identical ties: every load change
  pushes the fresh pair and stale tops are discarded on query;
- exponential and lognormal service times are drawn inline on the
  operator's stream with exactly ``random.Random``'s formulas
  (``expovariate``; ``normalvariate``'s Kinderman–Monahan loop under
  ``exp``), and the per-operator wait/service statistics keep only the
  count and running mean ``stats()`` reports.

This module is the plain open-loop core.  Platform churn, backpressure
and closed-loop clients live in :mod:`repro.sim.features`, built only
when their option is set.  The handlers never ask whether a feature is
on; they read state that stays inert while it is off:

- ``executor.speed`` (1.0, and ``x / 1.0 == x`` exactly) and
  ``executor.dead`` (``False``) — the platform pins and kills executors;
- ``route.transfer`` — ``hop_latency``, or the platform's link cost;
- ``full_routes`` on operators and sources (0) and ``op.full``
  (``False``) — only backpressure raises them;
- the ``_overflow`` hook (drop the tuple) — backpressure marks the
  queue full instead;
- the ``_root_exit`` hook (nothing) — closed-loop clients free the
  client that issued the tree.

All of it preserves the RNG draw order and event tie-breaking of the
original implementation byte-for-byte — pinned by the golden fixtures
(``tests/test_golden_determinism.py``, ``tests/test_feature_mix.py``).
"""

from __future__ import annotations

import copy
import heapq
import math
from bisect import bisect_left
from math import log as _log
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # runtime import stays lazy: workloads sits above sim
    from repro.workloads.models import ArrivalModel

from repro.config import MeasurementConfig
from repro.exceptions import SchedulingError, SimulationError
from repro.measurement.measurer import Measurer, MeasurementReport
from repro.measurement.metrics import WelfordAccumulator
from repro.measurement.sojourn import TupleTreeTracker
from repro.randomness.arrival import DeterministicProcess, PhasedArrivalProcess
from repro.randomness.distributions import Distribution
from repro.randomness.distributions import Exponential as ExponentialDistribution
from repro.randomness.distributions import LogNormal as LogNormalDistribution
from repro.scheduler.allocation import Allocation
from repro.sim.engine import Simulator
from repro.sim.features import Backpressure, ClosedLoopClients, Platform
from repro.sim.rebalancing import RebalanceCostModel
from repro.topology.graph import Topology
from repro.topology.grouping import ShuffleGrouping
from repro.utils.rng import RngFactory

#: Below this executor count ``loads.index(min(loads))`` beats the lazy
#: heap's constant factors; from here up the heap's O(log k) wins
#: (measured on the hot-path benchmark, whose ``diamond`` row runs
#: k = 128/96/32).  Both produce identical selections.
_JSQ_HEAP_MIN = 16

# Module-level aliases: a LOAD_GLOBAL beats the attribute chain in the
# per-tuple loops below.
_heappush = heapq.heappush
_heappop = heapq.heappop
_exp = math.exp

#: ``random.NV_MAGICCONST``, by the same expression: the Kinderman–Monahan
#: constant of ``random.Random.normalvariate``.
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)


def _p95(window: List[float]) -> Optional[float]:
    """The p95 (nearest rank) of ``window``; ``None`` when it is empty.

    The index-th smallest is the (n - index)-th largest, so
    ``heapq.nlargest`` selects ~5% of the window instead of sorting all
    of it."""
    if not window:
        return None
    index = max(0, int(math.ceil(0.95 * len(window))) - 1)
    return heapq.nlargest(len(window) - index, window)[-1]


@dataclass(frozen=True)
class RuntimeOptions:
    """Tunables of the simulated CSP layer.

    ``hop_latency`` is the fixed per-emission transport delay (seconds).
    It is a **legacy** knob: it models the network as one global
    constant.  New code should describe the substrate with a
    ``platform`` block instead (per-link latencies/bandwidths, machine
    speeds, churn); the legacy knob keeps working unchanged — and stays
    byte-identical — for every existing spec, but gains no new features.
    ``queue_limit`` bounds each operator's total queued tuples; beyond
    it tuples are dropped and their trees abandoned (the "errors when
    the queue reaches its size limit" failure mode of the paper's
    introduction).  ``platform``, ``backpressure`` and ``closed_loop``
    switch on the features of :mod:`repro.sim.features`.  The objects
    ``arrival_model``, ``platform`` and ``closed_loop`` are duck-typed:
    their packages sit above the simulator in the layering.
    """

    queue_discipline: str = "jsq"
    hop_latency: float = 0.0
    queue_limit: Optional[int] = None
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    rebalance_cost: RebalanceCostModel = field(default_factory=RebalanceCostModel)
    timeline_bucket: float = 60.0
    seed: int = 7
    #: Piecewise-constant external-rate schedule applied to every spout:
    #: ``((start_time, rate_multiplier), ...)``.  ``None`` leaves the
    #: workload's own arrival processes untouched.
    arrival_rate_phases: Optional[Tuple[Tuple[float, float], ...]] = None
    #: Arrival model *replacing* each spout's own process — any object
    #: with ``build(base_process) -> ArrivalProcess`` (in practice a
    #: :class:`~repro.workloads.models.ArrivalModel`).
    #: The model receives the spout's nominal process (for its mean
    #: rate) and builds a fresh process per spout.  Composes with
    #: ``arrival_rate_phases``: phases wrap the model's output.
    arrival_model: Optional["ArrivalModel"] = None
    #: Execution substrate — any object with
    #: ``bind(topology, allocation) -> binding`` (in practice a
    #: :class:`~repro.platform.spec.PlatformSpec`): per-executor
    #: machines/speeds, the machine-pair transfer matrix and the churn
    #: process.  Mutually exclusive with the deprecated ``hop_latency``.
    platform: Optional[Any] = None
    #: Closed-loop client population *replacing* each spout's arrival
    #: process — any object with ``think_gap(rng) -> float`` plus
    #: ``clients`` / ``max_outstanding`` attributes (in practice a
    #: :class:`~repro.workloads.closed_loop.ClosedLoopSource`).
    #: Mutually exclusive with ``arrival_model`` and
    #: ``arrival_rate_phases``: a reacting population *is* the load.
    closed_loop: Optional[Any] = None
    #: A full queue (``queue_limit`` reached) pauses its upstream
    #: producers instead of dropping tuples.  Requires ``queue_limit``.
    backpressure: bool = False

    def __post_init__(self):
        if self.queue_discipline not in ("jsq", "hashed", "shared"):
            raise SimulationError(
                f"queue_discipline must be 'jsq', 'hashed' or 'shared',"
                f" got {self.queue_discipline!r}"
            )
        if self.hop_latency < 0:
            raise SimulationError("hop_latency must be >= 0")
        if self.queue_limit is not None and self.queue_limit < 1:
            raise SimulationError("queue_limit must be >= 1 when set")
        if self.timeline_bucket <= 0:
            raise SimulationError("timeline_bucket must be > 0")
        if self.arrival_rate_phases is not None:
            try:
                PhasedArrivalProcess(
                    DeterministicProcess(1.0), self.arrival_rate_phases
                )
            except ValueError as exc:
                raise SimulationError(f"bad arrival_rate_phases: {exc}") from None
        if self.arrival_model is not None and not callable(
            getattr(self.arrival_model, "build", None)
        ):
            # The scenario runner turns plain-dict specs into
            # ArrivalModel objects before they reach here.
            raise SimulationError(
                "arrival_model must provide a build(base_process) method"
                " (e.g. a repro.workloads ArrivalModel); got"
                f" {self.arrival_model!r}"
            )
        if self.platform is not None:
            if not callable(getattr(self.platform, "bind", None)):
                raise SimulationError(
                    "platform must provide a bind(topology, allocation)"
                    " method (e.g. a repro.platform PlatformSpec); got"
                    f" {self.platform!r}"
                )
            if self.hop_latency != 0.0:
                raise SimulationError(
                    "hop_latency and platform are mutually exclusive:"
                    " per-edge transfer times come from the platform's links"
                )
        if self.backpressure and self.queue_limit is None:
            raise SimulationError(
                "backpressure requires queue_limit: without a bound there"
                " is no 'full' signal to propagate upstream"
            )
        if self.closed_loop is not None:
            if not callable(
                getattr(self.closed_loop, "think_gap", None)
            ) or not isinstance(
                getattr(self.closed_loop, "clients", None), int
            ) or not isinstance(
                getattr(self.closed_loop, "max_outstanding", None), int
            ):
                raise SimulationError(
                    "closed_loop must provide a think_gap(rng) method and"
                    " integer clients/max_outstanding attributes (e.g. a"
                    " repro.workloads ClosedLoopSource); got"
                    f" {self.closed_loop!r}"
                )
            if (
                self.arrival_model is not None
                or self.arrival_rate_phases is not None
            ):
                raise SimulationError(
                    "closed_loop replaces the spout arrival process"
                    " entirely; it is mutually exclusive with"
                    " arrival_model and arrival_rate_phases"
                )


@dataclass
class RunStats:
    """Aggregated results of a run (or of a time window of one).

    The trailing fields cover the reactive-load machinery and default
    to their open-loop values: ``blocked_time`` is the total simulated
    time sources spent paused by backpressure, ``admission_rejected``
    counts closed-loop requests turned away by the admission
    controller, and ``issued_requests`` is the number of requests
    clients attempted (``None`` for open-loop runs, where arrivals are
    never rejected and ``external_tuples`` is the whole story).
    """

    duration: float
    external_tuples: int
    completed_trees: int
    dropped_tuples: int
    dropped_trees: int
    mean_sojourn: Optional[float]
    std_sojourn: Optional[float]
    p95_sojourn: Optional[float]
    per_operator_processed: Dict[str, int]
    per_operator_wait: Dict[str, Optional[float]]
    per_operator_service: Dict[str, Optional[float]]
    rebalances: int
    blocked_time: float = 0.0
    admission_rejected: int = 0
    issued_requests: Optional[int] = None

    @property
    def completion_ratio(self) -> float:
        if self.external_tuples == 0:
            return 1.0
        return self.completed_trees / self.external_tuples


class _Executor:
    """One executor: a queue, a busy flag, its index and (under jsq) the
    operator's load list it was built with.  A finish decrements
    ``loads[index]`` there, so an executor orphaned by a resize only
    touches its own, discarded list.  ``payload`` / ``duration`` hold
    the in-service tuple between the start and finish events (one tuple
    in service at a time).  Under a platform, ``machine`` / ``speed``
    pin the executor to its host (service draws divide by the speed)
    and ``dead`` marks an executor whose machine failed mid-service:
    its pending finish event drops the tuple."""

    __slots__ = (
        "queue",
        "busy",
        "index",
        "loads",
        "payload",
        "duration",
        "machine",
        "speed",
        "dead",
    )

    def __init__(self, index: int = 0, loads: Optional[List[int]] = None):
        self.queue: deque = deque()
        self.busy = False
        self.index = index
        self.loads = loads
        self.payload = None
        self.duration = 0.0
        self.machine = 0
        self.speed = 1.0
        self.dead = False


class _Route:
    """Precomputed per-edge routing record (built once per runtime).

    ``sel`` is ``None`` for free-choice edges (shuffle / no grouping) and
    the grouping object otherwise; ``base``/``frac`` are the integer and
    fractional parts of a deterministic gain (``fanout is None``);
    ``arrivals`` is the target operator's measurement counter, updated
    inline by the emission loop; ``transfer`` is the per-edge transport
    delay: the legacy ``hop_latency`` constant, which a platform
    overwrites with the placement-mean link cost."""

    __slots__ = (
        "op",
        "sel",
        "fanout",
        "base",
        "frac",
        "arrivals",
        "transfer",
    )

    def __init__(self, edge, op, measurer: Measurer, transfer: float):
        self.op = op
        grouping = edge.grouping
        free_choice = grouping is None or isinstance(grouping, ShuffleGrouping)
        self.sel = None if free_choice else grouping
        self.fanout = edge.fanout
        gain = edge.gain
        base = int(gain)
        self.base = base
        self.frac = gain - base
        self.arrivals = measurer.arrival_counter(edge.target)
        self.transfer = transfer


class _SpoutSource:
    """Per-spout emission state: prebound arrival process, RNG stream
    and outgoing routes.  ``full_routes`` counts the routes into a full
    queue (backpressure pauses the source while it is non-zero)."""

    __slots__ = ("name", "rng", "next_gap", "routes", "full_routes")

    def __init__(self, name, rng, process, routes):
        self.name = name
        self.rng = rng
        self.next_gap = process.next_gap
        self.routes = routes
        self.full_routes = 0


class _OperatorRuntime:
    """Mutable per-operator execution state."""

    __slots__ = (
        "name",
        "shared",
        "jsq",
        "executors",
        "jsq_loads",
        "jsq_heap",
        "jsq_rebuild",
        "shared_queue",
        "held",
        "queued",
        "processed",
        "wait_count",
        "wait_mean",
        "service_count",
        "service_mean",
        "out_routes",
        "sample_service",
        "service_rng",
        "service_acc",
        "service_random",
        "service_rate",
        "service_mu",
        "service_sigma",
        "full",
        "full_routes",
    )

    def __init__(self, name: str, service: Distribution, discipline: str):
        self.name = name
        self.shared = discipline == "shared"
        self.jsq = discipline == "jsq"
        self.executors: List[_Executor] = []
        self.jsq_loads: Optional[List[int]] = None
        self.jsq_heap: Optional[List[Tuple[int, int]]] = None
        self.jsq_rebuild = 0
        self.shared_queue: deque = deque()
        self.held: deque = deque()  # buffer used while paused
        self.queued = 0  # len(shared_queue) + len(held) + sum executor queues
        self.processed = 0
        # Per-stage observability: count and running mean of the time
        # spent waiting in this operator's queues and in service
        # (validated against M/M/k theory in tests).
        self.wait_count = 0
        self.wait_mean = 0.0
        self.service_count = 0
        self.service_mean = 0.0
        # Hot-path bindings filled in by TopologyRuntime.__init__.
        self.out_routes: Tuple[_Route, ...] = ()
        self.sample_service = service.sample
        self.service_rng = None
        self.service_acc = None  # the measurer's SampledAccumulator
        # Exponential and lognormal services are drawn inline with the
        # exact ``random.Random`` formulas (Python 3.10–3.12) on the same
        # stream, minus the interpreter frames of a ``sample`` call:
        # ``service_random`` is the stream's ``random``; ``service_sigma``
        # is ``None`` for an exponential (``service_rate``) and the
        # lognormal's sigma otherwise (with ``service_mu``).
        self.service_random: Optional[Callable[[], float]] = None
        self.service_rate = 0.0
        self.service_mu = 0.0
        self.service_sigma: Optional[float] = None
        # Backpressure state (inert without it): ``full`` marks a queue
        # at its limit; ``full_routes`` counts out-routes into one.
        self.full = False
        self.full_routes = 0

    def set_executors(self, k: int) -> None:
        """Install ``k`` fresh executors (with a fresh jsq load list, and
        a jsq heap when the parallelism warrants one)."""
        if not self.jsq:
            self.executors = [_Executor(i) for i in range(k)]
            return
        loads = [0] * k
        self.jsq_loads = loads
        self.executors = [_Executor(i, loads) for i in range(k)]
        if k >= _JSQ_HEAP_MIN:
            self.jsq_heap = [(0, i) for i in range(k)]  # sorted == heapified
            # Compact stale pairs when the heap outgrows this bound.
            self.jsq_rebuild = max(64, 8 * k)
        else:
            self.jsq_heap = None
            self.jsq_rebuild = 0

    def resize(self, k: int) -> List[dict]:
        """Replace executors with ``k`` fresh ones; returns displaced
        payloads (enqueue timestamps are dropped — the wait across a
        rebalance is re-measured from re-insertion)."""
        displaced: List[dict] = []
        for executor in self.executors:
            displaced.extend(entry[0] for entry in executor.queue)
            executor.queue.clear()
        displaced.extend(entry[0] for entry in self.shared_queue)
        self.shared_queue.clear()
        self.queued -= len(displaced)
        self.set_executors(k)
        return displaced


class TopologyRuntime:
    """Drives one topology through simulated time.

    Typical use::

        sim = Simulator()
        runtime = TopologyRuntime(sim, topology, allocation, options)
        runtime.start()
        sim.run_until(600.0)
        stats = runtime.stats()
    """

    def __init__(
        self,
        simulator: Simulator,
        topology: Topology,
        allocation: Allocation,
        options: Optional[RuntimeOptions] = None,
    ):
        self._sim = simulator
        self._topology = topology
        self._options = options or RuntimeOptions()
        if tuple(allocation.names) != topology.operator_names:
            raise SchedulingError(
                "allocation operators do not match the topology: "
                f"{allocation.names} vs {topology.operator_names}"
            )
        rng_factory = RngFactory(self._options.seed)
        self._route_rng = rng_factory.stream("routing")
        self._service_rngs = {
            name: rng_factory.stream("service", name)
            for name in topology.operator_names
        }
        self._spout_rngs = {
            name: rng_factory.stream("spout", name) for name in topology.spouts
        }
        # Arrival processes can be stateful (rate-modulated, MMPP, trace
        # replay); deep-copy them so several runtimes can share one
        # Topology object without leaking clock state across runs.  An
        # ``arrival_model`` replaces each spout's process (the model
        # reads the nominal mean rate and builds a fresh process per
        # spout); an ``arrival_rate_phases`` schedule then wraps the
        # result, so specs can modulate load without a custom workload.
        self._arrival_processes = {}
        for name, spout in topology.spouts.items():
            if self._options.arrival_model is not None:
                process = self._options.arrival_model.build(spout.arrivals)
            else:
                process = copy.deepcopy(spout.arrivals)
            if self._options.arrival_rate_phases is not None:
                process = PhasedArrivalProcess(
                    process, self._options.arrival_rate_phases
                )
            self._arrival_processes[name] = process
        self._fanout_rng = rng_factory.stream("fanout")

        self._operators: Dict[str, _OperatorRuntime] = {}
        for name in topology.operator_names:
            operator = topology.operator(name)
            runtime = _OperatorRuntime(
                name, operator.service_time, self._options.queue_discipline
            )
            runtime.set_executors(allocation[name])
            self._operators[name] = runtime

        self._measurer = Measurer(
            topology.operator_names, self._options.measurement
        )
        self._external_counter = self._measurer.external_counter()
        hop = self._options.hop_latency
        for name, runtime in self._operators.items():
            runtime.service_acc = self._measurer.service_accumulator(name)
            runtime.service_rng = self._service_rngs[name]
            service_dist = topology.operator(name).service_time
            if type(service_dist) is ExponentialDistribution:
                runtime.service_random = runtime.service_rng.random
                runtime.service_rate = service_dist.rate
            elif type(service_dist) is LogNormalDistribution:
                runtime.service_random = runtime.service_rng.random
                runtime.service_mu = service_dist.mu
                runtime.service_sigma = service_dist.sigma
            runtime.out_routes = tuple(
                _Route(edge, self._operators[edge.target], self._measurer, hop)
                for edge in topology.out_edges(name)
            )
        self._spout_sources: List[_SpoutSource] = [
            _SpoutSource(
                name,
                self._spout_rngs[name],
                self._arrival_processes[name],
                tuple(
                    _Route(edge, self._operators[edge.target], self._measurer, hop)
                    for edge in topology.out_edges(name)
                ),
            )
            for name in topology.spouts
        ]

        self._tracker = TupleTreeTracker(on_complete=self._on_tree_complete)
        # The tracker never reassigns its root table; cache it (and the
        # tree-size bound) to skip two attribute hops per event.
        self._roots = self._tracker._roots
        self._max_tree_size = self._tracker._max_tree_size
        self._allocation = allocation
        self._paused = False
        self._started = False
        self._root_counter = 0
        self._external_tuples = 0
        self._dropped_tuples = 0
        self._rebalances = 0
        # Parallel completion arrays (times are nondecreasing): cheaper
        # to append than tuple pairs, and ``stats()`` can bisect warmups.
        self._completion_times: List[float] = []
        self._completion_sojourns: List[float] = []
        self._stats_cache: Dict[Tuple[float, int], tuple] = {}
        self._reports: List[MeasurementReport] = []
        self.on_measurement: Optional[Callable[[MeasurementReport], None]] = None

        #: ``(time, machine_name, "down"|"up")`` churn transitions applied.
        self.node_events: List[Tuple[float, str, str]] = []

        # Hot-path constants, prebound RNG methods and typed-event kinds.
        self._queue_limit = self._options.queue_limit
        # Hooks a feature may replace: what a tuple meeting a queue of
        # ``_overflow_at`` tuples does (True: consumed), and what a tree
        # leaving the system releases (sojourn ``None``: dropped).
        self._overflow_at = self._queue_limit
        self._overflow: Callable[[_OperatorRuntime, dict], bool] = self._drop_overflow
        self._root_exit: Callable[[int, Optional[float]], None] = lambda root, sojourn: None
        self._pull_interval = self._options.measurement.pull_interval
        self._fanout_random = self._fanout_rng.random
        self._route_randrange = self._route_rng.randrange
        self._kind_spout = simulator.register_handler(self._on_spout)
        self._kind_hop = simulator.register_handler(self._on_hop)
        self._kind_finish = simulator.register_handler(self._on_finish)
        self._kind_tick = simulator.register_handler(self._on_tick)

        # Opt-in features (repro.sim.features); each binds its own hooks.
        options = self._options
        self._platform: Optional[Platform] = None
        self._backpressure: Optional[Backpressure] = None
        self._clients: Optional[ClosedLoopClients] = None
        if options.platform is not None:
            churn_rng = rng_factory.stream("churn")
            self._platform = Platform(self, options.platform, allocation, churn_rng)
        if options.backpressure:
            self._backpressure = Backpressure(self, options.queue_limit)
        if options.closed_loop is not None:
            self._clients = ClosedLoopClients(self, options.closed_loop)

    # ------------------------------------------------------------------
    # public accessors
    # ------------------------------------------------------------------
    @property
    def simulator(self) -> Simulator:
        return self._sim

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def options(self) -> RuntimeOptions:
        return self._options

    @property
    def allocation(self) -> Allocation:
        return self._allocation

    @property
    def measurer(self) -> Measurer:
        return self._measurer

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def reports(self) -> List[MeasurementReport]:
        """All measurement reports pulled so far."""
        return list(self._reports)

    @property
    def completions(self) -> List[Tuple[float, float]]:
        """(completion_time, sojourn) of every completed tree."""
        return list(zip(self._completion_times, self._completion_sojourns))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first spout arrivals and the measurement tick."""
        if self._started:
            raise SimulationError("runtime already started")
        self._started = True
        sim = self._sim
        if self._clients is None:
            for source in self._spout_sources:
                gap = source.next_gap(sim.now, source.rng)
                sim.schedule_event(gap, self._kind_spout, source)
        else:
            self._clients.start()
        sim.schedule_event(self._pull_interval, self._kind_tick)
        if self._platform is not None:
            self._platform.start()

    def apply_allocation(
        self,
        new_allocation: Allocation,
        *,
        machines_added: int = 0,
        machines_removed: int = 0,
    ) -> float:
        """Rebalance to ``new_allocation``; returns the pause duration.

        The topology pauses (bolts stop starting work; arrivals keep
        buffering) for the cost-model duration, then resumes with the
        new executor counts and all buffered tuples redistributed.
        """
        if tuple(new_allocation.names) != self._topology.operator_names:
            raise SchedulingError("allocation does not match the topology")
        if self._paused:
            raise SimulationError("rebalance already in progress")
        stateful_moved = sum(
            abs(delta)
            for name, delta in new_allocation.moves_from(self._allocation).items()
            if self._topology.operator(name).stateful
        )
        pause = self._options.rebalance_cost.pause_duration(
            machines_added=machines_added,
            machines_removed=machines_removed,
            stateful_executors_moved=stateful_moved,
        )
        self._rebalances += 1
        self._paused = True
        # Move all queued tuples into per-operator holding buffers.
        for runtime in self._operators.values():
            displaced = runtime.resize(0)
            runtime.held.extend(displaced)
            runtime.queued += len(displaced)

        def resume() -> None:
            self._allocation = new_allocation
            for name, runtime in self._operators.items():
                runtime.set_executors(new_allocation[name])
            if self._platform is not None:
                self._platform.rebind(new_allocation)
            self._paused = False
            for runtime in self._operators.values():
                held = list(runtime.held)
                runtime.held.clear()
                runtime.queued -= len(held)
                for payload in held:
                    self._deliver(runtime, payload, None)
            if self._backpressure is not None:
                # Queue depths moved arbitrarily during redistribution;
                # re-derive every full flag and wake what drained.
                self._backpressure.sync()
            # Old smoothed metrics describe the previous configuration.
            self._measurer.reset_smoothing()

        self._sim.schedule(pause, resume)
        return pause

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self, *, warmup: float = 0.0) -> RunStats:
        """Aggregate results, ignoring completions before ``warmup``."""
        mean, std, p95 = self._window_summary(warmup)
        clients = self._clients
        return RunStats(
            duration=self._sim.now,
            external_tuples=self._external_tuples,
            completed_trees=self._tracker.completed,
            dropped_tuples=self._dropped_tuples,
            dropped_trees=self._tracker.dropped,
            mean_sojourn=mean,
            std_sojourn=std,
            p95_sojourn=p95,
            per_operator_processed={
                name: runtime.processed
                for name, runtime in self._operators.items()
            },
            per_operator_wait={
                name: runtime.wait_mean if runtime.wait_count else None
                for name, runtime in self._operators.items()
            },
            per_operator_service={
                name: runtime.service_mean if runtime.service_count else None
                for name, runtime in self._operators.items()
            },
            rebalances=self._rebalances,
            blocked_time=(
                self._backpressure.blocked_time
                if self._backpressure is not None
                else 0.0
            ),
            admission_rejected=clients.rejected if clients is not None else 0,
            issued_requests=clients.issued if clients is not None else None,
        )

    def _window_summary(self, warmup: float) -> tuple:
        """(mean, std, p95) of the completions with ``t >= warmup``.

        The result is cached per ``(warmup, completion_count)`` so
        per-window report rendering does not re-scan an unchanged window
        on every call.
        """
        times = self._completion_times
        key = (warmup, len(times))
        cached = self._stats_cache.get(key)
        if cached is not None:
            return cached
        window = self._window(warmup)
        acc = WelfordAccumulator()
        for sojourn in window:
            acc.add(sojourn)
        result = (
            acc.mean if acc.count else None,
            acc.std if acc.count else None,
            _p95(window),
        )
        if len(self._stats_cache) >= 64:
            self._stats_cache.clear()
        self._stats_cache[key] = result
        return result

    def recent_p95(self, window: float) -> Optional[float]:
        """p95 sojourn over the completions of the last ``window`` seconds.

        The recency signal behind latency-target feedback policies
        (``slo_feedback``): completed-tree statistics over the whole run
        lag the present, while a trailing window tracks it.  ``None``
        until something completes inside the window.
        """
        if window <= 0:
            raise SimulationError("recent_p95 window must be > 0")
        cut = self._sim.now - window
        return _p95(self._window(cut if cut > 0.0 else 0.0))

    def _window(self, warmup: float) -> List[float]:
        """The sojourns of the completions with ``t >= warmup``.

        Completion times are nondecreasing, so the cut is a bisect
        instead of a full scan."""
        lo = bisect_left(self._completion_times, warmup) if warmup > 0.0 else 0
        return self._completion_sojourns[lo:]

    def timeline(self) -> List[Tuple[float, Optional[float], int]]:
        """Per-bucket mean sojourn: [(bucket_start, mean, count), ...].

        Buckets of ``options.timeline_bucket`` seconds — the minute-by-
        minute curves of Fig. 9/10.
        """
        bucket = self._options.timeline_bucket
        if not self._completion_times:
            return []
        horizon = self._sim.now
        n_buckets = int(math.ceil(horizon / bucket)) or 1
        sums = [0.0] * n_buckets
        counts = [0] * n_buckets
        last = n_buckets - 1
        for t, sojourn in zip(self._completion_times, self._completion_sojourns):
            index = min(last, int(t / bucket))
            sums[index] += sojourn
            counts[index] += 1
        return [
            (i * bucket, (sums[i] / counts[i]) if counts[i] else None, counts[i])
            for i in range(n_buckets)
        ]

    def check_conservation(self) -> None:
        """Every tracked tree is completed, in flight, or dropped, and
        every jsq executor's entry in its operator's load list is its
        ``len(queue) + busy``.

        Closed-loop runs add the clients' own identities
        (:meth:`ClosedLoopClients.check_conservation`).
        """
        accounted = self._tracker.completed + self._tracker.in_flight
        accounted += self._tracker.dropped
        if accounted != self._external_tuples:
            raise SimulationError(
                f"conservation violated: {self._external_tuples} external"
                f" tuples but {accounted} accounted for"
            )
        for op in self._operators.values():
            loads = op.jsq_loads
            if loads is None:
                continue
            for executor in op.executors:
                held = len(executor.queue) + executor.busy
                if loads[executor.index] != held:
                    raise SimulationError(
                        f"conservation violated: {op.name} executor"
                        f" {executor.index} has load"
                        f" {loads[executor.index]} but holds {held} tuples"
                    )
        if self._clients is not None:
            self._clients.check_conservation(self._external_tuples)

    # ------------------------------------------------------------------
    # typed-event handlers (the hot path)
    #
    # Every copy takes one path: ``_emit_tuples`` -> ``_deliver`` (now,
    # or via ``_on_hop`` after the route's transfer delay) ->
    # ``_begin_service``.  They inline counter, Welford and tuple-tree
    # updates and the finish-event push, with the same arithmetic,
    # validation and sequence numbering as the methods they replace.
    # RNG draw order: fanout draw, then per-copy routing and service
    # draws.  Any change here must keep tests/test_golden_determinism.py
    # green without regenerating its fixtures.
    # ------------------------------------------------------------------
    def _emit_tuples(self, routes, payload, root, external: bool) -> None:
        """Emit one processed tuple's downstream copies along ``routes``.

        Samples each route's copy count, grows the tuple tree, then
        hands every copy to ``_deliver`` (after its transfer delay when
        the route has one)."""
        sim = self._sim
        roots = self._roots
        ext_counter = self._external_counter if external else None
        frandom = self._fanout_random
        state = roots.get(root)
        for route in routes:
            fanout = route.fanout
            if fanout is None:
                count = route.base
                frac = route.frac
                if frac > 0 and frandom() < frac:
                    count += 1
            else:
                value = fanout.sample(self._fanout_rng)
                if value < 0:
                    count = 0
                else:
                    count = int(value)
                    frac = value - count
                    if frac > 0 and frandom() < frac:
                        count += 1
            if count <= 0:
                continue
            # inline TupleTreeTracker.add_pending (count >= 1 here)
            if state is not None:
                state[1] += count
                size = state[2] + count
                state[2] = size
                if size > self._max_tree_size:
                    self._drop_oversized(root)
                    state = None
            route.arrivals._count += count
            if ext_counter is not None:
                ext_counter._count += count
            if route.transfer > 0.0:
                # One event for all copies: they would share a time and
                # consecutive sequence numbers, so none can interleave.
                sim.schedule_event(
                    route.transfer, self._kind_hop, route, (payload, count)
                )
            else:
                op = route.op
                sel = route.sel
                for _ in range(count):
                    self._deliver(op, payload, sel)

    def _inject(self, routes, now: float) -> None:
        """Admit one external tuple: register its tree root (numbered
        ``_root_counter``), emit it along ``routes``, then complete the
        root itself."""
        root_id = self._root_counter
        self._root_counter = root_id + 1
        self._external_tuples += 1
        tracker = self._tracker
        tracker.register_root(root_id, now)
        self._emit_tuples(routes, {"root": root_id}, root_id, True)
        # The root "tuple" itself needs no processing once emitted.
        tracker.complete_one(root_id, now)

    def _on_spout(self, source: _SpoutSource, _unused) -> None:
        """One external arrival: emit its tuple tree roots, then
        schedule the next arrival of this spout."""
        sim = self._sim
        now = sim._now
        if source.full_routes:
            # A downstream queue is full: pause the source.  The next
            # arrival is *not* scheduled — the deferred emission (and
            # the gap after it) resume when the queue drains.
            self._backpressure.park(source, self._on_spout, source)
            return
        self._inject(source.routes, now)
        gap = source.next_gap(sim._now, source.rng)
        sim.schedule_event(gap, self._kind_spout, source)

    def _on_hop(self, route: _Route, batch: Tuple[dict, int]) -> None:
        """``count`` copies of a tuple arrive at their target after a
        non-zero hop delay; each counts as one processed event."""
        payload, count = batch
        if count > 1:
            self._sim._processed += count - 1
        op = route.op
        sel = route.sel
        for _ in range(count):
            self._deliver(op, payload, sel)

    def _on_finish(self, op: _OperatorRuntime, executor: _Executor) -> None:
        """Service completion: emit downstream tuples, then pull the
        executor's next queued tuple (or the shared queue's head)."""
        if executor.dead:
            # The machine went down mid-service: the in-flight tuple is
            # lost.  (Queued tuples were already redistributed by the
            # node_down handler; only the in-service payload dies here.)
            executor.dead = False
            payload = executor.payload
            executor.payload = None
            executor.busy = False
            if payload is not None:
                self._drop(payload)
            return
        now = self._sim._now
        op.processed += 1
        duration = executor.duration
        # inline SampledAccumulator.offer (the measurer's service channel)
        acc = op.service_acc
        phase = acc._phase + 1
        if phase >= acc._every:
            acc._phase = 0
            acc._sum += duration
            acc._sum_squares += duration * duration
            acc._n += 1
        else:
            acc._phase = phase
        payload = executor.payload
        executor.payload = None
        root = payload["root"]
        roots = self._roots
        routes = op.out_routes
        if routes:
            self._emit_tuples(routes, payload, root, False)
        # inline TupleTreeTracker.complete_one (refreshed get: a queue
        # drop during emission may have removed the tree)
        state = roots.get(root)
        if state is not None:
            pending = state[1] - 1
            if pending > 0:
                state[1] = pending
            elif pending == 0:
                arrival = state[0]
                del roots[root]
                self._tracker._completed += 1
                self._on_tree_complete(root, arrival, now - arrival)
            else:
                state[1] = pending
                self._tracker.complete_one(root, now)  # raises the error
        executor.busy = False
        loads = executor.loads
        if loads is not None:
            index = executor.index
            load = loads[index] - 1
            loads[index] = load
            jheap = op.jsq_heap
            # An executor orphaned by a resize still finishes, but its
            # list is no longer the operator's and its pair no longer
            # belongs in the (new) heap.
            if jheap is not None and loads is op.jsq_loads:
                _heappush(jheap, (load, index))
        if op.shared:
            self._kick_shared(op)
            return
        if self._paused or op.full_routes:
            # Rebalancing, or a successor queue is full: leave the
            # executor idle (the resume or the successor's drain wakes
            # it).
            return
        if executor.queue:
            self._begin_service(op, executor)

    def _on_tick(self, _a, _b) -> None:
        report = self._measurer.pull(self._sim.now)
        self._reports.append(report)
        if self.on_measurement is not None:
            self.on_measurement(report)
        self._sim.schedule_event(self._pull_interval, self._kind_tick)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _deliver(
        self,
        op: _OperatorRuntime,
        payload: dict,
        grouping,
    ) -> None:
        """Route a tuple into ``op``: queue it, or start it at once on
        the chosen executor when that one is idle.

        ``grouping`` is ``None`` for free-choice tuples (shuffle edges
        and rebalance redistribution) and the grouping object otherwise.
        """
        at = self._overflow_at
        if at is not None and op.queued >= at and self._overflow(op, payload):
            return
        if self._paused:
            op.held.append(payload)
            op.queued += 1
            return
        now = self._sim._now
        can_start = not op.full_routes
        if op.shared:
            op.shared_queue.append((payload, now))
            op.queued += 1
            if can_start:
                self._kick_shared(op)
            return
        executors = op.executors
        n = len(executors)
        if n == 0:
            self._drop(payload)
            return
        # Per-executor queues: the grouping picks the executor(s).  Under
        # "jsq" a shuffle-grouped (or redistributed) tuple goes to the
        # least-loaded executor instead of a random one — the behaviour a
        # load-balanced real deployment approximates, and the setting
        # under which the M/M/k model is accurate.  Key-based groupings
        # (fields/global/broadcast) are always honoured exactly.
        if grouping is None:
            loads = op.jsq_loads
            jheap = op.jsq_heap
            if jheap is not None:
                # Lazy min-heap: pop stale (load, index) pairs until the
                # top matches its executor's current load.  Because every
                # load change pushes a fresh pair, the heap always holds
                # each executor's current pair, so the first valid top is
                # the scan's answer: minimum load, lowest index on ties.
                while True:
                    load, index = jheap[0]
                    if loads[index] == load:
                        break
                    _heappop(jheap)
                load += 1
                loads[index] = load
                _heappush(jheap, (load, index))
                if len(jheap) > op.jsq_rebuild:
                    # Rare compaction: drop stale pairs (a sorted list of
                    # the current pairs is already a valid heap).
                    jheap[:] = sorted(zip(loads, range(n)))
                executor = executors[index]
            elif loads is not None:
                # Minimum load, lowest index on ties.
                load = min(loads)
                index = loads.index(load)
                loads[index] = load + 1
                executor = executors[index]
            else:  # hashed
                executor = executors[self._route_randrange(n)]
            if can_start and not executor.busy and not executor.queue:
                # Straight into service: a queue round-trip would record
                # the same zero wait.
                self._begin_service(op, executor, payload, now)
                return
            executor.queue.append((payload, now))
            op.queued += 1
            if can_start and not executor.busy:
                # Only under backpressure: older tuples waited here
                # while a successor was full; they go first.
                self._begin_service(op, executor)
            return
        indices = grouping.select_tasks(payload, n, self._route_rng)
        if not indices:
            self._drop(payload)
            return
        copies = len(indices)
        if copies > 1:
            # Replication (broadcast): each copy is an extra pending
            # tuple (inline TupleTreeTracker.add_pending).
            root = payload["root"]
            state = self._roots.get(root)
            if state is not None:
                state[1] += copies - 1
                state[2] += copies - 1
                if state[2] > self._max_tree_size:
                    self._drop_oversized(root)
        loads = op.jsq_loads
        jheap = op.jsq_heap
        for index in indices:
            executor = executors[index]
            executor.queue.append((payload, now))
            op.queued += 1
            if loads is not None:
                load = loads[index] + 1
                loads[index] = load
                if jheap is not None:
                    _heappush(jheap, (load, index))
                    if len(jheap) > op.jsq_rebuild:
                        jheap[:] = sorted(zip(loads, range(n)))
            if can_start and not executor.busy:
                self._begin_service(op, executor)

    def _drop(self, payload: dict) -> None:
        self._dropped_tuples += 1
        # Abandon the whole tree: a dropped intermediate result means the
        # external tuple can never be fully processed.
        root = payload["root"]
        self._tracker.drop_tree(root)
        self._root_exit(root, None)

    def _drop_oversized(self, root: int) -> None:
        """Abandon a tree that outgrew the tracker's size cap.

        An exploding tree means an unstable feedback loop: the tree is
        dropped (and counted, so callers can alert) and leaves the
        system like any other.  No tuple is dropped — copies still in
        flight are served, they just no longer belong to a tree.
        """
        if self._roots.pop(root, None) is not None:
            self._tracker._dropped += 1
            self._root_exit(root, None)

    def _drop_overflow(self, op: _OperatorRuntime, payload: dict) -> bool:
        """The default ``_overflow``: a full queue drops the tuple."""
        self._drop(payload)
        return True

    # ------------------------------------------------------------------
    # bolt side
    # ------------------------------------------------------------------
    def _kick_shared(self, op: _OperatorRuntime) -> None:
        if self._paused or op.full_routes:
            return
        shared_queue = op.shared_queue
        if not shared_queue:
            return
        for executor in op.executors:
            if not shared_queue:
                break
            if not executor.busy:
                payload, enqueued_at = shared_queue.popleft()
                op.queued -= 1
                self._begin_service(op, executor, payload, enqueued_at)

    def _begin_service(self, op, executor, payload=None, enqueued_at=0.0) -> None:
        """Start serving ``payload`` (default: the executor's queue
        head): record its queue wait, draw the service time and push the
        finish event.

        The one service-start routine.  Callers guarantee the executor
        is idle, the runtime not paused, and either a ``payload`` with
        an empty queue or a non-empty queue."""
        executor.busy = True
        if payload is None:
            payload, enqueued_at = executor.queue.popleft()
            op.queued -= 1
        sim = self._sim
        now = sim._now
        # running means (WelfordAccumulator's recurrence) of the queue
        # wait and the service time
        n = op.wait_count + 1
        op.wait_count = n
        mean = op.wait_mean
        op.wait_mean = mean + (now - enqueued_at - mean) / n
        srandom = op.service_random
        if srandom is None:
            duration = op.sample_service(op.service_rng)
        elif op.service_sigma is None:  # inline expovariate
            duration = -_log(1.0 - srandom()) / op.service_rate
        else:  # inline lognormvariate: exp(normalvariate(mu, sigma))
            while True:
                u1 = srandom()
                u2 = 1.0 - srandom()
                z = _NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -_log(u2):
                    break
            duration = _exp(op.service_mu + z * op.service_sigma)
        duration /= executor.speed
        n = op.service_count + 1
        op.service_count = n
        mean = op.service_mean
        op.service_mean = mean + (duration - mean) / n
        executor.payload = payload
        executor.duration = duration
        # inline Simulator.schedule_event
        if not duration >= 0.0:  # negative or NaN service time
            raise SimulationError(
                f"cannot schedule into the past: delay={duration}"
            )
        time = now + duration
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._queue, (time, seq, self._kind_finish, op, executor))
        if op.full and op.queued < self._queue_limit:
            self._backpressure.drained(op)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def _on_tree_complete(self, root_id: int, arrival: float, sojourn: float) -> None:
        self._measurer.record_sojourn(sojourn)
        self._completion_times.append(self._sim.now)
        self._completion_sojourns.append(sojourn)
        self._root_exit(root_id, sojourn)

    def __repr__(self) -> str:
        return (
            f"TopologyRuntime({self._topology.name!r},"
            f" allocation={self._allocation.spec()},"
            f" t={self._sim.now:.3f})"
        )
