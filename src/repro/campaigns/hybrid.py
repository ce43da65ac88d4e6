"""Model-guided hybrid campaign evaluation: the analytic fast path.

The fidelity audit (:mod:`repro.fidelity`) measures how far the
queueing model drifts from the discrete-event engine and commits the
result as a tolerance manifest.  This module closes the loop: where the
manifest *certifies* the model — feed-forward topology, supported
discipline, Poisson arrivals, an envelope tighter than the caller's
acceptable error — a campaign cell can be answered from the
Jackson/Allen-Cunneen stack in microseconds instead of simulated in
seconds.  Cells outside the envelope (loops, bursty arrivals, regimes
the manifest flags as drifty) still go through the simulator, so the
fast path never silently trades accuracy for speed.

The :class:`AnalyticCellEvaluator` makes that call per cell
(:meth:`~AnalyticCellEvaluator.decide`), produces the
:class:`~repro.scenarios.runner.ReplicationResult`-shaped answer
(:meth:`~AnalyticCellEvaluator.evaluate`), and stamps every admitted
cell with provenance — manifest version, the envelope rule that
admitted it, the margin in force — which the stores persist next to the
result (``path: "analytic"``).  A store is therefore auditable after
the fact: every record says whether it was simulated or model-derived,
and under which committed envelope.

Evaluator state is memoized across neighboring cells: predictions are
keyed by the (frozen, hashable) :class:`~repro.apps.fidelity.
FidelityWorkload`; their traffic solve and p95 bound, which read no
SCV, are shared by every cell with the same rates (and, for the bound,
the same allocation: ``networks`` and ``bounds`` of
:func:`~repro.fidelity.analytic.predict_sojourn`); and the per-operator
Erlang recurrence is carried forward along ascending server counts
(:meth:`~repro.queueing.erlang.ErlangMarginalEvaluator.advance_to`), so
a k-sweep costs one warm-up instead of one O(k) Erlang-B per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.apps.fidelity import FidelityWorkload
from repro.exceptions import ConfigurationError
from repro.queueing.erlang import ErlangMarginalEvaluator
from repro.scenarios.runner import ReplicationResult, replication_seed
from repro.scenarios.spec import ScenarioSpec
from repro.campaigns.store import record_path

if TYPE_CHECKING:  # pragma: no cover
    from repro.fidelity.manifest import ToleranceManifest
    from repro.queueing.jackson import JacksonNetwork

# :mod:`repro.fidelity` is imported lazily inside the methods that need
# it: its package __init__ pulls the audit, which imports the campaign
# runner — which imports this module.  Deferring to call time breaks
# the cycle without restructuring either package.

#: Committed tolerance manifest the default evaluator trusts — the same
#: file the CI fidelity gate enforces, so the fast path and the audit
#: can never disagree about what "certified" means.
DEFAULT_MANIFEST_RELPATH = Path("tests/golden/fidelity_tolerances.json")

#: Widest per-metric relative model error the hybrid path accepts by
#: default.  A cell is answered analytically only when its manifest
#: envelope (times the safety margin) fits inside this.
DEFAULT_MAX_REL_ERROR = 0.10

#: Metrics whose envelopes gate admission.  Headline sojourn plus the
#: waiting component — the two quantities campaign reports aggregate.
GATED_METRICS = ("mean_sojourn", "waiting_time")

#: Topologies the product-form stack composes without feedback terms.
#: ``loop`` is deliberately absent: its visit-ratio expansion is exact
#: for means but the store's per-operator schema assumes feed-forward
#: visit counts, and the audit's loop envelope is measured against the
#: simulator's tree semantics — so loops always simulate.
FEED_FORWARD_TOPOLOGIES = ("single", "linear", "fanout")

#: Queue disciplines with committed envelopes.
SUPPORTED_DISCIPLINES = ("shared", "jsq")

#: One-line summaries for ``repro list-evaluation-modes``.
EVALUATION_MODE_DESCRIPTIONS: Dict[str, str] = {
    "simulate": (
        "discrete-event simulation for every cell"
        " (default; bit-identical to previous releases)"
    ),
    "hybrid": (
        "analytic fast path for cells the tolerance manifest certifies,"
        " simulation for everything outside the envelope"
    ),
    "analytic": (
        "analytic answers only; fails loudly on the first cell the"
        " envelope cannot certify"
    ),
}


@dataclass(frozen=True)
class AnalyticDecision:
    """Why one cell was (or was not) admitted to the analytic path.

    ``rule`` and ``tolerance`` name the manifest entry that bound the
    admission under the max rule — the widest envelope among the gated
    metrics — so reports and store provenance can attribute every
    analytic answer to a committed number.
    """

    analytic_capable: bool
    reason: str
    rule: str = ""
    tolerance: float = math.inf

    @property
    def path(self) -> str:
        return "analytic" if self.analytic_capable else "simulated"


def record_usable(record: Mapping[str, Any], decided_path: str) -> bool:
    """Whether a cached store record satisfies the current decision.

    A cell decided *simulated* must not reuse an analytic record — that
    is the resume contract: re-opening a hybrid-mode store with
    ``evaluation: "simulate"`` recomputes exactly the analytic-path
    cells.  A cell decided *analytic* accepts either (a simulated
    answer is strictly more accurate than the envelope demands).
    Records from before provenance existed rehydrate as ``simulated``
    and stay usable everywhere.
    """
    if decided_path == "analytic":
        return True
    return record_path(record) == "simulated"


class AnalyticCellEvaluator:
    """Decides and answers analytic-capable campaign cells.

    ``max_rel_error`` is the caller's accuracy requirement;
    ``safety_margin`` scales the manifest envelope before the
    comparison, so margins above 1 only ever convert analytic cells to
    simulated ones (monotone tightening, never the reverse).
    """

    def __init__(
        self,
        manifest: ToleranceManifest,
        *,
        max_rel_error: float = DEFAULT_MAX_REL_ERROR,
        safety_margin: float = 1.0,
        metrics: Sequence[str] = GATED_METRICS,
        manifest_path: Optional[Path] = None,
    ):
        if max_rel_error <= 0.0:
            raise ConfigurationError(
                f"max_rel_error must be > 0, got {max_rel_error}"
            )
        if safety_margin <= 0.0:
            raise ConfigurationError(
                f"safety_margin must be > 0, got {safety_margin}"
            )
        if not metrics:
            raise ConfigurationError("at least one gated metric is required")
        self.manifest = manifest
        self.max_rel_error = float(max_rel_error)
        self.safety_margin = float(safety_margin)
        self.metrics: Tuple[str, ...] = tuple(metrics)
        self.manifest_path = Path(manifest_path) if manifest_path else None
        # Memoized evaluator state, reused across neighboring cells in
        # sweep order (the whole point of answering cells centrally).
        # ``(mean_sojourn, p95_sojourn)`` per workload.
        self._predictions: Dict[FidelityWorkload, Tuple[float, float]] = {}
        self._networks: Dict[Tuple, JacksonNetwork] = {}
        self._bounds: Dict[Tuple, float] = {}
        self._erlang: Dict[Tuple[float, float], ErlangMarginalEvaluator] = {}
        self._decisions: Dict[Tuple, AnalyticDecision] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def default(cls, **kwargs: Any) -> "AnalyticCellEvaluator":
        """Evaluator trusting the repo's committed tolerance manifest.

        Looks for ``tests/golden/fidelity_tolerances.json`` under the
        working directory first (a checkout running from its root),
        then next to the installed package source.
        """
        from repro.fidelity.manifest import ToleranceManifest

        candidates = [
            Path.cwd() / DEFAULT_MANIFEST_RELPATH,
            Path(__file__).resolve().parents[3] / DEFAULT_MANIFEST_RELPATH,
        ]
        for candidate in candidates:
            if candidate.is_file():
                return cls(
                    ToleranceManifest.load(candidate),
                    manifest_path=candidate,
                    **kwargs,
                )
        raise ConfigurationError(
            "no tolerance manifest found for hybrid evaluation; pass"
            " --manifest or run from a checkout containing"
            f" {DEFAULT_MANIFEST_RELPATH}"
        )

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def decide(self, spec: ScenarioSpec) -> AnalyticDecision:
        """Whether this cell may be answered analytically, and why."""
        key = self._decision_key(spec)
        cached = self._decisions.get(key)
        if cached is not None:
            return cached
        decision = self._decide(spec)
        self._decisions[key] = decision
        return decision

    def _decide(self, spec: ScenarioSpec) -> AnalyticDecision:
        reject = self._structural_reason(spec)
        if reject is not None:
            return AnalyticDecision(analytic_capable=False, reason=reject)
        try:
            workload = FidelityWorkload(**spec.workload_params)
        except (TypeError, ValueError) as exc:
            return AnalyticDecision(
                analytic_capable=False,
                reason=f"workload parameters not analytic-capable: {exc}",
            )
        if workload.topology not in FEED_FORWARD_TOPOLOGIES:
            return AnalyticDecision(
                analytic_capable=False,
                reason=(
                    f"topology {workload.topology!r} is not feed-forward"
                    f" (supported: {', '.join(FEED_FORWARD_TOPOLOGIES)})"
                ),
            )
        if workload.hop_latency not in (None, 0.0):
            return AnalyticDecision(
                analytic_capable=False,
                reason="non-zero hop latency has no committed envelope",
            )
        # Envelope admission: every gated metric's manifest tolerance,
        # scaled by the safety margin, must fit inside the acceptable
        # error.  The decision records the *widest* envelope (the one
        # that nearly bound) so provenance names the governing rule.
        widest = -math.inf
        widest_rule = ""
        for metric in self.metrics:
            tolerance, rule = self.manifest.tolerance_with_rule(
                metric,
                topology=workload.topology,
                discipline=spec.queue_discipline,
                scv=workload.scv,
                rho=workload.rho,
                arrival="poisson",
            )
            if tolerance > widest:
                widest = tolerance
                widest_rule = f"{metric}/{rule}"
            if tolerance * self.safety_margin > self.max_rel_error:
                return AnalyticDecision(
                    analytic_capable=False,
                    reason=(
                        f"envelope {metric}/{rule} = {tolerance:g}"
                        f" (x{self.safety_margin:g} margin) exceeds"
                        f" max_rel_error {self.max_rel_error:g}"
                    ),
                    rule=f"{metric}/{rule}",
                    tolerance=tolerance,
                )
        return AnalyticDecision(
            analytic_capable=True,
            reason="within committed tolerance envelope",
            rule=widest_rule,
            tolerance=widest,
        )

    def _structural_reason(self, spec: ScenarioSpec) -> Optional[str]:
        """First structural gate this cell fails, or ``None``."""
        if spec.kind != "simulation":
            return f"kind {spec.kind!r} is not a simulation"
        if spec.workload != "fidelity":
            return (
                f"workload {spec.workload!r} has no analytic model"
                " (only 'fidelity' cells are certified)"
            )
        if spec.policy != "none" or spec.policy_params:
            return (
                f"policy {spec.policy!r} adapts at runtime; the analytic"
                " model only covers fixed allocations"
            )
        if spec.rate_phases:
            return "rate phases make the cell non-stationary"
        if spec.arrival_model is not None:
            # Structurally rejected even when the manifest carries an
            # arrival override: the analytic prediction is Poisson-based
            # and non-Poisson envelopes document *measured drift*, not
            # certified accuracy.
            kind = spec.arrival_model.get("kind", "?")
            return f"arrival model {kind!r} is not Poisson"
        if spec.closed_loop is not None:
            return (
                "closed-loop sources couple arrivals to completions; the"
                " analytic model assumes an open arrival stream"
            )
        if spec.queue_limit is not None or spec.backpressure:
            return (
                "bounded queues (drop or backpressure) have no committed"
                " envelope"
            )
        if spec.queue_discipline not in SUPPORTED_DISCIPLINES:
            return (
                f"discipline {spec.queue_discipline!r} has no committed"
                f" envelope (supported: {', '.join(SUPPORTED_DISCIPLINES)})"
            )
        if spec.hop_latency not in (None, 0.0):
            return "non-zero hop latency has no committed envelope"
        if spec.platform is not None:
            return (
                "platform blocks (weighted links, machine speeds, churn)"
                " have no committed envelope"
            )
        if spec.measurement is not None:
            return "measurement-noise overlays require simulation"
        if spec.cluster is not None or spec.initial_machines is not None:
            return "cluster/VLD dynamics require simulation"
        if spec.recommend_kmax is not None:
            return "allocation recommendation requires the full runner"
        return None

    def _decision_key(self, spec: ScenarioSpec) -> Tuple:
        """Hashable digest of every field :meth:`_decide` reads."""
        return (
            spec.kind,
            spec.workload,
            spec.policy,
            tuple(sorted(spec.policy_params.items())) if spec.policy_params else (),
            bool(spec.rate_phases),
            None if spec.arrival_model is None else str(sorted(spec.arrival_model.items())),
            spec.queue_discipline,
            spec.queue_limit,
            spec.backpressure,
            None
            if spec.closed_loop is None
            else str(sorted(spec.closed_loop.items())),
            spec.hop_latency,
            None if spec.platform is None else str(sorted(spec.platform.items())),
            spec.measurement is None,
            spec.cluster is None,
            spec.initial_machines,
            spec.recommend_kmax,
            tuple(sorted(spec.workload_params.items())),
        )

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, spec: ScenarioSpec, index: int) -> ReplicationResult:
        """The analytic answer for replication ``index`` of this cell.

        Shaped exactly like a simulated :class:`ReplicationResult` so
        stores, aggregators and reports need no special casing: the
        model's stationary expectations stand in for the run's sample
        means, the empty-start quantities (drops, rebalances, actions,
        timeline) are identically zero, and ``std_sojourn`` is ``None``
        — the model predicts means, not run-to-run spread.
        """
        workload = FidelityWorkload(**spec.workload_params)
        mean_sojourn, p95_sojourn = self._predict(workload)
        wait = self._operator_wait(workload)
        waits = {name: wait for name in workload.operator_names}
        services = {
            name: 1.0 / workload.mu for name in workload.operator_names
        }
        external = int(round(workload.external_rate * spec.duration))
        return ReplicationResult(
            index=index,
            seed=replication_seed(spec.seed, index),
            duration=spec.duration,
            external_tuples=external,
            completed_trees=external,
            dropped_tuples=0,
            dropped_trees=0,
            rebalances=0,
            mean_sojourn=mean_sojourn,
            std_sojourn=None,
            p95_sojourn=p95_sojourn,
            final_allocation=spec.initial_allocation
            or workload.allocation_spec(),
            final_machines=None,
            actions=(),
            timeline=(),
            recommendation=None,
            operator_waits=waits,
            operator_services=services,
        )

    def _predict(self, workload: FidelityWorkload) -> Tuple[float, float]:
        """``(mean_sojourn, p95_sojourn)`` of one workload."""
        from repro.fidelity.analytic import predict_sojourn

        cached = self._predictions.get(workload)
        if cached is None:
            sojourn = predict_sojourn(
                workload, networks=self._networks, bounds=self._bounds
            )
            cached = (sojourn.mean_sojourn, sojourn.p95_sojourn)
            self._predictions[workload] = cached
        return cached

    def _operator_wait(self, workload: FidelityWorkload) -> float:
        """Allen-Cunneen mean wait of one operator, via the memoized
        Erlang recurrence.

        Every operator of a feed-forward fidelity cell sees the full
        external rate at the same ``(mu, k)``, so one evaluation covers
        the whole cell; across cells sharing ``(lam, mu)`` the forward
        recurrence answers an ascending k-sweep in O(1) per cell.
        """
        lam = workload.external_rate
        mu = workload.mu
        k = workload.servers
        key = (lam, mu)
        evaluator = self._erlang.get(key)
        if evaluator is None or evaluator.k > k:
            evaluator = ErlangMarginalEvaluator(lam, mu, k)
            self._erlang[key] = evaluator
        else:
            evaluator.advance_to(k)
        sojourn = evaluator.sojourn
        if math.isinf(sojourn):
            return math.inf
        waiting_mmk = sojourn - 1.0 / mu
        return waiting_mmk * (1.0 + workload.scv) / 2.0

    # ------------------------------------------------------------------
    # provenance
    # ------------------------------------------------------------------
    def provenance(self, decision: AnalyticDecision) -> Dict[str, Any]:
        """The audit trail persisted next to every analytic record."""
        from repro.fidelity.manifest import MANIFEST_VERSION

        payload: Dict[str, Any] = {
            "manifest_version": MANIFEST_VERSION,
            "rule": decision.rule,
            "tolerance": decision.tolerance,
            "max_rel_error": self.max_rel_error,
            "safety_margin": self.safety_margin,
            "metrics": list(self.metrics),
        }
        if self.manifest_path is not None:
            payload["manifest"] = str(self.manifest_path)
        return payload


def resolve_evaluator(
    evaluation: str, evaluator: Optional[AnalyticCellEvaluator]
) -> Optional[AnalyticCellEvaluator]:
    """The evaluator a runner should use for ``evaluation`` mode.

    ``simulate`` never builds one (and ignores an injected one), so the
    default mode carries zero new machinery; the hybrid/analytic modes
    fall back to the committed-manifest default when the caller did not
    inject a configured evaluator.
    """
    if evaluation == "simulate":
        return None
    if evaluator is not None:
        return evaluator
    return AnalyticCellEvaluator.default()
