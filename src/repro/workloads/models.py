"""Arrival models: first-class, pluggable descriptions of external load.

The paper's central claim is that DRS holds latency bounds *as input
rates fluctuate*, so how arrivals fluctuate must be a scenario axis,
not something buried in a workload's constructor.  An
:class:`ArrivalModel` is a small, JSON-round-trippable object that takes
a workload's *nominal* arrival process (the one the performance model
plans around) and returns the process that actually drives each spout.
Models are registered in :data:`ARRIVAL_MODELS`, a
:class:`repro.utils.registry.Registry` like the scheduling-policy one,
so a scenario names its traffic the same way it names its policy::

    {"arrival_model": {"kind": "mmpp2", "burst_ratio": 8.0,
                       "mean_burst": 5.0, "mean_gap": 20.0}}

Third-party models plug in with::

    @register_arrival_model("mylab.spiky", "our trace generator")
    def _make(params):
        return MySpikyModel(...)

Factories receive a *mutable copy* of the parameters and must consume
every key they understand; leftovers are rejected so spec typos fail
loudly instead of silently running the wrong traffic.

>>> sorted(available_arrival_models())
['diurnal', 'mmpp2', 'phased', 'poisson', 'trace']
>>> create_arrival_model({"kind": "poisson"}).to_dict()
{'kind': 'poisson', 'rate_multiplier': 1.0}

Built-in kinds
--------------
- ``poisson`` — homogeneous Poisson at the nominal rate (times an
  optional ``rate_multiplier``): the paper's FPD assumption.
- ``phased`` — piecewise-constant rate multipliers, the declarative
  twin of ``rate_phases`` (Fig. 9/10 step loads).
- ``mmpp2`` — two-state Markov-modulated Poisson: bursty, correlated
  traffic parameterised by ``burst_ratio`` (peak over base rate),
  ``mean_burst`` and ``mean_gap`` (expected seconds in the high and low
  regimes), mean-rate preserving by construction.
- ``diurnal`` — sinusoidal rate around the nominal mean (``amplitude``,
  ``period``, ``phase``), the day/night cycle stream workloads see.
- ``trace`` — replay a recorded timestamp file (CSV/NDJSON) or inline
  ``timestamps``; ``mode`` picks verbatim replay, endless looping or
  per-replication bootstrap resampling (see :mod:`repro.workloads.trace`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, MutableMapping, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.randomness.arrival import (
    MMPP2,
    ArrivalProcess,
    PhasedArrivalProcess,
    PoissonProcess,
    SinusoidalRateProcess,
)
from repro.utils.registry import Registry, finite, positive
from repro.workloads.trace import TRACE_MODES, Trace


class ArrivalModel:
    """Abstract arrival model.

    ``build(base)`` receives the workload's nominal arrival process and
    returns a **fresh** process for one spout of one replication —
    arrival processes are stateful (MMPP regime, trace cursor), so the
    runtime calls ``build`` once per spout and never shares the result.
    ``to_dict()`` must round-trip through :func:`create_arrival_model`;
    the campaign layer relies on it for content addressing.
    """

    #: Registry kind, as registered in :data:`ARRIVAL_MODELS`.
    kind: str = ""

    def build(self, base: ArrivalProcess) -> ArrivalProcess:
        """A new arrival process driving one spout (never shared)."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready parameters, including the ``kind`` key."""
        raise NotImplementedError


#: Every registered arrival model.
ARRIVAL_MODELS = Registry("arrival model")

register_arrival_model = ARRIVAL_MODELS.register
available_arrival_models = ARRIVAL_MODELS.available
create_arrival_model = ARRIVAL_MODELS.from_spec


# ----------------------------------------------------------------------
# built-in models
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PoissonModel(ArrivalModel):
    """Homogeneous Poisson at ``rate_multiplier`` times the nominal rate."""

    rate_multiplier: float = 1.0
    kind = "poisson"

    def build(self, base: ArrivalProcess) -> ArrivalProcess:
        return PoissonProcess(base.mean_rate * self.rate_multiplier)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "rate_multiplier": self.rate_multiplier}


@dataclass(frozen=True)
class PhasedModel(ArrivalModel):
    """Piecewise-constant rate multipliers over the workload's process.

    The declarative twin of the spec-level ``rate_phases`` schedule —
    usable as a campaign axis like any other model.
    """

    phases: Tuple[Tuple[float, float], ...]
    kind = "phased"

    def build(self, base: ArrivalProcess) -> ArrivalProcess:
        return PhasedArrivalProcess(copy.deepcopy(base), self.phases)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "phases": [
                {"start": start, "rate_multiplier": multiplier}
                for start, multiplier in self.phases
            ],
        }


@dataclass(frozen=True)
class MMPP2Model(ArrivalModel):
    """Bursty traffic: a mean-rate-preserving two-state MMPP.

    The process alternates Poisson regimes: a *burst* at
    ``burst_ratio`` times the quiet rate with mean dwell ``mean_burst``
    seconds, and a quiet spell with mean dwell ``mean_gap`` seconds.
    The quiet rate is derived so the long-run mean equals the
    workload's nominal rate times ``rate_multiplier`` — so swapping
    ``poisson`` for ``mmpp2`` in a scenario changes *burstiness*
    (arrival-process variability) while holding offered load fixed,
    which is exactly the comparison the ``burst`` fidelity grid makes.
    """

    burst_ratio: float
    mean_burst: float
    mean_gap: float
    rate_multiplier: float = 1.0
    kind = "mmpp2"

    def __post_init__(self):
        # finite() first: a NaN burst_ratio passes the <= comparison and
        # would otherwise surface only mid-replication in a worker.
        if finite("mmpp2 burst_ratio", self.burst_ratio) <= 1.0:
            raise ConfigurationError(
                f"mmpp2 burst_ratio must be > 1 (1 is plain Poisson),"
                f" got {self.burst_ratio}"
            )
        for key in ("mean_burst", "mean_gap", "rate_multiplier"):
            positive(f"mmpp2 {key}", getattr(self, key))

    @property
    def burst_fraction(self) -> float:
        """Long-run fraction of time spent in the burst regime."""
        return self.mean_burst / (self.mean_burst + self.mean_gap)

    def rates_for(self, nominal_rate: float) -> Tuple[float, float]:
        """(quiet, burst) Poisson rates hitting the nominal mean.

        >>> model = MMPP2Model(burst_ratio=4.0, mean_burst=5.0, mean_gap=15.0)
        >>> low, high = model.rates_for(10.0)
        >>> round(low, 6), round(high, 6)
        (5.714286, 22.857143)
        >>> p = model.burst_fraction
        >>> round(p * high + (1 - p) * low, 9)   # mean preserved
        10.0
        """
        mean = nominal_rate * self.rate_multiplier
        p_burst = self.burst_fraction
        low = mean / (1.0 - p_burst + p_burst * self.burst_ratio)
        return low, low * self.burst_ratio

    def build(self, base: ArrivalProcess) -> ArrivalProcess:
        low, high = self.rates_for(base.mean_rate)
        return MMPP2(
            rate_low=low,
            rate_high=high,
            switch_to_high=1.0 / self.mean_gap,
            switch_to_low=1.0 / self.mean_burst,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "burst_ratio": self.burst_ratio,
            "mean_burst": self.mean_burst,
            "mean_gap": self.mean_gap,
            "rate_multiplier": self.rate_multiplier,
        }


@dataclass(frozen=True)
class DiurnalModel(ArrivalModel):
    """Sinusoidal-rate Poisson load around the nominal mean.

    ``rate(t) = mean * (1 + amplitude * sin(2*pi*(t - phase)/period))``,
    sampled exactly by thinning.  ``amplitude`` in [0, 1) keeps the
    rate positive; the long-run mean is preserved.
    """

    amplitude: float
    period: float
    phase: float = 0.0
    rate_multiplier: float = 1.0
    kind = "diurnal"

    def __post_init__(self):
        amplitude = finite("diurnal amplitude", self.amplitude)
        if not 0.0 <= amplitude < 1.0:
            raise ConfigurationError(
                f"diurnal amplitude must be in [0, 1), got {self.amplitude}"
            )
        positive("diurnal period", self.period)
        # A NaN phase would make the thinning accept test never pass —
        # next_gap() would spin forever — so finiteness is load-time fatal.
        finite("diurnal phase", self.phase)
        positive("diurnal rate_multiplier", self.rate_multiplier)

    def build(self, base: ArrivalProcess) -> ArrivalProcess:
        return SinusoidalRateProcess(
            base_rate=base.mean_rate * self.rate_multiplier,
            amplitude=self.amplitude,
            period=self.period,
            phase=self.phase,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "amplitude": self.amplitude,
            "period": self.period,
            "phase": self.phase,
            "rate_multiplier": self.rate_multiplier,
        }


@dataclass(frozen=True)
class TraceModel(ArrivalModel):
    """Replay a recorded arrival trace (file or inline timestamps).

    Exactly one of ``path`` / ``timestamps`` must be set.  The file is
    read when the model is created — in the scenario runner that is
    inside the worker process, per replication, so the path must be
    valid where the simulation runs (paths are resolved against the
    working directory, like every other CLI path).  ``time_scale``
    stretches the recorded clock; ``mode`` is one of ``replay`` /
    ``loop`` / ``bootstrap`` (see :mod:`repro.workloads.trace` — only
    ``bootstrap`` varies across replications, deterministically per
    seed).  The nominal ``base`` process is ignored: a trace *is* the
    load.
    """

    path: Optional[str] = None
    timestamps: Optional[Tuple[float, ...]] = None
    mode: str = "replay"
    time_scale: float = 1.0
    kind = "trace"
    #: Parse-once cache behind :meth:`load_trace` (not part of the
    #: model's identity — two models are equal by their parameters).
    _trace: Optional[Trace] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if (self.path is None) == (self.timestamps is None):
            raise ConfigurationError(
                "trace arrival model needs exactly one of 'path' or"
                " 'timestamps'"
            )
        if self.mode not in TRACE_MODES:
            raise ConfigurationError(
                f"trace mode must be one of {TRACE_MODES}, got {self.mode!r}"
            )
        positive("trace time_scale", self.time_scale)
        if self.timestamps is not None:
            object.__setattr__(
                self,
                "timestamps",
                tuple(finite("trace timestamps", t) for t in self.timestamps),
            )

    def load_trace(self) -> Trace:
        """The parsed (and time-scaled) trace this model replays.

        Parsed once per model instance: the runtime calls
        :meth:`build` for every spout of every replication, and a big
        recorded trace must not be re-read and re-parsed each time.
        (``Trace`` is immutable, so sharing the parse is safe — only
        the processes built from it carry replay state.)
        """
        if self._trace is None:
            if self.path is not None:
                trace = Trace.load(self.path)
            else:
                trace = Trace.from_timestamps(
                    self.timestamps, source="<inline>"
                )
            if self.time_scale != 1.0:
                trace = trace.scaled(self.time_scale)
            object.__setattr__(self, "_trace", trace)
        return self._trace

    def build(self, base: ArrivalProcess) -> ArrivalProcess:
        return self.load_trace().build_process(self.mode)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "mode": self.mode,
            "time_scale": self.time_scale,
        }
        if self.path is not None:
            payload["path"] = self.path
        if self.timestamps is not None:
            payload["timestamps"] = list(self.timestamps)
        return payload


# ----------------------------------------------------------------------
# factories
# ----------------------------------------------------------------------
def _pop_multiplier(kind: str, params: MutableMapping[str, Any]) -> float:
    return positive(
        f"{kind} rate_multiplier", params.pop("rate_multiplier", 1.0)
    )


@register_arrival_model(
    "poisson", "homogeneous Poisson at the nominal rate (the model's"
    " assumption; optional rate_multiplier)"
)
def _make_poisson(params: MutableMapping[str, Any]) -> ArrivalModel:
    return PoissonModel(rate_multiplier=_pop_multiplier("poisson", params))


@register_arrival_model(
    "phased", "piecewise-constant rate multipliers (declarative twin of"
    " rate_phases)"
)
def _make_phased(params: MutableMapping[str, Any]) -> ArrivalModel:
    raw = params.pop("phases", None)
    if not raw:
        raise ConfigurationError(
            "arrival model 'phased' requires a non-empty 'phases' list"
        )
    phases = []
    for entry in raw:
        if isinstance(entry, Mapping):
            unknown = set(entry) - {"start", "rate_multiplier"}
            if unknown:
                raise ConfigurationError(
                    f"phased arrival model: unknown phase keys"
                    f" {sorted(unknown)}"
                )
            try:
                start, multiplier = entry["start"], entry["rate_multiplier"]
            except KeyError as missing:
                raise ConfigurationError(
                    f"phased arrival model: phase missing key {missing}"
                ) from None
        else:
            try:
                start, multiplier = entry
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"phased arrival model: phase must be a"
                    f" {{start, rate_multiplier}} mapping or pair,"
                    f" got {entry!r}"
                ) from None
        phases.append(
            (
                finite("phased start", start),
                positive("phased rate_multiplier", multiplier),
            )
        )
    try:
        PhasedArrivalProcess(PoissonProcess(1.0), phases)  # validate
    except ValueError as exc:
        raise ConfigurationError(f"phased arrival model: {exc}") from None
    return PhasedModel(phases=tuple(phases))


@register_arrival_model(
    "mmpp2", "bursty 2-state Markov-modulated Poisson (burst_ratio,"
    " mean_burst, mean_gap; mean-rate preserving)"
)
def _make_mmpp2(params: MutableMapping[str, Any]) -> ArrivalModel:
    def take(key: str) -> float:
        return finite(
            f"mmpp2 {key}", ARRIVAL_MODELS.require(params, key, "mmpp2")
        )

    return MMPP2Model(
        burst_ratio=take("burst_ratio"),
        mean_burst=take("mean_burst"),
        mean_gap=take("mean_gap"),
        rate_multiplier=_pop_multiplier("mmpp2", params),
    )


@register_arrival_model(
    "diurnal", "sinusoidal-rate Poisson (amplitude, period, phase;"
    " day/night load cycle)"
)
def _make_diurnal(params: MutableMapping[str, Any]) -> ArrivalModel:
    def take(key: str) -> float:
        return finite(
            f"diurnal {key}", ARRIVAL_MODELS.require(params, key, "diurnal")
        )

    # Range validation lives in DiurnalModel.__post_init__.
    return DiurnalModel(
        amplitude=take("amplitude"),
        period=take("period"),
        phase=finite("diurnal phase", params.pop("phase", 0.0)),
        rate_multiplier=_pop_multiplier("diurnal", params),
    )


@register_arrival_model(
    "trace", "replay a recorded timestamp trace (CSV/NDJSON path or"
    " inline timestamps; replay | loop | bootstrap)"
)
def _make_trace(params: MutableMapping[str, Any]) -> ArrivalModel:
    path = params.pop("path", None)
    timestamps = params.pop("timestamps", None)
    model = TraceModel(
        path=str(path) if path is not None else None,
        # Raw values: TraceModel.__post_init__ converts and validates
        # each one, so a bad entry fails as a ConfigurationError.
        timestamps=tuple(timestamps) if timestamps is not None else None,
        mode=str(params.pop("mode", "replay")),
        time_scale=positive("trace time_scale", params.pop("time_scale", 1.0)),
    )
    # Inline timestamps are validated eagerly (they are part of the
    # spec); file-backed traces are validated when the replication
    # builds them, where the file must exist anyway.
    if model.timestamps is not None:
        model.load_trace()
    return model
