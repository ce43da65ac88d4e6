"""Closed-loop sources: finite client populations that react to latency.

Every arrival model in :mod:`repro.workloads.models` is *open-loop*:
sources emit at a configured rate no matter how the system behaves, so
queues can grow without bound and the scheduler is never punished for
latency in the offered load itself.  Real stream pipelines usually sit
behind clients that wait for answers — a request is only issued once
the previous one (or the previous ``max_outstanding``) has come back,
and users pause to *think* between requests.  That feedback loop caps
the in-flight population (like a machine-repairman model) and makes
latency self-limiting, which is exactly the regime the DRS-vs-SLO
autoscaler bake-off needs to compare policies fairly.

A :class:`ClosedLoopSource` describes one such population per spout:

- ``clients`` — the finite population size (N in queueing terms);
- ``think_time`` + ``think_distribution`` — how long a client waits
  between receiving a completion and issuing its next request
  (``exponential`` or ``deterministic``);
- ``max_outstanding`` — how many requests one client may have in
  flight at once (1 = classic interactive client);
- ``admission_latency`` / ``admission_alpha`` — an optional
  latency-aware admission controller: the runtime keeps an EWMA of
  completed-tree sojourn times and *rejects* new requests (counted,
  never simulated) while the smoothed latency exceeds the threshold.

Sources are registered in :data:`CLOSED_LOOP_SOURCES`, a
:class:`repro.utils.registry.Registry` like the arrival-model one, so a
scenario names its client population the same way it names its
traffic::

    {"closed_loop": {"kind": "closed_loop", "clients": 40,
                     "think_time": 2.0, "max_outstanding": 1}}

Unknown kinds and leftover parameters are rejected loudly:

>>> sorted(available_closed_loop_sources())
['closed_loop']
>>> source = create_closed_loop_source(
...     {"kind": "closed_loop", "clients": 2, "think_time": 1.0})
>>> source.clients
2
>>> create_closed_loop_source({"kind": "closed_loop", "clients": 2,
...                            "think_time": 1.0, "oops": 3})
Traceback (most recent call last):
    ...
repro.exceptions.ConfigurationError: closed-loop source 'closed_loop' \
got unknown parameters ['oops']

``closed_loop`` is mutually exclusive with ``arrival_model`` and
``rate_phases`` — a population either reacts to latency or it does
not; mixing the two silently double-books the spout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, MutableMapping, Optional

from repro.exceptions import ConfigurationError
from repro.utils.registry import Registry, finite, integer, positive

#: Supported think-time distributions.
THINK_DISTRIBUTIONS = ("exponential", "deterministic")


@dataclass(frozen=True)
class ClosedLoopSource:
    """A finite client population driving one spout.

    ``think_gap(rng)`` draws one think interval; the runtime calls it
    once per client cycle with the spout's own RNG so replications stay
    deterministic per seed.  ``to_dict()`` round-trips through
    :func:`create_closed_loop_source`; the campaign layer relies on it
    for content addressing.

    >>> source = ClosedLoopSource(clients=8, think_time=2.0)
    >>> source.max_outstanding
    1
    >>> import random
    >>> gap = source.think_gap(random.Random(7))
    >>> gap > 0
    True
    """

    clients: int
    think_time: float
    think_distribution: str = "exponential"
    max_outstanding: int = 1
    admission_latency: Optional[float] = None
    admission_alpha: float = 0.2
    kind = "closed_loop"

    def __post_init__(self):
        if integer("closed_loop clients", self.clients) < 1:
            raise ConfigurationError(
                f"closed_loop clients must be >= 1, got {self.clients}"
            )
        positive("closed_loop think_time", self.think_time)
        if self.think_distribution not in THINK_DISTRIBUTIONS:
            raise ConfigurationError(
                f"closed_loop think_distribution must be one of"
                f" {THINK_DISTRIBUTIONS}, got {self.think_distribution!r}"
            )
        if integer("closed_loop max_outstanding", self.max_outstanding) < 1:
            raise ConfigurationError(
                f"closed_loop max_outstanding must be >= 1,"
                f" got {self.max_outstanding}"
            )
        if self.admission_latency is not None:
            positive("closed_loop admission_latency", self.admission_latency)
        alpha = finite("closed_loop admission_alpha", self.admission_alpha)
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(
                f"closed_loop admission_alpha must be in (0, 1],"
                f" got {self.admission_alpha}"
            )

    def think_gap(self, rng) -> float:
        """One client think interval drawn from ``rng``.

        >>> import random
        >>> fixed = ClosedLoopSource(clients=1, think_time=3.0,
        ...                          think_distribution="deterministic")
        >>> fixed.think_gap(random.Random(0))
        3.0
        """
        if self.think_distribution == "deterministic":
            return self.think_time
        return rng.expovariate(1.0 / self.think_time)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready parameters, including the ``kind`` key.

        >>> spec = ClosedLoopSource(clients=4, think_time=1.5).to_dict()
        >>> spec == create_closed_loop_source(spec).to_dict()
        True
        """
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "clients": self.clients,
            "think_time": self.think_time,
            "think_distribution": self.think_distribution,
            "max_outstanding": self.max_outstanding,
        }
        if self.admission_latency is not None:
            payload["admission_latency"] = self.admission_latency
            payload["admission_alpha"] = self.admission_alpha
        return payload


#: Every registered closed-loop source.
CLOSED_LOOP_SOURCES = Registry("closed-loop source")

register_closed_loop_source = CLOSED_LOOP_SOURCES.register
available_closed_loop_sources = CLOSED_LOOP_SOURCES.available
create_closed_loop_source = CLOSED_LOOP_SOURCES.from_spec


@register_closed_loop_source(
    "closed_loop", "finite client population with think times, a"
    " per-client outstanding cap, and an optional latency-aware"
    " admission controller"
)
def _make_closed_loop(params: MutableMapping[str, Any]) -> ClosedLoopSource:
    # ClosedLoopSource.__post_init__ validates every field; the floats
    # are converted here so that to_dict() is canonical.
    clients = CLOSED_LOOP_SOURCES.require(params, "clients", "closed_loop")
    think_time = CLOSED_LOOP_SOURCES.require(params, "think_time", "closed_loop")
    admission = params.pop("admission_latency", None)
    max_outstanding = params.pop("max_outstanding", None)
    return ClosedLoopSource(
        clients=clients,
        think_time=positive("closed_loop think_time", think_time),
        think_distribution=str(
            params.pop("think_distribution", "exponential")
        ),
        max_outstanding=1 if max_outstanding is None else max_outstanding,
        admission_latency=(
            None if admission is None
            else positive("closed_loop admission_latency", admission)
        ),
        admission_alpha=finite(
            "closed_loop admission_alpha", params.pop("admission_alpha", 0.2)
        ),
    )
