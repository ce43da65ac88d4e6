"""Failure models: the node churn process of a platform.

A failure model decides when machines go down and come back up.  The
runtime turns those transitions into typed ``node_down`` / ``node_up``
events that kill and restore the executors placed on the machine —
queued tuples are redelivered to survivors (or dropped by the normal
queue-limit machinery), tuples in service on a dying machine are lost.

Models are registered in :data:`FAILURE_MODELS`, a
:class:`repro.utils.registry.Registry` like the arrival-model one::

    {"failure": {"kind": "exponential", "mean_up": 120.0,
                 "mean_down": 10.0, "machines": ["m2"]}}

>>> sorted(available_failure_models())
['exponential', 'none', 'trace']
>>> create_failure_model(None).to_dict()
{'kind': 'none'}

Built-in kinds
--------------
- ``none`` — no churn (the default).
- ``exponential`` — the classic alternating-renewal up/down process:
  each affected machine stays up ``Exp(mean_up)`` seconds, down
  ``Exp(mean_down)`` seconds, independently, forever.
- ``trace`` — replay an explicit list of ``{"time", "machine",
  "state"}`` transitions (state ``"down"`` or ``"up"``), for
  reproducing a recorded outage.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, MutableMapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.utils.registry import Registry, finite, positive


class FailureModel:
    """Abstract churn process.

    ``initial_events`` seeds the event calendar at runtime start;
    ``next_delay`` is asked after each transition fires for the delay
    to the machine's *opposite* transition (``None`` ends the process).
    ``to_dict()`` must round-trip through :func:`create_failure_model`.
    """

    #: Registry kind, as registered in :data:`FAILURE_MODELS`.
    kind: str = ""

    def initial_events(
        self, machine_names: Sequence[str], rng
    ) -> List[Tuple[float, int, bool]]:
        """``(delay, machine_index, goes_down)`` transitions to seed."""
        raise NotImplementedError

    def next_delay(self, machine: int, went_down: bool, rng) -> Optional[float]:
        """Delay until ``machine`` flips back (``None``: no more events)."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready parameters, including the ``kind`` key."""
        raise NotImplementedError


#: Every registered failure model.
FAILURE_MODELS = Registry("failure model")

register_failure_model = FAILURE_MODELS.register
available_failure_models = FAILURE_MODELS.available


def create_failure_model(spec: Optional[Mapping[str, Any]]) -> FailureModel:
    """Build the failure model a platform block names (default: none)."""
    return FAILURE_MODELS.from_spec(spec, default="none")


def _resolve(
    names: Optional[Tuple[str, ...]], machine_names: Sequence[str], kind: str
) -> List[int]:
    """Affected machine indices (all when ``names`` is ``None``)."""
    if names is None:
        return list(range(len(machine_names)))
    indices = []
    for name in names:
        if name not in machine_names:
            raise ConfigurationError(
                f"failure model {kind!r} names unknown machine {name!r};"
                f" machines: {list(machine_names)}"
            )
        indices.append(machine_names.index(name))
    return indices


# ----------------------------------------------------------------------
# built-in models
# ----------------------------------------------------------------------
class NoFailure(FailureModel):
    """No churn: machines never go down."""

    kind = "none"

    def initial_events(self, machine_names, rng):
        return []

    def next_delay(self, machine, went_down, rng):
        return None

    def to_dict(self):
        return {"kind": self.kind}


class ExponentialChurn(FailureModel):
    """Alternating-renewal churn: Exp(mean_up) up, Exp(mean_down) down."""

    kind = "exponential"

    def __init__(
        self,
        mean_up: float,
        mean_down: float,
        machines: Optional[Tuple[str, ...]] = None,
    ):
        self.mean_up = mean_up
        self.mean_down = mean_down
        self.machines = machines

    def initial_events(self, machine_names, rng):
        up_rate = 1.0 / self.mean_up
        return [
            (rng.expovariate(up_rate), index, True)
            for index in _resolve(self.machines, machine_names, self.kind)
        ]

    def next_delay(self, machine, went_down, rng):
        mean = self.mean_down if went_down else self.mean_up
        return rng.expovariate(1.0 / mean)

    def to_dict(self):
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "mean_up": self.mean_up,
            "mean_down": self.mean_down,
        }
        if self.machines is not None:
            payload["machines"] = list(self.machines)
        return payload


class TraceChurn(FailureModel):
    """Replay explicit ``(time, machine, state)`` transitions."""

    kind = "trace"

    def __init__(self, events: Tuple[Tuple[float, str, str], ...]):
        self.events = events

    def initial_events(self, machine_names, rng):
        seeded = []
        for time, machine, state in self.events:
            if machine not in machine_names:
                raise ConfigurationError(
                    f"failure trace names unknown machine {machine!r};"
                    f" machines: {list(machine_names)}"
                )
            seeded.append(
                (time, machine_names.index(machine), state == "down")
            )
        return seeded

    def next_delay(self, machine, went_down, rng):
        return None

    def to_dict(self):
        return {
            "kind": self.kind,
            "events": [
                {"time": time, "machine": machine, "state": state}
                for time, machine, state in self.events
            ],
        }


@register_failure_model("none", "no churn: machines never fail (default)")
def _make_none(params: MutableMapping[str, Any]) -> FailureModel:
    return NoFailure()


@register_failure_model(
    "exponential",
    "alternating-renewal churn: Exp(mean_up) up, Exp(mean_down) down",
)
def _make_exponential(params: MutableMapping[str, Any]) -> FailureModel:
    def take(key: str) -> float:
        return positive(
            f"failure model 'exponential': {key}",
            FAILURE_MODELS.require(params, key, "exponential"),
        )

    mean_up = take("mean_up")
    mean_down = take("mean_down")
    machines = params.pop("machines", None)
    if machines is not None:
        if not isinstance(machines, (list, tuple)) or not machines:
            raise ConfigurationError(
                "failure model 'exponential': 'machines' must be a"
                f" non-empty list of machine names, got {machines!r}"
            )
        machines = tuple(str(m) for m in machines)
    return ExponentialChurn(mean_up, mean_down, machines)


@register_failure_model(
    "trace", "replay explicit {time, machine, state} transitions"
)
def _make_trace(params: MutableMapping[str, Any]) -> FailureModel:
    raw = params.pop("events", None)
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigurationError(
            "failure model 'trace' requires a non-empty 'events' list of"
            " {time, machine, state} objects"
        )
    events = []
    for entry in raw:
        if not hasattr(entry, "keys"):
            raise ConfigurationError(
                f"trace event must be an object, got {entry!r}"
            )
        unknown = set(entry) - {"time", "machine", "state"}
        if unknown:
            raise ConfigurationError(
                f"unknown trace-event keys: {sorted(unknown)}"
            )
        try:
            time = finite("trace event time", entry["time"])
            machine = str(entry["machine"])
            state = str(entry["state"])
        except KeyError as exc:
            raise ConfigurationError(
                f"trace event missing key {exc.args[0]!r}"
            ) from None
        if time < 0:
            raise ConfigurationError("trace event time must be >= 0")
        if state not in ("down", "up"):
            raise ConfigurationError(
                f"trace event state must be 'down' or 'up', got {state!r}"
            )
        events.append((time, machine, state))
    events.sort(key=lambda e: e[0])
    return TraceChurn(tuple(events))
