"""One string-keyed plugin registry, shared by every pluggable kind.

Scheduling policies, arrival models, closed-loop sources, placements
and failure models are all named by a string in a spec and built by a
registered factory.  Each of those modules holds one :class:`Registry`
and they share one API and one error contract:

- ``register(name, description, **attrs)`` is a decorator; registering
  a name twice is an error;
- ``available()`` maps every name to its one-line description, sorted;
- ``create(name, params, *args)`` calls ``factory(*args, remaining)``
  with a *mutable copy* of ``params``.  The factory pops every key it
  understands; leftovers are rejected, so a spec typo fails loudly
  instead of silently running with defaults.  An unknown name is
  rejected with a message listing the available ones;
- ``from_spec(spec, default=None)`` does the same for the
  ``{"kind": ..., **params}`` mapping form.

Every error is raised as the registry's ``error`` class
(:class:`~repro.exceptions.ConfigurationError` unless stated).

>>> shapes = Registry("shape")
>>> @shapes.register("square", "four equal sides")
... def _square(params):
...     return ("square", positive("square side", params.pop("side", 1.0)))
>>> shapes.available()
{'square': 'four equal sides'}
>>> shapes.from_spec({"kind": "square", "side": 2})
('square', 2.0)
>>> shapes.from_spec({"kind": "circle"})
Traceback (most recent call last):
    ...
repro.exceptions.ConfigurationError: unknown shape 'circle'; available \
shapes: square
>>> shapes.create("square", {"sides": 4})
Traceback (most recent call last):
    ...
repro.exceptions.ConfigurationError: shape 'square' got unknown \
parameters ['sides']

Registration happens at import time in the parent process.  Worker
processes re-import the registering module, so third-party kinds are
visible to parallel replications only on fork-start platforms (Linux);
under the spawn start method register them in a module the workers
also import, or run with one worker.

The number validators below turn a spec value into a float or int, or
raise :class:`~repro.exceptions.ConfigurationError` naming it.  NaN and
±inf are rejected: they pass ``<= 0`` guards and would otherwise crash
or hang a replication long after the spec loaded.

>>> finite("machine speed", "0.5")
0.5
>>> positive("link bandwidth", float("nan"))
Traceback (most recent call last):
    ...
repro.exceptions.ConfigurationError: link bandwidth must be finite, got nan
>>> integer("clients", True)
Traceback (most recent call last):
    ...
repro.exceptions.ConfigurationError: clients must be an integer, got True
"""

from __future__ import annotations

import math
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    MutableMapping,
    Optional,
    Tuple,
    Type,
)

from repro.exceptions import ConfigurationError, DRSError

Factory = Callable[..., Any]


class Registry:
    """``name -> (factory, description, attrs)`` for one pluggable kind.

    ``noun`` names the kind in error messages (``plural`` defaults to
    ``noun + "s"``); ``error`` is the exception class raised.
    """

    def __init__(
        self,
        noun: str,
        *,
        plural: Optional[str] = None,
        error: Type[DRSError] = ConfigurationError,
    ):
        self.noun = noun
        self.plural = plural or f"{noun}s"
        self.error = error
        self._entries: Dict[str, Tuple[Factory, str, Dict[str, Any]]] = {}

    def register(
        self, name: str, description: str, **attrs: Any
    ) -> Callable[[Factory], Factory]:
        """Decorator registering ``factory`` under ``name``.

        ``attrs`` are stored with the entry and read back by
        :meth:`attrs`.
        """

        def decorate(factory: Factory) -> Factory:
            if name in self._entries:
                raise self.error(
                    f"{self.noun} {name!r} is already registered"
                )
            self._entries[name] = (factory, description, attrs)
            return factory

        return decorate

    def available(self) -> Dict[str, str]:
        """Registered names mapped to their descriptions, sorted by name."""
        return {
            name: self._entries[name][1] for name in sorted(self._entries)
        }

    def attrs(self, name: str) -> Mapping[str, Any]:
        """The ``attrs`` registered with ``name`` (empty when unknown)."""
        entry = self._entries.get(name)
        return entry[2] if entry is not None else {}

    def create(
        self,
        name: str,
        params: Optional[Mapping[str, Any]] = None,
        *args: Any,
    ) -> Any:
        """``factory(*args, remaining)`` for the entry named ``name``."""
        entry = self._entries.get(name)
        if entry is None:
            raise self.error(
                f"unknown {self.noun} {name!r}; available {self.plural}:"
                f" {', '.join(sorted(self._entries))}"
            )
        remaining: Dict[str, Any] = dict(params or {})
        made = entry[0](*args, remaining)
        if remaining:
            raise self.error(
                f"{self.noun} {name!r} got unknown parameters"
                f" {sorted(remaining)}"
            )
        return made

    def from_spec(
        self, spec: Optional[Mapping[str, Any]], default: Optional[str] = None
    ) -> Any:
        """Build what a ``{"kind": ..., **params}`` mapping names.

        ``spec=None`` builds ``default`` when one is given.
        """
        if spec is None and default is not None:
            spec = {"kind": default}
        if not isinstance(spec, Mapping):
            raise self.error(
                f"{self.noun} spec must be a mapping with a 'kind' key,"
                f" got {spec!r}"
            )
        if "kind" not in spec:
            raise self.error(
                f"{self.noun} spec requires a 'kind' key; available"
                f" {self.plural}: {', '.join(sorted(self._entries))}"
            )
        params = dict(spec)
        return self.create(str(params.pop("kind")), params)

    def require(
        self, params: MutableMapping[str, Any], key: str, name: str
    ) -> Any:
        """Pop ``key`` from a factory's ``params``, which must hold it."""
        if key not in params:
            raise self.error(
                f"{self.noun} {name!r} requires parameter {key!r}"
            )
        return params.pop(key)


def finite(what: str, value: Any) -> float:
    """``float(value)``, which must be a finite number."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{what} must be a number, got {value!r}"
        ) from None
    if not math.isfinite(number):
        raise ConfigurationError(f"{what} must be finite, got {value!r}")
    return number


def positive(what: str, value: Any) -> float:
    """``float(value)``, which must be a finite number > 0."""
    number = finite(what, value)
    if number <= 0:
        raise ConfigurationError(f"{what} must be > 0, got {value!r}")
    return number


def integer(what: str, value: Any) -> int:
    """``value``, which must be an ``int`` and not a ``bool``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"{what} must be an integer, got {value!r}"
        )
    return value
