"""The platform layer: machines, links, placement and churn as data.

The paper's experiments assume homogeneous executors on a zero-cost
network; the only transport knob the runtime used to carry was one
global ``hop_latency``.  A :class:`PlatformSpec` replaces that with a
first-class, JSON-round-trippable description of the execution
substrate::

    {
      "machines": [{"name": "m0", "speed": 1.0, "slots": 8},
                   {"name": "m1", "speed": 0.5, "slots": 8}],
      "links": [{"source": "m0", "target": "m1",
                 "latency": 0.002, "bandwidth": 1.0e8}],
      "tuple_bytes": 2048,
      "placement": {"kind": "round_robin"},
      "failure": {"kind": "exponential",
                  "mean_up": 120.0, "mean_down": 10.0}
    }

- **machines** have a relative ``speed`` (1.0 = the reference processor
  the operators' service rates were measured on; service draws divide
  by it) and ``slots`` (capacity weight used by the heterogeneous
  placement's processor pools);
- **links** carry ``latency`` seconds plus ``tuple_bytes / bandwidth``
  serialisation per transfer, keyed by machine pair (symmetric unless
  the reverse direction is listed explicitly); unlisted pairs cost the
  platform's ``default_latency`` / ``default_bandwidth``; intra-machine
  transfers are always free;
- **placement** and **failure** name entries of the
  :mod:`~repro.platform.placement` and :mod:`~repro.platform.failure`
  registries.

A spec is validated and canonicalised at construction, so a platform
block that exists is runnable, and its ``to_dict()`` form is stable for
campaign content addressing.  Scenario specs carry the block in their
optional ``platform`` field; when it is absent the runtime keeps the
legacy hop-constant path byte-for-byte (golden-pinned).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.platform.failure import FailureModel, create_failure_model
from repro.platform.placement import PlacementPolicy, create_placement
from repro.scheduler.allocation import Allocation
from repro.topology.graph import Topology
from repro.utils.registry import finite, integer, positive


@dataclass(frozen=True)
class MachineSpec:
    """One machine: a relative speed factor and a slot count."""

    name: str
    speed: float = 1.0
    slots: int = 4

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(
                f"machine name must be a non-empty string, got {self.name!r}"
            )
        object.__setattr__(
            self, "speed", positive(f"machine {self.name!r}: speed", self.speed)
        )
        if integer(f"machine {self.name!r}: slots", self.slots) < 1:
            raise ConfigurationError(
                f"machine {self.name!r}: slots must be >= 1, got {self.slots}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "speed": self.speed, "slots": self.slots}

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "MachineSpec":
        unknown = set(raw) - {"name", "speed", "slots"}
        if unknown:
            raise ConfigurationError(f"unknown machine keys: {sorted(unknown)}")
        if "name" not in raw:
            raise ConfigurationError("machine spec missing 'name'")
        kwargs: Dict[str, Any] = {"name": raw["name"]}
        if raw.get("speed") is not None:
            kwargs["speed"] = raw["speed"]
        if raw.get("slots") is not None:
            kwargs["slots"] = raw["slots"]
        return cls(**kwargs)


@dataclass(frozen=True)
class LinkSpec:
    """One directed (but by default symmetric) machine-pair link."""

    source: str
    target: str
    latency: float = 0.0
    bandwidth: Optional[float] = None

    def __post_init__(self):
        if self.source == self.target:
            raise ConfigurationError(
                f"link {self.source!r}->{self.target!r}: intra-machine"
                " transfers are always free; self-links are not allowed"
            )
        link = f"link {self.source!r}->{self.target!r}"
        object.__setattr__(
            self, "latency", finite(f"{link}: latency", self.latency)
        )
        if self.latency < 0:
            raise ConfigurationError(
                f"{link}: latency must be >= 0, got {self.latency}"
            )
        if self.bandwidth is not None:
            object.__setattr__(
                self, "bandwidth", positive(f"{link}: bandwidth", self.bandwidth)
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "target": self.target,
            "latency": self.latency,
            "bandwidth": self.bandwidth,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "LinkSpec":
        unknown = set(raw) - {"source", "target", "latency", "bandwidth"}
        if unknown:
            raise ConfigurationError(f"unknown link keys: {sorted(unknown)}")
        missing = {"source", "target"} - set(raw)
        if missing:
            raise ConfigurationError(
                f"link spec missing keys: {sorted(missing)}"
            )
        kwargs: Dict[str, Any] = {
            "source": raw["source"],
            "target": raw["target"],
        }
        if raw.get("latency") is not None:
            kwargs["latency"] = raw["latency"]
        if raw.get("bandwidth") is not None:
            kwargs["bandwidth"] = raw["bandwidth"]
        return cls(**kwargs)


@dataclass(frozen=True)
class PlatformSpec:
    """The full execution substrate of one scenario.

    >>> spec = PlatformSpec.from_dict({
    ...     "machines": [{"name": "m0"}, {"name": "m1", "speed": 2.0}],
    ...     "links": [{"source": "m0", "target": "m1", "latency": 0.001}],
    ...     "placement": {"kind": "round_robin"},
    ... })
    >>> spec.placement["kind"], spec.failure["kind"]
    ('round_robin', 'none')
    >>> PlatformSpec.from_dict(spec.to_dict()) == spec   # round-trip
    True
    """

    machines: Tuple[MachineSpec, ...]
    links: Tuple[LinkSpec, ...] = ()
    #: Cost of machine pairs no link lists explicitly.
    default_latency: float = 0.0
    default_bandwidth: Optional[float] = None
    #: Payload size charged against link bandwidth per transfer.
    tuple_bytes: float = 0.0
    #: Machine hosting the spouts (external sources); default: the first.
    ingress: Optional[str] = None
    #: Placement spec (``{"kind": ...}``), canonicalised at construction.
    placement: Dict[str, Any] = field(default_factory=dict)
    #: Failure-model spec (``{"kind": ...}``), canonicalised likewise.
    failure: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        machines = tuple(
            m if isinstance(m, MachineSpec) else MachineSpec.from_dict(m)
            for m in self.machines
        )
        if not machines:
            raise ConfigurationError(
                "platform needs at least one machine"
            )
        names = [m.name for m in machines]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate machine names: {sorted(names)}"
            )
        object.__setattr__(self, "machines", machines)
        links = tuple(
            l if isinstance(l, LinkSpec) else LinkSpec.from_dict(l)
            for l in self.links
        )
        seen = set()
        for link in links:
            for end in (link.source, link.target):
                if end not in names:
                    raise ConfigurationError(
                        f"link references unknown machine {end!r};"
                        f" machines: {names}"
                    )
            pair = (link.source, link.target)
            if pair in seen:
                raise ConfigurationError(
                    f"duplicate link {link.source!r}->{link.target!r}"
                )
            seen.add(pair)
        object.__setattr__(self, "links", links)
        for key in ("default_latency", "tuple_bytes"):
            value = finite(key, getattr(self, key))
            if value < 0:
                raise ConfigurationError(f"{key} must be >= 0, got {value}")
            object.__setattr__(self, key, value)
        if self.default_bandwidth is not None:
            object.__setattr__(
                self,
                "default_bandwidth",
                positive("default_bandwidth", self.default_bandwidth),
            )
        if self.ingress is not None and self.ingress not in names:
            raise ConfigurationError(
                f"ingress names unknown machine {self.ingress!r};"
                f" machines: {names}"
            )
        # Validate + canonicalise the registry-keyed sub-specs now, so a
        # typo'd kind fails at spec load, not mid-replication.
        placement = create_placement(self.placement or None)
        object.__setattr__(self, "placement", placement.to_dict())
        failure = create_failure_model(self.failure or None)
        object.__setattr__(self, "failure", failure.to_dict())

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready mapping (stable for content addressing)."""
        return {
            "machines": [m.to_dict() for m in self.machines],
            "links": [l.to_dict() for l in self.links],
            "default_latency": self.default_latency,
            "default_bandwidth": self.default_bandwidth,
            "tuple_bytes": self.tuple_bytes,
            "ingress": self.ingress,
            "placement": dict(self.placement),
            "failure": dict(self.failure),
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "PlatformSpec":
        """Validated spec from a plain mapping; unknown keys fail loudly."""
        if not hasattr(raw, "keys"):
            raise ConfigurationError(
                f"platform must be a mapping, got {raw!r}"
            )
        known = {
            "machines",
            "links",
            "default_latency",
            "default_bandwidth",
            "tuple_bytes",
            "ingress",
            "placement",
            "failure",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(
                f"unknown platform keys: {sorted(unknown)}"
            )
        if "machines" not in raw:
            raise ConfigurationError("platform spec missing 'machines'")
        kwargs = {
            key: value for key, value in raw.items() if value is not None
        }
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigurationError(str(exc)) from None

    # ------------------------------------------------------------------
    # runtime binding
    # ------------------------------------------------------------------
    def bind(self, topology: Topology, allocation: Allocation) -> "CompiledPlatform":
        """Compile the spec against one topology for the runtime."""
        return CompiledPlatform(self, topology)

    def __eq__(self, other):
        if not isinstance(other, PlatformSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash(
            (self.machines, self.links, self.default_latency,
             self.default_bandwidth, self.tuple_bytes, self.ingress)
        )


class CompiledPlatform:
    """A :class:`PlatformSpec` bound to one topology.

    Precomputes the machine-pair transfer matrix and instantiates the
    placement policy and failure model; the runtime asks
    :meth:`patterns_for` after every allocation change.
    """

    def __init__(self, spec: PlatformSpec, topology: Topology):
        self.spec = spec
        self._topology = topology
        self.machine_names: Tuple[str, ...] = tuple(
            m.name for m in spec.machines
        )
        self.machine_speeds: Tuple[float, ...] = tuple(
            m.speed for m in spec.machines
        )
        self.ingress: int = (
            self.machine_names.index(spec.ingress)
            if spec.ingress is not None
            else 0
        )
        self.placement: PlacementPolicy = create_placement(spec.placement)
        self.failure: FailureModel = create_failure_model(spec.failure)
        self.transfer: List[List[float]] = self._transfer_matrix()

    def _transfer_matrix(self) -> List[List[float]]:
        spec = self.spec
        n = len(self.machine_names)
        by_pair: Dict[Tuple[str, str], LinkSpec] = {}
        for link in spec.links:
            by_pair[(link.source, link.target)] = link

        def cost(latency: float, bandwidth: Optional[float]) -> float:
            transfer = latency
            if bandwidth is not None and spec.tuple_bytes > 0:
                transfer += spec.tuple_bytes / bandwidth
            return transfer

        default = cost(spec.default_latency, spec.default_bandwidth)
        matrix = [[default] * n for _ in range(n)]
        for i, a in enumerate(self.machine_names):
            matrix[i][i] = 0.0
            for j, b in enumerate(self.machine_names):
                if i == j:
                    continue
                # Explicit direction wins; otherwise the reverse link is
                # applied symmetrically; otherwise the platform default.
                link = by_pair.get((a, b)) or by_pair.get((b, a))
                if link is not None:
                    matrix[i][j] = cost(link.latency, link.bandwidth)
        return matrix

    def patterns_for(self, allocation: Allocation) -> Dict[str, Tuple[int, ...]]:
        """Machine index per executor under the current allocation."""
        return self.placement.place(
            self._topology, allocation, self.spec.machines
        )
