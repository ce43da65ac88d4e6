"""Campaign descriptions: a base scenario plus axes of patches.

A :class:`CampaignSpec` is the declarative form of "run this scenario
for every combination of these parameters".  Each axis contributes one
dimension to the grid; its values are *patches* against the base
scenario mapping — either scalars applied to the axis' ``field`` (a
dotted path such as ``workload_params.total_cpu``) or explicit
multi-field patches for coordinated changes (a policy matrix entry that
sets ``policy`` *and* ``policy_params``, say).  Expansion is the
cartesian product in axis order (rightmost axis fastest, exactly like
nested for-loops), producing one named :class:`CampaignCell` per
combination::

    {
      "name": "rate-sweep",
      "base": {"workload": "synthetic", "policy": "none",
               "initial_allocation": "10:10:10", "duration": 120.0,
               "replications": 4, "seed": 17},
      "axes": [
        {"name": "rate", "field": "workload_params.arrival_rate",
         "values": [10.0, 15.0, 20.0]},
        {"name": "seed", "field": "seed", "range": [7, 10]}
      ]
    }

Cell scenario names are ``<campaign>-<label>-<label>-...`` so a cell's
identity is readable in any report.  :func:`scenario_hash` gives the
content address used by the result store: the SHA-256 of the scenario's
canonical JSON *minus* its name and replication count — two fields that
label the work without changing what one replication computes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.scenarios.spec import ScenarioSpec

#: Scenario fields excluded from the content address: they rename or
#: repeat the work, they do not change what one replication computes.
_HASH_EXCLUDED = ("name", "replications")

#: How a campaign's cells are answered (``CampaignSpec.evaluation``):
#: ``simulate`` runs every replication through the discrete-event
#: engine (the default — bit-identical to pre-hybrid behaviour);
#: ``hybrid`` answers cells inside the committed model-trust envelope
#: analytically and simulates the rest; ``analytic`` requires every
#: cell to be in-envelope and errors otherwise.  Mode descriptions for
#: reports live in :mod:`repro.campaigns.hybrid`.
EVALUATION_MODES = ("simulate", "hybrid", "analytic")


def _normalize_numbers(value: Any) -> Any:
    """Collapse JSON's int/float spelling split (``60`` vs ``60.0``).

    Integral floats become ints before hashing, so a spec written with
    ``"duration": 60`` and one with ``"duration": 60.0`` — the same
    simulation — share a content address.  Ints are left untouched
    (seeds may exceed float precision).
    """
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
        return int(value)
    if isinstance(value, dict):
        return {k: _normalize_numbers(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize_numbers(v) for v in value]
    return value


def scenario_hash(spec: ScenarioSpec) -> str:
    """Content address of one scenario's simulation inputs.

    Two specs that differ only in ``name`` or ``replications`` hash
    identically, so re-labelled campaigns and grown replication counts
    reuse every result already in a store.  Numeric fields are
    normalized (:func:`_normalize_numbers`) so equivalent int/float
    spellings address the same results.

    >>> from repro.scenarios.spec import ScenarioSpec
    >>> a = ScenarioSpec(name="a", workload="synthetic", policy="none",
    ...                  duration=60.0, replications=2)
    >>> b = ScenarioSpec(name="b", workload="synthetic", policy="none",
    ...                  duration=60, replications=5)
    >>> scenario_hash(a) == scenario_hash(b)    # same simulation inputs
    True
    """
    payload = spec.to_dict()
    for key in _HASH_EXCLUDED:
        payload.pop(key, None)
    canonical = json.dumps(
        _normalize_numbers(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def apply_patch(raw: Dict[str, Any], dotted: str, value: Any) -> None:
    """Set ``raw[a][b]... = value`` for a dotted path ``a.b....``

    Intermediate mappings are created (or shallow-copied, so shared
    base dicts are never mutated across cells).
    """
    parts = dotted.split(".")
    if not all(parts):
        raise ConfigurationError(f"invalid field path {dotted!r}")
    target = raw
    for part in parts[:-1]:
        nested = target.get(part)
        if nested is None:
            nested = {}
        elif isinstance(nested, Mapping):
            nested = dict(nested)
        else:
            raise ConfigurationError(
                f"field path {dotted!r} descends into non-mapping {part!r}"
            )
        target[part] = nested
        target = nested
    target[parts[-1]] = value


@dataclass(frozen=True)
class AxisPoint:
    """One value of an axis: a display label plus the fields it sets."""

    label: str
    patch: Tuple[Tuple[str, Any], ...]

    def __post_init__(self):
        if not self.label:
            raise ConfigurationError("axis point label must be non-empty")
        object.__setattr__(self, "patch", tuple(self.patch))

    def to_dict(self) -> Dict[str, Any]:
        return {"label": self.label, "set": dict(self.patch)}


def _normalize_point(axis_name: str, field_path: Optional[str], raw: Any) -> AxisPoint:
    if isinstance(raw, AxisPoint):
        return raw
    if isinstance(raw, Mapping):
        unknown = set(raw) - {"label", "value", "set"}
        if unknown:
            raise ConfigurationError(
                f"axis {axis_name!r}: unknown point keys {sorted(unknown)}"
            )
        patch: Dict[str, Any] = {}
        if "set" in raw:
            if not isinstance(raw["set"], Mapping):
                raise ConfigurationError(
                    f"axis {axis_name!r}: point 'set' must be a mapping"
                )
            patch.update(raw["set"])
        if "value" in raw:
            if field_path is None:
                raise ConfigurationError(
                    f"axis {axis_name!r} has no 'field'; points must use 'set'"
                )
            patch[field_path] = raw["value"]
        if not patch:
            raise ConfigurationError(
                f"axis {axis_name!r}: point needs a 'value' or a 'set'"
            )
        label = raw.get("label")
        if label is None:
            if "value" in raw:
                label = str(raw["value"])
            elif field_path is not None and field_path in patch:
                label = str(patch[field_path])
            else:
                raise ConfigurationError(
                    f"axis {axis_name!r}: multi-field points need a 'label'"
                )
        return AxisPoint(label=str(label), patch=tuple(patch.items()))
    # Scalar shorthand: applies to the axis field, label is its repr.
    if field_path is None:
        raise ConfigurationError(
            f"axis {axis_name!r} has no 'field'; scalar values are ambiguous"
        )
    return AxisPoint(label=str(raw), patch=((field_path, raw),))


@dataclass(frozen=True)
class CampaignAxis:
    """One grid dimension: a name, an optional default field, values."""

    name: str
    values: Tuple[AxisPoint, ...]
    field: Optional[str] = None

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("axis name must be non-empty")
        points = tuple(
            _normalize_point(self.name, self.field, value)
            for value in self.values
        )
        if not points:
            raise ConfigurationError(f"axis {self.name!r} has no values")
        labels = [p.label for p in points]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(
                f"axis {self.name!r} has duplicate labels: {labels}"
            )
        object.__setattr__(self, "values", points)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "values": [p.to_dict() for p in self.values],
        }
        if self.field is not None:
            payload["field"] = self.field
        return payload

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "CampaignAxis":
        unknown = set(raw) - {"name", "field", "values", "range"}
        if unknown:
            raise ConfigurationError(f"unknown axis keys: {sorted(unknown)}")
        if "name" not in raw:
            raise ConfigurationError("axis missing required key 'name'")
        values: Sequence[Any]
        if "range" in raw:
            if "values" in raw:
                raise ConfigurationError(
                    f"axis {raw['name']!r}: give 'values' or 'range', not both"
                )
            bounds = list(raw["range"])
            if len(bounds) not in (2, 3) or not all(
                isinstance(b, int) and not isinstance(b, bool) for b in bounds
            ):
                raise ConfigurationError(
                    f"axis {raw['name']!r}: 'range' must be [start, stop] or"
                    " [start, stop, step] with integers"
                )
            values = list(range(*bounds))
            if not values:
                raise ConfigurationError(
                    f"axis {raw['name']!r}: empty range {bounds}"
                )
        else:
            values = list(raw.get("values", ()))
        return cls(
            name=str(raw["name"]),
            field=raw.get("field"),
            values=tuple(values),
        )


@dataclass(frozen=True)
class CampaignCell:
    """One grid cell: its coordinates and the scenario it expands to."""

    index: int
    label: str
    coords: Tuple[Tuple[str, str], ...]
    spec: ScenarioSpec

    @property
    def coordinates(self) -> Dict[str, str]:
        """Axis name -> value label for this cell."""
        return dict(self.coords)

    @cached_property
    def spec_hash(self) -> str:
        # cached: the runner consults the hash several times per cell
        # (job planning, store keys, merge, reporting) and one hash is
        # a full canonical-JSON serialization.
        return scenario_hash(self.spec)


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep: base scenario fields plus grid axes.

    >>> campaign = CampaignSpec.from_json('''
    ... {"name": "sweep",
    ...  "base": {"workload": "synthetic", "policy": "none",
    ...           "initial_allocation": "10:10:10", "duration": 60.0,
    ...           "arrival_model": {"kind": "mmpp2", "burst_ratio": 2.0,
    ...                             "mean_burst": 5.0, "mean_gap": 15.0}},
    ...  "axes": [{"name": "burst", "field": "arrival_model.burst_ratio",
    ...            "values": [2.0, 8.0]},
    ...           {"name": "seed", "field": "seed", "range": [7, 9]}]}
    ... ''')
    >>> cells = campaign.expand()
    >>> [cell.label for cell in cells]      # last axis fastest
    ['2.0-7', '2.0-8', '8.0-7', '8.0-8']
    >>> cells[2].spec.arrival_model["burst_ratio"]
    8.0
    >>> campaign.total_replications()
    4
    """

    name: str
    base: Dict[str, Any]
    axes: Tuple[CampaignAxis, ...] = ()
    description: str = ""
    #: See :data:`EVALUATION_MODES`; ``simulate`` is the default and is
    #: omitted from serialized specs so pre-hybrid campaign JSON and
    #: round-trips stay byte-identical.
    evaluation: str = "simulate"

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("campaign name must be non-empty")
        if self.evaluation not in EVALUATION_MODES:
            raise ConfigurationError(
                f"unknown evaluation mode {self.evaluation!r}; expected"
                f" one of {EVALUATION_MODES}"
            )
        if not isinstance(self.base, Mapping):
            raise ConfigurationError("campaign base must be a mapping")
        if "name" in self.base:
            raise ConfigurationError(
                "campaign base must not set 'name'; cell names are derived"
            )
        axes = tuple(
            a if isinstance(a, CampaignAxis) else CampaignAxis.from_dict(a)
            for a in self.axes
        )
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate axis names: {names}")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "base", dict(self.base))

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def expand(self) -> Tuple[CampaignCell, ...]:
        """The full grid, in nested-loop order (last axis fastest).

        Expansion is deterministic: same spec, same cells, same order —
        the property that makes campaign runs resumable and their
        summaries reproducible.
        """
        cells: List[CampaignCell] = []
        for index, combo in enumerate(
            itertools.product(*(axis.values for axis in self.axes))
        ):
            raw = dict(self.base)
            for point in combo:
                for dotted, value in point.patch:
                    apply_patch(raw, dotted, value)
            label = "-".join(point.label for point in combo)
            raw["name"] = f"{self.name}-{label}" if label else self.name
            try:
                spec = ScenarioSpec.from_dict(raw)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"campaign {self.name!r} cell {label or '<base>'!r}: {exc}"
                ) from None
            # Two cells may expand to identical simulation inputs (two
            # allocators recommending the same allocation, say).  That
            # is allowed: they share one content address, so the runner
            # computes the work once and both cells reuse it.
            cells.append(
                CampaignCell(
                    index=index,
                    label=label or self.name,
                    coords=tuple(
                        (axis.name, point.label)
                        for axis, point in zip(self.axes, combo)
                    ),
                    spec=spec,
                )
            )
        return tuple(cells)

    def total_replications(self) -> int:
        """Grid cells x per-cell replications (one store key each)."""
        return sum(cell.spec.replications for cell in self.expand())

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "base": dict(self.base),
            "axes": [a.to_dict() for a in self.axes],
        }
        if self.description:
            payload["description"] = self.description
        if self.evaluation != "simulate":
            payload["evaluation"] = self.evaluation
        return payload

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "CampaignSpec":
        unknown = set(raw) - {"name", "base", "axes", "description", "evaluation"}
        if unknown:
            raise ConfigurationError(f"unknown campaign keys: {sorted(unknown)}")
        missing = {"name", "base"} - set(raw)
        if missing:
            raise ConfigurationError(
                f"campaign spec missing required keys: {sorted(missing)}"
            )
        return cls(
            name=str(raw["name"]),
            base=dict(raw["base"]),
            axes=tuple(raw.get("axes", ())),
            description=str(raw.get("description", "")),
            evaluation=str(raw.get("evaluation", "simulate")),
        )

    @classmethod
    def from_scenario(cls, spec: ScenarioSpec) -> "CampaignSpec":
        """An axis-free campaign whose one cell is ``spec``, name kept —
        how :func:`repro.api.run_scenario` and the service run a bare
        scenario through the one campaign runner."""
        base = spec.to_dict()
        return cls(name=base.pop("name"), base=base)

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid campaign JSON: {exc}") from None
        if not isinstance(raw, Mapping):
            raise ConfigurationError("campaign JSON must be an object")
        return cls.from_dict(raw)
