"""One contract for every plugin registry.

Scheduling policies, arrival models, closed-loop sources, placements and
failure models are each a :class:`repro.utils.registry.Registry`; this
module checks that all five keep the same API and error contract.
"""

import pytest

from repro.apps.vld import VLDWorkload
from repro.exceptions import ConfigurationError, SchedulingError
from repro.platform.failure import FAILURE_MODELS
from repro.platform.placement import PLACEMENTS
from repro.scenarios.registry import POLICIES
from repro.workloads.closed_loop import CLOSED_LOOP_SOURCES
from repro.workloads.models import ARRIVAL_MODELS

#: name -> (registry, its error class, a built-in kind, valid params,
#: extra leading factory arguments).
REGISTRIES = {
    "policies": (POLICIES, SchedulingError, "none", {}, True),
    "arrival_models": (ARRIVAL_MODELS, ConfigurationError, "poisson", {}, False),
    "closed_loop_sources": (
        CLOSED_LOOP_SOURCES,
        ConfigurationError,
        "closed_loop",
        {"clients": 2, "think_time": 1.0},
        False,
    ),
    "placements": (PLACEMENTS, ConfigurationError, "round_robin", {}, False),
    "failure_models": (FAILURE_MODELS, ConfigurationError, "none", {}, False),
}


@pytest.fixture(params=sorted(REGISTRIES))
def case(request):
    registry, error, kind, params, needs_topology = REGISTRIES[request.param]
    args = (VLDWorkload().build(),) if needs_topology else ()
    return registry, error, kind, params, args


def test_duplicate_name_rejected(case):
    registry, error, kind, _, _ = case
    description = registry.available()[kind]
    with pytest.raises(error, match="already registered"):
        registry.register(kind, "duplicate")(lambda *args: None)
    assert registry.available()[kind] == description


def test_unknown_kind_names_itself_and_lists_available(case):
    registry, error, _, _, args = case
    for attempt in (
        lambda: registry.create("no.such.kind", {}, *args),
        lambda: registry.from_spec({"kind": "no.such.kind"}),
    ):
        with pytest.raises(error) as excinfo:
            attempt()
        message = str(excinfo.value)
        assert "no.such.kind" in message
        for name in registry.available():
            assert name in message


def test_leftover_params_rejected(case):
    registry, error, kind, params, args = case
    assert registry.create(kind, params, *args) is not None
    with pytest.raises(error, match=r"unknown parameters \['oops'\]"):
        registry.create(kind, dict(params, oops=1), *args)


@pytest.mark.parametrize("spec", [["kind"], "poisson", 3, None])
def test_non_mapping_spec_rejected(case, spec):
    registry, error, _, _, _ = case
    with pytest.raises(error, match="must be a mapping"):
        registry.from_spec(spec)
    with pytest.raises(error, match="'kind'"):
        registry.from_spec({})


def test_available_sorted_and_described(case):
    registry = case[0]
    listing = registry.available()
    assert list(listing) == sorted(listing)
    assert listing
    for description in listing.values():
        assert isinstance(description, str) and description.strip()
