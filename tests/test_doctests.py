"""Run the public API's doctest examples as part of tier 1.

The examples double as the documentation's code samples (mkdocstrings
renders them in the API reference), so this test is what keeps the docs
runnable: an API change that breaks an example fails here, not in a
reader's shell.  CI additionally runs ``pytest --doctest-modules`` over the packages
that hold a plugin registry; this module pins the broader public
surface.
"""

import doctest

import pytest

import repro.api
import repro.campaigns.spec
import repro.campaigns.store
import repro.platform.failure
import repro.platform.placement
import repro.randomness.distributions
import repro.scenarios.registry
import repro.scenarios.runner
import repro.scenarios.spec
import repro.utils.registry
import repro.workloads.closed_loop
import repro.workloads.models
import repro.workloads.trace

#: Modules whose docstring examples are part of the documented contract.
DOCUMENTED_MODULES = [
    repro.api,
    repro.campaigns.spec,
    repro.campaigns.store,
    repro.platform.failure,
    repro.platform.placement,
    repro.randomness.distributions,
    repro.scenarios.registry,
    repro.scenarios.runner,
    repro.scenarios.spec,
    repro.utils.registry,
    repro.workloads.closed_loop,
    repro.workloads.models,
    repro.workloads.trace,
]


@pytest.mark.parametrize(
    "module", DOCUMENTED_MODULES, ids=lambda m: m.__name__
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} failed"
    assert results.attempted > 0, (
        f"{module.__name__} lost all its doctest examples — the API"
        " reference renders these; restore or update the docstrings"
    )
