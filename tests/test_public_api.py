"""Re-exports cannot dangle: every name a package's ``__all__`` lists
resolves on that package."""

import importlib
import pkgutil

import pytest

import repro


def _packages():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            names.append(info.name)
    return sorted(names)


PACKAGES = [
    name for name in _packages() if hasattr(importlib.import_module(name), "__all__")
]


def test_every_subpackage_declares_its_surface():
    assert "repro" in PACKAGES
    assert len(PACKAGES) > 10


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    missing = [attr for attr in package.__all__ if not hasattr(package, attr)]
    assert missing == []
    assert len(set(package.__all__)) == len(package.__all__)
