"""Every name a sparsefl module exports in ``__all__`` exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import sparsefl

MODULES = sorted(
    f"sparsefl.{info.name}" for info in pkgutil.iter_modules(sparsefl.__path__)
)


def test_every_module_is_checked():
    assert "sparsefl.regression" in MODULES and len(MODULES) >= 8


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} declares no __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
