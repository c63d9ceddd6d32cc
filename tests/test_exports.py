"""Every name that the package and its modules export in __all__ resolves."""

import importlib
import pkgutil

import pytest

import qcongruence

MODULES = ["qcongruence"] + sorted(
    f"qcongruence.{info.name}" for info in pkgutil.iter_modules(qcongruence.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []
