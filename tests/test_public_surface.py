"""Every exported name of the package and its modules must resolve, once."""

import importlib
import pkgutil

import pytest

import diffentropy

MODULES = ["diffentropy"] + [f"diffentropy.{info.name}"
                             for info in pkgutil.iter_modules(diffentropy.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
