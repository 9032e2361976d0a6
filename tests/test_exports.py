"""Every name a `gdmrelay` module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import gdmrelay

MODULES = ["gdmrelay"] + [f"gdmrelay.{m.name}" for m in pkgutil.iter_modules(gdmrelay.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", [])
    assert [n for n in listed if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(listed) <= set(namespace)
