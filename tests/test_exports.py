"""Every name a `gdmrelay` module lists in ``__all__`` exists, and the package
re-exports exactly the names its modules list."""

import importlib
import pkgutil
import types

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


def test_package_reexports_every_module_all():
    public = {n for n, obj in vars(gdmrelay).items()
              if not n.startswith("_") and not isinstance(obj, types.ModuleType)}
    listed = set()
    for name in MODULES[1:]:
        if name != "gdmrelay.cli":  # the CLI stays outside the package namespace
            listed.update(importlib.import_module(name).__all__)
    assert public == listed
