"""Every name a listfold module lists in ``__all__``, and every name the
package re-exports, resolves and belongs to its module's public surface."""

import importlib
import pkgutil
import types

import pytest

import listfold

MODULES = sorted(m.name for m in pkgutil.iter_modules(listfold.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"listfold.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"listfold.{name}.__all__ names missing attributes: {missing}"


def test_package_exports_resolve():
    namespace = {}
    exec("from listfold import *", namespace)
    exported = {n: v for n, v in vars(listfold).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported
    for name, value in exported.items():
        assert namespace[name] is value
        source = importlib.import_module(value.__module__)
        assert name in source.__all__, f"{name} is not in {value.__module__}.__all__"
