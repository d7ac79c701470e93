"""Every module of the package declares `__all__`, and every name in it resolves."""

import importlib
import pkgutil

import pytest

import coblim

MODULES = ["coblim"] + [f"coblim.{m.name}" for m in pkgutil.iter_modules(coblim.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
