import importlib
import inspect
import pkgutil

import pytest

import spilqr

MODULES = ["spilqr"] + [f"spilqr.{info.name}"
                        for info in pkgutil.iter_modules(spilqr.__path__)]


@pytest.mark.parametrize("module, name", [
    (module, name) for module in MODULES
    for name in getattr(importlib.import_module(module), "__all__", ())])
def test_export_resolves(module, name):
    # a name deleted from a module but left in its __all__ breaks
    # ``from module import *`` and every caller that reads the list
    getattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module", [
    module for module in MODULES
    if hasattr(importlib.import_module(module), "__all__")])
def test_public_definitions_are_exported(module):
    # the converse: a public function or class that a module with an
    # __all__ defines is in that list, so the list is the whole surface
    space = importlib.import_module(module)
    defined = {name for name, value in vars(space).items()
               if not name.startswith("_")
               and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == module}
    assert sorted(defined - set(space.__all__)) == []
