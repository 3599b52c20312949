import importlib
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
