import importlib
import pkgutil

import pytest

import mxemu

MODULES = ["mxemu"] + [f"mxemu.{m.name}" for m in pkgutil.iter_modules(mxemu.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
    exec(f"from {name} import *", {})
