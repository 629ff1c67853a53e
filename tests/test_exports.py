import importlib
import pkgutil

import pytest

import tarl

MODULES = sorted(info.name for info in pkgutil.iter_modules(tarl.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"tarl.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []

