import importlib
import pkgutil
import types

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


# the public functions perfbench's tracer opens spans around: it wraps only
# plain functions, so a decorator on one of these would silently empty its
# layer's metrics
TRACED = {
    "formulas": ["parse_formula"],
    "sequents": ["parse_proof_script", "check_proof", "format_proof_script",
                 "substitute_proof"],
    "derived": ["apply_derived_rule"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in TRACED.items()
                                          for n in names])
def test_traced_functions_are_plain_functions(module, name):
    assert type(getattr(importlib.import_module(f"tarl.{module}"), name)) is types.FunctionType
