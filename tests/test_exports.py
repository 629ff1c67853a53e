import ast
import importlib
import pkgutil
import types
from pathlib import Path

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


def test_the_package_exports_only_what_its_modules_export():
    # every name tarl takes from a module is in that module's __all__, so
    # from tarl.<module> import * gives it too
    tree = ast.parse(Path(tarl.__file__).read_text())
    taken = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level]
    assert {node.module for node in taken} >= {"formulas", "sequents", "search", "models"}
    for node in taken:
        exported = importlib.import_module(f"tarl.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in exported] == [], node.module


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
