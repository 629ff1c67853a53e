import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_reproduces_its_golden(script):
    # every script's output is pinned in tests/golden/<stem>.txt, so a changed
    # verdict or witness shows here, and a script cannot land without one
    golden = ROOT / "tests" / "golden" / f"{script.stem}.txt"
    assert golden.exists(), f"{script.name} has no golden {golden.name}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(script)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden.read_text()


def _mutants_script():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOY = '''"""A toy module."""
from __future__ import annotations


def count(n: int | None) -> int:
    i = 0
    while i < n:
        i += 1
    return i


def untested(x):
    return x & 1
'''


def test_mutants_finds_each_kind_of_site():
    mutants = _mutants_script()
    found = [(s.scope, s.operator, s.text) for s in mutants.sites(ast.parse(TOY), "toy")]
    # no site in the docstring, the __future__ import or the annotations
    assert found == [
        ("<module>", "delete", "def count(n: int | None) -> int:"),
        ("count", "delete", "i = 0"),
        ("count", "delete", "while i < n:"),
        ("count", "< -> <=", "i < n"),
        ("count", "delete", "i += 1"),
        ("count", "delete", "return i"),
        ("<module>", "delete", "def untested(x):"),
        ("untested", "delete", "return x & 1"),
        ("untested", "& -> |", "x & 1"),
    ]
    for number in range(len(found)):
        text = mutants.mutant(TOY, "toy", number)
        assert text != ast.unparse(ast.parse(TOY)) + "\n"
        compile(text, "toy.py", "exec")
    assert "while i <= n:" in mutants.mutant(TOY, "toy", 3)
    # the deletion that loops forever in the script reader is a site
    assert any(s.scope == "_side" and s.text == "pos = m.end()" for s in mutants.sites(
        ast.parse((ROOT / "src" / "tarl" / "sequents.py").read_text()), "sequents"))


def test_mutants_lists_only_mutants_of_their_modules():
    # each listed equivalent is still a site of its module, so none is stale
    mutants = _mutants_script()
    for module, scope, operator, text in mutants.EQUIVALENT:
        walk = mutants._Walk()
        walk.visit(ast.parse(mutants.module_path(module).read_text()))
        assert (scope, operator, text) in {(s.scope, s.operator, s.text) for s in walk.sites}


def test_mutants_runs_each_mutant_in_a_fresh_process(tmp_path, monkeypatch, capsys):
    # a mutant is killed by a failing test, or by the timeout when it loops
    # forever, and survives when no test tells it apart
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "toy.py").write_text(TOY)
    (tmp_path / "tests" / "test_toy.py").write_text(
        "from toy import count\n\n\ndef test_count():\n    assert count(3) == 3\n")
    mutants = _mutants_script()
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    monkeypatch.setattr(mutants, "TIMEOUT_SLACK", 1)  # the looping mutant's wait
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")  # the toy needs none
    status = mutants.main(["src/toy.py", "--site", "3", "4", "7", "--tests", "tests"])
    out = capsys.readouterr().out
    verdicts = [(int(number), int(line), verdict) for number, line, verdict in re.findall(
        r"^ *(\d+)  src/toy.py:(\d+):\d+  .*  (\w+) [\d.]+ s$", out, re.M)]
    assert (status, verdicts) == (1, [(3, 7, "killed"), (4, 8, "timeout"), (7, 13, "survived")])
    assert out.endswith("1 of 3 mutants survived\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["src", "tests"]
