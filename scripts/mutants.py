"""Mutation testing of one module of tarl, with the standard library only.

    python scripts/mutants.py search
    python scripts/mutants.py sequents --site 12 40 --tests tests
    python scripts/mutants.py

A mutant is the module with one change at one site: a statement deleted
(replaced by ``pass``), a comparison swapped (< and <=, > and >=, == and
!=, is and is not, in and not in, each way), a boolean operator swapped
(and and or) or a bitwise one (& and |, ^ to |, << and >>, in augmented
assignments too).  Docstrings, ``pass``, ``from __future__`` imports and
annotations hold no site.  Sites are numbered in a fixed walk of the
module's syntax tree; COUNT of them are drawn by ``random.Random(SEED)``,
or --site names them.

The checkout's src, tests, scripts, pyproject.toml and README.md are copied to a
temporary directory once.  Each mutant is written there over the module, by
``ast.unparse``, and the module's test files (MODULE_TESTS, or --tests) run
on it in a fresh process, one mutant at a time, under pytest -x, so the
first failure kills it.  A deleted statement can loop forever (``pos =
m.end()`` in ``sequents._side``), so each run has a timeout, and a mutant
that reaches it counts as killed.  First the module itself, unparsed the
same way, must pass its tests; TIMEOUT_FACTOR times that run's time, plus
TIMEOUT_SLACK seconds, is the timeout.

Each mutant is printed on one line: its number, site (line and column of
the original module, and the enclosing def or class), operator, text and
verdict (killed, timeout or survived) with its time.  The exit status is
1 when a mutant survived.  The mutants listed in EQUIVALENT are ones that
no test can tell apart from the module, and are no sites; with no module
named, the script prints them.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "pyproject.toml", "README.md")
COUNT, SEED = 10, 0  # the draw: how many mutants of a module, and its seed
# a mutant's tests may run TIMEOUT_FACTOR times as long as the unmutated
# module's, plus TIMEOUT_SLACK seconds
TIMEOUT_FACTOR, TIMEOUT_SLACK = 5, 10

# each module's test files, beside tests/test_exports.py (each __all__); a
# module not listed has tests/test_<name>.py
MODULE_TESTS = {
    "sequents": ["tests/test_sequents.py", "tests/test_file_errors.py"],
}

# (module, scope, operator, text) -> why no test can tell the mutant apart
# from the module
EQUIVALENT = {
    ("search", "_Table", "delete", "__slots__ = ('_actives', '_ordered', '_decoded')"):
        "slots only save memory: without them a table has a __dict__ and acts the same",
    ("sequents", "_int", "delete", "return None"):
        "the function returns None at its end without it",
    ("sequents", "_listed", "> -> >=", "len(side) > 1"):
        "sorting one assertion leaves it as it was; the test only saves the sort",
    ("sequents", "_read_sequent", "< -> <=", "semi < 0"):
        "find from past the line number gives -1 or an offset past it, never 0",
    ("sequents", "_read_sequent", "< -> <=", "arrow < 0"):
        "find from past the line number gives -1 or an offset past it, never 0",
}

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in", ast.And: "and",
    ast.Or: "or", ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^", ast.LShift: "<<",
    ast.RShift: ">>",
}


class Site:
    """One mutant of a parsed module: apply() changes the tree in place."""

    def __init__(self, node: ast.AST, scope: str, operator: str, text: str, apply):
        self.line, self.col = node.lineno, node.col_offset
        self.scope, self.operator, self.text, self.apply = scope, operator, text, apply


class _Walk(ast.NodeVisitor):
    """The sites of a tree, in the order of a walk in source order."""

    def __init__(self):
        self.sites, self.scope = [], ["<module>"]

    def add(self, node, operator, text, apply):
        self.sites.append(Site(node, ".".join(self.scope[1:]) or self.scope[0],
                               operator, text, apply))

    def generic_visit(self, node):
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            if isinstance(value, list):
                for index, item in enumerate(value):
                    if isinstance(item, ast.stmt):
                        self.statement(value, index)
                    if isinstance(item, ast.AST):
                        self.visit(item)
            elif isinstance(value, ast.AST):
                self.visit(value)

    def statement(self, body, index):
        node = body[index]
        docstring = (index == 0 and isinstance(node, ast.Expr)
                     and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))
        future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
        if not (docstring or future or isinstance(node, ast.Pass)):
            self.add(node, "delete", ast.unparse(node).split("\n")[0],
                     lambda: body.__setitem__(index, ast.Pass()))

    def scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = scoped

    def swap(self, node, holder, field, index=None):
        old = getattr(holder, field) if index is None else getattr(holder, field)[index]
        new = SWAPS.get(type(old))
        if new is None:
            return

        def apply():
            if index is None:
                setattr(holder, field, new())
            else:
                getattr(holder, field)[index] = new()

        self.add(node, f"{SYMBOLS[type(old)]} -> {SYMBOLS[new]}", ast.unparse(node), apply)

    def visit_Compare(self, node):
        for index in range(len(node.ops)):
            self.swap(node, node, "ops", index)
        self.generic_visit(node)

    def visit_BoolOp(self, node):
        self.swap(node, node, "op")
        self.generic_visit(node)

    def visit_BinOp(self, node):
        self.swap(node, node, "op")
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self.swap(node, node, "op")
        self.generic_visit(node)


def module_path(module: str) -> Path:
    return ROOT / module if module.endswith(".py") else ROOT / "src" / "tarl" / f"{module}.py"


def sites(tree: ast.Module, module: str) -> list[Site]:
    """The sites of tree, module's, less its listed equivalents."""
    walk = _Walk()
    walk.visit(tree)
    return [s for s in walk.sites
            if (module, s.scope, s.operator, s.text) not in EQUIVALENT]


def mutant(source: str, module: str, number: int) -> str:
    """The source of module with site number changed."""
    tree = ast.parse(source)
    sites(tree, module)[number].apply()
    return ast.unparse(tree) + "\n"


def run_tests(copy: Path, tests: list[str], timeout: float) -> tuple[str, float]:
    """Run tests in copy in a fresh process: "passed", "failed" (any
    other exit, such as a module that no longer imports) or "timeout", and
    the seconds it took."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    with open(copy / "pytest.out", "w") as out:
        proc = subprocess.Popen(command, cwd=copy, env=env, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # pytest and whatever it started
            proc.wait()
            return "timeout", time.perf_counter() - start
    return ("passed" if code == 0 else "failed"), time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", nargs="?",
                        help="a module of tarl, such as search, or a path to a .py file")
    parser.add_argument("--site", type=int, nargs="+", help="run these sites, not a draw")
    parser.add_argument("--tests", nargs="+", help="the test files or directories to run")
    args = parser.parse_args(argv)
    if args.module is None:
        for module, scope, operator, text in EQUIVALENT:
            print(f"{module}  {scope}  {operator}  {text}")
        return 0
    path = module_path(args.module)
    module = path.stem
    source = path.read_text()
    found = sites(ast.parse(source), module)
    if args.site:
        chosen = args.site
        if not all(0 <= number < len(found) for number in chosen):
            parser.error(f"a site is a number from 0 to {len(found) - 1}")
    else:
        chosen = sorted(random.Random(SEED).sample(range(len(found)), min(COUNT, len(found))))
    tests = args.tests or [*MODULE_TESTS.get(module, [f"tests/test_{module}.py"]),
                           "tests/test_exports.py"]
    relative = path.relative_to(ROOT)
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            elif (ROOT / name).exists():
                shutil.copy2(ROOT / name, copy / name)
        target = copy / relative
        target.write_text(ast.unparse(ast.parse(source)) + "\n")
        verdict, seconds = run_tests(copy, tests, timeout=600)
        if verdict != "passed":
            print((copy / "pytest.out").read_text()[-2000:], file=sys.stderr)
            sys.exit(f"{relative} unmutated {verdict} its tests: {' '.join(tests)}")
        timeout = TIMEOUT_FACTOR * seconds + TIMEOUT_SLACK
        print(f"{relative}: {len(found)} sites; {len(chosen)} mutants against "
              f"{' '.join(tests)}, {timeout:.0f} s each at most "
              f"(the unmutated module took {seconds:.1f} s)")
        for number in chosen:
            s = found[number]
            target.write_text(mutant(source, module, number))
            verdict, seconds = run_tests(copy, tests, timeout)
            verdict = {"passed": "survived", "failed": "killed"}.get(verdict, verdict)
            survived += verdict == "survived"
            text = s.text if len(s.text) <= 70 else s.text[:67] + "..."
            print(f"{number:4}  {relative}:{s.line}:{s.col}  {s.scope}  {s.operator}  "
                  f"{text}  {verdict} {seconds:.1f} s", flush=True)
    print(f"{survived} of {len(chosen)} mutants survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
