"""Pinned outputs, compared byte for byte with tests/golden:

- proof_scripts.txt: every corpus proof, a seeded substitution instance of
  each, and each derived rule's output on corpus premises, formatted with
  format_proof_script;
- search_outcomes.txt: proof search on the corpus goals and on seeded
  random formulas, with each outcome's status, node counters and proof;
- terms.txt: seeded fuzzed formula and relation-algebra texts, each with its
  printed form and repr or its ParseError, and the printed translation of
  every corpus goal, every named formula and seeded random formulas, and
  every law;
- script_reader.txt: seeded corpus scripts with one line mutated, each with
  the proof read back and formatted or the reader's ParseError;
- cli.txt: every command of the command line, as text and with --json, on
  fixed and seeded arguments and on arguments it rejects, each with its exit
  code, stdout and stderr.

To record the files again after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import random
import shlex
import shutil
import tempfile
from pathlib import Path
from unittest import mock

from tarl.algebra import (
    IDENT, ONE, TERMS, ZERO, Comp, Compl, Conv, Join, Meet, RVar, get_law,
    law_names, parse_ra_term, print_ra_term, translate,
)
from tarl.cli import main
from tarl.derived import apply_derived_rule
from tarl.formulas import Neg, ParseError, Var, parse_formula, print_formula, variables
from tarl.gen import random_core_formula, random_formula
from tarl.registry import (
    data_dir, formula_names, get_corpus_entry, get_formula, list_corpus,
    structure_names,
)
from tarl.search import SearchBudget, search_proof
from tarl.sequents import format_proof_script, parse_proof_script, substitute_proof

GOLDEN = Path(__file__).resolve().parent / "golden" / "proof_scripts.txt"
SEARCH_GOLDEN = Path(__file__).resolve().parent / "golden" / "search_outcomes.txt"
TERMS_GOLDEN = Path(__file__).resolve().parent / "golden" / "terms.txt"
READER_GOLDEN = Path(__file__).resolve().parent / "golden" / "script_reader.txt"
CLI_GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.txt"
# the counters that say how each node ended; nodes is their sum
_NODE_COUNTERS = ("nodes", "axioms", "cutoffs", "loop_prunes", "cache_prunes",
                  "expansions")


def _premise(lemma, sub=None):
    proof = get_corpus_entry(lemma).proof
    return substitute_proof(proof, sub) if sub else proof


def _derived_runs():
    """Each derived rule on the premises of acceptance criterion 2."""
    a, b, c, pp = (parse_formula(t) for t in ("a", "b", "c", "p -> p"))
    not_notpp = apply_derived_rule(
        "modusponens", [_premise("t3", {"a": pp}), _premise("A1", {"a": Var("p")})])
    flipped = apply_derived_rule(
        "modusponens", [_premise("comm1", {"b": pp, "a": Neg(pp)}),
                        _premise("t6", {"a": pp})])
    return [
        ("adjunction", [_premise("t6"), _premise("A1")], []),
        ("modusponens", [_premise("prefixingA", {"b": a}), _premise("A1")], []),
        ("disjunctivesyllogism", [flipped, not_notpp], []),
        ("transitivity", [_premise("A2"), _premise("A5")], []),
        ("contraposition", [_premise("A2")], []),
        ("contraposition2", [_premise("t3")], []),
        ("cut", [_premise("A3"), _premise("A5", {"a": b, "b": a})], []),
        ("erule", [_premise("t6")], [parse_formula("q")]),
        ("suffixing", [_premise("A2")], [c]),
        ("cycling", [_premise("t9")], []),
        ("prefixingR", [_premise("A2")], [c]),
        ("affixing", [_premise("A2"), _premise("A5")], []),
        ("monotonicfusion", [_premise("A2"), _premise("A5")], []),
    ]


def proof_scripts() -> str:
    rng = random.Random(7)
    out = []
    for entry in list_corpus():
        out.append(format_proof_script(entry.lemma_id, entry.proof))
        mapping = {v: random_core_formula(rng, rng.randint(2, 5), ("p", "q", "r"))
                   for v in sorted(variables(entry.proof.goal))}
        out.append(format_proof_script(f"{entry.lemma_id}_instance",
                                       substitute_proof(entry.proof, mapping)))
    for rule, inputs, params in _derived_runs():
        out.append(format_proof_script(rule, apply_derived_rule(rule, inputs, params)))
    return "\n".join(out)


def search_outcomes() -> str:
    budget = SearchBudget(max_nodes=5000)
    rng = random.Random(8)
    goals = [(entry.lemma_id, entry.proof.goal) for entry in list_corpus()]
    goals += [(f"random{n}", random_core_formula(rng, rng.randint(6, 12), ("p", "q")))
              for n in range(40)]
    out = []
    for name, goal in goals:
        outcome = search_proof(goal, budget)
        counts = " ".join(f"{c}={getattr(outcome, c)}" for c in _NODE_COUNTERS)
        out.append(f"# {name} {outcome.status} {counts}\n")
        if outcome.proved:
            out.append(format_proof_script(name, outcome.proof))
    return "".join(out)


# pieces of fuzzed texts: tokens, near-tokens, Unicode aliases, white space
# and characters that start no token
_FORMULA_PIECES = ("p", "q", "r1", "o", "oo", "id", "~", "&", "|", "->", "-", ">",
                   "(", ")", " ", "  ", "\t", "∧", "∨", "→", "¬", "∘", "～", "$", "P")
_TERM_PIECES = ("x", "y", "z1", "i", "id", "idx", "idle", "identity", "o", "0", "1",
                "10", "+", ".", ";", "-", "^", "(", ")", " ", "  ", "\t", "&", "$", "X")


def _random_term(rng, size):
    if size <= 1:
        return rng.choice((RVar("x"), RVar("y"), RVar("zz"), IDENT, ZERO, ONE))
    if size == 2 or rng.random() < 0.3:
        return rng.choice((Compl, Conv))(_random_term(rng, size - 1))
    left = rng.randint(1, size - 2)
    return rng.choice((Join, Meet, Comp))(_random_term(rng, left),
                                          _random_term(rng, size - 1 - left))


def _as_drawn(t):
    """t printed as when the fuzzed inputs were recorded, when a converse of
    a converse kept its parentheses, `(x^)^`: the inputs are drawn from this
    text, so they stay those recorded.  The printer folds (level, text)
    values, and a converse's operand that is a converse is given a level
    below every other, so that it is wrapped."""
    conv, level = TERMS.printer[Conv], TERMS.level[Conv]
    ops = {**TERMS.printer, Conv: lambda body: conv((-1, body[1]) if body[0] == level else body)}
    return TERMS.evaluate(t, TERMS.names, ops)[1]


def _fuzzed(rng, printed, pieces):
    """A printed form after up to two edits, each inserting a piece or
    deleting one or two characters, or else a text of random pieces."""
    if rng.random() < 0.4:
        return "".join(rng.choice(pieces) for _ in range(rng.randint(0, 8)))
    text = printed
    for _ in range(rng.randint(0, 2)):
        at = rng.randint(0, len(text))
        if rng.random() < 0.5:
            text = text[:at] + rng.choice(pieces) + text[at:]
        else:
            text = text[:at] + text[at + rng.randint(1, 2):]
    return text


def _parsed(kind, text, parse, show):
    try:
        node = parse(text)
    except ParseError as e:
        return f"{kind} {text!r} ! {e.position} {e.expected!r} {e.found!r}\n"
    return f"{kind} {text!r} = {show(node)} {node!r}\n"


def terms() -> str:
    rng = random.Random(9)
    out = []
    for _ in range(1000):
        printed = print_formula(random_formula(rng, rng.randint(1, 7), ("p", "q", "r1")))
        out.append(_parsed("F", _fuzzed(rng, printed, _FORMULA_PIECES),
                           parse_formula, print_formula))
    for _ in range(1000):
        printed = _as_drawn(_random_term(rng, rng.randint(1, 7)))
        out.append(_parsed("R", _fuzzed(rng, printed, _TERM_PIECES),
                           parse_ra_term, print_ra_term))
    goals = [(entry.lemma_id, entry.proof.goal) for entry in list_corpus()]
    goals += [(name, get_formula(name).formula) for name in formula_names()]
    goals += [(f"random{n}", random_formula(rng, rng.randint(1, 12), ("p", "q", "r", "s")))
              for n in range(300)]
    for name, goal in goals:
        out.append(f"T {name} {print_ra_term(translate(goal))}\n")
    for name in law_names():
        law = get_law(name)
        premises = "".join(f" if {print_ra_term(l)} {rel} {print_ra_term(r)}"
                           for (l, rel, r) in law.premises)
        out.append(f"L {name} {print_ra_term(law.lhs)} {law.rel} "
                   f"{print_ra_term(law.rhs)}{premises}\n")
    return "".join(out)


# characters a mutated script line gains: the script syntax, the formula
# syntax, a comment, a tab, Unicode aliases and the letters of the header
_SCRIPT_PIECES = " ,;=>[]()0123456789k=.-~&|#\t∧→lemmabound:pq"


def _mutated(rng, line):
    """line after one to three edits, each inserting, deleting or replacing
    one character."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(line))
        edit = rng.randrange(3)
        if edit == 0:
            line = line[:at] + rng.choice(_SCRIPT_PIECES) + line[at:]
        elif edit == 1:
            line = line[:at] + line[at + 1:]
        else:
            line = line[:at] + rng.choice(_SCRIPT_PIECES) + line[at + 1:]
    return line


def script_reader() -> str:
    rng = random.Random(10)
    scripts = [(entry.lemma_id, format_proof_script(entry.lemma_id, entry.proof))
               for entry in list_corpus()]
    out = []
    for _ in range(2000):
        name, text = rng.choice(scripts)
        lines = text.splitlines()
        n = rng.randrange(len(lines))
        lines[n] = _mutated(rng, lines[n])
        out.append(f"S {name} {n + 1} {lines[n]!r}")
        try:
            read, proof = parse_proof_script("\n".join(lines) + "\n")
        except ParseError as e:
            out.append(f" ! {e.line} {e.position} {e.expected!r} {e.found!r}\n")
        else:
            out.append(f" ok bound {proof.bound}\n{format_proof_script(read, proof)}")
    return "".join(out)


def _cli_rows(tmp: Path) -> list[tuple[str, ...]]:
    """The argument lists of cli(), each run as text and with --json; the
    files they read are in tmp or the data directory."""
    data = data_dir()
    (tmp / "bad.prf").write_text("lemma bad\n1. (p)[0,1] => (p)[1,0] ; axiom\n")
    (tmp / "comm.chain").write_text("x;y = y;x ; comm\n")
    (tmp / "mine.model").write_text((data / "models" / "K4.model").read_text())
    (tmp / "bad.model").write_text("model bad\nelements 0 a\nzero 0\nstar 0:0 a:zz\n"
                                   "triples\n0 0 0\n0 a a\nend\n")
    chains = [str(p) for p in sorted((data / "chains").glob("*.chain"))]
    rng = random.Random(12)
    randoms = [print_formula(random_core_formula(rng, rng.randint(3, 9), ("p", "q", "r")))
               for _ in range(6)]
    rows = [("parse", text) for text in
            ("(p o q) & r", "p -> p", "~~(p | q) -> r o ~s", "reflection", "p ->", "p $ q")]
    rows += [("check", str(data / "corpus" / f"{lemma}.prf"))
             for lemma in ("t6", "reflection", "assocfusion")]
    rows += [("check", str(tmp / "bad.prf")), ("check", str(tmp / "missing.prf"))]
    rows += [("prove", goal) for goal in
             ("a & b -> a", "a -> a", "~((p -> q) -> ~p)", "contra", "mp",
              "(b -> (c -> a)) -> (~(b -> ~c) -> a)")]
    rows += [("prove", "ming", "--depth", "10"), ("prove", "a", "--nodes", "0"),
             ("prove", "p", "--depth", "513")]
    rows += [("prove", goal, "--nodes", "500") for goal in randoms[:3]]
    rows += [("valid", model, f) for model in structure_names()
             for f in ("contra", "mp", "contr", "p -> p")]
    rows += [("valid", "K9", "contra"), ("valid", str(tmp / "mine.model"), "suff")]
    rows += [("countermodel", model, f, *flag) for model in ("K1", "K3", "K5")
             for f in ("mp", "suff", "p -> p") for flag in ((), ("--singletons",))]
    rows += [("countermodel", "K4", f) for f in randoms[3:]]
    rows += [("countermodel", "--singletons", "K1", "a&b&c&d&e&f&g&h&i&j&k&l")]
    rows += [("postulates", model) for model in structure_names()]
    rows += [("postulates", str(tmp / "mine.model")), ("postulates", str(tmp / "bad.model"))]
    rows += [("corpus",), ("corpus", "--filter", "reflection"), ("corpus", "--filter", "nope")]
    rows += [("translate", f) for f in ("p -> q", "reflection", "~(p o q) | r", "id -> q")]
    rows += [("algebra-test", law, "--base", "3", "--trials", "50")
             for law in ("ra1", "ra4", "ra7", "dra1", "refleq")]
    rows += [("algebra-test", str(tmp / "comm.chain"), "--base", "2", "--trials", "20"),
             ("algebra-test", "zzz"), ("algebra-test", "ra1", "--base", "1")]
    rows += [("chain", alg, chain, "--trials", "50") for chain in chains
             for alg in ("K3", "proper:3")]
    rows += [("chain", "proper:9", chains[0]), ("chain", "K9", chains[0])]
    rows += [("grouprep", "--partition", str(n)) for n in range(1, 10)]
    rows += [("sharing", a, b) for a, b in
             (("p & q", "p"), ("p", "q"), ("p -> q", "r o s"), ("contra", "mp"))]
    return rows


def _invocation(argv, *paths) -> str:
    """tarl argv, its exit code, stdout and stderr, with the directories
    paths, given as (directory, name) pairs, written as their names."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    def shown(text):
        for path, name in paths:
            text = text.replace(str(path), name)
        return text
    lines = [f"$ tarl {shown(shlex.join(argv))}\n", f"exit {code}\n"]
    for mark, text in (("|", out.getvalue()), ("!", err.getvalue())):
        lines += [f"{mark} {line}\n" for line in shown(text).splitlines()]
        if text and not text.endswith("\n"):
            lines.append("\\ no newline at end\n")
    return "".join(lines)


def cli() -> str:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name).resolve()
        paths = ((tmp, "$TMP"), (data_dir(), "$DATA"))
        out = [_invocation(row + json, *paths)
               for row in _cli_rows(tmp) for json in ((), ("--json",))]
        # a file named like a built-in structure shadows it, with a warning
        (tmp / "k4").write_text((data_dir() / "models" / "K1.model").read_text())
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            out.append(_invocation(("postulates", "k4"), *paths))
        finally:
            os.chdir(cwd)
        # a corpus lemma that no longer checks
        shutil.copytree(data_dir(), tmp / "data")
        t6 = tmp / "data" / "corpus" / "t6.prf"
        t6.write_text(t6.read_text().replace("(a)[0,0] => (a)[0,0]", "(a)[0,1] => (a)[0,0]"))
        with mock.patch.dict(os.environ, TARL_DATA=str(tmp / "data")):
            out += [_invocation(("corpus", *json), *paths) for json in ((), ("--json",))]
    return "".join(out)


def test_proof_scripts_are_unchanged():
    assert proof_scripts() == GOLDEN.read_text()


def test_search_outcomes_are_unchanged():
    assert search_outcomes() == SEARCH_GOLDEN.read_text()


def test_terms_are_unchanged():
    assert terms() == TERMS_GOLDEN.read_text()


def test_script_reader_is_unchanged():
    assert script_reader() == READER_GOLDEN.read_text()


def test_cli_is_unchanged():
    assert cli() == CLI_GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(proof_scripts())
    SEARCH_GOLDEN.write_text(search_outcomes())
    TERMS_GOLDEN.write_text(terms())
    READER_GOLDEN.write_text(script_reader())
    CLI_GOLDEN.write_text(cli())
