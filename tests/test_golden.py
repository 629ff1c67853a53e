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
  the proof read back and formatted or the reader's ParseError.

To record the files again after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import random
from pathlib import Path

from tarl.algebra import (
    IDENT, ONE, TERMS, ZERO, Comp, Compl, Conv, Join, Meet, RVar, get_law,
    law_names, parse_ra_term, print_ra_term, translate,
)
from tarl.derived import apply_derived_rule
from tarl.formulas import Neg, ParseError, Var, parse_formula, print_formula, variables
from tarl.gen import random_core_formula, random_formula
from tarl.registry import formula_names, get_corpus_entry, get_formula, list_corpus
from tarl.search import SearchBudget, search_proof
from tarl.sequents import format_proof_script, parse_proof_script, substitute_proof

GOLDEN = Path(__file__).resolve().parent / "golden" / "proof_scripts.txt"
SEARCH_GOLDEN = Path(__file__).resolve().parent / "golden" / "search_outcomes.txt"
TERMS_GOLDEN = Path(__file__).resolve().parent / "golden" / "terms.txt"
READER_GOLDEN = Path(__file__).resolve().parent / "golden" / "script_reader.txt"
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
    text, so they stay those recorded."""
    def operand(child):
        text = _as_drawn(child)
        return f"({text})" if isinstance(t, Conv) and isinstance(child, Conv) else text
    return TERMS.show(t, operand)


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


def test_proof_scripts_are_unchanged():
    assert proof_scripts() == GOLDEN.read_text()


def test_search_outcomes_are_unchanged():
    assert search_outcomes() == SEARCH_GOLDEN.read_text()


def test_terms_are_unchanged():
    assert terms() == TERMS_GOLDEN.read_text()


def test_script_reader_is_unchanged():
    assert script_reader() == READER_GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(proof_scripts())
    SEARCH_GOLDEN.write_text(search_outcomes())
    TERMS_GOLDEN.write_text(terms())
    READER_GOLDEN.write_text(script_reader())
