"""Pinned outputs, compared byte for byte with tests/golden:

- proof_scripts.txt: every corpus proof, a seeded substitution instance of
  each, and each derived rule's output on corpus premises, formatted with
  format_proof_script;
- search_outcomes.txt: proof search on the corpus goals and on seeded
  random formulas, with each outcome's status, node counters and proof.

To record the files again after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import random
from pathlib import Path

from tarl.derived import apply_derived_rule
from tarl.formulas import Neg, Var, parse_formula, variables
from tarl.gen import random_core_formula
from tarl.registry import get_corpus_entry, list_corpus
from tarl.search import SearchBudget, search_proof
from tarl.sequents import format_proof_script, substitute_proof

GOLDEN = Path(__file__).resolve().parent / "golden" / "proof_scripts.txt"
SEARCH_GOLDEN = Path(__file__).resolve().parent / "golden" / "search_outcomes.txt"
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


def test_proof_scripts_are_unchanged():
    assert proof_scripts() == GOLDEN.read_text()


def test_search_outcomes_are_unchanged():
    assert search_outcomes() == SEARCH_GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(proof_scripts())
    SEARCH_GOLDEN.write_text(search_outcomes())
