import random
from dataclasses import replace
from pathlib import Path

import pytest

from tarl import derived
from tarl.derived import (
    DERIVED_RULES, InvalidInput, PremiseMismatch, apply_derived_rule,
    conclusion_formula,
)
from tarl.formulas import (
    Neg, Var, parse_formula, print_formula, substitute, variables,
)
from tarl.gen import random_formula
from tarl.registry import get_corpus_entry
from tarl.sequents import (
    Assertion, Axiom, Proof, Sequent, check_proof, substitute_proof,
)


def proof_of(lemma, mapping=None):
    p = get_corpus_entry(lemma).proof
    return substitute_proof(p, mapping) if mapping else p


def conclude(rule, inputs, params=(), expect=None):
    out = apply_derived_rule(rule, inputs, list(params))
    report = check_proof(out)
    assert report.valid, (rule, report.first_error)
    if expect is not None:
        assert conclusion_formula(out) == parse_formula(expect)
    return out


def test_all_thirteen_rules_are_registered():
    assert len(DERIVED_RULES) == 13


def test_adjunction():
    conclude("adjunction", [proof_of("t6"), proof_of("A1")],
             expect="(a | ~a) & (a -> a)")


def test_modusponens_on_prefixing_axiom():
    # instantiating the prefixing axiom at b:=a makes A1 its antecedent
    pref = proof_of("prefixingA", {"b": parse_formula("a")})
    conclude("modusponens", [pref, proof_of("A1")],
             expect="(c -> a) -> (c -> a)")


def test_transitivity():
    conclude("transitivity", [proof_of("A2"), proof_of("A5")],
             expect="a & b -> a | b")


def test_contraposition_uses_permuted_subproof():
    out = conclude("contraposition", [proof_of("A2")],
                   expect="~a -> ~(a & b)")
    swapped_conclusion = Sequent.of(
        (), (Assertion(parse_formula("a & b -> a"), 1, 1),))
    assert any(s == swapped_conclusion for s, _ in out.lines)


def test_contraposition2():
    conclude("contraposition2", [proof_of("t3")], expect="~a -> ~a")


def test_cut_rule():
    second = proof_of("A5", {"a": parse_formula("b"), "b": parse_formula("a")})
    conclude("cut", [proof_of("A3"), second], expect="b -> b")


def test_erule_uses_permuted_subproof():
    out = conclude("erule", [proof_of("t6")], params=[parse_formula("q")],
                   expect="(a | ~a -> q) -> q")
    swapped = Sequent.of((), (Assertion(parse_formula("a | ~a"), 1, 1),))
    assert any(s == swapped for s, _ in out.lines)


def test_erule_widens_an_input_at_bound_one():
    # t6 uses object 0 alone, so it checks at bound 1; the swap of 0 and 1
    # needs index 1, and the permuted input is widened to bound 2
    narrow = replace(proof_of("t6"), bound=1)
    assert check_proof(narrow).valid
    out = conclude("erule", [narrow], params=[Var("q")],
                   expect="(a | ~a -> q) -> q")
    assert out.bound == 2


def test_suffixing():
    conclude("suffixing", [proof_of("A2")], params=[parse_formula("c")],
             expect="(a -> c) -> (a & b -> c)")


def test_cycling_uses_02_permuted_subproof():
    out = conclude("cycling", [proof_of("t9")])
    assert conclusion_formula(out) == parse_formula("b -> (~~(a -> ~b) -> ~a)")
    swapped = Sequent.of(
        (), (Assertion(parse_formula("a -> (b -> ~(a -> ~b))"), 2, 2),))
    assert any(s == swapped for s, _ in out.lines)


def test_prefixing_rule():
    conclude("prefixingR", [proof_of("A2")], params=[parse_formula("c")],
             expect="(c -> a & b) -> (c -> a)")


def test_affixing():
    conclude("affixing", [proof_of("A2"), proof_of("A5")],
             expect="(a -> a) -> (a & b -> a | b)")


def test_monotonic_fusion():
    out = conclude("monotonicfusion", [proof_of("A2"), proof_of("A5")])
    assert conclusion_formula(out) == parse_formula(
        "~(a & b -> ~a) -> ~(a -> ~(a | b))")


def test_disjunctive_syllogism_composite():
    pp = parse_formula("p -> p")
    a1 = proof_of("A1", {"a": Var("p")})
    t3 = proof_of("t3", {"a": pp})
    not_not = apply_derived_rule("modusponens", [t3, a1])
    t6 = proof_of("t6", {"a": pp})
    comm1 = proof_of("comm1", {"b": pp, "a": Neg(pp)})
    flipped = apply_derived_rule("modusponens", [comm1, t6])
    conclude("disjunctivesyllogism", [flipped, not_not], expect="p -> p")


def test_premise_mismatch():
    with pytest.raises(PremiseMismatch):
        apply_derived_rule("modusponens", [proof_of("t6"), proof_of("A1")])
    with pytest.raises(PremiseMismatch):
        apply_derived_rule("transitivity", [proof_of("A2"), proof_of("A2")])
    with pytest.raises(PremiseMismatch):
        apply_derived_rule("nonesuch", [])


def test_premise_mismatch_names_input_and_schema():
    with pytest.raises(PremiseMismatch, match=r"transitivity: input 2 .*b -> c"):
        apply_derived_rule("transitivity", [proof_of("A2"), proof_of("A2")])


def test_parameter_that_is_not_a_formula():
    with pytest.raises(PremiseMismatch, match=r"erule: parameter b is not a formula: 'q'"):
        apply_derived_rule("erule", [proof_of("t6")], ["q"])


def test_empty_input_proof():
    with pytest.raises(PremiseMismatch, match="no lines and no goal"):
        apply_derived_rule("contraposition", [Proof(lines=[])])
    with pytest.raises(InvalidInput, match="GoalMissing"):
        apply_derived_rule("contraposition",
                           [Proof(lines=[], goal=parse_formula("a -> a"))])


def test_invalid_input_rejected():
    bogus = Proof(lines=[(Sequent.of((), (Assertion(Var("a"), 0, 0),)),
                          Axiom())], goal=Var("a"))
    with pytest.raises(InvalidInput):
        apply_derived_rule("contraposition", [bogus])


def test_outputs_compose():
    # feed a combinator output into another combinator
    tr = conclude("transitivity", [proof_of("A2"), proof_of("A5")])
    conclude("contraposition", [tr], expect="~(a | b) -> ~(a & b)")


def test_match_inverts_substitute():
    rng = random.Random(20)
    for _ in range(300):
        schema = random_formula(rng, rng.randint(1, 7), ["a", "b", "c"])
        m = {v: random_formula(rng, rng.randint(1, 5), ["p", "q"])
             for v in "abc"}
        f = substitute(schema, m)
        binding = {}
        assert derived._match(schema, f, binding), (schema, f)
        assert binding == {v: m[v] for v in variables(schema)}
        assert substitute(schema, binding) is f


@pytest.mark.parametrize("schema, formula", [
    ("a -> a", "p -> q"),       # a repeated variable binds one formula
    ("a & b", "p | q"),         # another connective
    ("~a", "p"),
    ("a -> b -> c", "(p -> q) -> r"),
])
def test_match_rejects(schema, formula):
    assert not derived._match(parse_formula(schema), parse_formula(formula), {})


@pytest.mark.parametrize("rule, lemmas, params", [
    ("monotonicfusion", ["A2", "A5"], []),
    ("affixing", ["A2", "A5"], []),
    ("prefixingR", ["A2"], ["c"]),
])
def test_each_input_and_the_output_are_checked_once(monkeypatch, rule,
                                                    lemmas, params):
    calls = []

    def counting(proof):
        calls.append(proof)
        return check_proof(proof)

    monkeypatch.setattr(derived, "check_proof", counting)
    apply_derived_rule(rule, [proof_of(x) for x in lemmas],
                       [parse_formula(x) for x in params])
    assert len(calls) == len(lemmas) + 1


def test_readme_lists_every_rule():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for name, (premises, params, conclusion, _) in DERIVED_RULES.items():
        line = (f"  - `{name}`" + "".join(f", parameter `{p}`" for p in params)
                + ": " + ", ".join(f"`{print_formula(s)}`" for s in premises)
                + f" gives `{print_formula(conclusion)}`\n")
        assert line in readme, line
