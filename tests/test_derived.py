import random
import re
import shutil
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from tarl import derived
from tarl.derived import (
    DERIVED_RULES, InvalidInput, PremiseMismatch, apply_derived_rule,
    conclusion_formula,
)
from tarl.formulas import (
    Imp, Neg, Var, desugar_fusion, parse_formula, print_formula, substitute, variables,
)
from tarl.gen import random_formula
from tarl.registry import DataFileError, data_dir, get_corpus_entry, list_corpus
from tarl.search import REFUTE_AFTER
from tarl.sequents import (
    Assertion, Axiom, Premise, Proof, Sequent, Weaken, check_proof, check_step,
    format_proof_script, goal_sequent, parse_proof_script, permute_indices, substitute_proof,
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


def _prefixing(p, c):
    """(c -> a) -> (c -> b) from p proving a -> b: modus ponens on an
    instance of the prefixing axiom."""
    f = conclusion_formula(p)
    axiom = proof_of("prefixingA", {"a": f.left, "b": f.right, "c": c})
    return apply_derived_rule("modusponens", [axiom, p])


def _affixing(p1, p2):
    (a, _), (c, _) = [(f.left, f.right) for f in map(conclusion_formula, (p1, p2))]
    return apply_derived_rule("transitivity", [apply_derived_rule("suffixing", [p1], [c]),
                                               _prefixing(p2, a)])


def _monotonicfusion(p1, p2):
    (a, b), (_, d) = [(f.left, f.right) for f in map(conclusion_formula, (p1, p2))]
    contra_cd = apply_derived_rule("contraposition", [p2])           # ~d -> ~c
    step4 = apply_derived_rule("suffixing", [p1], [Neg(d)])          # (b->~d) -> (a->~d)
    step6 = _prefixing(_prefixing(contra_cd, a), Imp(b, Neg(d)))
    step7 = apply_derived_rule("modusponens", [step6, step4])        # (b->~d) -> (a->~c)
    return apply_derived_rule("contraposition", [step7])             # ~(a->~c) -> ~(b->~d)


@pytest.mark.parametrize("rule, chain", [
    ("prefixingR", _prefixing),
    ("affixing", _affixing),
    ("monotonicfusion", _monotonicfusion),
])
def test_skeletons_agree_with_chains_of_the_other_rules(rule, chain):
    """prefixingR, affixing and monotonicfusion restated as chains of other
    rules give the same proof, line for line, as their skeletons on seeded
    instances of corpus implications."""
    rng = random.Random(30)
    implications = [e for e in list_corpus() if isinstance(desugar_fusion(e.proof.goal), Imp)]
    premises, params, _ = DERIVED_RULES[rule]
    for _ in range(50):
        inputs = []
        for _ in premises:
            proof = rng.choice(implications).proof
            inputs.append(substitute_proof(proof, {
                v: random_formula(rng, rng.randint(1, 4), ["p", "q", "r"])
                for v in variables(proof.goal)}))
        extra = [random_formula(rng, rng.randint(1, 4), ["p", "q"]) for _ in params]
        assert (format_proof_script(rule, apply_derived_rule(rule, inputs, extra))
                == format_proof_script(rule, chain(*inputs, *extra)))


def _splice_by_replace(rule, inputs, binding):
    """derived._splice written with dataclasses.replace, and a forward scan
    for the last line of an input that derives its premise."""
    skeleton, leaves = derived._skeleton(rule)
    lines, at = [], [0]
    for n, (seq, just) in enumerate(substitute_proof(skeleton, binding).lines, start=1):
        if n not in leaves:
            lines.append((seq, replace(just, refs=tuple(at[r] for r in just.refs))))
            at.append(len(lines))
            continue
        k, i = leaves[n]
        proof = inputs[k]
        if i:
            perm = {x: x for x in range(max(proof.bound, i + 1))} | {0: i, i: 0}
            proof = permute_indices(replace(proof, bound=len(perm)), perm)
        offset = len(lines)
        lines += [(s, replace(j, refs=tuple(r + offset for r in j.refs))) for s, j in proof.lines]
        at.append([m for m, (s, _) in enumerate(proof.lines, start=offset + 1) if s == seq][-1])
    goal = desugar_fusion(substitute(DERIVED_RULES[rule][2], binding))
    return Proof(lines, max(skeleton.bound, *(p.bound for p in inputs)), goal)


@pytest.mark.parametrize("rule, lemmas, params", [
    ("adjunction", ["t6", "A1"], []), ("transitivity", ["A2", "A5"], []),
    ("contraposition", ["A2"], []), ("contraposition2", ["t3"], []),
    ("erule", ["t6"], ["q"]), ("suffixing", ["A2"], ["c"]), ("cycling", ["t9"], []),
    ("prefixingR", ["A2"], ["c"]), ("affixing", ["A2", "A5"], []),
    ("monotonicfusion", ["A2", "A5"], []),
])
def test_splice_gives_what_replace_gave(rule, lemmas, params):
    """The splice's lines, justifications included, are those that
    dataclasses.replace built, also when an input derives its premise
    twice (its last line again, by weaken), so that the last one counts."""
    premises, names, _ = DERIVED_RULES[rule]
    plain = [proof_of(lemma) for lemma in lemmas]
    twice = [replace(p, lines=[*p.lines, (p.lines[-1][0], Weaken(len(p.lines)))]) for p in plain]
    binding = dict(zip(names, map(parse_formula, params)))
    for schema, proof in zip(premises, plain):
        assert derived._match(schema, conclusion_formula(proof), binding)
    for inputs in (plain, twice):
        out = derived._splice(rule, inputs, binding)
        assert out == _splice_by_replace(rule, inputs, binding)
        assert check_proof(out).valid


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
    # unchecked, the same input reaches the splice, which finds no line for it
    with pytest.raises(PremiseMismatch, match=r"contraposition: input 1 never derives"):
        derived._splice("contraposition", [Proof(lines=[], goal=parse_formula("a -> a"))],
                        {"a": Var("a"), "b": Var("a")})


def test_conclusion_formula_without_a_goal_reads_the_last_line():
    bare = replace(proof_of("A1"), goal=None)
    assert conclusion_formula(bare) == parse_formula("a -> a")
    conclude("contraposition", [bare], expect="~a -> ~a")
    # the last line must be => (F)[0,0]: not a left side, nor other indices
    with pytest.raises(PremiseMismatch, match=r"does not end in => \(F\)\[0,0\]"):
        conclusion_formula(replace(bare, lines=bare.lines[:1]))
    _, away = parse_proof_script("lemma away\n1. (a)[0,1] => (a)[0,1] ; axiom\n"
                                 "2. => (a -> a)[1,1] ; impR k=0\n")
    with pytest.raises(PremiseMismatch, match="does not conclude at indices 0,0"):
        conclusion_formula(away)


def test_wrong_number_of_inputs_or_parameters():
    with pytest.raises(PremiseMismatch, match=r"transitivity takes 2 input proof\(s\)"):
        apply_derived_rule("transitivity", [proof_of("A2")])
    with pytest.raises(PremiseMismatch, match=r"erule takes 1 formula parameter\(s\)"):
        apply_derived_rule("erule", [proof_of("t6")])


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
    ("transitivity", ["A2", "A5"], []),
    ("cycling", ["t9"], []),
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
    for name, (premises, params, conclusion) in DERIVED_RULES.items():
        line = (f"  - `{name}`" + "".join(f", parameter `{p}`" for p in params)
                + ": " + ", ".join(f"`{print_formula(s)}`" for s in premises)
                + f" gives `{print_formula(conclusion)}`\n")
        assert line in readme, line


def test_readme_states_the_refutation_trigger_once():
    # the number is written beside the constant's name, and the other
    # mentions name the constant, so a new trigger cannot leave README stale
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert re.findall(r"(\S+) nodes \(`search\.REFUTE_AFTER`", readme) == [str(REFUTE_AFTER)]
    assert not re.search(r"after [\d,]+ nodes", readme)


def test_every_rule_is_a_skeleton_file():
    assert sorted(p.stem for p in (data_dir() / "rules").glob("*.prf")) == sorted(DERIVED_RULES)


@pytest.mark.parametrize("rule", DERIVED_RULES)
def test_skeleton_premises_and_steps(rule):
    """A skeleton declares its rule and concludes the rule's conclusion; its
    premise lines are the rule's premise schemas, one each, each at a
    diagonal index and cited; and every other line checks, the premise
    lines taken as hypotheses."""
    premises, _, conclusion = DERIVED_RULES[rule]
    name, skeleton = parse_proof_script((data_dir() / "rules" / f"{rule}.prf").read_text())
    assert name == rule
    assert skeleton.goal == conclusion
    assert skeleton.conclusion() == goal_sequent(conclusion)
    leaves, earlier = {}, []
    for n, (seq, just) in enumerate(skeleton.lines, start=1):
        if just.rule is Premise:
            (leaf,) = seq.right
            assert not seq.left and leaf.i == leaf.j, (n, str(seq))
            leaves[n] = leaf.formula
        else:
            check_step(earlier, (seq, just), skeleton.bound)
        earlier.append(seq)
    assert Counter(leaves.values()) == Counter(premises)
    cited = {ref for _, just in skeleton.lines for ref in just.refs}
    assert set(leaves) <= cited


@pytest.mark.parametrize("leaf", ["(c)[0,0]", "(a)[0,1]", "(a)[1,1]", "(a)[0,0], (b)[0,0]"])
def test_a_skeleton_premise_that_fits_no_schema_names_the_file(tmp_path, monkeypatch,
                                                                leaf):
    copy = tmp_path / "data"
    shutil.copytree(data_dir(), copy)
    path = copy / "rules" / "modusponens.prf"
    path.write_text(path.read_text().replace("=> (a)[0,0] ; premise",
                                             f"=> {leaf} ; premise"))
    pref = proof_of("prefixingA", {"b": parse_formula("a")})
    monkeypatch.setenv("TARL_DATA", str(copy))
    with pytest.raises(DataFileError, match=re.escape(f"{path}: line 2: ")):
        apply_derived_rule("modusponens", [pref, proof_of("A1")])
    monkeypatch.delenv("TARL_DATA")
    assert check_proof(apply_derived_rule("modusponens", [pref, proof_of("A1")])).valid


@pytest.mark.parametrize("last, error", [
    ("=> (a & b)[0,0] ; andR 1 5", "line 3: BadRef (reference 5 out of range)"),
    ("=> (a & b)[0,0] ; orR 2", "line 3: ShapeMismatch (orR shape)"),
    ("=> (b & a)[0,0] ; andR 2 1", "line 3: the skeleton does not end in => (a & b)[0,0]"),
])
def test_a_skeleton_step_that_does_not_check_names_the_file(tmp_path, monkeypatch,
                                                            last, error):
    copy = tmp_path / "data"
    shutil.copytree(data_dir(), copy)
    path = copy / "rules" / "adjunction.prf"
    lines = path.read_text().splitlines()
    assert lines[-1] == "3. => (a & b)[0,0] ; andR 1 2"
    path.write_text("\n".join(lines[:-1] + ["3. " + last]) + "\n")
    inputs = [proof_of("t6"), proof_of("A1")]
    monkeypatch.setenv("TARL_DATA", str(copy))
    with pytest.raises(DataFileError, match=re.escape(f"{path}: {error}")):
        apply_derived_rule("adjunction", inputs)
    monkeypatch.delenv("TARL_DATA")
    assert check_proof(apply_derived_rule("adjunction", inputs)).valid
