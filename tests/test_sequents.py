import collections
import contextlib
import copy
import gc
import os
import pickle
import random
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from itertools import starmap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checker
from tarl import algebra, formulas, search, sequents
from tarl.derived import apply_derived_rule
from tarl.formulas import (
    CACHES, And, Imp, Neg, ParseError, Var, clear_caches, desugar_fusion, parse_formula,
    substitute, variables,
)
from tarl.gen import random_formula
from tarl.registry import corpus_ids, get_corpus_entry
from tarl.sequents import (
    RULES, AndR, Assertion, Axiom, Cut, ImpL, ImpR, Justification, NegR, NotABijection,
    OrR, Proof, RuleError, Sequent, Weaken, check_proof, check_step, format_proof_script,
    goal_sequent, parse_proof_script, permute_indices, substitute_proof,
)


def a(text, i, j):
    return Assertion(parse_formula(text), i, j)


def seq(left=(), right=()):
    return Sequent.of(left, right)


def test_assertions_must_be_core():
    with pytest.raises(ValueError):
        Assertion(parse_formula("p o q"), 0, 0)


def test_axiom_detection():
    check_step([], (seq([a("p", 0, 1)], [a("p", 0, 1)]), Axiom()))
    with pytest.raises(RuleError, match="NotAxiom"):
        check_step([], (seq([a("p", 0, 1)], [a("p", 1, 0)]), Axiom()))
    check_step([], (seq([a("a", 1, 0), a("b", 1, 0)], [a("b", 1, 0)]), Axiom()))


def test_impr_step_ok():
    prem = seq([a("a", 1, 0)], [a("a", 1, 0)])
    concl = seq([], [a("a -> a", 0, 0)])
    check_step([prem], (concl, ImpR(1, eigen=1)))  # no exception


def test_impr_eigenvariable_violation():
    # the eigen index recurs in the leftover context
    prem = seq([a("a", 1, 0), a("b", 1, 1)], [a("a", 1, 0)])
    concl = seq([a("b", 1, 1)], [a("a -> a", 0, 0)])
    with pytest.raises(RuleError) as e:
        check_step([prem], (concl, ImpR(1, eigen=1)))
    assert e.value.kind == "EigenvariableViolation"


def test_negr_transposes_indices():
    prem = seq([a("p", 0, 1)], [a("p", 0, 1)])
    good = seq([], [a("p", 0, 1), a("~p", 1, 0)])
    check_step([prem], (good, NegR(1)))
    bad = seq([], [a("p", 0, 1), a("~p", 0, 1)])
    with pytest.raises(RuleError) as e:
        check_step([prem], (bad, NegR(1)))
    assert e.value.kind == "ShapeMismatch"


def test_index_out_of_bound():
    concl = seq([a("p", 5, 0)], [a("p", 5, 0)])
    with pytest.raises(RuleError) as e:
        check_step([], (concl, Axiom()), bound=4)
    assert e.value.kind == "IndexOutOfBound"


def test_an_eigen_index_past_the_bound_is_reported():
    _, proof = parse_proof_script("lemma far : a -> a bound 4\n"
                                  "1. (a)[1,0] => (a)[1,0] ; axiom\n"
                                  "2. => (a -> a)[0,0] ; impR k=9\n")
    report = check_proof(proof)
    assert (report.valid, report.first_error) == (False, (2, "IndexOutOfBound: eigen index 9"))


def test_the_least_index_out_of_bound_is_reported_under_any_hash_seed():
    # a sequent's indices are a set, whose order follows the hash seed; the
    # second proof's line 2 has a bool index beside the 1 equal to it
    code = ("from tarl.formulas import Var;"
            "from tarl.sequents import Assertion, Axiom, Proof, Sequent, check_proof, "
            "parse_proof_script;"
            "print(check_proof(parse_proof_script("
            "'lemma x\\n1. (zp)[1,0] => (~p)[18,9] ; axiom\\n')[1]).first_error);"
            "x, y = Assertion(Var('p'), True, 0), Assertion(Var('q'), 1, 0);"
            "ok, bad = Sequent.of([y], [y]), Sequent.of([y, x], [x]);"
            "print(check_proof(Proof([(ok, Axiom()), (bad, Axiom()), (bad, Axiom())])))")
    src = str(Path(sequents.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path})
            for seed in "0123456"]
    want = ("(1, 'IndexOutOfBound: index 9')\n"
            "CheckReport(valid=False, objects_used=frozenset({0, 1}), "
            "first_error=(2, 'IndexOutOfBound: index True'))\n")
    assert [run.communicate()[0] for run in runs] == [want] * 7


def test_a_bool_index_is_out_of_bound():
    # a bool prints as no number ("(p)[True,0]" reads back as no line), and
    # True == 1: beside a (q)[1,0] the set of the line's indices holds only
    # one of them, whichever comes first in its hash order
    x = a("p", True, 0)
    seen = set()
    besides = []  # each kept, so that no node takes a freed one's address and hash
    for k in range(40):
        beside = a(f"q{k}", 1, 0)
        besides.append(beside)
        concl = seq([beside, x], [x])
        merged = {n for b in concl.left | concl.right for n in (b.i, b.j)}
        seen.add(type(next(n for n in merged if n == 1)))
        assert {type(n) for n in concl.indices()} == {int, bool}
        with pytest.raises(RuleError) as e:
            check_step([], (concl, Axiom()))
        assert (e.value.line, e.value.kind, e.value.detail) == (1, "IndexOutOfBound", "index True")
        proof = Proof([(seq([a("p", 1, 0)], [a("p", 1, 0)]), Axiom()), (concl, Axiom())])
        report = check_proof(proof)
        assert report.first_error == (2, "IndexOutOfBound: index True")
        assert reference_checker.agrees(proof, report)
    assert seen == {int, bool}       # both orders were met
    # the least offending index is reported: False before True, True before 9
    concl = seq([a("p", 0, False), a("q", True, 9)], [a("p", 0, False)])
    assert check_proof(Proof([(concl, Axiom())])).first_error == (1, "IndexOutOfBound: index False")
    concl = seq([a("q", True, 9), a("p", 0, 0)], [a("p", 0, 0)])
    assert check_proof(Proof([(concl, Axiom())])).first_error == (1, "IndexOutOfBound: index True")


def test_bad_ref():
    concl = seq([a("p", 0, 0)], [a("p", 0, 0)])
    with pytest.raises(RuleError) as e:
        check_step([], (concl, Weaken(3)))
    assert e.value.kind == "BadRef"


def test_not_axiom():
    with pytest.raises(RuleError) as e:
        check_step([], (seq([a("p", 0, 1)], [a("p", 1, 0)]), Axiom()))
    assert e.value.kind == "NotAxiom"


def test_cut_accepts_either_premise_order():
    p1 = seq([a("a", 1, 0), a("b", 1, 0)], [a("a & b", 1, 0)])
    p2 = seq([a("a & b", 1, 0)], [a("c", 1, 0)])
    concl = seq([a("a", 1, 0), a("b", 1, 0)], [a("c", 1, 0)])
    check_step([p1, p2], (concl, Cut(1, 2)))
    check_step([p2, p1], (concl, Cut(1, 2)))


def test_weaken_supersets():
    prem = seq([a("p", 0, 0)], [a("q", 0, 0)])
    good = seq([a("p", 0, 0), a("r", 1, 0)], [a("q", 0, 0)])
    check_step([prem], (good, Weaken(1)))
    # equality counts as weakening: a rule may do nothing
    check_step([prem], (prem, Weaken(1)))
    with pytest.raises(RuleError):
        check_step([prem], (seq([], [a("q", 0, 0)]), Weaken(1)))


def test_check_proof_reports_and_never_raises():
    lines = [
        (seq([a("p", 0, 0)], [a("p", 0, 0)]), Axiom()),
        (seq([], [a("q", 0, 0)]), OrR(1)),  # wrong rule shape
    ]
    report = check_proof(Proof(lines=lines))
    assert not report.valid
    assert report.first_error[0] == 2
    assert report.objects_used == {0}


def test_check_proof_rejects_a_premise_line():
    # a premise line would let any formula prove itself
    _, proof = parse_proof_script("lemma cheat : p\n1. => (p)[0,0] ; premise\n")
    report = check_proof(proof)
    assert not report.valid
    assert report.first_error == (1, "ShapeMismatch: a premise line is a derived "
                                     "rule's hypothesis, not a step of a proof")
    with pytest.raises(RuleError, match="premise"):
        check_step([], proof.lines[0])


@pytest.mark.parametrize("not_a_justification", ["axiom", None, object()],
                         ids=["str", "None", "object"])
def test_check_proof_reports_an_unknown_justification(not_a_justification):
    lines = [(seq([a("p", 0, 0)], [a("p", 0, 0)]), not_a_justification)]
    report = check_proof(Proof(lines=lines))
    assert report.first_error[0] == 1
    assert report.first_error[1].startswith("ShapeMismatch: unknown rule")


P = a("p", 0, 0)


@pytest.mark.parametrize("rule, refs, keywords", [
    pytest.param(Axiom, (1,), {}, id="Axiom(1)"),
    pytest.param(Weaken, (), {}, id="Weaken()"),
    pytest.param(Weaken, (1, 2), {}, id="Weaken(1, 2)"),
    pytest.param(Cut, (1,), {}, id="Cut(1)"),
    pytest.param(ImpL, (1,), {}, id="ImpL(1)"),
    pytest.param(ImpR, (1,), {}, id="ImpR(1)"),
    pytest.param(ImpR, (1, 2), {"eigen": 1}, id="ImpR(1, 2, eigen=1)"),
    pytest.param(Axiom, (), {"eigen": 0}, id="Axiom(eigen=0)"),
    pytest.param(NegR, (1,), {"eigen": 1}, id="NegR(1, eigen=1)"),
    pytest.param(ImpL, (1, 2), {"eigen": 1}, id="ImpL(1, 2, eigen=1)"),
])
def test_malformed_justification_is_a_type_error(rule, refs, keywords):
    with pytest.raises(TypeError):
        rule(*refs, **keywords)


@pytest.mark.parametrize("just, kind, detail", [
    pytest.param(Justification(NegR, (1, 1)), "ShapeMismatch",
                 "negR takes 1 line references, got 2", id="negR 1 1"),
    pytest.param(Justification(ImpR, (1,)), "ShapeMismatch",
                 "impR takes an eigen index", id="impR 1"),
    pytest.param(Justification(ImpR, (1,), "k"), "IndexOutOfBound",
                 "eigen index k", id="impR 1 k=k"),
    pytest.param(Justification(Cut, ("x", 1)), "BadRef",
                 "reference 'x' is no line number", id="cut x 1"),
    pytest.param(Justification(NegR, (1,), 2), "ShapeMismatch",
                 "negR takes no eigen index", id="negR 1 k=2"),
    # a bool is an int, but prints as no number a script reads
    pytest.param(Justification(NegR, (True,)), "BadRef",
                 "reference True is no line number", id="negR True"),
    pytest.param(Justification(ImpR, (1,), True), "IndexOutOfBound",
                 "eigen index True", id="impR 1 k=True"),
])
def test_a_justification_its_rule_refuses_is_reported(just, kind, detail):
    # built directly, as a rule's row would not build it; the checker
    # reports it as the line's error rather than raising or accepting it
    prem = seq([a("p", 0, 1)], [a("p", 0, 1)])
    line = (seq([], [a("p", 0, 1), a("~p", 1, 0)]), just)
    with pytest.raises(RuleError) as e:
        check_step([prem], line)
    assert (e.value.line, e.value.kind, e.value.detail) == (2, kind, detail)
    report = check_proof(Proof(lines=[(prem, Axiom()), line]))
    assert report.first_error == (2, f"{kind}: {detail}")
    if kind == "ShapeMismatch":  # in the words of the row that refuses it
        with pytest.raises(TypeError, match=f"^{re.escape(detail)}$"):
            just.rule(*just.refs, eigen=just.eigen)


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_every_rule_survives_format_and_parse(rule):
    eigen = 2 if rule.index == "eigen" else None
    just = rule(*range(3, 3 + rule.refs), eigen=eigen)
    line = (seq([P], [P]), just)
    text = format_proof_script("x", Proof(lines=[line] * 9))
    assert parse_proof_script(text)[1].lines[8] == line


def test_goal_must_appear():
    lines = [(seq([a("p", 0, 0)], [a("p", 0, 0)]), Axiom())]
    report = check_proof(Proof(lines=lines, goal=parse_formula("p -> p")))
    assert not report.valid
    assert report.first_error[1] == "GoalMissing"
    assert check_proof(Proof(lines=[], goal=parse_formula("p"))).first_error == (0, "GoalMissing")
    # the goal may be derived on any line, not only the last
    proof = get_corpus_entry("A1").proof
    assert check_proof(replace(proof, lines=[*proof.lines, *lines])).valid


def test_a_proof_concludes_its_last_line():
    for lemma in corpus_ids():
        proof = get_corpus_entry(lemma).proof
        assert proof.conclusion() is proof.lines[-1][0], lemma
        assert proof.conclusion() == goal_sequent(proof.goal), lemma


def test_objects_level_examples():
    for lemma, level in (("t6", 1), ("A4", 3), ("t10", 4)):
        report = check_proof(get_corpus_entry(lemma).proof)
        assert (report.valid, report.level) == (True, level), lemma


def test_permute_identity_is_noop():
    proof = get_corpus_entry("A1").proof
    same = permute_indices(proof, {0: 0, 1: 1, 2: 2, 3: 3})
    assert same.lines == proof.lines


def test_permute_swap_conclusion():
    proof = get_corpus_entry("A1").proof
    swapped = permute_indices(proof, {0: 1, 1: 0, 2: 2, 3: 3})
    assert check_proof(swapped).valid
    target = Sequent.of((), (Assertion(Imp(Var("a"), Var("a")), 1, 1),))
    assert any(s == target for s, _ in swapped.lines)


def test_permute_rejects_non_bijection():
    proof = get_corpus_entry("A1").proof
    with pytest.raises(NotABijection):
        permute_indices(proof, {0: 0, 1: 0, 2: 2, 3: 3})


def test_permutation_invariance_over_corpus():
    rng = random.Random(7)
    for lemma in corpus_ids():
        proof = get_corpus_entry(lemma).proof
        perm = list(range(proof.bound))
        rng.shuffle(perm)
        mapping = dict(enumerate(perm))
        permuted = permute_indices(proof, mapping)
        assert check_proof(permuted).valid
        # each image, and each justification shifted, is what dataclasses.replace built
        for (_, j), (_, image) in zip(proof.lines, permuted.lines):
            for got, want in ((image, j if j.eigen is None else replace(j, eigen=perm[j.eigen])),
                              (j.shifted(7), replace(j, refs=tuple(r + 7 for r in j.refs)))):
                assert type(got) is Justification and got == want and hash(got) == hash(want)


def test_weaken_insertion_keeps_validity():
    # duplicating any line via Weaken preserves a valid proof
    entry = get_corpus_entry("A2")
    lines = list(entry.proof.lines)
    dup_seq = lines[1][0]
    new_lines = lines[:2] + [(dup_seq, Weaken(2))]
    # shift references in the tail by one
    def shift(j):
        return replace(j, refs=tuple(r + (r >= 3) for r in j.refs))
    new_lines += [(s, shift(j)) for s, j in lines[2:]]
    assert check_proof(Proof(lines=new_lines, bound=4)).valid


def test_corpus_mutations_fail():
    from tarl import sequents as sq
    entry = get_corpus_entry("A4")
    lines = list(entry.proof.lines)
    # retarget a two-premise reference
    s, _ = lines[2]
    broken = lines.copy()
    broken[2] = (s, sq.ImpL(1, 1))
    assert not check_proof(Proof(lines=broken, bound=4)).valid
    # move the final eigenvariable onto an index that occurs in the premise
    s, j = lines[-1]
    broken = lines.copy()
    broken[-1] = (s, sq.ImpR(*j.refs, eigen=0))
    assert not check_proof(Proof(lines=broken, bound=4)).valid
    # drop an assertion from a conclusion
    s, j = lines[5]
    smaller = Sequent(s.left, frozenset(list(s.right)[1:]))
    broken = lines.copy()
    broken[5] = (smaller, j)
    assert not check_proof(Proof(lines=broken, bound=4)).valid


def test_substitution_preserves_validity():
    proof = get_corpus_entry("T12").proof
    inst = substitute_proof(proof, {"a": parse_formula("p o q"),
                                    "b": parse_formula("r | ~s")})
    assert check_proof(inst).valid


def test_script_roundtrip_over_corpus():
    for lemma in corpus_ids():
        proof = get_corpus_entry(lemma).proof
        text = format_proof_script(lemma, proof)
        name, again = parse_proof_script(text)
        assert name == lemma
        assert again.lines == proof.lines
        assert check_proof(again).valid


def test_script_rejects_misnumbered_lines():
    bad = "lemma x\n2. (p)[0,0] => (p)[0,0] ; axiom\n"
    with pytest.raises(Exception):
        parse_proof_script(bad)


def test_script_bound_header():
    text = ("lemma small : p -> p bound 2\n"
            "1. (p)[1,0] => (p)[1,0] ; axiom\n"
            "2. => (p -> p)[0,0] ; impR k=1\n")
    name, proof = parse_proof_script(text)
    assert proof.bound == 2
    assert check_proof(proof).valid
    wide = text.replace("[1,0]", "[3,0]").replace("k=1", "k=3")
    _, proof2 = parse_proof_script(wide)
    report = check_proof(proof2)
    assert not report.valid
    assert "IndexOutOfBound" in report.first_error[1]


def test_format_writes_a_bound_that_is_not_the_default():
    proof = replace(get_corpus_entry("A1").proof, bound=5)
    text = format_proof_script("A1", proof)
    assert text.splitlines()[0] == "lemma A1 : a -> a bound 5"
    name, again = parse_proof_script(text)
    assert (name, again.bound, again.goal) == ("A1", 5, proof.goal)
    assert [seq for seq, _ in again.lines] == [seq for seq, _ in proof.lines]


def test_script_header_colon_may_touch_the_name():
    name, proof = parse_proof_script("lemma a:p->p\n"
                                     "1. (p)[1,0] => (p)[1,0] ; axiom\n"
                                     "2. => (p -> p)[0,0] ; impR k=1\n")
    assert (name, proof.goal) == ("a", parse_formula("p -> p"))
    assert check_proof(proof).valid


# ------------------------------------------------------------------
# The reader: a side looked up in the assertion memo, or else walked, and
# the walk raises its ParseError
# ------------------------------------------------------------------

def _read(text):
    """What parse_proof_script makes of text: (name, proof), or its
    ParseError's line, column, expectation and finding."""
    try:
        return parse_proof_script(text)
    except ParseError as e:
        return e.line, e.position, e.expected, e.found


def test_a_repeated_assertion_without_its_bracket_is_an_error_where_it_stands():
    # the memo holds (p)[1,0] from line 1, which must not cover line 2's text
    head = "lemma x : p -> p\n1. (p)[1,0] => (p)[1,0] ; axiom\n"
    assert _read(head + "2. (p)[1,0 => (p)[1,0] ; axiom\n") == \
        (3, 7, "'[i,j]' after the formula", "[")
    assert _read(head + "2. (q)[1,0], (p)[1,0 => (p)[1,0] ; axiom\n") == \
        (3, 17, "'[i,j]' after the formula", "[")


def test_a_repeated_side_with_a_trailing_comma_or_a_doubled_blank_reads_as_printed():
    printed = ("lemma x\n1. (p)[1,0], (q)[0,0] => (p)[1,0] ; axiom\n"
               "2. (p)[1,0], (q)[0,0] => (p)[1,0] ; weaken 1\n"
               "3. (p)[1,0], (q)[0,0] => (p)[1,0] ; weaken 2\n")
    written = ("lemma x\n1. (p)[1,0], (q)[0,0] => (p)[1,0] ; axiom\n"
               "2. (p)[1,0], (q)[0,0], => (p)[1,0], ; weaken 1\n"
               "3. (p)[1,0],  (q)[0,0] =>  (p)[1,0] ; weaken 2\n")
    assert _read(written) == _read(printed)
    assert format_proof_script("x", _read(written)[1]) == printed


def test_a_line_number_with_a_leading_zero_reads_as_printed():
    printed = "lemma x : p -> p\n1. (p)[1,0] => (p)[1,0] ; axiom\n2. => (p -> p)[0,0] ; impR 1 k=1\n"
    for written in (printed.replace("1. (", "01. ("), printed.replace("2. =>", "02. =>"),
                    printed.replace("2. =>", "02. =>").replace(" 1 k", " k")):
        assert _read(written) == _read(printed), written


# the characters proof lines are written in, and blanks that str.strip and
# the regular expressions' \s must both take for blanks
_LINE_CHARACTERS = " ,;.()[]=>-~&|0123456789abcpk\t\u00a0\u3000\x1c"


def _emptied(*names):
    """A context in which the caches names are empty, and after which they
    hold what they held before it."""
    stack = contextlib.ExitStack()
    for name in names:
        stack.enter_context(mock.patch.dict(CACHES[name], clear=True))
    return stack


def _mutated_line(line, rng):
    """line with one character inserted, deleted or replaced, the new one
    drawn from _LINE_CHARACTERS."""
    at = rng.randrange(len(line))
    new = rng.choice(_LINE_CHARACTERS)
    return [line[:at] + new + line[at:], line[:at] + line[at + 1:],
            line[:at] + new + line[at + 1:]][rng.randrange(3)]


def _lookup_against_walk(count, seed):
    """Read count printed lines of the golden proofs, each mutated once and
    read after the lines before it: with the memos warm, as printing and
    the reads before leave them, so that each side is looked up where it
    can be, and with the lookup missing, so that every side is walked.
    Assert that both read the same; return how many sides of the mutated
    lines were looked up (True) and how many walked (False)."""
    rng = random.Random(seed)
    proofs = _golden_proofs()
    lookup, found, taken = sequents._lookup_side, [], collections.Counter()

    def spy(text):
        side = lookup(text)
        found.append(side is not None)
        return side

    for _ in range(count):
        lines = format_proof_script("x", rng.choice(proofs)).splitlines()
        k = rng.randrange(1, len(lines))
        text = "\n".join(lines[:k] + [_mutated_line(lines[k], rng)]) + "\n"
        found.clear()
        with mock.patch.object(sequents, "_lookup_side", spy):
            got = _read(text)
        with mock.patch.object(sequents, "_lookup_side", lambda text: None), \
                _emptied("assertions", "justifications"):
            assert got == _read(text), text
        taken.update(found[2 * (k - 1):])
    return taken


@pytest.mark.cache_behaviour
def test_the_lookup_reads_what_the_walk_reads():
    taken = _lookup_against_walk(2000, 28)
    # the lookup reads many sides of the mutated lines, and hands many on
    assert taken[True] > 1000 and taken[False] > 1000, taken


@pytest.mark.cache_behaviour
def test_a_walked_side_is_looked_up_when_it_is_read_again(monkeypatch):
    CACHES["assertions"].clear()
    walked = walks(monkeypatch)
    text = "lemma x\n1. (p o q)[00,1], (p)[1,0] => (p)[1,0] ; axiom\n"
    _, first = parse_proof_script(text)
    # the right side is looked up under the text the walk of the left stored
    assert walked == ["(p o q)[00,1], (p)[1,0] "]
    (s, _), = first.lines
    (right,) = s.right
    assert any(x is right for x in s.left)
    assert Assertion(desugar_fusion(parse_formula("p o q")), 0, 1) in s.left
    _, again = parse_proof_script(text)
    assert walked == ["(p o q)[00,1], (p)[1,0] "]
    (t, _), = again.lines
    for side, read in ((s.left, t.left), (s.right, t.right)):
        assert sorted(map(id, read)) == sorted(map(id, side))


# ------------------------------------------------------------------
# The assertion memo: a printed or read text, read back with one lookup
# ------------------------------------------------------------------

def walks(patch):
    """The sides that sequents._side walks from now on, as written."""
    sides, walk = [], sequents._side

    def spy(content, pos, end, *args):
        sides.append(content[pos:end])
        return walk(content, pos, end, *args)

    patch.setattr(sequents, "_side", spy)
    return sides


def _instances(seed, rounds=1):
    """rounds seeded substitution instances of each corpus proof, each
    variable replaced by a random formula over p, q, r and s (fusions
    too); each call builds new assertions."""
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        for lemma in corpus_ids():
            proof = get_corpus_entry(lemma).proof
            out.append(substitute_proof(proof, {
                v: random_formula(rng, rng.randint(1, 6), ["p", "q", "r", "s"])
                for v in sorted(variables(proof.goal))}))
    return out


@pytest.mark.cache_behaviour
def test_a_printed_assertion_is_read_back_as_itself_without_a_parse(monkeypatch):
    CACHES["assertions"].clear()
    for proof in _instances(30):
        text = format_proof_script("x", proof)
        with monkeypatch.context() as patch:
            reads = walks(patch)
            _, again = parse_proof_script(text)
        assert reads == []
        for (s, _), (t, _) in zip(proof.lines, again.lines, strict=True):
            for printed, read in ((s.left, t.left), (s.right, t.right)):
                assert sorted(map(id, read)) == sorted(map(id, printed))


@pytest.mark.cache_behaviour
def test_the_assertion_memo_keeps_no_assertion_alive():
    CACHES["assertions"].clear()
    proof = max(_instances(31), key=lambda p: len(p.lines))
    printed = format_proof_script("x", proof)
    _, walked = parse_proof_script(printed.replace(", ", ",  "))  # not memoised
    _, zeros = parse_proof_script(printed.replace("[", "[0"))  # walked, other texts
    assertions = [x for p in (proof, walked, zeros) for s, _ in p.lines for x in s.left | s.right]
    refs = [weakref.ref(x) for x in assertions]
    # each distinct assertion's printed text, and its text with the zeros
    assert len(CACHES["assertions"]) == 2 * len(set(assertions)) > 20
    del proof, walked, zeros, assertions
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert all(ref() is None for ref in CACHES["assertions"].values())


def test_the_assertion_memo_stays_within_its_bound(monkeypatch):
    CACHES["assertions"].clear()
    p = Var("p")
    for k in range(20_000):
        str(Assertion(p, k, 0))
        text = f"(p)[0,{k}]"
        sequents._side(text, 0, len(text), 1, 0)
        assert len(CACHES["assertions"]) <= formulas.MEMO_SIZE
    monkeypatch.setattr(CACHES["assertions"], "bound", 16)
    for k in range(100):
        str(Assertion(p, 1, k))
        assert len(CACHES["assertions"]) <= 16


@pytest.mark.parametrize("index", [-1, True, np.int64(2)], ids=repr)
def test_an_assertion_the_walk_does_not_read_back_is_not_kept(index):
    # "(p)[-1,0]" and "(p)[True,0]" do not read, and "(p)[2,0]" reads as
    # plain ints: the memo must not answer for the reader
    CACHES["assertions"].clear()
    x = Assertion(Var("p"), index, 0)
    text = f"lemma x\n1. {x} => {x} ; axiom\n"
    assert str(x) not in CACHES["assertions"]
    warm = _read(text)
    with _emptied("assertions"):
        assert _read(text) == warm
    if isinstance(warm[1], Proof):
        (s, _), = warm[1].lines
        assert all(type(y.i) is int and type(y.j) is int for y in s.left | s.right)
    else:
        assert warm[2] == "'[i,j]' after the formula", warm


@pytest.mark.cache_behaviour
def test_a_justification_is_read_once_unless_its_references_depend_on_its_line(monkeypatch):
    CACHES["justifications"].clear()
    head = "lemma x\n1. (p)[1,0] => (p)[1,0] ; axiom\n"
    _, first = parse_proof_script(head + "2. (p)[1,0] => (p)[1,0], (q)[0,0] ; weaken 1\n")
    _, again = parse_proof_script(head + "2. (p)[1,0] => (p)[1,0] ; axiom\n"
                                  "3. (p)[1,0] => (p)[1,0], (q)[0,0] ; weaken 1\n")
    assert again.lines[2][1] is first.lines[1][1]
    assert sorted(CACHES["justifications"]) == [" axiom", " weaken 1"]
    # omitted references name the lines just before each line
    _, omitted = parse_proof_script(head + "2. (p)[1,0] => (p)[1,0] ; weaken\n"
                                    "3. (p)[1,0] => (p)[1,0] ; weaken\n"
                                    "4. => (p -> p)[0,0] ; impR k=1\n"
                                    "5. => (p -> p)[0,0] ; impR k=1\n")
    assert [j.refs for _, j in omitted.lines[1:]] == [(1,), (2,), (3,), (4,)]
    assert sorted(CACHES["justifications"]) == [" axiom", " weaken 1"]
    monkeypatch.setattr(CACHES["justifications"], "bound", 16)
    for k in range(1, 100):  # 99 texts, told apart by the blanks in them
        parse_proof_script(head + f"2. (p)[1,0] => (p)[1,0] ; weaken{' ' * k}1\n")
        assert len(CACHES["justifications"]) <= 16


def _read_printed(proofs, seed, emptied=False):
    """Each proof printed and read back, then its printed text with one
    line mutated read: what each read gives, with the check_proof report of
    a proof read.  With emptied, every cache is emptied after printing."""
    rng = random.Random(seed)
    out = []
    for proof in proofs:
        text = format_proof_script("x", proof)
        lines = text.splitlines()
        k = rng.randrange(1, len(lines))
        mutated = "\n".join(lines[:k] + [_mutated_line(lines[k], rng)]) + "\n"
        if emptied:
            clear_caches()
        for written in (text, mutated):
            got = _read(written)
            out.append((got, check_proof(got[1]) if isinstance(got[1], Proof) else None))
        assert out[-2][0] == ("x", proof)
    return out


@pytest.mark.cache_behaviour
def test_reading_with_a_warm_an_emptied_and_a_small_memo_agrees(monkeypatch):
    # each way prints new assertions: the golden proofs and seeded instances
    reads = {}
    for way in ("warm", "emptied", "small"):
        with monkeypatch.context() as patch:
            clear_caches()
            if way == "small":
                for name in ("formulas", "assertions", "justifications"):
                    patch.setattr(CACHES[name], "bound", 16)
            proofs = _golden_proofs() + _instances(32, 2)
            walked = walks(patch)
            reads[way] = _read_printed(proofs, 33, emptied=way == "emptied")
        reads[way, "walked"] = len(walked)
    assert reads["warm"] == reads["emptied"] == reads["small"]
    # the mutants reach the errors, and the warm memo spares most walks
    assert sum(len(got) == 4 for got, _ in reads["warm"]) > 100
    assert reads["warm", "walked"] * 4 < reads["emptied", "walked"]
    assert reads["warm", "walked"] < reads["small", "walked"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(corpus_ids()), st.permutations(list(range(4))))
def test_permutation_invariance_property(lemma, perm):
    proof = get_corpus_entry(lemma).proof
    mapping = dict(enumerate(perm))
    assert check_proof(permute_indices(proof, mapping)).valid


# ------------------------------------------------------------------
# Assertions: stored hash, immutability, pickling
# ------------------------------------------------------------------

def test_assertion_hash_and_equality_are_those_of_the_triple():
    triples = [(parse_formula(text), i, j) for text in ("p", "q", "p -> q")
               for i in range(3) for j in range(3)]
    for t in triples:
        assert hash(Assertion(*t)) == hash(t)
        for u in triples:
            assert (Assertion(*t) == Assertion(*u)) == (t == u)
    assert Assertion(*triples[0]) != triples[0]
    assert len({Assertion(*t) for t in triples + triples}) == len(triples)


def test_assertions_are_immutable():
    x = a("p -> q", 0, 1)
    for name in ("formula", "i", "j", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 2)
    with pytest.raises(AttributeError):
        del x.i
    assert x == a("p -> q", 0, 1)
    assert repr(x) == ("Assertion(formula=Imp(left=Var(name='p'), right=Var(name='q')), "
                       "i=0, j=1)")
    assert str(x) == "(p -> q)[0,1]"
    assert x.key() == ("p -> q", 0, 1)


def test_sequents_and_justifications_are_immutable():
    s, j = seq([a("p", 0, 1)], [a("p", 0, 1)]), ImpR(1, eigen=2)
    for thing, names in ((s, ("left", "right")), (j, ("rule", "refs", "eigen"))):
        for name in (*names, "other", "__dict__"):  # fields and names that are none
            with pytest.raises(AttributeError):
                setattr(thing, name, frozenset())
            with pytest.raises(AttributeError):
                delattr(thing, name)
        assert not hasattr(thing, "other")
        assert pickle.loads(pickle.dumps(thing)) == copy.deepcopy(thing) == thing
    assert s == Sequent(left=s.left, right=s.right) and hash(s) == hash((s.left, s.right))
    assert j == Justification(ImpR, (1,), 2) and hash(j) == hash((ImpR, (1,), 2))
    assert repr(j) == "Justification(rule=impR, refs=(1,), eigen=2)"
    assert repr(Axiom()) == "Justification(rule=axiom, refs=(), eigen=None)"
    assert replace(j, eigen=3) == Justification(rule=ImpR, refs=(1,), eigen=3)


def test_assertions_sequents_and_proofs_survive_pickle_and_deepcopy():
    x = a("~(p & q)", 2, 3)
    s = seq([x, a("p", 0, 0)], [a("q", 1, 0)])
    proofs = [get_corpus_entry(lemma).proof for lemma in corpus_ids()]
    for thing in (x, s, *proofs):
        for again in (pickle.loads(pickle.dumps(thing)), copy.deepcopy(thing)):
            assert again == thing
    for thing in (x, s):
        assert hash(pickle.loads(pickle.dumps(thing))) == hash(copy.deepcopy(thing)) == hash(thing)
    for again in (pickle.loads(pickle.dumps(proofs)), copy.deepcopy(proofs)):
        assert all(check_proof(p).valid for p in again)


def substituted(f, mapping):
    """f with its variables replaced, by a walk with no memo."""
    if isinstance(f, Var):
        return mapping.get(f.name, f)
    if isinstance(f, Neg):
        return Neg(substituted(f.body, mapping))
    return type(f)(substituted(f.left, mapping), substituted(f.right, mapping))


def test_substitute_proof_agrees_with_substituting_each_assertion():
    rng = random.Random(18)
    names = ["p", "q", "r", "s"]
    proofs = [get_corpus_entry(lemma).proof for lemma in corpus_ids()]
    # a derived proof, with cuts
    proofs.append(apply_derived_rule("transitivity", [get_corpus_entry("A2").proof,
                                                      get_corpus_entry("A5").proof], []))
    for proof in proofs:
        mapping = {v: random_formula(rng, rng.randint(1, 5), names)  # fusions too
                   for v in sorted(variables(proof.goal))}
        core = {v: desugar_fusion(f) for v, f in mapping.items()}

        def expected(x):
            return Assertion(substituted(x.formula, core), x.i, x.j)

        inst = substitute_proof(proof, mapping)
        assert inst.goal == substituted(proof.goal, mapping)
        assert inst.bound == proof.bound
        for (s, j), (t, k) in zip(proof.lines, inst.lines, strict=True):
            assert t.left == frozenset(map(expected, s.left))
            assert t.right == frozenset(map(expected, s.right))
            assert k == j
        report = check_proof(inst)
        assert report.valid, report.first_error
        assert report.objects_used == check_proof(proof).objects_used


def test_relabelling_maps_each_distinct_side_once():
    rng = random.Random(34)
    for proof in _golden_proofs():
        names = sorted(set().union(*(variables(x.formula) for s, _ in proof.lines
                                     for x in s.left | s.right)))
        mapping = {v: desugar_fusion(random_formula(rng, rng.randint(1, 5), ["p", "q"]))
                   for v in names}
        perm = dict(enumerate(rng.sample(range(proof.bound), proof.bound)))
        for image, expected in (
                (substitute_proof(proof, mapping),
                 lambda x: Assertion(substituted(x.formula, mapping), x.i, x.j)),
                (permute_indices(proof, perm),
                 lambda x: Assertion(x.formula, perm[x.i], perm[x.j]))):
            images = {}
            for (s, j), (t, k) in zip(proof.lines, image.lines, strict=True):
                for side, mapped in ((s.left, t.left), (s.right, t.right)):
                    assert images.setdefault(side, mapped) is mapped
                    assert mapped == frozenset(map(expected, side))
                assert k.rule is j.rule and k.refs == j.refs


def test_substitution_leaves_no_reference_cycle():
    # a substitution's images go with it, not at the collector's next run
    rng = random.Random(26)
    proofs = [get_corpus_entry(lemma).proof for lemma in corpus_ids()]
    gc.collect()
    gc.disable()
    try:
        for proof in proofs:
            mapping = {v: random_formula(rng, rng.randint(1, 5), ["p", "q"])
                       for v in sorted(variables(proof.goal))}
            substitute_proof(proof, mapping)
            substitute(proof.goal, mapping)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------------------------------
# impL reads k from its premises
# ------------------------------------------------------------------

def _golden_proofs():
    """The proofs pinned in tests/golden: every corpus proof, a substitution
    instance of each and the derived rules' outputs, then search's proofs of
    the corpus goals and of seeded random goals.  They are read with the
    assertion and justification memos emptied, so that the reader reads
    each assertion and justification, and each call builds new ones."""
    golden = Path(__file__).resolve().parent / "golden"
    texts = [(golden / name).read_text()
             for name in ("proof_scripts.txt", "search_outcomes.txt")]
    with _emptied("assertions", "justifications"):
        return [parse_proof_script(chunk)[1] for text in texts
                for chunk in re.split(r"(?m)^(?=lemma )", text) if chunk.startswith("lemma")]


def _mutant(proof, rng):
    """proof with one line changed: its references retargeted or swapped, or
    one of its assertions dropped or moved to another first index.  impL
    lines are picked more often than the others."""
    lines = list(proof.lines)
    impls = [n for n, (_, just) in enumerate(lines) if just.rule is ImpL]
    n = rng.choice(impls) if impls and rng.random() < 0.7 else rng.randrange(len(lines))
    s, just = lines[n]
    kind = rng.randrange(4)
    if kind < 2 and len(just.refs) > kind:
        refs = tuple(rng.randint(1, n) for _ in just.refs) if kind == 0 else just.refs[::-1]
        lines[n] = (s, replace(just, refs=refs))
    else:
        sides = [sorted(s.left, key=Assertion.key), sorted(s.right, key=Assertion.key)]
        side = rng.choice([x for x in sides if x])
        x = side.pop(rng.randrange(len(side)))
        if kind % 2 == 0:
            side.append(Assertion(x.formula, rng.randrange(proof.bound), x.j))
        lines[n] = (Sequent.of(*sides), just)
    return replace(proof, lines=lines)


def test_impl_reading_k_from_its_premises_agrees_with_every_k():
    # the checker tries only the k of an (A)[k,i] on a premise's right side;
    # the reference checker's impL tries every k below the bound
    proofs = _golden_proofs()
    assert len(proofs) >= 38 * 2 + 13 + 38
    rng = random.Random(23)
    mutants = [_mutant(rng.choice(proofs), rng) for _ in range(3000)]
    ours = _agreeing(proofs + mutants)
    assert all(r.valid for r in ours[:len(proofs)])
    # the mutants reach impL's failing path, not only its passing one
    failed_impl = sum(not r.valid and "impL" in r.first_error[1] for r in ours)
    assert failed_impl > 300, failed_impl


# ------------------------------------------------------------------
# The reference checker: the calculus read again, over text triples
# ------------------------------------------------------------------

def _fault(proof, rng):
    """proof with a fault that _mutant does not make: a reference to its
    own line or a later one, an index at the bound, another eigen index on
    an impR line, an assertion of some line added to a side, a goal that no
    line derives, or an impR step whose eigen index is not fresh."""
    lines = list(proof.lines)
    n = rng.randrange(len(lines))
    s, just = lines[n]
    kind = rng.randrange(6)
    if kind == 0 and just.refs:
        refs = list(just.refs)
        refs[rng.randrange(len(refs))] = rng.randint(n + 1, len(lines) + 1)
        lines[n] = (s, replace(just, refs=tuple(refs)))
    elif kind == 1:
        x = min(s.left | s.right, key=Assertion.key)
        moved = Assertion(x.formula, x.i, proof.bound)
        lines[n] = (Sequent(*(side - {x} | {moved} if x in side else side
                              for side in (s.left, s.right))), just)
    elif kind == 2 and any(j.rule is ImpR for _, j in lines):
        n = rng.choice([m for m, (_, j) in enumerate(lines) if j.rule is ImpR])
        s, just = lines[n]
        lines[n] = (s, replace(just, eigen=rng.randrange(proof.bound + 1)))
    elif kind == 3:
        other, _ = rng.choice(lines)
        x = rng.choice(sorted(other.left | other.right, key=Assertion.key))
        sides = [s.left, s.right]
        sides[rng.randrange(2)] |= {x}
        lines[n] = (Sequent(*sides), just)
    elif kind == 5 and any(j.rule is ImpR for _, j in lines):
        # an impR line's premise weakened by (p)[k,k], k its eigen index,
        # then the same impR step from that line: it fits impR's shape,
        # but k is in its conclusion
        concl, just = rng.choice([line for line in lines if line[1].rule is ImpR])
        stale = frozenset({Assertion(Var("p"), just.eigen, just.eigen)})
        premise = lines[just.refs[0] - 1][0]
        lines += [(Sequent(premise.left | stale, premise.right), Weaken(just.refs[0])),
                  (Sequent(concl.left | stale, concl.right),
                   ImpR(len(lines) + 1, eigen=just.eigen))]
    else:
        return replace(proof, goal=Imp(Var("p"), proof.goal or Var("p")))
    return replace(proof, lines=lines)


def _faulty(count, seed):
    """The golden proofs and count seeded faults of them, two made by _mutant
    to each made by _fault."""
    proofs = _golden_proofs()
    rng = random.Random(seed)
    return proofs + [(_fault if n % 3 == 2 else _mutant)(rng.choice(proofs), rng)
                     for n in range(count)]


def _agreeing(proofs):
    """The check_proof reports on proofs, each of which the reference
    checker agrees with."""
    reports = [check_proof(proof) for proof in proofs]
    for proof, report in zip(proofs, reports):
        assert reference_checker.agrees(proof, report), format_proof_script("x", proof)
    return reports


def reference_agreement(count, seed):
    """How many check_proof reports on _faulty(count, seed) end in each error
    kind (None: valid); the reference checker must agree with each."""
    return collections.Counter(r.first_error and r.first_error[1].split(":")[0]
                               for r in _agreeing(_faulty(count, seed)))


def test_the_reference_checker_agrees_on_pinned_proofs_and_mutants():
    kinds = reference_agreement(600, 25)
    assert set(kinds) == {None, "BadRef", "IndexOutOfBound", "ShapeMismatch", "NotAxiom",
                          "GoalMissing", "EigenvariableViolation"}, kinds


def test_the_reference_checker_agrees_when_a_line_gains_an_assertion():
    # every line that cites premises, with one more assertion of its proof
    # on one side: rejected unless the rule lets that side hold it
    rng = random.Random(29)
    for proof in _golden_proofs():
        pool = sorted({x for s, _ in proof.lines for x in s.left | s.right}, key=Assertion.key)
        for n, (s, just) in enumerate(proof.lines):
            if just.refs:
                sides = [s.left, s.right]
                sides[rng.randrange(2)] |= {rng.choice(pool)}
                fault = replace(proof, lines=proof.lines[:n] + [(Sequent(*sides), just)],
                                goal=None)
                assert reference_checker.agrees(fault, check_proof(fault)), \
                    format_proof_script("x", fault)


def test_the_reference_checker_reads_each_fault_of_the_unit_examples():
    CACHES["assertions"].clear()
    cases = {
        "1. (a)[1,0], (b)[1,1] => (a)[1,0] ; axiom\n"
        "2. (b)[1,1] => (a -> a)[0,0] ; impR k=1": "EigenvariableViolation",
        "1. (p)[1,0] => (p)[1,1] ; axiom": "NotAxiom",
        "1. (p)[0,0] => (p)[0,0] ; axiom\n2. (p)[0,0] => (p)[0,0] ; weaken 2": "BadRef",
        "1. (p)[0,7] => (p)[0,7] ; axiom": "IndexOutOfBound",
        "1. (p)[1,0] => (p)[1,0] ; axiom\n2. => (p -> p)[0,0] ; impR k=5": "IndexOutOfBound",
        "1. => (p)[0,0] ; premise": "ShapeMismatch",
    }
    for lines, kind in cases.items():
        _, proof = parse_proof_script(f"lemma x\n{lines}\n")
        assert reference_checker.check(proof)[3] == kind, lines
        assert reference_checker.agrees(proof, check_proof(proof)), lines


# ------------------------------------------------------------------
# The edges of the checker's bit masks
# ------------------------------------------------------------------

def _rebuilt(proof, index=int):
    """proof with every assertion of every line built again, an object of
    its own, with its indices mapped by index."""
    def side(s):
        return frozenset(Assertion(x.formula, index(x.i), index(x.j)) for x in s)
    return replace(proof, lines=[(Sequent(side(s.left), side(s.right)), just)
                                 for s, just in proof.lines])


def test_index_seven_at_bound_eight():
    # an index takes three bits of the key uid << 6 | i << 3 | j
    scripts = {
        "1. (p)[7,0] => (p)[7,0] ; axiom\n2. => (p -> p)[0,0] ; impR k=7": {0, 7},
        "1. (p)[0,7] => (p)[0,7] ; axiom\n2. => (p -> p)[7,7] ; impR k=0": {0, 7},
        "1. (p)[7,7] => (p)[7,7] ; axiom\n2. (p)[7,7], (~p)[7,7] => ; negL": {7},
        "1. (p)[7,0] => (p)[7,0] ; axiom\n2. (q)[7,0] => (q)[7,0] ; axiom\n"
        "3. (p)[7,0], (p -> q)[0,0] => (q)[7,0] ; impL 1 2": {0, 7},
    }
    for lines, objects in scripts.items():
        for bound, first_error in ((8, None), (7, (1, "IndexOutOfBound: index 7"))):
            _, proof = parse_proof_script(f"lemma x bound {bound}\n{lines}\n")
            report, = _agreeing([proof])
            assert (report.first_error, report.objects_used) == (first_error, objects), lines
    _, proof = parse_proof_script("lemma x bound 8\n1. (p)[7,0], (q)[7,7] => (p)[7,0] ; axiom\n"
                                  "2. (q)[7,7] => (p -> p)[0,0] ; impR k=7\n")
    assert _agreeing([proof])[0].first_error == (2, "EigenvariableViolation: index 7 not fresh")
    # the golden proofs and their faults with indices 1 and 7 exchanged
    swap = {x: x for x in range(8)} | {1: 7, 7: 1}
    wide = [permute_indices(replace(proof, bound=8), swap) for proof in _faulty(300, 31)]
    reports = _agreeing(wide)
    assert sum(r.valid and 7 in r.objects_used for r in reports) > 100


def test_numpy_indices_in_bound_read_as_ints():
    proofs = _faulty(300, 32)
    # a uint8 index left in the table would overflow the key uid << 6 | i << 3 | j
    for index in (np.int64, np.uint8):
        wide = [_rebuilt(proof, index) for proof in proofs]
        assert type(next(iter(wide[0].lines[0][0].right)).i) is index
        assert _agreeing(wide) == [check_proof(proof) for proof in proofs]
    half = Assertion(Var("p"), 1.5, 0)  # equal to no index below the bound
    report, = _agreeing([Proof([(Sequent.of([half], [half]), Axiom())])])
    assert report.first_error == (1, "IndexOutOfBound: index 1.5")


def test_an_assertion_equal_to_an_earlier_one_is_the_same_to_the_checker():
    proofs = _faulty(300, 33)
    rebuilt = [_rebuilt(proof) for proof in proofs]
    slots = [x for proof in rebuilt for s, _ in proof.lines for x in (*s.left, *s.right)]
    assert len(set(map(id, slots))) == len(slots)  # no object on two lines
    reports = _agreeing(rebuilt)
    assert reports == [check_proof(proof) for proof in proofs]
    assert sum(r.valid for r in reports) > 150


def test_check_step_on_premises_no_proof_checked():
    for proof in _faulty(200, 34):
        earlier = [s for s, _ in _rebuilt(proof).lines]
        for n, line in enumerate(proof.lines):
            try:
                check_step(earlier[:n], line, proof.bound)
                kind = "ok"
            except RuleError as e:
                kind = e.kind
            assert kind == reference_checker.step(earlier[:n], line, proof.bound), \
                format_proof_script("x", proof)


def test_a_bound_the_key_cannot_hold_is_refused():
    # an index takes three bits of the key: at bound 9, (p)[0,8] would be (p)[1,0]
    line = (seq([a("p", 0, 8)], [a("p", 1, 0)]), Axiom())
    for bound in (9, 0):
        with pytest.raises(ValueError, match=r"bound must be within 1\.\.8"):
            check_step([], line, bound=bound)
        with pytest.raises(ValueError, match=r"bound must be within 1\.\.8"):
            check_proof(Proof([line], bound=bound))
    assert check_proof(Proof([line], bound=8)).first_error == (1, "IndexOutOfBound: index 8")


# ------------------------------------------------------------------
# The one table of assertions, the checker's and the search's
# ------------------------------------------------------------------

def test_an_assertion_and_its_triple_get_one_bit():
    table = sequents._Bits(4)
    x, y = a("p -> q", 1, 2), a("~p", 0, 3)
    mask = table.side(frozenset([x, y]))
    imp, neg = table.bit(x.formula, 1, 2), table.bit(y.formula, 0, 3)
    assert imp | neg == mask and table.made in ([x, y], [y, x])
    both = table.bit(parse_formula("p & q"), 3, 3)  # a triple first, then its assertion
    assert both & mask == 0 and table.side(frozenset([a("p & q", 3, 3)])) == both
    assert (table.kinds[Imp], table.kinds[Neg], table.kinds[And]) == (imp, neg, both)
    assert table.holds == [neg, imp, imp, neg | both] and not table.bad


@pytest.mark.parametrize("index", [np.int64, np.uint8], ids=lambda t: t.__name__)
def test_an_assertion_with_numpy_indices_gets_the_int_ones_bit(index):
    table = sequents._Bits(4)
    x = Assertion(parse_formula("p -> q"), index(1), index(2))
    bit = table.side(frozenset([x]))
    assert table.bit(x.formula, 1, 2) == bit and table.holds[1] == table.holds[2] == bit
    made, = table.made
    assert made == x and (type(made.i), type(made.j)) == (int, int)
    assert not table.bad


@pytest.mark.parametrize("i", [True, False, 4, -1, np.int64(4)], ids=repr)
def test_a_bad_index_gets_a_fresh_bit_each_time(i):
    table = sequents._Bits(4)
    x = a("p", i, 0)
    first = table.side(frozenset([x]))
    assert table.bad
    second = table.side(frozenset([x]))
    assert first != second and table.made == [None, None]
    assert table.holds == [0] * 4 and not any(table.kinds.values())


def test_only_side_records_an_identity():
    # the search makes its bits through bit, by key, and never looks an
    # assertion up by identity; the checker's side does
    table = search._Table(4)  # the search's table, on sequents._Bits
    bit = table.bit(parse_formula("p -> q"), 1, 2)
    assert table.ids == {} and table.bit(parse_formula("p -> q"), 1, 2) == bit
    made, = table.made
    assert table.side(frozenset([made])) == bit and table.ids == {id(made): bit}
    other = Assertion(parse_formula("p -> q"), 1, 2)  # equal, another object
    assert table.side(frozenset([other])) == bit and table.made == [made]
    assert table.ids == {id(made): bit, id(other): bit} and not table.bad


def test_a_table_keeps_the_assertions_it_reads_alive():
    # side looks an assertion up by its id, which a freed one would hand on
    table, x = sequents._Bits(4), a("p -> q", 1, 2)
    ref, bit = weakref.ref(x), table.side(frozenset([x]))
    del x
    gc.collect()
    assert ref() is not None and table.side(frozenset([ref()])) == bit
    del table
    gc.collect()
    assert ref() is None


# ------------------------------------------------------------------
# The semantic audit: every proof line read as a claim about relations
# ------------------------------------------------------------------

def _audit(proof, base, samples=32, seed=0):
    """The numbers of the lines of proof that fail the relational reading,
    which reads no rule: sample a relation on base points for each
    variable, give each index i a point x_i, and let (A)[i,j] hold when
    (x_i, x_j) is in translate(A).  A line Γ => Δ holds when, at every
    tuple of points, some assertion of Δ holds wherever all of Γ do."""
    carrier = algebra._Matrices(base)
    assertions = [x for s, _ in proof.lines for x in s.left | s.right]
    names = sorted(set().union(*(variables(x.formula) for x in assertions)))
    _, env = next(carrier.batches(names, samples, seed))
    indices = sorted({i for x in assertions for i in (x.i, x.j)})
    # index -> the point it is given in each tuple, one axis per index
    point = dict(zip(indices, np.indices((base,) * len(indices))))
    relations = {}

    def holds(x):  # per sample and tuple of points: whether x holds
        if x.formula not in relations:
            relations[x.formula] = algebra.TERMS.evaluate(
                algebra.translate(x.formula), env, carrier.ops)
        return relations[x.formula][:, point[x.i], point[x.j]]

    failed = []
    for n, (s, _) in enumerate(proof.lines, start=1):
        gamma = np.ones((samples,) + (base,) * len(indices), dtype=bool)
        delta = np.zeros_like(gamma)
        for x in s.left:
            gamma &= holds(x)
        for x in s.right:
            delta |= holds(x)
        if (gamma & ~delta).any():
            failed.append(n)
    return failed


def test_the_audit_rejects_lines_that_do_not_hold():
    for line in ("(p)[0,1] => (p)[1,0]", "=> (p -> p)[0,1]", "(p -> q)[0,0] => (q)[0,0]"):
        _, proof = parse_proof_script(f"lemma x\n1. {line} ; axiom\n")
        assert _audit(proof, 2) == [1], line


@pytest.mark.parametrize("base", [2, 3, 4])
def test_every_pinned_proof_line_passes_the_audit(base):
    """The corpus proofs, their instances, the derived rules' outputs and
    search's proofs, as pinned in tests/golden."""
    for proof in _golden_proofs():
        assert _audit(proof, base) == [], format_proof_script("x", proof)


def test_mutated_lines_the_checker_accepts_pass_the_audit():
    rng = random.Random(24)
    proofs = _golden_proofs()
    accepted = 0
    for _ in range(3000):
        proof = rng.choice(proofs)
        mutant = _mutant(proof, rng)
        report = check_proof(replace(mutant, goal=None))
        checked = mutant.lines if report.valid else mutant.lines[:report.first_error[0] - 1]
        if checked != proof.lines[:len(checked)]:  # some changed line checks
            accepted += 1
            for base in (2, 3, 4):
                assert _audit(replace(mutant, lines=checked), base) == [], \
                    format_proof_script("x", mutant)
    assert accepted > 400, accepted  # 470 with this seed


BOUND = 3
_FORMULAS = sorted({random_formula(random.Random(n), n % 5 + 1, "pq", allow_fusion=False)
                    for n in range(60)}, key=str)


def _line(rule, rng):
    """A line that applies rule by its premise function, which the checker
    may or may not accept: its principal and k are drawn at random, and so
    are the premises' contexts and what the conclusion drops from them and
    adds.  Half the assertions drawn are near misses (the principal, its
    actives and their transposes), so that premises often hold."""
    a, b = rng.choice(_FORMULAS), rng.choice(_FORMULAS)
    f = a if rule.conn is None else rule.conn(a) if rule.conn is Neg else rule.conn(a, b)
    principal = Assertion(f, rng.randrange(BOUND), rng.randrange(BOUND))
    k = rng.randrange(BOUND)
    rows = ([([], [])] * rule.refs if rule.premises is None
            else rule.premises(f, principal.i, principal.j, k))
    actives = [(frozenset(starmap(Assertion, left)), frozenset(starmap(Assertion, right)))
               for left, right in rows]
    near = {principal}.union(*(left | right for left, right in actives))
    near = sorted(near | {Assertion(x.formula, x.j, x.i) for x in near}, key=Assertion.key)

    def some():
        return {rng.choice(near) if rng.random() < 0.5 else
                Assertion(rng.choice(_FORMULAS), rng.randrange(BOUND), rng.randrange(BOUND))
                for _ in range(rng.randrange(3))}

    premises, left, right = [], set(), set()
    for active_left, active_right in actives:
        context_left, context_right = some(), some()
        premises.append(Sequent.of(context_left | active_left, context_right | active_right))
        left |= context_left
        right |= context_right
    if rule.side:
        (left if rule.side == "left" else right).add(principal)
    concl = Sequent.of((left - some()) | some(), (right - some()) | some())
    return premises, concl, rule(*range(1, rule.refs + 1),
                                 eigen=k if rule.index == "eigen" else None)


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), base=st.integers(2, 3))
def test_every_rule_is_locally_sound(rule, seed, base):
    """In one sampled relational assignment, if the premises of a line that
    the checker accepts hold at every tuple of points, so does its
    conclusion.  The accepted lines of 40 drawn ones are audited together."""
    rng = random.Random(seed)
    lines, accepted = [], []
    for _ in range(40):
        premises, concl, just = _line(rule, rng)
        try:
            check_step(premises, (concl, just), BOUND)
        except RuleError:
            continue
        # the audit reads no justification: the premises stand as lines of their own
        accepted.append(range(len(lines) + 1, len(lines) + len(premises) + 2))
        lines += [(s, just) for s in (*premises, concl)]
    failed = set(_audit(Proof(lines=lines, bound=BOUND), base, samples=1,
                        seed=rng.randrange(2 ** 16)))
    for numbers in accepted:
        *premises, concl = numbers
        assert concl not in failed or failed.intersection(premises), lines[concl - 1]


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_check_step_on_drawn_premises_agrees_with_the_reference(rule):
    rng = random.Random(35)
    kinds = collections.Counter()
    for _ in range(200):
        premises, concl, just = _line(rule, rng)
        try:
            check_step(premises, (concl, just), BOUND)
            kind = "ok"
        except RuleError as e:
            kind = e.kind
        assert kind == reference_checker.step(premises, (concl, just), BOUND), (premises, concl)
        kinds[kind] += 1
    assert kinds["ok"] > 0 or rule is sequents.Premise, kinds
