import copy
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tarl import algebra, models
from tarl.algebra import ComplexAlgebra, holds_law, parse_chain, verified_in_algebra
from tarl.formulas import (
    CACHES, FORMULAS, And, Fusion, Imp, Neg, Or, ParseError, Var, parse_formula, variables,
)
from tarl.gen import random_formula
from tarl.groups import PARTITIONS, build_atom_structure
from tarl.models import (
    POSTULATE_NAMES, ModelStructure, PostulateReport, Shared,
    SemanticWitness, TooManyValuations, Valuation,
    check_postulates, composition_table, dump_model_file,
    enumerate_structures, find_invalidating_singletons, hereditary_subsets,
    interpret, is_hereditary, load_model_file, op_fusion, op_implies,
    op_neg, op_star, tables_for, valid_in, variable_sharing_certificate,
    verified,
)
from tarl.registry import get_formula, get_structure

K1 = get_structure("K1")
K2 = get_structure("K2")
K3 = get_structure("K3")
K4 = get_structure("K4")
K5 = get_structure("K5")
ALL = [K1, K2, K3, K4, K5]


def val(**kw):
    return Valuation({k: frozenset(v) for k, v in kw.items()})


def all_subsets(m):
    out = []
    for r in range(len(m.elements) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(m.elements, r))
    return out


# ------------------------------------------------------------------
# Subset operations
# ------------------------------------------------------------------

def test_fusion_examples():
    assert op_fusion(K1, {"a"}, {"a"}) == {"0", "a", "b"}
    assert op_fusion(K4, {"a"}, {"a*"}) == {"0", "a", "a*"}
    for m in ALL:
        assert op_fusion(m, {"a"}, ()) == frozenset()
        assert op_fusion(m, (), {"a"}) == frozenset()


def test_implies_examples():
    assert op_implies(K1, {"a"}, {"a"}) == {"0"}
    assert op_implies(K4, {"a"}, {"a*"}) == frozenset()
    full = frozenset(K1.elements)
    assert op_implies(K1, full, full) == full


def test_star_neg_examples():
    assert op_star(K1, {"b"}) == {"b*"}
    assert op_neg(K1, {"a"}) == {"0", "b", "b*"}
    assert op_neg(K2, {"b*"}) == {"0", "a", "b*"}
    for m in ALL:
        for xs in all_subsets(m):
            assert op_neg(m, op_neg(m, xs)) == xs


def test_residuation_duality_everywhere():
    for m in ALL:
        for xs in all_subsets(m):
            for ys in all_subsets(m):
                assert op_implies(m, xs, ys) == op_neg(m, op_fusion(m, xs, op_neg(m, ys)))


def test_fusion_distributes_over_union():
    for m in ALL:
        subsets = all_subsets(m)
        for xs, ys, zs in itertools.product(subsets[:8], repeat=3):
            assert (op_fusion(m, xs, ys | zs)
                    == op_fusion(m, xs, ys) | op_fusion(m, xs, zs))
            assert (op_fusion(m, ys | zs, xs)
                    == op_fusion(m, ys, xs) | op_fusion(m, zs, xs))


def test_fusion_monotone():
    for m in ALL:
        subsets = all_subsets(m)
        for xs, ys in itertools.product(subsets, repeat=2):
            if xs <= ys:
                for zs in subsets[:6]:
                    assert op_fusion(m, xs, zs) <= op_fusion(m, ys, zs)
                    assert op_fusion(m, zs, xs) <= op_fusion(m, zs, ys)


# ------------------------------------------------------------------
# Interpretation
# ------------------------------------------------------------------

def test_countermodel_interpretations():
    A = parse_formula("(p o q) & r")
    B = get_formula("reflectionB").formula
    v1 = val(p={"a"}, q={"a"}, s={"a"}, r={"b"})
    assert interpret(K1, v1, A) == {"b"}
    assert interpret(K1, v1, B) == frozenset()
    v2 = val(p={"b"}, q={"b"}, s={"b*"}, r={"b*"})
    assert interpret(K2, v2, A) == {"b*"}
    assert interpret(K2, v2, B) == frozenset()


def test_interpret_homomorphism_conditions():
    rng = random.Random(4)
    for m in ALL:
        subsets = all_subsets(m)
        for _ in range(40):
            va = rng.choice(subsets)
            vb = rng.choice(subsets)
            v = val(p=va, q=vb)
            assert interpret(m, v, parse_formula("p & q")) == va & vb
            assert interpret(m, v, parse_formula("p | q")) == va | vb
            assert interpret(m, v, parse_formula("~p")) == op_neg(m, va)
            assert interpret(m, v, parse_formula("p -> q")) == op_implies(m, va, vb)
            assert interpret(m, v, parse_formula("p o q")) == op_fusion(m, va, vb)


def test_fusion_direct_equals_desugared():
    from tarl.formulas import desugar_fusion
    rng = random.Random(11)
    for m in ALL:
        subsets = all_subsets(m)
        for _ in range(60):
            f = random_formula(rng, 8, ["p", "q"])
            v = val(p=rng.choice(subsets), q=rng.choice(subsets))
            assert interpret(m, v, f) == interpret(m, v, desugar_fusion(f))


def test_verified_and_unassigned():
    v = val(p={"a"})
    assert verified(K4, v, parse_formula("p -> p"))
    with pytest.raises(KeyError):
        interpret(K4, v, parse_formula("q"))


def test_an_unknown_element_is_named():
    with pytest.raises(ValueError, match="'zz' is not an element of K5"):
        interpret(K5, val(p={"a", "zz"}), parse_formula("p"))


def test_mingle_computation():
    for m in (K1, K2, K3):
        v = val(p={"a"})
        assert interpret(m, v, parse_formula("p -> p")) == {"0"}
        assert interpret(m, v, get_formula("ming").formula) == frozenset()
        assert not verified(m, v, get_formula("ming").formula)


def test_identity_implication_verified_on_all_k4_valuations():
    f = parse_formula("p -> p")
    for xs in all_subsets(K4):
        assert verified(K4, val(p=xs), f)


# ------------------------------------------------------------------
# Validity
# ------------------------------------------------------------------

def test_contraction_valid_in_k123():
    contr = get_formula("contr").formula
    for m in (K1, K2, K3):
        assert valid_in(m, contr).valid


def test_ming_invalid_with_least_witness():
    res = valid_in(K3, get_formula("ming").formula)
    assert not res.valid
    assert res.witness.assignment == {"p": frozenset({"a"})}


def test_excluded_middle_valid_everywhere():
    f = parse_formula("p | ~p")
    for m in ALL:
        assert valid_in(m, f).valid


def test_corpus_theorems_valid_in_peircean_structures():
    from tarl.registry import list_corpus
    for entry in list_corpus():
        for m in (K3, K4, K5):
            assert valid_in(m, entry.proof.goal).valid, (entry.lemma_id, m.name)


def test_commutativity_axioms_fail_in_k5():
    for name in ("contra", "perm", "suff", "mp"):
        assert not valid_in(K5, get_formula(name).formula).valid, name


def _block_end(row: int) -> int:
    """The end of the grid block, at the default sizes, that holds `row`."""
    end, size = 0, models._FIRST_BLOCK
    while end <= row:
        end, size = end + size, min(4 * size, models._GRID_CHUNK)
    return end


@pytest.mark.parametrize("text", ["p | ~p", "p -> q -> p", "(p -> q) o r", "~(p & q1) | r",
                                  "p -> p | q & r & s", "p & q & r & s -> ~s"])
def test_validity_counts_every_valuation(text):
    """`grid` is the whole grid; `valuations` is the grid when f is valid,
    and otherwise the end of the block that holds the witness."""
    f = parse_formula(text)
    names = sorted(variables(f))
    for m in ALL:
        t = tables_for(m)
        res = valid_in(m, f)
        assert type(res.valuations) is type(res.grid) is int
        assert res.grid == len(t.hereditary) ** len(names)
        assert res.counters() == {"valuations": res.valuations, "grid": res.grid}
        if res.valid:
            assert res.valuations == res.grid
            continue
        row = 0
        for name in names:
            mask = t.mask_of(m, res.witness.assignment[name])
            row = row * len(t.hereditary) + t.hereditary.index(mask)
        assert res.valuations == min(_block_end(row), res.grid)


def test_validity_cap(monkeypatch):
    monkeypatch.setattr(models, "DEFAULT_VALUATION_CAP", 1000)
    f = parse_formula("a -> b -> c -> d -> e -> f1")
    with pytest.raises(TooManyValuations):
        valid_in(K1, f)


def test_singleton_search_is_capped(monkeypatch):
    """K1 has four hereditary singletons: eleven variables make 4^11 rows,
    past the cap, and the search is refused before any row is evaluated."""
    assert len(tables_for(K1).singletons) == 4
    CACHES["grid blocks"].clear()                       # no block may be built
    monkeypatch.setattr(models, "_grid_columns", None)
    with pytest.raises(TooManyValuations, match="4194304 valuations exceeds cap 1048576"):
        find_invalidating_singletons(K1, parse_formula("&".join("abcdefghijk")))


def _eight_element_structure():
    rng = random.Random(155)
    elements = tuple("0abcdefg")
    triples = frozenset(t for t in itertools.product(elements, repeat=3)
                        if rng.random() < 0.3)
    return ModelStructure("eight", elements, "0", dict(zip(elements, "0bacdfeg")), triples)


def test_tables_are_those_recorded():
    """sha256 (first 16 hex digits) of the bytes of fus, imp, star and neg,
    recorded when imp's requirement table was built from a matrix of its own."""
    recorded = {"K1": "b08d414f3ab9c02f", "K2": "670f1677ee1100be",
                "K3": "54a60867cb0bf5c2", "K4": "bdc5d8d1953f4457",
                "K5": "550353741a6ce946", "eight": "57578a5f7bc9050c"}
    for m in [*ALL, _eight_element_structure()]:
        t = tables_for(m)
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (t.fus, t.imp, t.star, t.neg)))
        assert digest.hexdigest()[:16] == recorded[m.name], m.name


def test_shared_tables_are_read_only():
    t = tables_for(K3)
    for table in (t.fus, t.imp, t.star, t.neg, t.lacks_zero):
        first = (0,) * table.ndim
        with pytest.raises(ValueError):
            table[first] = table[first]


def test_singleton_lists_match_published_values():
    expected = {
        "contra": [{"p": {"a"}, "q": {"b"}},
                   {"p": {"b"}, "q": {"b*"}},
                   {"p": {"b*"}, "q": {"a"}}],
        "perm": [{"p": {"a"}, "q": {"b"}, "r": {"a"}},
                 {"p": {"b*"}, "q": {"a"}, "r": {"a"}}],
        "suff": [{"p": {"0"}, "q": {"a"}, "r": {"a"}},
                 {"p": {"0"}, "q": {"b"}, "r": {"a"}},
                 {"p": {"b"}, "q": {"a"}, "r": {"a"}},
                 {"p": {"b"}, "q": {"b"}, "r": {"a"}}],
        "mp": [{"p": {"a"}, "q": {"a"}},
               {"p": {"b"}, "q": {"a"}}],
    }
    for name, rows in expected.items():
        got = find_invalidating_singletons(K5, get_formula(name).formula)
        assert [{k: set(v) for k, v in w.assignment.items()} for w in got] == rows


def test_heredity():
    # on CR* structures heredity is vacuous: every subset qualifies
    for m in ALL:
        assert len(hereditary_subsets(m)) == 2 ** len(m.elements)
    assert is_hereditary(K1, val(p={"a"}))


# ------------------------------------------------------------------
# Postulates
# ------------------------------------------------------------------

def test_postulate_flags_k1():
    r = check_postulates(K1)
    assert r.passes(["p1", "p2", "p3", "p4", "p5", "p6", "comm",
                     "normal", "crstar"])
    assert not r.flags["peirce"]
    assert r.peirce_missing == (("a", "a", "b*"), ("a", "b", "a"),
                                ("b", "a", "a"))


def test_postulate_flags_k2():
    r = check_postulates(K2)
    assert r.passes(["p1", "p2", "p3", "p4", "p5", "p6", "comm"])
    assert r.peirce_missing == (("b*", "b*", "b"),)


def test_postulate_flags_k3_k4():
    for m in (K3, K4):
        r = check_postulates(m)
        assert r.passes(["p1", "p2", "p3", "p4", "p5", "p6", "comm",
                         "normal", "crstar", "peirce"])


def test_postulate_flags_k5():
    r = check_postulates(K5)
    assert r.passes(["p1", "p2", "p4", "p6", "p3prime", "p5prime",
                     "normal", "crstar", "peirce"])
    assert not r.flags["comm"]
    assert "comm" in r.witnesses


def test_failed_flags_carry_witnesses():
    for m in ALL:
        r = check_postulates(m)
        for name, ok in r.flags.items():
            if not ok:
                assert name in r.witnesses, (m.name, name)


def oracle_postulates(m):
    """The audit as a per-structure loop over every quantified tuple: the
    reference the tensor audit must agree with, witnesses included."""
    elems = m.elements
    order = {e: i for i, e in enumerate(elems)}
    R = m.triples
    star = m.star
    zero = m.zero

    def r2(a, b, c, d):
        return any((a, b, x) in R and (x, c, d) in R for x in elems)

    def r2_assoc(a, b, c, d):
        return any((b, c, x) in R and (a, x, d) in R for x in elems)

    def key(t):
        return tuple(order[e] for e in t)

    flags = dict.fromkeys(POSTULATE_NAMES, True)
    witnesses = {}

    def record(name, witness):
        if name not in witnesses:
            flags[name] = False
            witnesses[name] = witness

    for a in elems:
        if (zero, a, a) not in R:
            record("p1", (a,))
        if (a, a, a) not in R:
            record("p2", (a,))
        if star[star[a]] != a:
            record("p6", (a,))
    if star[zero] != zero:
        record("normal", (zero,))
    for a, b in itertools.product(elems, repeat=2):
        if ((zero, a, b) in R) != (a == b):
            record("crstar", (a, b))
    for (a, b, c) in sorted(R, key=key):
        if (a, star[c], star[b]) not in R:
            record("p5", (a, b, c))
        if (star[c], a, star[b]) not in R:
            record("p5prime", (a, b, c))
        if (b, a, c) not in R:
            record("comm", (a, b, c))
    for a, b, c, d in itertools.product(elems, repeat=4):
        if r2(a, b, c, d):
            if not r2(a, c, b, d):
                record("p3", (a, b, c, d))
            if not r2_assoc(a, b, c, d):
                record("p3prime", (a, b, c, d))
    for a, b, c in itertools.product(elems, repeat=3):
        if r2(zero, a, b, c) and (a, b, c) not in R:
            record("p4", (a, b, c))
    missing = sorted({(z, star[y], x) for (x, y, z) in R} - R, key=key)
    if missing:
        record("peirce", missing[0])
    return PostulateReport(flags, witnesses, tuple(missing))


def _random_structure(rng, n):
    """Elements named out of sorted order, 0 anywhere, any total star map
    (involution or not) and a relation of random density."""
    elements = tuple(rng.sample(["0", "e", "a", "b*", "c", "b", "a*"], n))
    star = {e: rng.choice(elements) for e in elements}
    density = rng.choice([0.05, 0.3, 0.6, 0.9])
    triples = frozenset(t for t in itertools.product(elements, repeat=3)
                        if rng.random() < density)
    return ModelStructure("r", elements, rng.choice(elements), star, triples)


def _audit_cases():
    rng = random.Random(20)
    cases = [_random_structure(rng, 1 + k % 5) for k in range(1000)]
    for n in range(1, 6):
        m = _random_structure(rng, n)
        full = frozenset(itertools.product(m.elements, repeat=3))
        for triples in (frozenset(), full):
            for star in (m.star, {e: e for e in m.elements}):
                cases.append(ModelStructure("x", m.elements, m.zero, star,
                                            triples))
    cases += ALL + [build_atom_structure(p) for p in PARTITIONS]
    return cases


def test_audit_agrees_with_oracle():
    for m in _audit_cases():
        got, want = check_postulates(m), oracle_postulates(m)
        assert got.flags == want.flags, m
        assert got.witnesses == want.witnesses, m
        assert got.peirce_missing == want.peirce_missing, m


def test_audit_reports_plain_values():
    # the seeded cases fail most postulates, so their witnesses are decoded
    for m in _audit_cases():
        r = check_postulates(m)
        assert all(type(ok) is bool for ok in r.flags.values())
        for t in [*r.witnesses.values(), *r.peirce_missing]:
            assert type(t) is tuple and all(type(e) is str for e in t)


def test_postulate_payload_is_plain_values():
    # JSON turns tuples into lists, so only a payload of plain values survives
    for m in ALL + _audit_cases()[:50]:
        r = check_postulates(m)
        payload = r.payload()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["flags"] == r.flags and len(payload["witnesses"]) == len(r.witnesses)


def test_audit_refuses_more_than_32_elements(monkeypatch):
    # 32**4 positions is the cap itself; one element more is refused unbuilt
    monkeypatch.setattr(models, "_audit_table", None)
    elements = tuple(f"e{i}" for i in range(33))
    m = ModelStructure("large", elements, "e0", dict(zip(elements, elements)), frozenset())
    with pytest.raises(TooManyValuations, match="33 elements"):
        check_postulates(m)
    assert m._relation is None


# ------------------------------------------------------------------
# Differential tests against the set-valued operations
# ------------------------------------------------------------------

def formula_oracle(m, env, f) -> frozenset:
    """J(f) under one assignment, from op_neg, op_implies and op_fusion."""
    if isinstance(f, Var):
        return frozenset(env[f.name])
    if isinstance(f, Neg):
        return op_neg(m, formula_oracle(m, env, f.body))
    left, right = formula_oracle(m, env, f.left), formula_oracle(m, env, f.right)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    if isinstance(f, Imp):
        return op_implies(m, left, right)
    if isinstance(f, Fusion):
        return op_fusion(m, left, right)
    raise TypeError(f"not a formula: {f!r}")


def _semantic_cases():
    """K1..K5 and random structures that need not meet any postulate (any
    star map, 0 anywhere, so heredity cuts the valuations down)."""
    rng = random.Random(30)
    return ALL + [_random_structure(rng, 1 + k % 5) for k in range(40)]


def _by_mask(m):
    """Every subset of m, in the order of its mask over the elements."""
    return [frozenset(e for i, e in enumerate(m.elements) if mask >> i & 1)
            for mask in range(1 << len(m.elements))]


def test_tables_agree_with_set_operations():
    """K1..K5 and seeded structures of sizes 1 to 5; fusion and
    implication through the flat lookups, on every pair of masks."""
    cases = _semantic_cases()
    assert any(m.zero != m.elements[0] for m in cases)
    assert any(m.star[m.star[e]] != e for m in cases for e in m.elements)
    for m in cases:
        t = tables_for(m)
        subsets = _by_mask(m)
        flat_lookups_agree(m)
        for x, xs in enumerate(subsets):
            assert t.subsets[t.star[x]] == op_star(m, xs), m
            assert t.subsets[t.neg[x]] == op_neg(m, xs), m
        assert t.hereditary == tuple(
            x for x, xs in enumerate(subsets) if is_hereditary(m, Valuation({"p": xs})))
        assert all(a.dtype == np.int64 for a in (t.fus, t.imp, t.star, t.neg))


def seeded_structure(rng, n):
    """An n-element structure, n up to 10: elements named out of order, 0
    anywhere, a star map that is the reversal or arbitrary (involution or
    not), and a relation of random density."""
    elements = tuple(rng.sample([f"e{i}" for i in range(n)], n))
    star = ({e: rng.choice(elements) for e in elements} if rng.random() < 0.5
            else dict(zip(elements, elements[::-1])))
    density = rng.choice([0.05, 0.3, 0.6, 0.9, 1.0])
    triples = frozenset(t for t in itertools.product(elements, repeat=3)
                        if rng.random() < density)
    return ModelStructure("r", elements, rng.choice(elements), star, triples)


def flat_lookups_agree(m, masks=None):
    """The flat Imp and Fusion lookups of m's tables against op_implies and
    op_fusion on every pair of masks drawn from `masks` (every mask when
    None): called with Python ints, with 1-D arrays of the pairs, and with
    a column and a row that broadcast to the 2-D grid of them, which the
    2-D tables' [x, y] must give too."""
    t = tables_for(m)
    masks = list(range(t.size) if masks is None else masks)
    subsets = _by_mask(m)
    column, row = np.array(masks)[:, None], np.array(masks)[None, :]
    for cls, op, table in ((Imp, op_implies, t.imp), (Fusion, op_fusion, t.fus)):
        lookup = t.ops[cls]
        want = [[op(m, subsets[x], subsets[y]) for y in masks] for x in masks]
        ints = [[lookup(x, y) for y in masks] for x in masks]
        assert {type(v) for values in ints for v in values} == {np.int64}, (m, cls)
        grid = lookup(column, row)
        flat = lookup(*(a.ravel() for a in np.broadcast_arrays(column, row)))
        assert flat.dtype == grid.dtype == np.int64, (m, cls)
        for got in (ints, flat.reshape(grid.shape).tolist(), grid.tolist(),
                    table[column, row].tolist()):
            assert [[subsets[v] for v in values] for values in got] == want, (m, cls)


def test_formulas_agree_with_set_oracle():
    rng = random.Random(31)
    for m in _semantic_cases():
        t = tables_for(m)
        subsets = _by_mask(m)
        for _ in range(25):
            f = random_formula(rng, rng.randint(1, 10), ["p", "q"])
            envs = [{"p": rng.choice(subsets), "q": rng.choice(subsets)} for _ in range(8)]
            want = [formula_oracle(m, env, f) for env in envs]
            assert [interpret(m, Valuation(env), f) for env in envs] == want
            batch = {v: np.array([t.mask_of(m, env[v]) for env in envs]) for v in ("p", "q")}
            got = FORMULAS.evaluate(f, batch, t.ops)
            assert [t.subsets[int(mask)] for mask in got] == want


def per_combination_singletons(m, f) -> list[Valuation]:
    """The singleton search as a loop over every combination, skipping
    non-hereditary ones, with the set-valued operations as evaluator."""
    names = sorted(variables(f))
    out = []
    for combo in itertools.product([frozenset({e}) for e in m.elements],
                                   repeat=len(names)):
        v = Valuation(dict(zip(names, combo)))
        if is_hereditary(m, v) and not formula_oracle(m, v.assignment, f):
            out.append(v)
    return out


@pytest.mark.parametrize("chunk", [7, models._GRID_CHUNK])
def test_singleton_search_agrees_with_per_combination_loop(monkeypatch, chunk):
    monkeypatch.setattr(models, "_GRID_CHUNK", chunk)
    rng = random.Random(32)
    for m in _semantic_cases():
        for _ in range(12):
            f = random_formula(rng, rng.randint(1, 9), ["p", "q", "r"][:rng.randint(1, 3)])
            got = find_invalidating_singletons(m, f)
            assert ([v.assignment for v in got]
                    == [v.assignment for v in per_combination_singletons(m, f)]), (m, f)


def first_failing_valuation(m, f) -> Valuation | None:
    """valid_in's witness as a loop over every assignment in lexicographic
    order, skipping non-hereditary ones, with the set-valued operations as
    evaluator."""
    names = sorted(variables(f))
    for combo in itertools.product(_by_mask(m), repeat=len(names)):
        v = Valuation(dict(zip(names, combo)))
        if is_hereditary(m, v) and m.zero not in formula_oracle(m, v.assignment, f):
            return v
    return None


def test_valid_in_witness_is_first_failing_valuation():
    rng = random.Random(33)
    for m in _semantic_cases():
        for _ in range(12):
            f = random_formula(rng, rng.randint(1, 9), ["p", "q"][:rng.randint(1, 2)])
            first = first_failing_valuation(m, f)
            got = valid_in(m, f)
            assert got.valid == (first is None), (m, f)
            if first is not None:
                assert got.witness.assignment == first.assignment, (m, f)


def _heredity_twins():
    """Fresh structures in pairs whose hereditary masks are as many but not
    the same, so a grid block cached for one of a pair under a key without
    the masks would give the other wrong valuations."""
    rng = random.Random(36)
    twins, waiting = [], {}
    while len(twins) < 8:
        m = _random_structure(rng, 3 + len(twins) // 4)
        key = len(tables_for(m).hereditary)
        other = waiting.pop(key, None)
        if other is not None and tables_for(other).hereditary != tables_for(m).hereditary:
            twins += [other, m]
        else:
            waiting[key] = m
    return twins


@pytest.mark.parametrize("block", [1, 7, None])
def test_block_boundaries_keep_witnesses_and_singletons(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(models, "_FIRST_BLOCK", block)
        monkeypatch.setattr(models, "_GRID_CHUNK", block)
    rng = random.Random(37)
    for m in ALL + _heredity_twins():
        for _ in range(6):
            f = random_formula(rng, rng.randint(1, 8), ["p", "q", "r"][:rng.randint(1, 3)])
            first = first_failing_valuation(m, f)
            got = valid_in(m, f)
            assert got.valid == (first is None), (m, f)
            if first is not None:
                assert got.witness.assignment == first.assignment, (m, f)
            assert ([v.assignment for v in find_invalidating_singletons(m, f)]
                    == [v.assignment for v in per_combination_singletons(m, f)]), (m, f)


def _kept_blocks(grid):
    """Each first block a grid keeps, checked: read-only 1-D columns, at
    most the size it was built for, equal to `_grid_columns`."""
    for arity, (size, end, cols) in grid.first.items():
        assert type(cols) is tuple and len(cols) == arity and end <= size
        assert all(col.shape == (end,) and not col.flags.writeable for col in cols)
        assert np.array_equal(np.array(cols).reshape(arity, end),
                              models._grid_columns(grid.allowed, arity, 0, end))
        with pytest.raises(ValueError):
            cols[0][0] = 0
    return grid.first


def test_evaluation_never_returns_a_cached_block(monkeypatch):
    """A bare variable's value is a column of its block as is; the results
    hold decoded subsets, shared with the tables, and no array.  Every first
    block a grid keeps, and every later block in the store, is read-only and
    stays as it was built."""
    cache = CACHES["grid blocks"]
    cache.clear()
    t = tables_for(K5)
    p = parse_formula("p")
    res = valid_in(K5, p)
    assert res.witness.assignment["p"] is t.subsets[0]
    assert type(res.valuations) is int
    assert find_invalidating_singletons(K5, p) == []
    law = holds_law(ComplexAlgebra(K5), parse_chain("x <= id")[0])
    assert law.counterexample["x"] is t.subsets[1 << K5.index("a")]
    # four variables over K5's 16 masks: 65,536 rows, past the first block
    wide = parse_formula("p -> p | q & r & s")
    assert valid_in(K5, wide).valid and find_invalidating_singletons(K5, wide) == []
    assert holds_law(ComplexAlgebra(K5), parse_chain("x . y . z . w <= x")[0]).passed
    carrier = algebra._carrier(ComplexAlgebra(K5))
    for grid in (t.hereditary_grid, t.singleton_grid, carrier.grid):
        assert _kept_blocks(grid)
    assert cache
    for key, cols in cache.items():
        assert key[2] > 0            # no first block is stored
        assert not cols.flags.writeable
        assert np.array_equal(cols, models._grid_columns(*key))
        with pytest.raises(ValueError):
            cols[..., 0] = 0


def test_grid_cache_is_emptied_past_its_bound(monkeypatch):
    """The store keeps later blocks under its bound; the first block of a
    grid is kept by the grid, outside the store, and counts against none of
    it."""
    cache = CACHES["grid blocks"]
    cache.clear()
    allowed = tuple(range(20))               # a grid of 400 rows over two names
    block_bytes = 2 * 100 * 8
    monkeypatch.setattr(cache, "bound", 3 * block_bytes)

    def block(lo):
        key = allowed, 2, lo, lo + 100
        return cache[key] if key in cache else cache.keep(key, models._grid_columns(*key))

    for lo in (0, 100, 200):
        block(lo)
    assert cache.weight == 3 * block_bytes and len(cache) == 3
    assert block(0) is cache[(allowed, 2, 0, 100)]
    last = block(300)  # past the bound: the others go, and the newest stays
    assert (cache, cache.weight) == ({(allowed, 2, 300, 400): last}, block_bytes)
    assert last[:, -1].tolist() == [19, 19]
    block(0)
    assert list(cache) == [(allowed, 2, 300, 400), (allowed, 2, 0, 100)]
    # a grid walked to its end with a bound of 0 leaves its last block alone
    # in the store, and its first block on the grid
    monkeypatch.setattr(cache, "bound", 0)
    grid = tables_for(K1).hereditary_grid
    assert valid_in(K1, parse_formula("p -> p | q & r & s")).valuations == 16 ** 4
    ((key, kept),) = cache.items()
    assert cache.weight == kept.nbytes
    assert key == (grid.allowed, 4, 16 ** 4 - kept.shape[1], 16 ** 4)
    assert _kept_blocks(grid)[4][1] == models._FIRST_BLOCK


def test_a_kept_first_block_follows_the_block_size(monkeypatch):
    """A first block kept at one block size is built again at another: after
    `_FIRST_BLOCK` changes, every grid's blocks, witnesses, singletons and
    counts are those of the new size, and each arity walked since keeps one
    block, built for that size."""
    rng = random.Random(49)
    formulas = [random_formula(rng, rng.randint(1 + k % 3, 8), "pqr"[:1 + k % 3])
                for k in range(24)]

    def results():
        out = []
        for m in ALL:
            t = tables_for(m)
            for f in formulas:
                names = sorted(variables(f))
                lo, size = 0, min(models._FIRST_BLOCK, models._GRID_CHUNK)
                for hi, env in models.grid_blocks(names, t.hereditary_grid):
                    assert hi == min(lo + size, len(t.hereditary) ** len(names))
                    want = models._grid_columns(t.hereditary, len(names), lo, hi)
                    assert np.array_equal([env[n] for n in names], want), (m, f, lo)
                    lo, size = hi, min(4 * size, models._GRID_CHUNK)
                res = valid_in(m, f)
                singletons = [v.assignment for v in find_invalidating_singletons(m, f)]
                algebra_result = verified_in_algebra(ComplexAlgebra(m), f)
                out.append((res.valid, res.witness and res.witness.assignment, singletons,
                            algebra_result.passed, algebra_result.counterexample))
                if not res.valid:
                    row = 0
                    for name in names:
                        mask = t.mask_of(m, res.witness.assignment[name])
                        row = row * len(t.hereditary) + t.hereditary.index(mask)
                    assert res.valuations == min(_block_end(row), res.grid), (m, f)
        return out

    walked = {len(variables(f)) for f in formulas}
    assert walked == {1, 2, 3}
    want = results()
    assert any(valid for valid, *_ in want) and not all(valid for valid, *_ in want)
    for block in (7, 1, 100):
        monkeypatch.setattr(models, "_FIRST_BLOCK", block)
        assert results() == want
        for m in ALL:
            t = tables_for(m)
            assert walked <= set(t.hereditary_grid.first)
            for grid in (t.hereditary_grid, t.singleton_grid,
                         algebra._carrier(ComplexAlgebra(m)).grid):
                kept = _kept_blocks(grid)
                assert all(kept[arity][0] == block for arity in walked if arity in kept)


def test_grids_of_the_same_masks_are_one(monkeypatch):
    """Every table and carrier whose grid holds the same masks shares one
    Grid, and with it the first blocks it keeps; witnesses, singletons and
    counts are those of grids of their own."""
    carriers = {m.name: algebra._carrier(ComplexAlgebra(m)).grid for m in ALL}
    four = [m for m in ALL if len(m.elements) == 4]
    assert [m.name for m in four] == ["K1", "K2", "K3", "K5"]
    grids = [tables_for(m).hereditary_grid for m in four] + [carriers[m.name] for m in four]
    assert all(g is grids[0] for g in grids) and grids[0].allowed == tuple(range(16))
    assert tables_for(K4).hereditary_grid is carriers["K4"]
    singletons = [tables_for(m).singleton_grid for m in four]
    assert all(g is singletons[0] for g in singletons)
    rng = random.Random(50)
    fresh = [seeded_structure(rng, 5) for _ in range(3)]
    assert len({id(algebra._carrier(ComplexAlgebra(m)).grid) for m in fresh}) == 1
    formulas = [random_formula(rng, rng.randint(2, 8), "pqr") for _ in range(30)]

    def results(structures):
        return [(valid_in(m, f), [v.assignment for v in find_invalidating_singletons(m, f)],
                 verified_in_algebra(ComplexAlgebra(m), f))
                for m in structures for f in formulas]

    want = results(ALL + fresh)
    assert any(r[0].valid for r in want) and not all(r[0].valid for r in want)
    # copies build tables of their own, here on grids of their own
    monkeypatch.setattr(models, "shared_grid", models.Grid)
    monkeypatch.setattr(algebra, "shared_grid", models.Grid)
    copies = [copy.copy(m) for m in ALL + fresh]
    assert tables_for(copies[0]).hereditary_grid is not grids[0]
    assert results(copies) == want


# ------------------------------------------------------------------
# Variable sharing
# ------------------------------------------------------------------

def test_sharing_shared():
    cert = variable_sharing_certificate(parse_formula("p"), parse_formula("p & q"))
    assert isinstance(cert, Shared)
    assert cert.variables == {"p"}


def test_sharing_semantic_witness():
    cert = variable_sharing_certificate(parse_formula("p"), parse_formula("q"))
    assert isinstance(cert, SemanticWitness)
    assert cert.implication_value == frozenset()
    assert cert.valuation.assignment == {"p": frozenset({"a"}),
                                         "q": frozenset({"a*"})}


def test_sharing_closure_sample():
    # the sample computation: {0,a} -> {0,a*} is empty in K4
    assert op_implies(K4, {"0", "a"}, {"0", "a*"}) == frozenset()
    assert op_implies(K4, {"a"}, {"a*"}) == frozenset()


# ------------------------------------------------------------------
# Enumeration
# ------------------------------------------------------------------

def test_enumerate_size2_normal():
    found = list(enumerate_structures(2, {"p1", "p2", "p3", "p4", "p5", "p6",
                                          "normal"}))
    assert found
    for m in found:
        r = check_postulates(m)
        assert r.passes(["p1", "p2", "p3", "p4", "p5", "p6", "normal"])


def test_enumerate_size2_crstar():
    for m in enumerate_structures(2, {"crstar"}):
        zero = m.zero
        for a in m.elements:
            for b in m.elements:
                assert ((zero, a, b) in m.triples) == (a == b)


def test_enumerate_size3_comm_prefix():
    required = {"p1", "p2", "p3", "p4", "p5", "p6", "comm"}
    count = 0
    for m in enumerate_structures(3, required):
        table = composition_table(m)
        for x in m.elements:
            for y in m.elements:
                assert table[(x, y)] == table[(y, x)]
        count += 1
        if count >= 5:
            break
    assert count >= 1


def test_enumerate_heredity_propagation():
    # interpretations inherit heredity on structures where R0 is not diagonal
    rng = random.Random(3)
    seen_non_crstar = 0
    for m in enumerate_structures(2, {"p1", "p2", "p3", "p4", "p5", "p6"}):
        flags = check_postulates(m).flags
        if flags["crstar"]:
            continue
        seen_non_crstar += 1
        succ = [(b, c) for (a, b, c) in m.triples if a == m.zero]
        masks = hereditary_subsets(m)
        t = tables_for(m)
        for mask in masks:
            xs = t.subsets[mask]
            v = Valuation({"p": xs})
            for _ in range(10):
                f = random_formula(rng, 6, ["p"])
                value = interpret(m, v, f)
                for (a, b) in succ:
                    assert not (a in value and b not in value)
        if seen_non_crstar >= 3:
            break
    assert seen_non_crstar >= 1


def test_enumerate_size_guard():
    # 10 * 2**60 and 4 * 2**27 candidates: refused before any is built
    for size, required in ((4, {"p1"}), (3, ())):
        with pytest.raises(TooManyValuations, match="more than 1048576 candidates"):
            next(enumerate_structures(size, required))


def test_enumerate_refuses_a_large_query_at_once():
    # the first star map alone passes the cap; finding the orbits of every
    # star map at size 9 took seconds
    start = time.perf_counter()
    with pytest.raises(TooManyValuations):
        next(enumerate_structures(9, {"p5", "comm"}))
    assert time.perf_counter() - start < 0.5


def test_enumerated_structures_own_their_values():
    found = enumerate_structures(2, ())
    first, second = next(found), next(found)
    assert first.star == second.star
    with pytest.raises(TypeError):
        first.star["0"] = "1"
    assert first.star == second.star == {"0": "0", "1": "1"}
    for m in enumerate_structures(3, P1_P6):
        assert all(type(t) is tuple and len(t) == 3 and all(type(e) is str for e in t)
                   for t in m.triples)


@pytest.mark.parametrize("size", [0, -1])
def test_enumerate_needs_an_element(size):
    with pytest.raises(ValueError):
        next(enumerate_structures(size, ()))


@pytest.mark.parametrize("size,required,error", [
    (0, (), ValueError), (-1, (), ValueError), (2, ("p1", "p7"), ValueError),
    (2, "p1", TypeError), (4, ("p1",), TooManyValuations)])
def test_candidates_refuse_a_bad_query_at_the_call(size, required, error):
    # the whole query is planned before the generator is returned
    with pytest.raises(error):
        models._candidates(size, required)
    with pytest.raises(error):
        next(enumerate_structures(size, required))


def test_passes_refuses_a_string_and_unknown_names():
    report = check_postulates(K1)
    with pytest.raises(TypeError, match="not the string 'p1'"):
        report.passes("p1")
    with pytest.raises(ValueError, match=r"unknown postulates: \['p7'\]"):
        report.passes(["p1", "p7"])
    assert report.passes(iter(["p1", "p2"]))


P1_P6 = ("p1", "p2", "p3", "p4", "p5", "p6")
# every size-2 query of the benchmark's enumerate workload and its size-3
# queries with few candidates
FAST_QUERIES = [(2, ()), (2, ("p1",)), (2, ("comm",)), (2, ("normal",)),
                (2, P1_P6), (3, P1_P6 + ("comm",)),
                (3, P1_P6 + ("normal", "comm")), (3, ("crstar", "p5", "comm"))]


@pytest.mark.parametrize("size,required", [(2, ()), (3, P1_P6)])
def test_enumerated_structures_pass_the_checked_constructor(size, required):
    # the enumerator skips __post_init__; each structure it builds must be
    # one that the checks accept and that equals its checked rebuild
    for m in enumerate_structures(size, required):
        checked = ModelStructure(m.name, m.elements, m.zero, dict(m.star), m.triples)
        assert checked == m and checked.same_as(m)
        assert type(m.star) is type(checked.star)
        assert m._tables is None and m._relation is None
    assert tables_for(m).fus.tolist() == tables_for(checked).fus.tolist()


def _listing(structures):
    return [(m.name, sorted(m.star.items()), sorted(m.triples))
            for m in structures]


@pytest.mark.parametrize("size,required", FAST_QUERIES)
def test_enumeration_is_candidates_filtered_by_oracle(size, required):
    elems = tuple(str(i) for i in range(size))
    expected = []
    for star, R in models._candidates(size, frozenset(required)):
        for rel in R:
            m = ModelStructure(
                f"enum{size}_{len(expected)}", elems, "0",
                {elems[a]: elems[b] for a, b in enumerate(star)},
                frozenset(tuple(elems[i] for i in t)
                          for t in zip(*rel.nonzero())))
            if oracle_postulates(m).passes(required):
                expected.append(m)
    assert _listing(enumerate_structures(size, required)) == _listing(expected)


@pytest.mark.parametrize("size,required", [q for q in FAST_QUERIES if q[0] == 2])
def test_size2_enumeration_is_every_passing_structure(size, required):
    elems = ("0", "1")
    expected = set()
    for image in itertools.permutations(elems):
        star = dict(zip(elems, image))
        if any(star[star[e]] != e for e in elems):
            continue
        for bits in range(1 << 8):
            triples = frozenset(t for i, t in enumerate(
                itertools.product(elems, repeat=3)) if bits >> i & 1)
            m = ModelStructure("b", elems, "0", star, triples)
            if oracle_postulates(m).passes(required):
                expected.add((tuple(sorted(star.items())), triples))
    found = [(tuple(sorted(m.star.items())), m.triples)
             for m in enumerate_structures(size, required)]
    assert len(found) == len(set(found))
    assert set(found) == expected


# sha256 of the repr of [(sorted star items, sorted triples)] over the 29
# structures, recorded from the enumerator that audited one candidate at a
# time with the oracle's loops
DIGEST_3_P1_P6 = "fb23438a26f87f91e78010ae80758c02dbe670af6e077f66cbfb9a5f18505c85"


def test_size3_p1_to_p6_enumeration_is_pinned():
    found = list(enumerate_structures(3, P1_P6))
    assert len(found) == 29
    digest = hashlib.sha256(repr([(sorted(m.star.items()), sorted(m.triples))
                                  for m in found]).encode()).hexdigest()
    assert digest == DIGEST_3_P1_P6
    assert [m.name for m in found] == [f"enum3_{i}" for i in range(29)]
    for m in found:
        assert oracle_postulates(m).passes(P1_P6)


def test_size4_enumeration_under_the_cap():
    # the postulates K1..K4 meet leave 512 candidates at size 4
    required = P1_P6 + ("comm", "normal", "crstar")
    assert sum(len(R) for _, R in models._candidates(4, frozenset(required))) == 512
    found = list(enumerate_structures(4, required))
    assert len(found) == 256
    assert all(oracle_postulates(m).passes(required) for m in found)


def _unclosed_listing(monkeypatch, size, required):
    """The listing of the candidates that `_candidates` builds without the
    implications of `models._IMPLIED`, filtered by `_passing`, and the
    number of candidates."""
    monkeypatch.setattr(models, "_IMPLIED", ())
    elems = tuple(str(i) for i in range(size))
    named = list(itertools.product(elems, repeat=3))
    listing, candidates = [], 0
    for star, R in models._candidates(size, frozenset(required)):
        candidates += len(R)
        images = sorted((elems[a], elems[b]) for a, b in enumerate(star.tolist()))
        for row in R[models._passing(R, star, 0, required)].reshape(-1, size ** 3).tolist():
            listing.append((f"enum{size}_{len(listing)}", images,
                            sorted(itertools.compress(named, row))))
    return listing, candidates


@pytest.mark.parametrize("size,required,found,unclosed", [
    (2, P1_P6, 4, 24), (3, P1_P6, 29, 57344),
    (3, ("p1", "p3", "p4", "p5"), 75, 229376),
    (3, ("p1", "p3", "p4", "p5", "crstar"), 35, 16384)])
def test_the_comm_closure_drops_only_candidates_that_fail(monkeypatch, size, required,
                                                          found, unclosed):
    # p1, p3 and p4 imply comm, so the candidates closed under it are the
    # unclosed ones that can pass, visited in the same order
    closed = _listing(enumerate_structures(size, required))
    listing, candidates = _unclosed_listing(monkeypatch, size, required)
    assert (len(closed), candidates) == (found, unclosed)
    assert closed == listing


def test_p1_p3_and_p4_imply_comm():
    elems = ("0", "1")
    passing = 0
    for image in (("0", "1"), ("1", "0")):
        for bits in range(1 << 8):
            triples = frozenset(t for i, t in enumerate(
                itertools.product(elems, repeat=3)) if bits >> i & 1)
            report = check_postulates(ModelStructure("b", elems, "0", dict(zip(elems, image)),
                                                     triples))
            if report.passes(("p1", "p3", "p4")):
                assert report.flags["comm"], triples
                passing += 1
    assert passing == 16


def test_queries_that_imply_comm_reach_size4():
    # without the implication (4, p1..p6) has more candidates than the cap;
    # the query with comm visits its orbits in another order
    def structures(required):
        return {(tuple(sorted(m.star.items())), m.triples)
                for m in enumerate_structures(4, required)}

    assert sum(len(R) for _, R in models._candidates(4, frozenset(P1_P6))) == 204800
    found = structures(P1_P6)
    assert len(found) == 852 and found == structures(P1_P6 + ("comm",))
    found = structures(P1_P6 + ("normal", "crstar"))
    assert len(found) == 256 and found == structures(P1_P6 + ("comm", "normal", "crstar"))


K5_SET = ("p1", "p2", "p4", "p6", "p3prime", "p5prime", "normal", "crstar")
# sha256 of the repr of [(star.tolist(), R.tobytes())] over the chunks of
# _candidates without the implications of models._IMPLIED, recorded from the
# enumerator that closed orbits over tuples
CANDIDATE_DIGESTS = {
    (2, ()): "21620da28dec2b05a3ea62fcb0d5df75eddda44367b1a5426d18051ca61c4f52",
    (2, ("p1",)): "60882efc50441de14bb0382be333354233c39de3a0902b2d0700b72c4255e058",
    (2, ("comm",)): "738ef402238b5d4383b75374cb5425eef41e7c29582f285dc078a9b74940e558",
    (2, ("normal",)): "ed5fd89d177141dc74d4fa82a175ed38d8049b7fc87cf74f2e9bab308bc56be1",
    (2, P1_P6): "a633dc8c0ff8b77eb8e628ade2730c46d294478ca8e24fab6583bf50a02e866d",
    (3, P1_P6 + ("comm",)):
        "bff1350c16546e475197dac0f9080dee81e1503741b2e119592991797d745f5c",
    (3, P1_P6 + ("normal", "comm")):
        "0c26b552ac8786d410249c005cfbd30a32e401383888fdafeaa5b67f17122cab",
    (3, ("crstar", "p5", "comm")):
        "237b25e10788f568046198af3eb0216b37050cb8da967e729e1268a998217fc8",
    (4, P1_P6 + ("comm", "normal", "crstar")):
        "85c6793ea37b5fe0ac738437556223bda563ce555d8daf484111855d96a058d0",
    (4, K5_SET): "781e4c19ceaa649cb873d989a08f7194a164dedada80367665ebd0c7cfadc656",
}


# the same digest of the streams that an implication closes further
CLOSED_DIGESTS = {
    (2, P1_P6): "76bac6ea585c7cacd31c2310801b38c617e586e272ebb580fb95dd196406d80f",
}


@pytest.mark.parametrize("size,required", list(CANDIDATE_DIGESTS))
def test_candidate_stream_is_pinned(monkeypatch, size, required):
    def digest():
        stream = [(star.tolist(), R.tobytes())
                  for star, R in models._candidates(size, frozenset(required))]
        return hashlib.sha256(repr(stream).encode()).hexdigest()

    assert digest() == CLOSED_DIGESTS.get((size, required), CANDIDATE_DIGESTS[size, required])
    monkeypatch.setattr(models, "_IMPLIED", ())
    assert digest() == CANDIDATE_DIGESTS[size, required]


@pytest.mark.parametrize("size,required", list(CANDIDATE_DIGESTS))
def test_candidate_stream_does_not_depend_on_the_chunk_size(monkeypatch, size, required):
    # chunks of 1 and 8 put every bit, or all but the lowest three, in the
    # row OR-ed onto a star map's first chunk; 1024 holds any map here whole
    streams = []
    for chunk in (1, 8, 64, 1024):
        monkeypatch.setattr(models, "_CHUNK", chunk)
        pairs = list(models._candidates(size, frozenset(required)))
        assert all(0 < len(R) <= chunk for _, R in pairs)
        assert not pairs[0][1].flags.writeable      # later chunks are read off it
        streams.append((np.concatenate([np.tile(star, (len(R), 1)) for star, R in pairs]),
                        np.concatenate([R for _, R in pairs])))
    for stars, rows in streams[:-1]:
        assert np.array_equal(stars, streams[-1][0])
        assert np.array_equal(rows, streams[-1][1])


def test_candidates_refuse_a_chunk_that_is_not_a_power_of_two(monkeypatch):
    monkeypatch.setattr(models, "_CHUNK", 7)
    with pytest.raises(ValueError, match="power of two, not 7"):
        models._candidates(2, ())


# the postulates _candidates builds its candidates to meet; p6 holds too,
# since every star map is an involution
BUILT = ("p1", "p2", "p5", "p5prime", "comm", "crstar", "normal")


@pytest.mark.parametrize("size,candidates", [(2, 2648), (3, 448352), (4, 413696)])
def test_candidates_meet_the_postulates_they_are_built_for(monkeypatch, size, candidates):
    # every query of at most 2**16 candidates, in all `candidates` of them
    monkeypatch.setattr(models, "DEFAULT_VALUATION_CAP", 1 << 16)
    audited = 0
    for k in range(len(BUILT) + 1):
        for required in itertools.combinations(BUILT, k):
            try:
                for star, R in models._candidates(size, frozenset(required)):
                    kept = models._passing(R, star, 0, set(required) | {"p6"})
                    assert kept.tolist() == list(range(len(R))), required
                    audited += len(R)
            except TooManyValuations:
                pass
    assert audited == candidates


def test_k5_set_enumeration_under_the_cap():
    assert sum(len(R) for _, R in models._candidates(4, frozenset(K5_SET))) == 1024
    found = list(enumerate_structures(4, K5_SET))
    assert len(found) == 318
    assert all(oracle_postulates(m).passes(K5_SET) for m in found)


def _star_maps(rng, n):
    """Two random involutions and a random map, as index arrays."""
    maps = []
    for _ in range(2):
        order, star = rng.permutation(n), np.arange(n)
        for a, b in zip(order[::2], order[1::2]):
            if rng.random() < 0.5:
                star[a], star[b] = b, a
        maps.append(star)
    return maps + [rng.integers(0, n, n)]


def _relations(rng, n, count=48):
    """Relations from empty to full: full ones less random holes, at a
    density drawn per relation, so that some pass each postulate."""
    holes = rng.choice([0.0, 0.01, 0.05, 0.2, 0.6, 1.0], size=(count, 1, 1, 1))
    return rng.random((count, n, n, n)) >= holes


def _structure_of(R, star, zero):
    """The structure on elements "0".."n-1" whose relation is the boolean
    (n, n, n) array R, with star map and zero as indices."""
    elements = tuple(str(i) for i in range(len(R)))
    return ModelStructure("batch", elements, elements[zero],
                          {elements[a]: elements[b] for a, b in enumerate(star)},
                          frozenset((elements[a], elements[b], elements[c])
                                    for a, b, c in zip(*np.nonzero(R))))


def test_passing_keeps_exactly_the_rows_every_tensor_clears():
    # _passing audits cheap postulates first, each on the survivors of the
    # ones before; it must keep what the audit of each relation on its own
    # keeps (check_postulates, which test_audit_agrees_with_oracle ties to
    # the set-based oracle), in order
    rng = np.random.default_rng(33)
    rejected = dict.fromkeys(POSTULATE_NAMES, 0)   # rows each postulate drops first
    kept = 0
    for n in range(1, 5):
        for zero in range(n):
            for star in _star_maps(rng, n):
                for k in (12, 1, 2, 4, 6):
                    required = [str(x) for x in rng.choice(POSTULATE_NAMES, k, replace=False)]
                    R = _relations(rng, n)
                    flags = [check_postulates(_structure_of(r, star, zero)).flags for r in R]
                    clean = np.ones(len(R), dtype=bool)
                    for name in models._audit_table(tuple(star.tolist()), zero).rows:
                        if name in required:
                            ok = np.array([f[name] for f in flags])
                            rejected[name] += int((clean & ~ok).sum())
                            clean &= ok
                    rows = models._passing(R, star, zero, required)
                    assert rows.tolist() == np.flatnonzero(clean).tolist(), (n, required)
                    kept += len(rows)
    assert min(rejected.values()) > 0, rejected
    assert kept > 0


class _Unreadable:
    """A batch of relations that only tells its length: any other use of it
    is an error."""

    def __init__(self, length):
        self.length = length

    def __len__(self):
        return self.length

    def __getattr__(self, name):
        raise AssertionError(f"the relations were read (.{name})")

    def __getitem__(self, key):
        raise AssertionError("the relations were read")

    def __array__(self, *args, **kwargs):
        raise AssertionError("the relations were read")


def test_passing_decides_p6_and_normal_from_the_star_map_alone():
    not_involutive = np.array([1, 1, 2])     # 0** = 1
    moves_zero = np.array([1, 0, 2])         # an involution with 0* = 1
    involution = np.array([0, 2, 1])
    everything = POSTULATE_NAMES
    assert models._passing(_Unreadable(64), not_involutive, 0, everything).tolist() == []
    assert models._passing(_Unreadable(64), moves_zero, 0, ("normal", "p3", "p4")).tolist() == []
    assert models._passing(_Unreadable(64), moves_zero, 0, ("p6", "normal")).tolist() == []
    # 2* = 2, so the same map with zero 2 passes both, again unread
    assert models._passing(_Unreadable(5), moves_zero, 2, ("p6", "normal")).tolist() == [0, 1, 2, 3, 4]
    assert models._passing(_Unreadable(3), involution, 0, ("normal",)).tolist() == [0, 1, 2]
    # past p6 and normal, the relations decide
    full = np.ones((4, 1, 1, 1), dtype=bool)
    assert models._passing(full, np.array([0]), 0, everything).tolist() == [0, 1, 2, 3]


# the fancy-index and transpose forms that the flat gathers of the audit rows replaced
OLD_CLOSURES = {
    "p5": lambda R, star: R & ~R[:, :, star][:, :, :, star].transpose(0, 1, 3, 2),
    "p5prime": lambda R, star: R & ~R[:, star][:, :, :, star].transpose(0, 2, 3, 1),
    "comm": lambda R, star: R & ~R.transpose(0, 2, 1, 3),
}


def test_closure_gathers_match_the_index_forms():
    rng = np.random.default_rng(34)
    for n in range(1, 5):
        for star in _star_maps(rng, n):
            R = _relations(rng, n, 16)
            rows = models._audit_table(tuple(star.tolist()), 0).rows
            for name, old in OLD_CLOSURES.items():
                fails = R & ~R.reshape(len(R), -1)[:, rows[name].asked].reshape(R.shape)
                assert np.array_equal(fails, old(R, star)), (n, star, name)


# the seed masks that _candidates wrote by hand before it read them off the
# constant sides of the audit rows: triples forced in, triples forced out,
# and whether the star map is refused
def OLD_SEEDS(n, star, required):
    a, b, c = np.indices((n, n, n)).reshape(3, -1)
    forced_in = (a == 0) & (b == c) & bool(required & {"p1", "crstar"})
    forced_in |= (a == b) & (b == c) & ("p2" in required)
    forced_out = (a == 0) & (b != c) & ("crstar" in required)
    return forced_in, forced_out, "normal" in required and star[0] != 0


def test_seeds_read_off_the_rows_match_the_hand_written_masks():
    # the other rows have no constant side under an involution, so adding
    # them changes nothing
    seeding = ("p1", "p2", "crstar", "normal")
    others = frozenset(POSTULATE_NAMES) - set(seeding)
    for n in range(1, 5):
        for star in itertools.permutations(range(n)):
            if any(star[j] != i for i, j in enumerate(star)):
                continue
            audit = models._audit_table(star, 0)
            for k in range(len(seeding) + 1):
                for required in map(frozenset, itertools.combinations(seeding, k)):
                    want_in, want_out, want_refused = OLD_SEEDS(n, star, required)
                    for names in (required, required | others):
                        forced_in, forced_out, refused = audit.seeds(names)
                        got_in, got_out = np.zeros((2, n ** 3), dtype=bool)
                        got_in[forced_in] = got_out[forced_out] = True
                        assert np.array_equal(got_in, want_in), (star, names)
                        assert np.array_equal(got_out, want_out), (star, names)
                        assert refused == want_refused, (star, names)


def test_audit_tables_are_kept_within_the_store_bound(monkeypatch):
    store = CACHES["audit tables"]
    store.clear()
    table_bytes = models._Audit((0, 1, 2), 0).nbytes
    monkeypatch.setattr(store, "bound", 2 * table_bytes)
    rng = random.Random(39)
    elements = ("0", "1", "2")
    triples = frozenset(t for t in itertools.product(elements, repeat=3) if rng.random() < 0.6)
    structures = [ModelStructure("s", elements, "0", dict(zip(elements, images)), triples)
                  for images in itertools.product(elements, repeat=3)]
    reports, kept = [], set()
    for m in structures:
        reports.append(check_postulates(m))
        assert store.weight == sum(t.nbytes for t in store.values())
        assert store.weight <= 2 * table_bytes
        kept.add(len(store))
    assert kept == {1, 2}  # past the bound the store keeps the newest table
    assert [check_postulates(m) for m in structures] == reports
    # a table larger than the bound is built, used and kept alone
    monkeypatch.setattr(store, "bound", table_bytes - 1)
    assert check_postulates(structures[5]) == reports[5]
    (table,) = store.values()
    assert table.key[0] == tuple(structures[5].index(structures[5].star[e])
                                 for e in structures[5].elements)
    assert store.weight == table.nbytes > table_bytes - 1


def test_a_value_past_the_store_bound_is_built_once(monkeypatch):
    """A table larger than the bound is kept until another is built, so
    repeated audits of one structure build it once; the plans it grows
    are counted."""
    store = CACHES["audit tables"]
    store.clear()
    monkeypatch.setattr(store, "bound", 1000)
    built = []

    class Counted(models._Audit):
        def __init__(self, *key):
            built.append(key)
            super().__init__(*key)

    monkeypatch.setattr(models, "_Audit", Counted)
    k3 = get_structure("K3")
    reports = [check_postulates(k3) for _ in range(3)]
    assert reports[0] == reports[1] == reports[2]
    assert len(built) == 1
    (table,) = store.values()
    assert store.weight == table.nbytes > 1000
    table.plan("p3")  # a plan grows the table the store keeps, and is counted
    assert store.weight == table.nbytes == sum(x.nbytes for x in _owned_arrays(table).values())
    assert check_postulates(k3) == reports[0] and len(built) == 1


def _owned_arrays(value, seen=None) -> dict:
    """Every numpy array that value holds and that owns its memory, by id:
    the arrays among its attributes, items and elements, at any depth."""
    seen = {} if seen is None else seen
    if isinstance(value, np.ndarray):
        if value.base is None:
            seen[id(value)] = value
        else:  # a view holds the array it views
            _owned_arrays(value.base, seen)
    elif isinstance(value, dict):
        for item in value.values():
            _owned_arrays(item, seen)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _owned_arrays(item, seen)
    elif hasattr(value, "__dict__"):
        _owned_arrays(vars(value), seen)
    return seen


def test_the_audit_store_counts_the_plans_it_holds(monkeypatch):
    store = CACHES["audit tables"]
    store.clear()
    audit = models._audit_table(tuple(range(7, -1, -1)), 0)
    table_bytes = store.weight
    for name in audit.rows:
        audit.plan(name)
    held = _owned_arrays(store)
    assert store.weight == audit.nbytes == sum(x.nbytes for x in held.values())
    assert store.weight > table_bytes  # the plans hold gathers of their own
    # a plan built on a table the store no longer keeps is not counted
    store.clear()
    models._Audit(tuple(range(8)), 0).plan("p3")
    assert store.weight == 0


# ------------------------------------------------------------------
# Model files
# ------------------------------------------------------------------

def test_model_file_roundtrip():
    text = dump_model_file(K3)
    again = load_model_file(text)
    assert again.same_as(K3)


def test_model_file_triples_only():
    lines = ["model tiny", "elements 0 1", "zero 0", "star 0:0 1:1",
             "triples", "0 0 0", "0 1 1", "1 1 1", "end"]
    m = load_model_file("\n".join(lines))
    assert m.triples == {("0", "0", "0"), ("0", "1", "1"), ("1", "1", "1")}


def test_model_file_crosscheck_mismatch():
    bad = (dump_model_file(K4).rstrip() + "\ntriples\n0 0 0\nend\n")
    with pytest.raises(Exception):
        load_model_file(bad)


def test_truncated_model_files_are_parse_errors():
    head = "model tiny\nelements 0 a a*\nzero 0\nstar 0:0 a:a* a*:a\n"
    table = head + "table\n{0} {a} {a*}\n{a} {a} {0,a,a*}\n"
    triples = head + "triples\n0 0 0\n0 a a\n"
    for text in (table, triples):  # a table row short, and no 'end'
        with pytest.raises(ParseError):
            load_model_file(text)
    assert len(load_model_file(table + "{a*} {0,a,a*} {a*}\n").triples) == 13
    assert len(load_model_file(triples + "end\n").triples) == 2


@pytest.mark.parametrize("elements, zero, star, triples, message", [
    (("0", "a", "0"), "0", {"0": "0", "a": "a"}, (), "elements must be distinct"),
    (("0", "a"), "z", {"0": "0", "a": "a"}, (), "zero must be an element"),
    (("0", "a"), "0", {"0": "0"}, (), "star must be a total map on the elements"),
    (("0", "a"), "0", {"0": "0", "a": "a", "b": "b"}, (),
     "star must be a total map on the elements"),
    (("0", "a"), "0", {"0": "zz", "a": "b"}, (), "star maps to unknown element b"),
    (("0", "a"), "0", {"0": "0", "a": "a"}, [("0", "0", "0"), ("a", "a", "w")],
     "triple ('a', 'a', 'w') mentions unknown element w"),
    (("0", "a"), "0", {"0": "0", "a": "a"}, [("0", "x", "a"), ("a", "y", "0"), ("z", "a", "a")],
     "triple ('0', 'x', 'a') mentions unknown element x"),
])
def test_invalid_structures_are_refused(elements, zero, star, triples, message):
    with pytest.raises(ValueError) as e:
        ModelStructure("bad", elements, zero, star, frozenset(triples))
    assert str(e.value) == message


BAD_TRIPLES = ("model bad\nelements 0 a\nzero 0\nstar 0:0 a:a\n"
               "triples\n0 0 0\n0 x a\na y 0\nz a a\nend\n")


def test_the_least_bad_triple_is_reported_under_any_hash_seed():
    # the triples are a set, whose order follows the hash seed
    code = ("import sys; from tarl.models import load_model_file\n"
            "try: load_model_file(sys.argv[1])\n"
            "except ValueError as e: print(e)")
    src = str(Path(models.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [subprocess.run([sys.executable, "-c", code, BAD_TRIPLES], capture_output=True,
                           text=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}).stdout
            for seed in "01"]
    assert outs == ["line 5, column 1: expected a valid 'triples' section (triple "
                    "('0', 'x', 'a') mentions unknown element x), found 'triples'\n"] * 2


def test_copied_structure_gets_fresh_tables():
    import dataclasses

    tables_for(K3)
    fewer = frozenset(sorted(K3.triples)[1:])
    copy = dataclasses.replace(K3, triples=fewer)
    tab = tables_for(copy)
    assert tab is not tables_for(K3)
    for x, y in itertools.product(all_subsets(copy), repeat=2):
        fused = tab.fus[tab.mask_of(copy, x)][tab.mask_of(copy, y)]
        assert tab.subsets[fused] == op_fusion(copy, x, y)
    with pytest.raises(dataclasses.FrozenInstanceError):
        K3.triples = fewer


def test_star_map_cannot_change_under_cached_tables():
    import dataclasses

    images = dict(K4.star)
    m = ModelStructure("K4copy", K4.elements, K4.zero, images, K4.triples)
    f = parse_formula("(p -> p) -> q | ~q")
    before = valid_in(m, f).valid
    images["a"], images["a*"] = "a", "a*"      # the caller's dict is not the map
    for key, image in (("a", "a"), ("a*", "a*"), ("zz", "a")):
        with pytest.raises(TypeError):
            m.star[key] = image
    assert dict(m.star) == dict(K4.star)
    assert valid_in(m, f).valid == before == valid_in(dataclasses.replace(K4), f).valid


@pytest.mark.parametrize("how", ["pickle", "deepcopy", "copy", "replace"])
def test_copies_of_a_structure_build_their_own_tables(how):
    import copy
    import dataclasses
    import pickle

    m = dataclasses.replace(K4)
    tables_for(m)
    again = {"pickle": lambda: pickle.loads(pickle.dumps(m)),
             "deepcopy": lambda: copy.deepcopy(m), "copy": lambda: copy.copy(m),
             "replace": lambda: dataclasses.replace(m)}[how]()
    assert again == m and again.same_as(m) and again is not m
    assert again._tables is None and again._relation is None
    assert tables_for(again) is not tables_for(m)
    with pytest.raises(TypeError):
        again.star["a"] = "a"
    f = parse_formula("(p -> p) -> q | ~q")
    assert valid_in(again, f).valid == valid_in(m, f).valid


def test_a_structure_builds_its_flat_relation_once(monkeypatch):
    import dataclasses

    builds = []
    flat = models._flat
    monkeypatch.setattr(models, "_flat", lambda m: builds.append(m.name) or flat(m))
    m = dataclasses.replace(K5)
    tables_for(m)
    reports = [check_postulates(m), check_postulates(m)]
    assert builds == ["K5"]
    assert reports[0] == reports[1] == oracle_postulates(m)
    R, star, _ = models._tensor(m)
    assert not R.flags.writeable and not star.flags.writeable
