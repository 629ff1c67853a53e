import dataclasses
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tarl import algebra, models
from tarl.algebra import (
    IDENT, ONE, ZERO, ChainReport, Comp, Compl, ComplexAlgebra, Conv, DERIVED_LAWS, Ident,
    IdentityResult, Join, Law, Meet, One, ProperAlgebra, RATerm, RVar, TARSKI_AXIOMS, TERMS,
    Zero, check_chain, eval_term, get_law, holds_law, parse_chain, parse_ra_term,
    print_ra_term, sample_relations, term_variables, translate, verified_in_algebra,
)
from tarl.formulas import (
    FORMULAS, And, Fusion, Imp, Neg, Node, Or, Var, desugar_fusion, parse_formula, variables,
)
from tarl.gen import random_formula
from tarl.models import TooManyValuations, Valuation, interpret, op_fusion, op_star
from tarl.registry import data_dir, formula_names, get_formula, get_structure, list_corpus
from test_models import seeded_structure

SRC = Path(algebra.__file__).resolve().parent.parent
CK = {name: ComplexAlgebra(get_structure(name))
      for name in ("K1", "K2", "K3", "K4", "K5")}


# ------------------------------------------------------------------
# Terms and translation
# ------------------------------------------------------------------

def test_term_parse_precedence():
    assert parse_ra_term("x;y.z + w") == parse_ra_term("((x;y).z) + w")
    assert parse_ra_term("-x^") == parse_ra_term("-(x^)")
    assert parse_ra_term("x;y;z") == parse_ra_term("(x;y);z")


def test_term_print_roundtrip():
    for text in ["x;y.z + w", "-(x^);y", "(x + y)^", "id;x", "1 + 0",
                 "x^;-(x;y) + -y"]:
        t = parse_ra_term(text)
        assert parse_ra_term(print_ra_term(t)) == t


def test_terms_are_interned_nodes():
    assert parse_ra_term("x;(y;z)") is parse_ra_term("x;(y;z)")
    assert parse_ra_term("x;(y;z)") is Comp(RVar("x"), Comp(RVar("y"), RVar("z")))
    assert translate(parse_formula("p o q")) is Comp(RVar("q"), RVar("p"))
    for cls in (RATerm, RVar, Join, Meet, Comp, Compl, Conv, Ident, Zero, One):
        assert issubclass(cls, Node) and not dataclasses.is_dataclass(cls)
    with pytest.raises(AttributeError):
        RVar("x").name = "y"


def test_names_that_begin_with_id_are_variables():
    # the identifier is read whole; only the whole word `id` is the constant
    assert parse_ra_term("idx") == RVar("idx")
    assert parse_ra_term("idle;x") == Comp(RVar("idle"), RVar("x"))
    assert parse_ra_term("identity^") == Conv(RVar("identity"))
    assert parse_ra_term("id;idx") == Comp(IDENT, RVar("idx"))
    for text in ("idx", "idle;x", "identity^"):
        assert print_ra_term(parse_ra_term(text)) == text
    idle = translate(parse_formula("idle -> q"))
    assert parse_ra_term(print_ra_term(idle)) == idle


@pytest.mark.parametrize("name", ["id", "0", "1", "X", ""])
def test_a_variable_spelled_as_a_token_does_not_print(name):
    with pytest.raises(ValueError):
        print_ra_term(RVar(name))
    with pytest.raises(ValueError):
        print_ra_term(Join(RVar("x"), Conv(RVar(name))))


def test_a_variable_named_id_is_evaluated_by_name():
    # translate(id -> ~q ...) has an RVar("id") that cannot be printed, but
    # evaluation reads variables by name, so the verdict is that of contra
    renamed = parse_formula("(id -> ~q) -> (q -> ~id)")
    assert verified_in_algebra(CK["K3"], renamed).passed
    res = verified_in_algebra(CK["K5"], renamed)
    want = verified_in_algebra(CK["K5"], get_formula("contra").formula)
    assert (res.passed, res.checked) == (want.passed, want.checked)
    assert res.counterexample == {"id": want.counterexample["p"], "q": want.counterexample["q"]}


def test_translate_implication_is_residuation():
    assert translate(parse_formula("p -> q")) == parse_ra_term("-(p^;-q)")


def test_translate_fusion_swaps_order():
    assert translate(parse_formula("p o q")) == parse_ra_term("q;p")


def test_translate_negation_is_converse_complement():
    assert translate(parse_formula("~p")) == parse_ra_term("(-p)^")


def test_translate_commutes_with_desugaring():
    rng = random.Random(5)
    k3 = CK["K3"]
    for _ in range(150):
        f = random_formula(rng, 9, ["p", "q", "r"])
        t1, t2 = translate(f), translate(desugar_fusion(f))
        env = {name: frozenset({"a"}) for name in ("p", "q", "r")}
        assert eval_term(k3, env, t1) == eval_term(k3, env, t2)


# ------------------------------------------------------------------
# Evaluation
# ------------------------------------------------------------------

def test_algebras_describe_themselves():
    # the benchmark's known-answer messages name an algebra this way
    assert CK["K3"].describe() == "complex algebra of K3"
    assert ProperAlgebra(3).describe() == "proper algebra over a 3-element base"


def test_proper_eval_examples():
    alg = ProperAlgebra(2)
    conv = parse_ra_term("x^")
    assert eval_term(alg, {"x": {(0, 1)}}, conv) == {(1, 0)}
    comp = parse_ra_term("id;x")
    assert eval_term(alg, {"x": {(0, 1), (1, 1)}}, comp) == {(0, 1), (1, 1)}


def test_complex_eval_examples():
    k4 = CK["K4"]
    assert eval_term(k4, {"x": {"a"}}, parse_ra_term("x;x")) == {"a"}
    assert eval_term(k4, {}, parse_ra_term("id")) == {"0"}
    assert eval_term(k4, {}, parse_ra_term("1")) == set(k4.structure.elements)


def test_fusion_order_regression_on_noncommutative_k5():
    # {a} o {b} and {b} o {a} differ in K5; the term x;y must follow the
    # opposite-order convention so that translate(p o q) evaluates like
    # the model-side fusion.
    k5 = CK["K5"]
    f = parse_formula("p o q")
    env = {"p": frozenset({"a"}), "q": frozenset({"b"})}
    model_value = interpret(get_structure("K5"), Valuation(env), f)
    term_value = eval_term(k5, env, translate(f))
    assert term_value == model_value
    flipped = eval_term(k5, {"p": env["q"], "q": env["p"]}, translate(f))
    assert flipped != term_value


def test_unassigned_variable():
    with pytest.raises(KeyError):
        eval_term(ProperAlgebra(3), {}, parse_ra_term("x"))


def test_an_unknown_element_is_named():
    k5 = ComplexAlgebra(get_structure("K5"))
    with pytest.raises(ValueError, match="'zz' is not an element of K5"):
        eval_term(k5, {"x": {"zz"}}, parse_ra_term("x;x"))


# ------------------------------------------------------------------
# Identity testing
# ------------------------------------------------------------------

def test_refleq_exhaustive_in_peircean_complexes():
    law = get_law("refleq")
    for name in ("K3", "K4", "K5"):
        assert holds_law(CK[name], law).passed


def test_refleq_fails_in_k1_at_published_assignment():
    law = get_law("refleq")
    env = {"x": {"a"}, "y": {"a"}, "z": {"b"}, "w": {"a"}}
    lhs = eval_term(CK["K1"], env, law.lhs)
    rhs = eval_term(CK["K1"], env, law.rhs)
    assert lhs == {"b"} and rhs == frozenset()
    result = holds_law(CK["K1"], law)
    assert not result.passed


def test_axioms_hold_on_random_proper_algebras():
    for base in (2, 3, 4, 5):
        alg = ProperAlgebra(base)
        for name, law in TARSKI_AXIOMS.items():
            r = holds_law(alg, law, trials=300, seed=base)
            assert r.passed, (base, name)


def test_derived_laws_hold_in_peircean_complexes():
    for name, law in DERIVED_LAWS.items():
        for alg_name in ("K3", "K4", "K5"):
            assert holds_law(CK[alg_name], law).passed, (name, alg_name)


def test_conditional_law_filters_premises():
    # dra1 has a premise x <= y; with the premise dropped it is false
    law = get_law("dra1")
    assert holds_law(CK["K3"], law).passed
    unconditional = Law("broken", law.lhs, law.rel, law.rhs)
    assert not holds_law(CK["K3"], unconditional).passed


def test_exhaustive_laws_respect_the_cap(monkeypatch):
    monkeypatch.setattr(models, "DEFAULT_VALUATION_CAP", 16 ** 4 - 1)
    with pytest.raises(TooManyValuations):
        holds_law(CK["K5"], get_law("refleq"))
    monkeypatch.setattr(models, "DEFAULT_VALUATION_CAP", 16 ** 4)
    assert holds_law(CK["K5"], get_law("refleq")).checked > 0


def test_ra9_random_trials():
    law = get_law("ra9")
    assert holds_law(ProperAlgebra(3), law, trials=500, seed=1).passed


@pytest.mark.parametrize("trials", [0, -5])
def test_sampled_laws_need_a_trial(trials):
    with pytest.raises(ValueError):
        holds_law(ProperAlgebra(3), get_law("ra1"), trials=trials)
    with pytest.raises(ValueError):
        verified_in_algebra(ProperAlgebra(3), parse_formula("p -> p"), trials=trials)


def test_mingle_counterexample_on_proper_base():
    # the mingle axiom needs transitive relations; random relations refute it
    f = get_formula("ming").formula
    result = verified_in_algebra(ProperAlgebra(5), f, trials=500, seed=3)
    assert not result.passed
    rel = result.counterexample["p"]
    pairs = set(rel)
    assert any((a, b) in pairs and (b, c) in pairs and (a, c) not in pairs
               for (a, b) in pairs for (b2, c) in pairs if b2 == b)


def test_sampling_is_deterministic():
    a = sample_relations(4, ["x", "y"], seed=9, trial=17)
    b = sample_relations(4, ["x", "y"], seed=9, trial=17)
    assert a == b
    c = sample_relations(4, ["x"], seed=9, trial=18)
    assert c["x"] != a["x"]


def test_batched_samples_do_not_depend_on_block_boundaries():
    # trials 499 and 500 sit on either side of the first block boundary
    carrier = algebra._carrier(ProperAlgebra(4))
    rows = np.concatenate([env["y"] for _, env in carrier.batches(["x", "y"], 1200, 6)])
    assert rows.shape == (1200, 4, 4)
    for t in (0, 499, 500, 1199):
        assert carrier.decode(rows[t]) == sample_relations(4, ["y"], seed=6, trial=t)["y"]


def test_samples_do_not_depend_on_the_hash_seed():
    code = ("from tarl.algebra import sample_relations;"
            "print(sorted((k, sorted(v)) for k, v in"
            " sample_relations(5, ['x', 'yy'], seed=4, trial=77).items()))")
    outs = []
    for hash_seed in ("1", "2"):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout)
    assert outs[0] == outs[1] and outs[0].startswith("[('x', [")


def test_sample_stream_is_pinned():
    # (n, name, seed, trial) -> the n*n-bit word; a change here changes
    # every sampled verdict and counterexample
    table = {(2, "x", 0, 0): 9, (2, "y", 0, 0): 0, (3, "x", 0, 1): 116,
             (4, "p", 7, 499): 6831, (5, "q", 3, 500): 19481455,
             (6, "x", 1, 2 ** 20): 25419713319}
    for (n, name, seed, trial), word in table.items():
        assert int(algebra._sample_block(n, name, seed, [trial])[0]) == word


def _splitmix_word(n, name, seed, trial):
    """The sampled word in Python integers, the reference for numpy's
    wrapping uint64 arithmetic."""
    mask = 2 ** 64 - 1
    key = int.from_bytes(hashlib.blake2b(f"{seed}:{name}".encode(), digest_size=8).digest(),
                         "little")
    z = (key + (trial + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ z >> 30) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ z >> 27) * 0x94D049BB133111EB) & mask
    return (z ^ z >> 31) >> (64 - n * n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sample_block_agrees_with_python_integers(n):
    trials = list(range(0, 3000, 7))
    words = algebra._sample_block(n, "y", 11, trials)
    assert [int(w) for w in words] == [_splitmix_word(n, "y", 11, t) for t in trials]


def test_sampled_bits_are_balanced():
    words = algebra._sample_block(5, "x", 0, np.arange(10_000))
    bits = words[:, None] >> np.arange(25, dtype=np.uint64) & 1
    assert 0.48 <= bits.mean() <= 0.52
    assert all(0.48 <= share <= 0.52 for share in bits.mean(axis=0))


# ------------------------------------------------------------------
# verified_in_algebra
# ------------------------------------------------------------------

def test_identity_inclusion_mirrors_model_validity():
    k4 = CK["K4"]
    assert verified_in_algebra(k4, parse_formula("p -> p")).passed
    contra = get_formula("contra").formula
    res = verified_in_algebra(CK["K5"], contra)
    assert not res.passed
    assert res.counterexample == {"p": frozenset({"a"}), "q": frozenset({"b"})}


def test_reflection_verified_in_k3_for_all_assignments():
    refl = get_formula("reflection").formula
    assert verified_in_algebra(CK["K3"], refl).passed


def test_reflection_fails_at_one_assignment_in_k1():
    assignment = {"p": {"a"}, "q": {"a"}, "s": {"a"}, "r": {"b"}}
    refl = translate(get_formula("reflection").formula)
    assert not eval_term(CK["K1"], assignment, IDENT) <= eval_term(CK["K1"], assignment, refl)


def term_path(alg, f, trials=500):
    """verified_in_algebra through the translated term: id <= translate(f)
    tested as a law."""
    return holds_law(alg, Law("id", IDENT, "<=", translate(f)), trials=trials)


def _random_assignment(alg, names, rng):
    if isinstance(alg, ProperAlgebra):
        return sample_relations(alg.base_size, names, rng.randrange(1000), rng.randrange(1000))
    elements = alg.structure.elements
    return {name: frozenset(e for e in elements if rng.random() < 0.5) for name in names}


DIFFERENTIAL = ([e.proof.goal for e in list_corpus()]
                + [get_formula(name).formula for name in formula_names()]
                + [random_formula(random.Random(n), n % 9 + 2, "pqr") for n in range(300)])


@pytest.mark.parametrize("alg", [*CK.values(), *map(ProperAlgebra, (2, 3, 4))],
                         ids=lambda alg: alg.describe())
def test_the_formula_path_agrees_with_the_term_path(alg):
    """The whole grid of a complex algebra and 64 samples of a proper one;
    and the formula's value through the carrier's connectives against its
    term's at two assignments, a random one and the counterexample."""
    assert any(not f._core for f in DIFFERENTIAL)  # fusion is evaluated too
    c = algebra._carrier(alg)
    rng = random.Random(7)
    past_cap = 0
    for f in DIFFERENTIAL:
        try:
            want = term_path(alg, f, trials=64)
        except TooManyValuations:
            with pytest.raises(TooManyValuations):
                verified_in_algebra(alg, f, trials=64)
            past_cap += 1
            continue
        assert verified_in_algebra(alg, f, trials=64) == want, f
        names = sorted(variables(f))
        for assignment in (_random_assignment(alg, names, rng), want.counterexample):
            if assignment is not None:
                env = {name: c.encode(value) for name, value in assignment.items()}
                assert (c.decode(FORMULAS.evaluate(f, env, c.connectives))
                        == eval_term(alg, assignment, translate(f))), (f, assignment)
    assert past_cap == (0 if isinstance(alg, ProperAlgebra) else 1)  # l5shorter


def test_verified_in_algebra_builds_no_term(monkeypatch):
    cases = [(alg, f) for alg in (CK["K5"], ProperAlgebra(3)) for f in DIFFERENTIAL[::50]]
    want = [verified_in_algebra(alg, f) for alg, f in cases]

    def no_term(*args):
        raise AssertionError("a relation-algebra term was built")

    monkeypatch.setattr(algebra, "translate", no_term)
    monkeypatch.setattr(algebra.TERMS, "evaluate", no_term)
    monkeypatch.setattr(algebra, "RVar", no_term)
    assert [verified_in_algebra(alg, f) for alg, f in cases] == want
    assert not all(r.passed for r in want) and any(r.passed for r in want)


def test_a_cached_carrier_gives_what_a_fresh_one_gives(monkeypatch):
    """Formulas and laws, interleaved across the complex algebras of K1..K5
    and proper bases 2..6: the same results on each algebra's one carrier
    as on a carrier built for every call."""
    algs = [*CK.values(), *map(ProperAlgebra, range(2, 7))]
    items = [*DIFFERENTIAL, *TARSKI_AXIOMS.values(), *DERIVED_LAWS.values()]

    def results():
        out = []
        for item in items:
            for alg in algs:
                try:
                    if isinstance(item, Law):
                        out.append(holds_law(alg, item, trials=64, seed=5))
                    else:
                        out.append(verified_in_algebra(alg, item, trials=64, seed=5))
                except TooManyValuations as e:
                    out.append(str(e))
        return out

    def fresh_carrier(alg):
        built.append(alg)
        if isinstance(alg, ProperAlgebra):
            return algebra._Matrices(alg.base_size)
        return algebra._Masks(alg.structure)

    cached = results()
    built = []
    monkeypatch.setattr(algebra, "_carrier", fresh_carrier)
    fresh = results()
    assert len(built) >= len(items) * len(algs)
    assert cached == fresh           # passed, counterexample, checked and grid
    assert any(isinstance(r, str) for r in cached)
    assert not all(r.passed for r in cached if isinstance(r, IdentityResult))


def test_algebras_share_one_carrier():
    import dataclasses

    m = dataclasses.replace(get_structure("K3"))
    tab = models.tables_for(m)
    assert tab.carrier is None       # built at the first algebra call, not with the tables
    c = algebra._carrier(ComplexAlgebra(m))
    assert tab.carrier is c and algebra._carrier(ComplexAlgebra(m)) is c
    assert algebra._carrier(ProperAlgebra(4)) is algebra._carrier(ProperAlgebra(4))
    assert algebra._carrier(ProperAlgebra(4)) is not algebra._carrier(ProperAlgebra(5))


def test_shared_carrier_constants_are_read_only():
    c = algebra._carrier(ProperAlgebra(3))
    for const in (ONE, ZERO, IDENT):
        value = TERMS.evaluate(const, {}, c.ops)
        assert value is c.ops[type(const)]   # returned as they are
        with pytest.raises(ValueError):
            value[0, 0] = value[0, 0]


def test_complex_carrier_tables_are_read_only():
    c = algebra._carrier(CK["K3"])
    for table in (c.neg, c.imp, c.tab.fus):     # shared by every caller
        with pytest.raises(ValueError):
            table[0] = table[0]


def tabulated_connectives_agree(m, masks=None):
    """Each tabulated connective of m's complex algebra against the
    translation run directly over the carrier's operations: on every mask,
    and every pair of masks as a 2-D grid, and with Python ints on every
    mask and pair drawn from `masks` (every mask when None).  The flat
    relative product must be fusion in the opposite order on that grid."""
    c = algebra._Masks(m)
    direct = algebra._connectives(c.ops)
    assert c.connectives.keys() == direct.keys()
    every = np.arange(c.tab.size)
    xs, ys = np.indices((c.tab.size, c.tab.size))
    for cls, tabulated in c.connectives.items():
        operands = (every,) if cls is Neg else (xs, ys)
        got, want = tabulated(*operands), direct[cls](*operands)
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want), (m, cls)
    assert np.array_equal(c.ops[Comp](xs, ys), c.tab.fus[ys, xs]), m
    masks = list(range(c.tab.size) if masks is None else masks)
    for x in masks:
        got, want = c.connectives[Neg](x), direct[Neg](x)
        assert type(got) is type(want) and got == want, (m, x)
        for y in masks:
            for cls in (Imp, Fusion, And, Or):
                got, want = c.connectives[cls](x, y), direct[cls](x, y)
                assert type(got) is type(want) and got == want, (m, cls, x, y)


def test_tabulated_connectives_agree_with_the_translation():
    """K1..K5 and seeded structures of sizes 1 to 5, each with the star
    maps the reversal or arbitrary and 0 anywhere."""
    rng = random.Random(46)
    cases = [alg.structure for alg in CK.values()]
    cases += [seeded_structure(rng, 1 + k % 5) for k in range(40)]
    assert any(m.zero != m.elements[0] for m in cases)
    assert any(m.star[m.star[e]] != e for m in cases for e in m.elements)
    for m in cases:
        tabulated_connectives_agree(m)


def test_identity_results_count_the_assignments_evaluated():
    k5 = CK["K5"]
    subsets = 1 << len(k5.structure.elements)
    law = holds_law(k5, get_law("dra1"))     # x;z <= y;z under x <= y
    assert law.passed and law.counters() == {"checked": law.checked, "grid": subsets ** 3}
    assert 0 < law.checked < law.grid
    sampled = holds_law(ProperAlgebra(3), get_law("ra1"), trials=1200)
    assert sampled.counters() == {"checked": 1200, "grid": 1200}
    ming = verified_in_algebra(ProperAlgebra(5), get_formula("ming").formula,
                               trials=2000, seed=3)
    assert not ming.passed and ming.grid == 500   # the first block of samples fails


@pytest.mark.parametrize("alg", [CK["K3"], ProperAlgebra(3)], ids=["K3", "proper3"])
def test_identity_result_counts_are_python_ints(alg):
    results = [holds_law(alg, get_law("ra1"), trials=50),
               holds_law(alg, get_law("dra1"), trials=50),
               verified_in_algebra(alg, get_formula("ming").formula, trials=50),
               verified_in_algebra(alg, parse_formula("p -> p"), trials=50)]
    for r in results:
        assert type(r.checked) is int and type(r.grid) is int
        assert all(type(n) is int for n in r.counters().values())


def test_complex_checks_do_not_depend_on_block_size(monkeypatch):
    """Blocks of 7 rows give each check in the complex algebras of K3..K5
    the verdict and counterexample that the default blocks give."""
    formulas = [f for f in (*(get_formula(n).formula for n in formula_names()),
                            *DIFFERENTIAL[::10]) if len(variables(f)) <= 3]
    laws = [law for law in (*TARSKI_AXIOMS.values(), *DERIVED_LAWS.values())
            if len(law.all_variables()) <= 3]
    laws.append(parse_chain("x;y . z <= w")[0])        # fails in the first block

    def results():
        return [(r.passed, r.counterexample) for alg in (CK["K3"], CK["K4"], CK["K5"])
                for r in [*(verified_in_algebra(alg, f) for f in formulas),
                          *(holds_law(alg, law) for law in laws)]]

    want = results()
    monkeypatch.setattr(models, "_FIRST_BLOCK", 7)
    monkeypatch.setattr(models, "_GRID_CHUNK", 7)
    assert results() == want
    assert any(passed for passed, _ in want) and not all(passed for passed, _ in want)


def law_path(alg, f) -> IdentityResult:
    """A complex algebra's formula check run through the law loop: id <= f's
    value through the carrier's connectives, per block of the grid."""
    return algebra._holds(alg, sorted(variables(f)), 1, 0, lambda c, env: [
        algebra._related(c, c.ops[Ident], "<=", FORMULAS.evaluate(f, env, c.connectives))])


def formula_path_agrees(m, formulas) -> list[IdentityResult]:
    """verified_in_algebra in m's complex algebra, which runs validity's
    loop, against the law loop run directly: the same `passed`,
    counterexample, `checked` and `grid`, or TooManyValuations from both.
    A trial count below 1 is refused before the cap.  Returns the results."""
    alg, out = ComplexAlgebra(m), []
    for f in formulas:
        with pytest.raises(ValueError, match="trials must be at least 1"):
            verified_in_algebra(alg, f, trials=0)
        try:
            want = law_path(alg, f)
        except TooManyValuations:
            with pytest.raises(TooManyValuations):
                verified_in_algebra(alg, f)
            continue
        got = verified_in_algebra(alg, f)
        assert (got.passed, got.counterexample, got.checked, got.grid) == (
            want.passed, want.counterexample, want.checked, want.grid), (m, f)
        assert type(got.checked) is type(got.grid) is int
        out.append(got)
    return out


@pytest.mark.parametrize("block", [None, 7, 1])
def test_the_validity_loop_agrees_with_the_law_loop(monkeypatch, block):
    """K1..K5 and seeded structures of sizes 1 to 5, with seeded formulas of
    one to three variables; with small first blocks, failures fall in the
    later blocks."""
    if block is not None:
        monkeypatch.setattr(models, "_FIRST_BLOCK", block)
    rng = random.Random(49)
    cases = [alg.structure for alg in CK.values()]
    cases += [seeded_structure(rng, 1 + k % 5) for k in range(20)]
    results = []
    for m in cases:
        formulas = [random_formula(rng, rng.randint(1, 7), "pqr"[:1 + k % 3]) for k in range(12)]
        results += formula_path_agrees(m, formulas)
    passed = [r.passed for r in results]
    assert any(passed) and not all(passed)
    if block is not None:
        assert any(not r.passed and r.grid > block for r in results)
    # past the cap: trials=0 is still refused first
    monkeypatch.setattr(models, "DEFAULT_VALUATION_CAP", 15)
    assert formula_path_agrees(cases[0], [parse_formula("p -> q")]) == []


def test_a_failing_complex_check_counts_up_to_its_block():
    """K5's complex algebra has 16 ** 4 assignments to four variables; a
    check that fails in the first block of 1,024 evaluates that block only,
    and one that passes evaluates them all."""
    k5 = CK["K5"]
    failing = verified_in_algebra(k5, parse_formula("s -> p & q & r"))
    assert not failing.passed and failing.counters() == {"checked": 1024, "grid": 1024}
    law = algebra._law("mono", "x;z <= y;w", ["x <= y"])
    under_premise = holds_law(k5, law)
    assert not under_premise.passed and under_premise.grid == 1024
    assert 0 < under_premise.checked < 1024
    assert holds_law(k5, get_law("refleq")).counters() == {"checked": 16 ** 4,
                                                           "grid": 16 ** 4}


@pytest.mark.parametrize("alg,rows", [(CK["K5"], 1), (ProperAlgebra(3), 1200)],
                         ids=["K5", "proper3"])
def test_a_law_without_variables_counts_every_row(alg, rows):
    """A law, or a premise, without variables is one value for a whole
    block: a complex algebra has one assignment to no variables, and a
    proper algebra's blocks of 500 samples have one value each."""
    assert holds_law(alg, algebra._law("c", "id <= 1"), trials=1200).counters() == {
        "checked": rows, "grid": rows}
    failing = holds_law(alg, algebra._law("c", "1 <= id"), trials=1200)
    assert (failing.passed, failing.counterexample) == (False, {})
    assert failing.counters() == {"checked": min(rows, 500), "grid": min(rows, 500)}
    kept = holds_law(alg, algebra._law("p", "x <= x", ["id <= 1"]), trials=1200)
    dropped = holds_law(alg, algebra._law("p", "x <= id", ["1 <= id"]), trials=1200)
    grid = 16 if rows == 1 else rows             # K5's four elements, or the samples
    assert kept.counters() == {"checked": grid, "grid": grid}
    assert dropped.passed and dropped.counters() == {"checked": 0, "grid": grid}


# ------------------------------------------------------------------
# Chains
# ------------------------------------------------------------------

def chain_steps(name):
    return parse_chain((data_dir() / "chains" / f"{name}.chain").read_text())


def test_ra4_chain():
    rep = check_chain({"K3": CK["K3"]}, chain_steps("ra4"))
    assert rep.passed
    [segment] = rep.segments
    assert (segment.step.name, segment.step.rel, segment.passed) == ("1..4", "=", True)


def test_refleq_chain_end_to_end():
    steps = chain_steps("refleq")
    rep = check_chain({"K3": CK["K3"], "K4": CK["K4"]}, steps)
    assert rep.passed
    [segment] = rep.segments
    assert segment.step == Law("1..8", steps[0].lhs, "<=", steps[7].rhs)
    assert list(segment.results) == ["K3", "K4"] and segment.passed


@pytest.mark.parametrize("algs", [("K3",), ("K3", "K4"), ("K4", "proper3")])
def test_segments_are_checked_in_each_algebra_like_steps(algs):
    chosen = {name: CK.get(name) or ProperAlgebra(3) for name in algs}
    steps = chain_steps("ra4")
    [segment] = check_chain(chosen, steps, trials=50).segments
    law = Law("1..4", steps[0].lhs, "=", steps[3].rhs)
    assert segment.results == {name: holds_law(alg, law, trials=50)
                               for name, alg in chosen.items()}
    assert all(r.checked > 0 for r in segment.results.values())


def test_ra7_chain_two_segments():
    rep = check_chain({"K4": CK["K4"]}, chain_steps("ra7"))
    assert rep.passed
    assert [s.step.name for s in rep.segments] == ["1..5", "6..9"]


def test_unlinked_steps_give_no_segments():
    # a run is two or more linked steps: a lone step is no segment
    steps = parse_chain("x = x + 0 ; a\nx + 0 = x ; b\ny = y . y ; c\nx . y = y . x ; d")
    rep = check_chain({"K4": CK["K4"]}, steps)
    assert rep.passed and len(rep.steps) == 4
    assert [s.step.name for s in rep.segments] == ["1..2"]
    assert check_chain({"K4": CK["K4"]}, steps[2:]).segments == []


def test_a_failing_segment_fails_the_chain():
    steps = parse_chain("x = x + y ; wrong\nx + y = y + x ; ra1")
    rep = check_chain({"K4": CK["K4"]}, steps)
    assert [s.passed for s in rep.steps] == [False, True]
    [segment] = rep.segments
    assert segment.step.name == "1..2" and not segment.passed
    assert segment.results["K4"].counterexample is not None
    assert not rep.passed
    assert not ChainReport(rep.steps[1:], rep.segments).passed   # the segment alone


def test_corrupted_chain_fails_with_witness():
    steps = parse_chain("x;y = y;x ; broken")
    rep = check_chain({"K5": CK["K5"]}, steps)
    assert not rep.passed
    assert rep.steps[0].results["K5"].counterexample is not None


# ------------------------------------------------------------------
# Agreement between the two evaluation routes
# ------------------------------------------------------------------

def test_interpret_agrees_with_translated_terms():
    # Full agreement needs the peirce condition (the relational reading of
    # -> unfolds through the converse-of-product law); K1 and K2 agree on
    # the implication-free fragment only.
    rng = random.Random(12)
    peircean = [get_structure(n) for n in ("K3", "K4", "K5")]
    for _ in range(250):
        f = random_formula(rng, rng.randint(1, 12), ["p", "q", "r"])
        term = translate(f)
        for m in peircean:
            subsets = [frozenset(), frozenset({"a"}),
                       frozenset(m.elements[:2]), frozenset(m.elements)]
            env = {name: rng.choice(subsets) for name in ("p", "q", "r")}
            assert (interpret(m, Valuation(env), f)
                    == eval_term(ComplexAlgebra(m), env, term))


def test_interpret_agrees_on_implication_free_fragment_everywhere():
    rng = random.Random(13)
    structures = [get_structure(n) for n in ("K1", "K2", "K3", "K4", "K5")]
    for _ in range(120):
        f = random_formula(rng, rng.randint(1, 10), ["p", "q"])
        if "->" in str(f):
            continue
        term = translate(f)
        for m in structures:
            subsets = [frozenset(), frozenset({"a"}), frozenset(m.elements)]
            env = {name: rng.choice(subsets) for name in ("p", "q")}
            assert (interpret(m, Valuation(env), f)
                    == eval_term(ComplexAlgebra(m), env, term))


def test_soundness_bridge_sample():
    # a couple of corpus theorems, checked by the algebra route
    for entry in list_corpus()[:6]:
        assert verified_in_algebra(CK["K3"], entry.proof.goal).passed


def test_one_unassigned_variable_error():
    from tarl import formulas

    error = formulas.UnassignedVariable
    assert algebra.UnassignedVariable is models.UnassignedVariable is error
    k3 = get_structure("K3")
    with pytest.raises(error, match="q"):
        interpret(k3, Valuation({"p": frozenset({"0"})}), parse_formula("p -> q"))
    for alg in (ProperAlgebra(2), CK["K3"]):
        env = {"x": eval_term(alg, {}, ONE)}
        with pytest.raises(error, match="y"):
            eval_term(alg, env, parse_ra_term("x;y"))


def test_a_value_that_is_no_node_is_a_type_error():
    k3 = get_structure("K3")
    for bad in ("p", None, RVar("p"), Compl(RVar("p"))):
        with pytest.raises(TypeError):
            interpret(k3, Valuation({"p": frozenset()}), bad)
        with pytest.raises(TypeError):
            translate(bad)
    # a node of one kind takes no child of the other
    for build in (lambda: Conv(Var("x")), lambda: Join(RVar("x"), Var("x")),
                  lambda: Neg(RVar("p")), lambda: Imp(Var("p"), IDENT)):
        with pytest.raises(TypeError):
            build()
    # each grammar's variables, though nodes of both keep them in one slot
    assert variables(Neg(Var("x"))) == {"x"}
    for bad in ("x", None, Var("x"), Neg(Var("x"))):
        with pytest.raises(TypeError):
            term_variables(bad)
    for bad in ("x", RVar("x"), Conv(RVar("x"))):
        with pytest.raises(TypeError):
            variables(bad)
    for bad in ("x", None, Var("x"), Neg(Var("x"))):
        for alg in (ProperAlgebra(2), CK["K3"]):
            with pytest.raises(TypeError):
                eval_term(alg, {"x": frozenset()}, bad)


def test_a_converse_of_a_converse_needs_no_parentheses():
    for text, shown in [("(x^)^", "x^^"), ("((x;y)^)^", "(x;y)^^"), ("(-x)^", "(-x)^"),
                        ("-(x^)", "-x^"), ("((-x)^)^", "(-x)^^"), ("-((-x)^)^", "-(-x)^^"),
                        ("(x + y^^)^", "(x + y^^)^")]:
        t = parse_ra_term(text)
        assert print_ra_term(t) == shown
        assert parse_ra_term(shown) == t


# ------------------------------------------------------------------
# Differential tests against set-based oracles
# ------------------------------------------------------------------

def proper_oracle(t, env: dict, n: int) -> frozenset:
    """A term's value in the proper algebra on 0..n-1, over sets of pairs."""
    if isinstance(t, RVar):
        return frozenset(env[t.name])
    if isinstance(t, Join):
        return proper_oracle(t.left, env, n) | proper_oracle(t.right, env, n)
    if isinstance(t, Meet):
        return proper_oracle(t.left, env, n) & proper_oracle(t.right, env, n)
    if isinstance(t, Compl):
        full = {(i, j) for i in range(n) for j in range(n)}
        return frozenset(full - proper_oracle(t.body, env, n))
    if isinstance(t, Conv):
        return frozenset((j, i) for (i, j) in proper_oracle(t.body, env, n))
    if isinstance(t, Comp):
        left = proper_oracle(t.left, env, n)
        right = proper_oracle(t.right, env, n)
        adj: dict[int, set[int]] = {}
        for (i, j) in right:
            adj.setdefault(i, set()).add(j)
        return frozenset((i, k) for (i, j) in left for k in adj.get(j, ()))
    if isinstance(t, Ident):
        return frozenset((i, i) for i in range(n))
    if isinstance(t, Zero):
        return frozenset()
    if isinstance(t, One):
        return frozenset((i, j) for i in range(n) for j in range(n))
    raise TypeError(f"not a term: {t!r}")


def complex_oracle(m, t, env: dict) -> frozenset:
    """A term's value in the complex algebra of m, from the set operations:
    X;Y is Y o X, converse is the star image, id is {0}."""
    if isinstance(t, RVar):
        return frozenset(env[t.name])
    if isinstance(t, Join):
        return complex_oracle(m, t.left, env) | complex_oracle(m, t.right, env)
    if isinstance(t, Meet):
        return complex_oracle(m, t.left, env) & complex_oracle(m, t.right, env)
    if isinstance(t, Compl):
        return frozenset(m.elements) - complex_oracle(m, t.body, env)
    if isinstance(t, Conv):
        return op_star(m, complex_oracle(m, t.body, env))
    if isinstance(t, Comp):
        return op_fusion(m, complex_oracle(m, t.right, env),
                         complex_oracle(m, t.left, env))
    if isinstance(t, Ident):
        return frozenset({m.zero})
    if isinstance(t, Zero):
        return frozenset()
    if isinstance(t, One):
        return frozenset(m.elements)
    raise TypeError(f"not a term: {t!r}")


def random_term(rng, size: int, names):
    """A random term of `size` nodes whose leaves include id, 0 and 1."""
    if size <= 1:
        return rng.choice([RVar(name) for name in names] + [IDENT, ZERO, ONE])
    if size == 2 or rng.random() < 0.3:
        return rng.choice((Compl, Conv))(random_term(rng, size - 1, names))
    left = rng.randint(1, size - 2)
    return rng.choice((Join, Meet, Comp))(random_term(rng, left, names),
                                          random_term(rng, size - 1 - left, names))


def random_law(rng, names) -> Law:
    premises = ()
    if rng.random() < 0.4:
        premises = ((random_term(rng, 3, names), "<=", random_term(rng, 3, names)),)
    return Law("random", random_term(rng, rng.randint(1, 8), names),
               rng.choice(["=", "<="]), random_term(rng, rng.randint(1, 8), names),
               premises)


def oracle_verdict(law: Law, envs, value):
    """(passed, counterexample, checked) of a law over the assignments
    `envs` in order, with `value(term, env)` as the evaluator; every
    assignment is one batch, so `checked` counts all that meet the premises."""
    def related(rel, lhs, rhs):
        return lhs == rhs if rel == "=" else lhs <= rhs

    checked, counterexample = 0, None
    for env in envs:
        if all(related(rel, value(l, env), value(r, env)) for (l, rel, r) in law.premises):
            checked += 1
            if counterexample is None and not related(law.rel, value(law.lhs, env),
                                                      value(law.rhs, env)):
                counterexample = env
    return counterexample is None, counterexample, checked


@pytest.mark.parametrize("base", [2, 3, 4, 5])
def test_proper_terms_agree_with_set_oracle(base):
    rng = random.Random(base)
    alg = ProperAlgebra(base)
    carrier = algebra._carrier(alg)
    names = ["x", "y", "z"]
    for k in range(60):
        t = random_term(rng, rng.randint(1, 12), names)
        envs = [sample_relations(base, names, seed=base, trial=10 * k + i) for i in range(10)]
        want = [proper_oracle(t, env, base) for env in envs]
        assert [eval_term(alg, env, t) for env in envs] == want
        batch = {name: np.array([carrier.encode(env[name]) for env in envs]) for name in names}
        got = np.broadcast_to(TERMS.evaluate(t, batch, carrier.ops), (len(envs), base, base))
        assert [carrier.decode(value) for value in got] == want


def test_proper_laws_agree_with_set_oracle():
    rng = random.Random(21)
    for k in range(48):
        base = 2 + k % 4
        law = random_law(rng, ["x", "y"])
        envs = [sample_relations(base, law.all_variables(), seed=k, trial=trial)
                for trial in range(40)]
        got = holds_law(ProperAlgebra(base), law, trials=40, seed=k)
        want = oracle_verdict(law, envs, lambda t, env: proper_oracle(t, env, base))
        assert (got.passed, got.counterexample, got.checked) == want, (base, law)


@pytest.mark.parametrize("name", ["K1", "K2", "K3", "K4", "K5"])
def test_complex_terms_agree_with_set_oracle(name):
    rng = random.Random(name)
    m = get_structure(name)
    subsets = [frozenset(c) for r in range(len(m.elements) + 1)
               for c in itertools.combinations(m.elements, r)]
    for _ in range(150):
        t = random_term(rng, rng.randint(1, 12), ["x", "y", "z"])
        env = {v: rng.choice(subsets) for v in ("x", "y", "z")}
        assert eval_term(CK[name], env, t) == complex_oracle(m, t, env)


def test_complex_laws_agree_with_set_oracle():
    rng = random.Random(22)
    for k in range(40):
        m = get_structure(f"K{1 + k % 5}")
        law = random_law(rng, ["x", "y"])
        # assignments in the lexicographic order of their masks
        subsets = [frozenset(e for i, e in enumerate(m.elements) if mask >> i & 1)
                   for mask in range(1 << len(m.elements))]
        names = law.all_variables()
        envs = [dict(zip(names, combo))
                for combo in itertools.product(subsets, repeat=len(names))]
        got = holds_law(ComplexAlgebra(m), law)
        want = oracle_verdict(law, envs, lambda t, env: complex_oracle(m, t, env))
        assert (got.passed, got.counterexample, got.checked) == want, (m.name, law)
