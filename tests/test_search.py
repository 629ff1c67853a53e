import itertools
import random

import pytest

from tarl import search
from tarl.formulas import parse_formula
from tarl.gen import random_core_formula
from tarl.models import valid_in
from tarl.registry import get_formula, get_structure
from tarl.search import SearchBudget, search_proof
from tarl.sequents import Sequent, check_proof


def test_identity_implication():
    out = search_proof(parse_formula("a -> a"), SearchBudget(max_depth=4))
    assert out.proved
    report = check_proof(out.proof)
    assert report.valid
    assert report.objects_used == {0, 1}


def test_conjunction_elimination_uses_two_objects():
    out = search_proof(parse_formula("a & b -> a"), SearchBudget(max_depth=6))
    assert out.proved
    assert check_proof(out.proof).objects_used == {0, 1}


def test_mingle_is_never_proved():
    out = search_proof(get_formula("ming").formula,
                       SearchBudget(max_depth=10, max_index=4))
    assert out.status in ("not_found", "budget_exhausted")
    # confirmed semantically: K3 refutes it
    assert not valid_in(get_structure("K3"), get_formula("ming").formula).valid


def test_search_desugars_fusion_goals():
    out = search_proof(parse_formula("p o q -> p o q"))
    assert out.proved
    assert check_proof(out.proof).valid


def test_budget_exhaustion_reported():
    goal = parse_formula("(a -> b) & (a -> c) -> (a -> b & c)")
    out = search_proof(goal, SearchBudget(max_nodes=5))
    assert out.status == "budget_exhausted"


def test_excluded_middle():
    out = search_proof(parse_formula("p | ~p"))
    assert out.proved
    assert check_proof(out.proof).objects_used == {0}


def test_found_proofs_recheck_and_respect_bound():
    goals = ["~~a -> a", "a -> ~~a", "((a -> a) -> b) -> b",
             "~(a & b) -> ~a | ~b", "a & (b | c) -> (a & b) | (a & c)"]
    for text in goals:
        out = search_proof(parse_formula(text))
        assert out.proved, text
        report = check_proof(out.proof)
        assert report.valid
        assert max(report.objects_used) < 4


def test_soundness_spot_check():
    # anything the search proves must be valid in the built-in structures
    k3, k4 = get_structure("K3"), get_structure("K4")
    for text in ["a -> a", "a & b -> b", "b -> a | b", "~~a -> a"]:
        out = search_proof(parse_formula(text))
        assert out.proved
        assert valid_in(k3, parse_formula(text)).valid
        assert valid_in(k4, parse_formula(text)).valid


def test_unprovable_nontheorem_reports_not_found():
    out = search_proof(parse_formula("p -> q"), SearchBudget(max_depth=8))
    assert out.status == "not_found"


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_depth=0)
    with pytest.raises(ValueError):
        SearchBudget(max_index=9)


# ------------------------------------------------------------------
# Counters, canonical forms and the failure cache
# ------------------------------------------------------------------

@pytest.mark.parametrize("text, budget, ran_out", [
    ("a -> a", SearchBudget(), False),
    ("(a -> b) & (a -> c) -> (a -> b & c)", SearchBudget(), False),
    ("(a -> b) & (a -> c) -> (a -> b & c)", SearchBudget(max_nodes=5), True),
    ("p -> q", SearchBudget(max_depth=8), False),
    ("(p -> q) -> (q -> r) -> p -> r", SearchBudget(max_depth=6), False),
    ("(p -> q) -> (q -> r) -> p -> r", SearchBudget(max_nodes=100), True),
])
def test_every_node_is_counted_once(text, budget, ran_out):
    out = search_proof(parse_formula(text), budget)
    c = out.counters()
    assert (out.nodes > budget.max_nodes) == ran_out
    assert out.nodes == (c["axioms"] + c["cutoffs"] + c["loop_prunes"]
                         + c["cache_prunes"] + c["expansions"] + ran_out)


def _oracle_key(seq, max_index, fids):
    """Reference canonical form: the least encoded sequent over every
    injection of the used indices into 0..max_index-1."""
    def fid(f):
        return fids.setdefault(f, len(fids))

    used = sorted(seq.indices())
    left = [(fid(a.formula), a.i, a.j) for a in seq.left]
    right = [(fid(a.formula), a.i, a.j) for a in seq.right]
    best = None
    for image in itertools.permutations(range(max_index), len(used)):
        ren = dict(zip(used, image))
        key = (tuple(sorted((f, ren[i], ren[j]) for (f, i, j) in left)),
               tuple(sorted((f, ren[i], ren[j]) for (f, i, j) in right)))
        if best is None or key < best:
            best = key
    return best


def _subformulas(f, out):
    out.append(f)
    for part in (getattr(f, "body", None), getattr(f, "left", None),
                 getattr(f, "right", None)):
        if part is not None:
            _subformulas(part, out)
    return out


def _renamed(table, seq, ren):
    def move(side):
        return [a for b in side for a in table.single(b.formula, ren[b.i], ren[b.j])]
    return Sequent.of(move(seq.left), move(seq.right))


def _random_sequent(rng, table, pool, bound):
    used = rng.sample(range(bound), rng.randint(1, 3))

    def side():
        return [a for _ in range(rng.randint(0, 4))
                for a in table.single(rng.choice(pool), rng.choice(used), rng.choice(used))]
    seq = Sequent.of(side(), side())
    spare = [x for x in range(bound) if x not in used]
    if len(spare) >= len(used) and rng.random() < 0.5:
        # add a copy on fresh indices: each index ties with its image
        copy = _renamed(table, seq, dict(zip(used, rng.sample(spare, len(used)))))
        seq = Sequent(seq.left | copy.left, seq.right | copy.right)
    return seq


@pytest.mark.parametrize("bound", [4, 6])
def test_canonical_form_matches_the_injection_oracle(bound):
    rng = random.Random(bound)
    table = search._Table()
    goal = parse_formula("(a -> b) & ~(b -> a)")
    pool = _subformulas(goal, [])[:3]  # few formulas: more tied indices
    fids: dict = {}
    oracle_of: dict = {}
    ours_of: dict = {}
    for _ in range(150):
        seq = _random_sequent(rng, table, pool, bound)
        used = sorted(seq.indices())
        image = rng.sample(range(bound), len(used))
        variants = [seq, _renamed(table, seq, dict(zip(used, image)))]
        # a near miss: one assertion's indices swapped
        if seq.left:
            a = next(iter(seq.left))
            variants.append(Sequent(seq.left - {a} | table.single(a.formula, a.j, a.i),
                                    seq.right))
        keys = [table.canonical(s) for s in variants]
        assert keys[0] == keys[1]  # invariant under renaming
        for s, key in zip(variants, keys):
            oracle = _oracle_key(s, bound, fids)
            # equal exactly when the oracle's keys are equal
            assert oracle_of.setdefault(key, oracle) == oracle
            assert ours_of.setdefault(oracle, key) == key
    assert len(ours_of) < 3 * 150  # classes did meet


class _NeverStores(dict):
    def __setitem__(self, key, value):
        pass


def test_failure_cache_does_not_change_the_verdict():
    rng = random.Random(7)
    budget = SearchBudget(max_depth=10, max_index=3)
    for _ in range(200):
        goal = random_core_formula(rng, rng.randint(3, 9), ("p", "q"))
        cached = search_proof(goal, budget)
        uncached = search._search(goal, budget, _NeverStores())
        assert uncached.counters()["cache_prunes"] == 0
        assert cached.status == uncached.status, goal
