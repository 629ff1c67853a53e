import itertools
import random

import pytest

from tarl import search
from tarl.formulas import parse_formula
from tarl.gen import random_core_formula
from tarl.models import valid_in
from tarl.registry import get_corpus_entry, get_formula, get_structure, list_corpus
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
    # every expanded or cache-pruned node has a key; axioms, cutoffs and
    # premises equal to their conclusion do not
    assert (c["cache_prunes"] + c["expansions"] <= c["canonical_forms"]
            <= c["nodes"] - c["axioms"] - c["cutoffs"])


def test_no_visited_premise_equals_its_conclusion(monkeypatch):
    # impL keeps its principal, so a premise whose active is already in
    # the context would be its conclusion again; triage drops such steps,
    # and every node that is neither an axiom nor a cutoff gets a key
    steps, tried = search._steps, []

    def watched(seq, run):
        for rule, k, premises in steps(seq, run):
            assert seq not in premises
            tried.append(rule.name)
            yield rule, k, premises
    monkeypatch.setattr(search, "_steps", watched)
    c = search_proof(parse_formula("(p -> q) -> (q -> r) -> p -> r"),
                     SearchBudget(max_depth=6)).counters()
    assert "impL" in tried
    assert c["canonical_forms"] == c["nodes"] - c["axioms"] - c["cutoffs"]


def test_every_corpus_goal_is_proved_at_its_level():
    for entry in list_corpus():
        out = search_proof(entry.proof.goal)
        assert out.proved, entry.lemma_id
        report = check_proof(out.proof)
        assert report.valid and out.proof.goal == entry.proof.goal, entry.lemma_id
        assert out.objects == report.objects_used == entry.expected_objects, entry.lemma_id
        assert out.level <= out.bound


def test_weakening_frees_an_index_for_impR():
    # T11's corpus proof uses two objects: impR inside impL's first premise
    # reuses index 0 once the context that holds it is weakened away
    out = search_proof(get_corpus_entry("T11").proof.goal)
    assert (out.level, out.bound) == (2, 2)
    assert "weaken" in [just.rule.name for _, just in out.proof.lines]


def test_deepening_stops_when_a_larger_bound_adds_no_step():
    # no implication: no pass reaches impL or impR, so bound 1 is the last
    out = search_proof(parse_formula("p & q | ~p"))
    assert (out.status, out.bound) == ("not_found", 1)


@pytest.mark.parametrize("max_index", [2, 3, 4])
def test_proof_level_is_the_objects_the_proof_uses(max_index):
    budget = SearchBudget(max_index=max_index, max_nodes=2000)
    proved = 0
    for entry in list_corpus():
        out = search_proof(entry.proof.goal, budget)
        if not out.proved:
            assert out.objects is None and out.level is None
            continue
        proved += 1
        used = check_proof(out.proof).objects_used
        assert out.objects == used
        assert out.level == len(used) <= max_index
    assert proved >= 15


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


def _random_sequent(rng, table, pool, bound, max_used):
    used = rng.sample(range(bound), rng.randint(1, 3))

    def side():
        return [a for _ in range(rng.randint(0, 4))
                for a in table.single(rng.choice(pool), rng.choice(used), rng.choice(used))]
    seq = Sequent.of(side(), side())
    spare = [x for x in range(bound) if x not in used]
    if len(spare) >= len(used) and 2 * len(used) <= max_used and rng.random() < 0.5:
        # add a copy on fresh indices: each index ties with its image
        copy = _renamed(table, seq, dict(zip(used, rng.sample(spare, len(used)))))
        seq = Sequent(seq.left | copy.left, seq.right | copy.right)
    return seq


@pytest.mark.parametrize("bound", [4, 6, 8])
def test_canonical_form_matches_the_injection_oracle(bound):
    rng = random.Random(bound)
    # at bound 8 the oracle's injections are many: use at most 4 indices
    max_used = 4 if bound == 8 else bound
    table = search._Table()
    goal = parse_formula("(a -> b) & ~(b -> a)")
    pool = _subformulas(goal, [])[:3]  # few formulas: more tied indices
    fids: dict = {}
    oracle_of: dict = {}
    ours_of: dict = {}
    for _ in range(150):
        seq = _random_sequent(rng, table, pool, bound, max_used)
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


def test_canonical_form_reads_back_as_a_renaming():
    # each code read back by its fields, (uid << 1 | side) << 6 | rank_i << 3
    # | rank_j, gives a sequent with the same key: no field overflows into
    # the next, also when ranks reach 7
    table = search._Table()
    a = parse_formula("a")
    chain = Sequent.of([x for n in range(7) for x in table.single(a, n, n + 1)])
    rng = random.Random(8)
    pool = _subformulas(parse_formula("(a -> b) & ~(b -> a)"), [])
    for seq in [chain] + [_random_sequent(rng, table, pool, 8, 8) for _ in range(50)]:
        key = table.canonical(seq)
        formula = {x.formula.uid: x.formula for x in seq.left | seq.right}
        sides = ([], [])
        for code in key:
            sides[code >> 6 & 1].extend(table.single(formula[code >> 7], code >> 3 & 7,
                                                     code & 7))
        assert table.canonical(Sequent.of(*sides)) == key
    key = table.canonical(chain)
    assert {code >> 3 & 7 for code in key} | {code & 7 for code in key} == set(range(8))


class _NeverStores(dict):
    def __setitem__(self, key, value):
        pass


def test_failure_cache_does_not_change_the_verdict():
    rng = random.Random(7)
    budget = SearchBudget(max_depth=10, max_index=3)
    for _ in range(200):
        goal = random_core_formula(rng, rng.randint(3, 9), ("p", "q"))
        cached = search_proof(goal, budget)
        uncached = search._search(goal, budget, _NeverStores)
        assert uncached.counters()["cache_prunes"] == 0
        assert cached.status == uncached.status, goal


def test_deepening_agrees_with_one_pass_at_the_largest_bound():
    rng = random.Random(16)
    budget = SearchBudget(max_depth=10, max_index=4, max_nodes=10 ** 6)
    verdicts = set()
    for _ in range(200):
        goal = random_core_formula(rng, rng.randint(4, 12), ("p", "q"))
        deepened = search_proof(goal, budget)
        one_pass = search._search(goal, budget, first_bound=budget.max_index)
        assert max(deepened.nodes, one_pass.nodes) <= budget.max_nodes
        assert deepened.status == one_pass.status, goal
        if deepened.proved:
            assert check_proof(deepened.proof).valid
        verdicts.add(deepened.status)
    assert {"proved", "not_found"} <= verdicts
