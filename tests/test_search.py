import hashlib
import itertools
import json
import random

import pytest

from tarl import search
from tarl.formulas import And, Imp, Neg, Or, Var, parse_formula, substitute, variables
from tarl.gen import random_core_formula
from tarl.models import valid_in
from tarl.registry import get_corpus_entry, get_formula, get_structure, list_corpus
from tarl.search import MAX_DEPTH, REFUTE_AFTER, SearchBudget, search_proof
from tarl.sequents import (Assertion, Sequent, check_proof, format_proof_script,
                           substitute_proof)


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


@pytest.mark.parametrize("budget, limit", [
    (SearchBudget(max_nodes=5), "nodes"),
    (SearchBudget(max_depth=5), "depth"),
    (SearchBudget(), None),
], ids=["nodes", "depth", "proved"])
def test_an_exhausted_search_says_which_limit_stopped_it(budget, limit):
    out = search_proof(parse_formula("(b -> (c -> a)) -> (~(b -> ~c) -> a)"), budget)
    assert out.limit == limit
    assert out.status == ("proved" if limit is None else "budget_exhausted")
    # a node-limited search stops at the node past its budget; a
    # depth-limited one ends its last pass with cutoffs and nodes to spare
    assert (out.nodes > budget.max_nodes) == (limit == "nodes")
    assert (out.cutoffs > 0) == (limit == "depth")


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_depth=0)
    with pytest.raises(ValueError):
        SearchBudget(max_index=9)
    with pytest.raises(ValueError, match=f"^max_depth must be at most {MAX_DEPTH}$"):
        SearchBudget(max_depth=MAX_DEPTH + 1)


def test_a_search_reaches_the_largest_depth():
    """~p | p | ... | p takes one orR per disjunct p and then one negR, so a
    proof of it with MAX_DEPTH - 1 of them is MAX_DEPTH + 1 lines on one
    branch, which the search finds, reads back and re-checks at the largest
    depth; with more of them every branch ends in a depth cutoff."""
    budget = SearchBudget(max_depth=MAX_DEPTH)
    out = search_proof(parse_formula(" | ".join(["~p"] + ["p"] * (MAX_DEPTH - 1))), budget)
    assert out.proved and len(out.proof.lines) == MAX_DEPTH + 1
    assert check_proof(out.proof).valid
    out = search_proof(parse_formula(" | ".join(["~p"] + ["p"] * (MAX_DEPTH + 1))), budget)
    assert (out.status, out.limit, out.cutoffs) == ("budget_exhausted", "depth", 1)


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
    # the root refutation check would end the refutable rows before their
    # depth and node limits are reached, so it is off here
    out = search._search(parse_formula(text), budget, refute_after=None)
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
    # the goal is refutable: with the root check on, the search would stop
    # before its depth-limited passes reach impL
    c = search._search(parse_formula("(p -> q) -> (q -> r) -> p -> r"),
                       SearchBudget(max_depth=6), refute_after=None).counters()
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


def _renamed(seq, ren):
    def move(side):
        return [Assertion(b.formula, ren[b.i], ren[b.j]) for b in side]
    return Sequent.of(move(seq.left), move(seq.right))


def _random_sequent(rng, pool, bound, max_used):
    used = rng.sample(range(bound), rng.randint(1, 3))

    def side():
        return [Assertion(rng.choice(pool), rng.choice(used), rng.choice(used))
                for _ in range(rng.randint(0, 4))]
    seq = Sequent.of(side(), side())
    spare = [x for x in range(bound) if x not in used]
    if len(spare) >= len(used) and 2 * len(used) <= max_used and rng.random() < 0.5:
        # add a copy on fresh indices: each index ties with its image
        copy = _renamed(seq, dict(zip(used, rng.sample(spare, len(used)))))
        seq = Sequent(seq.left | copy.left, seq.right | copy.right)
    return seq


def _key(table, seq):
    """The canonical form of seq, through the masks of its sides, which
    read back as its sides."""
    masks = (table.encode(seq.left), table.encode(seq.right))
    assert (table.decode(masks[0]), table.decode(masks[1])) == (seq.left, seq.right)
    return table.canonical(masks)


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
        seq = _random_sequent(rng, pool, bound, max_used)
        used = sorted(seq.indices())
        image = rng.sample(range(bound), len(used))
        variants = [seq, _renamed(seq, dict(zip(used, image)))]
        # a near miss: one assertion's indices swapped
        if seq.left:
            a = next(iter(seq.left))
            variants.append(Sequent(seq.left - {a} | {Assertion(a.formula, a.j, a.i)},
                                    seq.right))
        keys = [_key(table, s) for s in variants]
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
    chain = Sequent.of([Assertion(a, n, n + 1) for n in range(7)])
    rng = random.Random(8)
    pool = _subformulas(parse_formula("(a -> b) & ~(b -> a)"), [])
    for seq in [chain] + [_random_sequent(rng, pool, 8, 8) for _ in range(50)]:
        key = _key(table, seq)
        formula = {x.formula.uid: x.formula for x in seq.left | seq.right}
        sides = ([], [])
        for code in key:
            sides[code >> 6 & 1].append(Assertion(formula[code >> 7], code >> 3 & 7,
                                                  code & 7))
        assert _key(table, Sequent.of(*sides)) == key
    key = _key(table, chain)
    assert {code >> 3 & 7 for code in key} | {code & 7 for code in key} == set(range(8))


class _NeverStores(dict):
    def __setitem__(self, key, value):
        pass


# the configurations compared below: their node counts differ, so the root
# refutation check, which runs at a node count, is off in the comparisons
_CACHE_RUNS = (7, SearchBudget(max_depth=10, max_index=3), (3, 9), {"new_cache": _NeverStores})
_DEEPENING_RUNS = (16, SearchBudget(max_depth=10, max_index=4, max_nodes=10 ** 6), (4, 12),
                   {"first_bound": 4})


def _goals(seed, sizes):
    rng = random.Random(seed)
    return [random_core_formula(rng, rng.randint(*sizes), ("p", "q")) for _ in range(200)]


def test_failure_cache_does_not_change_the_verdict():
    seed, budget, sizes, _ = _CACHE_RUNS
    for goal in _goals(seed, sizes):
        cached = search._search(goal, budget, refute_after=None)
        uncached = search._search(goal, budget, _NeverStores, refute_after=None)
        assert uncached.counters()["cache_prunes"] == 0
        assert cached.status == uncached.status, goal


def test_deepening_agrees_with_one_pass_at_the_largest_bound():
    seed, budget, sizes, _ = _DEEPENING_RUNS
    verdicts = set()
    for goal in _goals(seed, sizes):
        deepened = search._search(goal, budget, refute_after=None)
        one_pass = search._search(goal, budget, first_bound=budget.max_index,
                                  refute_after=None)
        assert max(deepened.nodes, one_pass.nodes) <= budget.max_nodes
        assert deepened.status == one_pass.status, goal
        if deepened.proved:
            assert check_proof(deepened.proof).valid
        verdicts.add(deepened.status)
    assert {"proved", "not_found"} <= verdicts


@pytest.mark.parametrize("runs", [_CACHE_RUNS, _DEEPENING_RUNS], ids=["cache", "deepening"])
def test_refutations_of_either_configuration_recheck(runs):
    seed, budget, sizes, configuration = runs
    refuted = 0
    for goal in _goals(seed, sizes):
        for out in (search_proof(goal, budget), search._search(goal, budget, **configuration)):
            if out.status == "refuted":
                refuted += 1
                assert out.nodes == REFUTE_AFTER and out.refutation_checks == 1
                assert _certifies(goal, out.counterexample), goal
    assert refuted > 0


# ------------------------------------------------------------------
# The root refutation check
# ------------------------------------------------------------------

_POINTS = range(3)


def _relation(f, rel):
    """The pairs of {0, 1, 2} that the translation of f denotes when each
    variable denotes rel[name]: set operations on the definitions, with ~
    the converse of the complement, -> the residual -(A^;-B) and A o B the
    relative product B;A."""
    if isinstance(f, Var):
        return rel[f.name]
    if isinstance(f, Neg):
        body = _relation(f.body, rel)
        return {(i, j) for i in _POINTS for j in _POINTS if (j, i) not in body}
    a, b = _relation(f.left, rel), _relation(f.right, rel)
    if isinstance(f, Or):
        return a | b
    if isinstance(f, And):
        return a & b
    if isinstance(f, Imp):
        return {(i, j) for i in _POINTS for j in _POINTS
                if all((k, j) in b for k in _POINTS if (k, i) in a)}
    return {(i, j) for i in _POINTS for j in _POINTS
            if any((i, k) in b and (k, j) in a for k in _POINTS)}


def _certifies(goal, cert):
    """Whether cert is a counterexample to goal on {0, 1, 2} in plain ints:
    (x, x) outside the goal's relation."""
    rel = {name: set(pairs) for name, pairs in cert["relations"].items()}
    x = cert["point"]
    points = [x] + [v for pairs in rel.values() for pair in pairs for v in pair]
    return (cert["base"] == 3 and set(rel) == variables(goal)
            and all(type(v) is int and v in _POINTS for v in points)
            and (x, x) not in _relation(goal, rel))


_PARADOXES = ["a -> (b -> b)", "a -> (b -> a)", "a & ~a -> b", "a -> b | ~b",
              "(a -> b) | (b -> a)", "a -> (a -> a)"]
_R_AXIOMS = ["contra", "suff", "perm", "contr", "reduc", "ming"]


@pytest.mark.parametrize("goal", [parse_formula(t) for t in _PARADOXES]
                         + [get_formula(name).formula for name in _R_AXIOMS],
                         ids=_PARADOXES + _R_AXIOMS)
def test_the_root_check_refutes_the_paradoxes_and_the_r_axioms(goal):
    # the paper: the logic avoids the paradoxes of implication and lacks
    # contraposition and other axioms of R, as proper algebras show
    cert = search._refutation(goal)
    assert cert is not None and _certifies(goal, cert)


def test_the_root_check_refutes_no_theorem():
    goals = [entry.proof.goal for entry in list_corpus()]
    assert len(goals) == 38
    for goal in goals + [get_formula("reflection").formula]:
        assert search._refutation(goal) is None, goal


def test_the_refuting_node_is_counted_like_the_one_that_runs_out():
    goal = parse_formula("~((p -> q) -> ~p)")
    out = search_proof(goal)
    c = out.counters()
    assert (out.status, out.nodes, c["refutation_checks"]) == ("refuted", REFUTE_AFTER, 1)
    assert out.nodes == (c["axioms"] + c["cutoffs"] + c["loop_prunes"]
                         + c["cache_prunes"] + c["expansions"] + 1)
    assert out.proof is None and _certifies(goal, out.counterexample)


def test_the_trigger_moves_the_check_not_what_it_finds():
    # the goals and budget of tests/golden/search_outcomes.txt
    budget, rng = SearchBudget(max_nodes=5000), random.Random(8)
    goals = [entry.proof.goal for entry in list_corpus()]
    goals += [random_core_formula(rng, rng.randint(6, 12), ("p", "q")) for _ in range(40)]
    moved = 0
    for goal in goals:
        early = search._search(goal, budget, refute_after=64)
        late = search._search(goal, budget, refute_after=512)
        if late.proved or early.proved:
            assert early.status == late.status == "proved", goal
            assert (format_proof_script("g", early.proof)
                    == format_proof_script("g", late.proof)), goal
            unchecked = {"refutation_checks": 0}
            assert early.counters() | unchecked == late.counters() | unchecked, goal
        if late.status == "refuted":
            assert early.status == "refuted", goal
            assert early.counterexample == late.counterexample, goal
        moved += early.status == "refuted" != late.status
    assert moved > 0


def test_searches_under_the_trigger_never_check():
    goal = parse_formula("~((p -> q) -> ~p)")
    out = search_proof(goal, SearchBudget(max_nodes=REFUTE_AFTER - 1))
    assert (out.status, out.refutation_checks, out.counterexample) == ("budget_exhausted", 0, None)
    for entry in list_corpus():
        out = search_proof(entry.proof.goal)
        assert out.refutation_checks == (out.nodes >= REFUTE_AFTER), entry.lemma_id


# ------------------------------------------------------------------
# Outcomes pinned by digest
# ------------------------------------------------------------------

def corpus_instances(seed, count, proofs=None):
    """count seeded substitution instances of the corpus goals: goal
    i % 38 with each variable, in sorted order, replaced by a random core
    formula over p, q, r of 1 to 6 nodes.  The corpus proofs under the same
    substitutions are appended to the list proofs, if one is given."""
    rng = random.Random(seed)
    out = []
    for entry in itertools.islice(itertools.cycle(list_corpus()), count):
        goal = entry.proof.goal
        mapping = {v: random_core_formula(rng, rng.randint(1, 6), "pqr")
                   for v in sorted(variables(goal))}
        out.append(substitute(goal, mapping))
        if proofs is not None:
            proofs.append(substitute_proof(entry.proof, mapping))
    return out


def outcome_digest(goals, budget=SearchBudget(), found=None):
    """sha256 over each goal's search outcome: status, every counter, bound,
    objects, proof script and counterexample, in plain values.  The proofs
    found are appended to the list found, if one is given."""
    digest = hashlib.sha256()
    for goal in goals:
        out = search_proof(goal, budget)
        if out.proved and found is not None:
            found.append(out.proof)
        row = [out.status, out.counters(), out.bound,
               None if out.objects is None else sorted(out.objects),
               format_proof_script("g", out.proof) if out.proved else None,
               out.counterexample]
        digest.update(json.dumps(row, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


# both digests were recorded with the frozenset-sequent search that the mask
# search replaced, so any outcome that moves fails them
_OUTCOME_DIGEST = "72c319849f8e4fa676d5f12adc69ed9e6e5974e633a646c0cf81bc5f9aa2edf6"
# the 400 instances of corpus_instances(11, 400) at the default budget, which
# CI checks outside Tier-1 (about 10 s)
INSTANCES_DIGEST = "203eab3665651b68835d00a70a64dc109c42ef3467c095da0eaf2815588cff26"


def test_search_outcomes_match_their_digest():
    # 76 corpus instances and 60 random formulas at 1,000 nodes: every
    # status, and searches stopped by either limit
    rng = random.Random(13)
    goals = corpus_instances(12, 76)
    goals += [random_core_formula(rng, rng.randint(6, 12), "pqr") for _ in range(60)]
    assert outcome_digest(goals, SearchBudget(max_nodes=1000)) == _OUTCOME_DIGEST
