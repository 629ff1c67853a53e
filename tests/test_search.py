import hashlib
import itertools
import json
import random
from types import SimpleNamespace

import pytest

from tarl import search
from tarl.formulas import And, Imp, Neg, Or, Var, parse_formula, substitute, variables
from tarl.gen import random_core_formula
from tarl.models import valid_in
from tarl.registry import get_corpus_entry, get_formula, get_structure, list_corpus
from tarl.search import MAX_DEPTH, REFUTE_AFTER, SearchBudget, search_proof
from tarl.sequents import (
    AndL, AndR, Assertion, ImpL, ImpR, NegL, NegR, OrL, OrR, Weaken, check_proof,
    format_proof_script, substitute_proof,
)


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
    with pytest.raises(ValueError, match="^max_index must be within 1..8$"):
        SearchBudget(max_index=0)
    with pytest.raises(ValueError, match=f"^max_depth must be at most {MAX_DEPTH}$"):
        SearchBudget(max_depth=MAX_DEPTH + 1)


def test_the_smallest_index_bound_is_one_object():
    # max_index 1 is a valid budget: excluded middle proves with object 0,
    # and a -> a, whose impR needs a second object, is not found
    budget = SearchBudget(max_index=1)
    out = search_proof(parse_formula("a | ~a"), budget)
    assert out.proved and (out.objects, out.bound) == ({0}, 1)
    out = search_proof(parse_formula("a -> a"), budget)
    assert (out.status, out.bound) == ("not_found", 1)


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
# Counters and the failure cache
# ------------------------------------------------------------------

@pytest.mark.parametrize("text, budget, ran_out", [
    ("a -> a", SearchBudget(), False),
    ("(a -> b) & (a -> c) -> (a -> b & c)", SearchBudget(), False),
    ("(a -> b) & (a -> c) -> (a -> b & c)", SearchBudget(max_nodes=5), True),
    ("p -> q", SearchBudget(max_depth=8), False),
    ("(p -> q) -> (q -> r) -> p -> r", SearchBudget(max_depth=6), False),
    ("(p -> q) -> (q -> r) -> p -> r", SearchBudget(max_nodes=100), True),
])
def test_every_node_is_counted_once(text, budget, ran_out, monkeypatch):
    # the root refutation check would end the refutable rows before their
    # depth and node limits are reached, so it is off here
    out = _search(parse_formula(text), budget, monkeypatch)
    c = out.counters()
    assert (out.nodes > budget.max_nodes) == ran_out
    assert out.nodes == (c["axioms"] + c["cutoffs"] + c["loop_prunes"]
                         + c["cache_prunes"] + c["expansions"] + ran_out)


def test_no_visited_premise_equals_its_conclusion(monkeypatch):
    # impL keeps its principal, so a premise whose active is already in
    # the context would be its conclusion again; triage drops such steps,
    # and every node that is neither an axiom nor a cutoff is looked up by
    # its masks and ends as a loop prune, a cache prune or an expansion
    steps, tried = search._steps, []

    def watched(seq, run):
        for rule, one, k, premises in steps(seq, run):
            assert seq not in premises
            tried.append(rule.name)
            yield rule, one, k, premises
    monkeypatch.setattr(search, "_steps", watched)
    # the goal is refutable: with the root check on, the search would stop
    # before its depth-limited passes reach impL
    c = _search(parse_formula("(p -> q) -> (q -> r) -> p -> r"),
                SearchBudget(max_depth=6), monkeypatch).counters()
    assert "impL" in tried
    assert (c["loop_prunes"] + c["cache_prunes"] + c["expansions"]
            == c["nodes"] - c["axioms"] - c["cutoffs"])


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


def _search(goal, budget, monkeypatch, run=search._Pass, refute_after=0):
    """search_proof with passes of the class run, checking for a refutation
    at node refute_after (never when 0)."""
    with monkeypatch.context() as m:
        m.setattr(search, "_Pass", run)
        m.setattr(search, "REFUTE_AFTER", refute_after)
        return search_proof(goal, budget)


class _NeverStores(dict):
    def __setitem__(self, key, value):
        pass


class _Uncached(search._Pass):
    """A pass whose failure cache stores nothing."""

    def __init__(self, *args):
        super().__init__(*args)
        self.fail_cache = _NeverStores()


class _LargestBoundOnly(search._Pass):
    """A pass that, below the budget's largest bound, visits no node and
    proves nothing, so that a search is one pass at the largest bound."""

    def __init__(self, bound, budget, *args):
        super().__init__(bound, budget, *args)
        if bound < budget.max_index:
            self.deeper = True
            self.prove = lambda seq, depth: None


# the configurations compared below: their node counts differ, so the root
# refutation check, which runs at a node count, is off in the comparisons
_CACHE_RUNS = (7, SearchBudget(max_depth=10, max_index=3), (3, 9), _Uncached)
_DEEPENING_RUNS = (16, SearchBudget(max_depth=10, max_index=4, max_nodes=10 ** 6), (4, 12),
                   _LargestBoundOnly)


def _goals(seed, sizes):
    rng = random.Random(seed)
    return [random_core_formula(rng, rng.randint(*sizes), ("p", "q")) for _ in range(200)]


def test_failure_cache_does_not_change_the_verdict(monkeypatch):
    seed, budget, sizes, uncached_pass = _CACHE_RUNS
    for goal in _goals(seed, sizes):
        cached = _search(goal, budget, monkeypatch)
        uncached = _search(goal, budget, monkeypatch, uncached_pass)
        assert uncached.counters()["cache_prunes"] == 0
        assert cached.status == uncached.status, goal


def test_deepening_agrees_with_one_pass_at_the_largest_bound(monkeypatch):
    seed, budget, sizes, one_pass_only = _DEEPENING_RUNS
    verdicts = set()
    for goal in _goals(seed, sizes):
        deepened = _search(goal, budget, monkeypatch)
        one_pass = _search(goal, budget, monkeypatch, one_pass_only)
        assert max(deepened.nodes, one_pass.nodes) <= budget.max_nodes
        assert deepened.status == one_pass.status, goal
        if deepened.proved:
            assert check_proof(deepened.proof).valid
        verdicts.add(deepened.status)
    assert {"proved", "not_found"} <= verdicts


@pytest.mark.parametrize("runs", [_CACHE_RUNS, _DEEPENING_RUNS], ids=["cache", "deepening"])
def test_refutations_of_either_configuration_recheck(runs, monkeypatch):
    seed, budget, sizes, run = runs
    refuted = 0
    for goal in _goals(seed, sizes):
        for out in (search_proof(goal, budget),
                    _search(goal, budget, monkeypatch, run, REFUTE_AFTER)):
            if out.status == "refuted":
                refuted += 1
                assert out.nodes == REFUTE_AFTER and out.refutation_checks == 1
                assert _certifies(goal, out.counterexample), goal
    assert refuted > 0


# ------------------------------------------------------------------
# Step selection against a reference read from the module docstring
# ------------------------------------------------------------------

def reference_steps(left, right, run):
    """The steps that the module docstring has search try at the sequent
    left => right (frozensets of assertions), each (rule, principal, k,
    premises) with premises as pairs of frozensets: the invertible phases
    scan each side's principals in Assertion.key order and the first match
    is the only step; else the branching steps are triaged and stably
    sorted, closing ones first, and the weaken steps follow.  Sets
    run.deeper when a larger bound would add a step."""
    sides = {"left": sorted(left, key=Assertion.key), "right": sorted(right, key=Assertion.key)}
    used = sorted({x for a in left | right for x in (a.i, a.j)})

    def premises(rule, a, k):
        out = []
        for act_left, act_right in rule.premises(a.formula, a.i, a.j, k):
            gone = set() if rule.keeps_principal else {a}
            out.append(((left - gone if rule.side == "left" else left)
                        | {Assertion(*t) for t in act_left},
                        (right - gone if rule.side == "right" else right)
                        | {Assertion(*t) for t in act_right}))
        return out

    for phase in ((AndL, NegL), (OrR, NegR)):
        for a in sides[phase[0].side]:
            for rule in phase:
                if isinstance(a.formula, rule.conn):
                    return [(rule, a, None, premises(rule, a, None))]
    imps = [a for a in sides["right"] if isinstance(a.formula, Imp)]
    if imps:
        fresh = [k for k in range(run.bound) if k not in used]
        if fresh:
            return [(ImpR, imps[0], fresh[0], premises(ImpR, imps[0], fresh[0]))]
        run.deeper = True
    triaged = []
    for rule in (OrL, AndR, ImpL):
        for a in sides[rule.side]:
            if isinstance(a.formula, rule.conn):
                run.deeper |= rule.index is not None
                for k in range(run.bound) if rule.index else [None]:
                    found = premises(rule, a, k)
                    if (left, right) not in found:
                        closes = any(p_left & p_right for p_left, p_right in found)
                        triaged.append((not closes, (rule, a, k, found)))
    triaged.sort(key=lambda step: step[0])
    steps = [step for _, step in triaged]
    if run.weakens:
        for x in used:
            if any(x not in (a.i, a.j) for a in imps):
                kept = [frozenset(a for a in side if x not in (a.i, a.j)) for side in (left, right)]
                steps.append((Weaken, None, None, [tuple(kept)]))
    return steps


class _Recording(search._Pass):
    """A pass that lists each (pass, sequent) it visits on ``visited`` and
    checks that its branch set is on return from a node as it was on entry,
    so empty on return from the root."""

    def __init__(self, *args):
        super().__init__(*args)
        self.roots = 0

    def prove(self, seq, depth):
        _Recording.visited.append((self, seq))
        before = set(self.branch)
        tree = super().prove(seq, depth)
        assert self.branch == before
        if not before:
            self.roots += 1
        return tree


def test_step_selection_matches_the_reference(monkeypatch):
    """Every sequent visited by searches of seeded corpus instances at
    bounds 1 to 4 gets the steps and the deeper flag of the reference."""
    _Recording.visited, compared, rules = [], 0, set()
    for max_index in range(1, 5):
        for goal in corpus_instances(21, 38):
            _search(goal, SearchBudget(max_index=max_index, max_nodes=300), monkeypatch,
                    _Recording)
    passes = {run for run, _ in _Recording.visited}
    assert all(run.roots <= 1 for run in passes) and sum(run.roots for run in passes) > 100
    for run, seq in dict.fromkeys(_Recording.visited):
        if seq[0] & seq[1]:
            continue
        decode = run.table.decode
        fast, slow = (SimpleNamespace(table=run.table, bound=run.bound, weakens=run.weakens,
                                      deeper=False) for _ in range(2))
        step = search._invertible(seq, fast)
        got = [(rule, None if one is None else next(iter(decode(one))), k,
                [(decode(left), decode(right)) for left, right in premises])
               for rule, one, k, premises in ([step] if step else search._steps(seq, fast))]
        assert got == reference_steps(decode(seq[0]), decode(seq[1]), slow), seq
        assert fast.deeper == slow.deeper, seq
        compared += 1
        rules |= {step[0] for step in got}
    assert compared > 2000 and rules == {AndL, NegL, OrR, NegR, ImpR, OrL, AndR, ImpL, Weaken}


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


def test_the_trigger_moves_the_check_not_what_it_finds(monkeypatch):
    # the goals and budget of tests/golden/search_outcomes.txt
    budget, rng = SearchBudget(max_nodes=5000), random.Random(8)
    goals = [entry.proof.goal for entry in list_corpus()]
    goals += [random_core_formula(rng, rng.randint(6, 12), ("p", "q")) for _ in range(40)]
    moved = 0
    for goal in goals:
        early = _search(goal, budget, monkeypatch, refute_after=64)
        late = _search(goal, budget, monkeypatch, refute_after=512)
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


@pytest.mark.parametrize("text", ["~~(p -> ~(q -> q))", "~~~(p -> r)"])
def test_a_search_keyed_by_its_masks_reaches_the_root_check(text):
    # a node is pruned only when its exact sequent was seen, not one equal
    # up to a renaming of indices, so these searches no longer end
    # not_found under REFUTE_AFTER nodes: they reach the root check, which
    # refutes them
    goal = parse_formula(text)
    out = search_proof(goal, SearchBudget(max_nodes=1000))
    assert (out.status, out.nodes, out.refutation_checks) == ("refuted", REFUTE_AFTER, 1)
    assert out.counterexample["point"] in search._refutes(goal, out.counterexample)
    assert _certifies(goal, out.counterexample)


@pytest.mark.parametrize("text", ["~(~p -> p -> ~q)", "~((~r -> ~r) & p)"])
def test_a_search_keyed_by_its_masks_is_refuted_a_pass_earlier(text):
    # with every sequent keyed by its masks, the search reaches REFUTE_AFTER
    # nodes in the pass at bound 3, not 4, and the root check refutes the
    # goal there
    goal = parse_formula(text)
    out = search_proof(goal, SearchBudget(max_nodes=1000))
    assert (out.status, out.bound, out.nodes, out.refutation_checks) == (
        "refuted", 3, REFUTE_AFTER, 1)
    assert out.counterexample["point"] in search._refutes(goal, out.counterexample)
    assert _certifies(goal, out.counterexample)


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


def outcome_digests(goals, budget=SearchBudget(), found=None):
    """Two sha256s over each goal's search outcome, in plain values: the
    verdict digest hashes status, bound, objects, proof script,
    counterexample and limit, and the outcome digest hashes these and every
    counter.  The proofs found are appended to the list found, if one is
    given."""
    outcomes, verdicts = hashlib.sha256(), hashlib.sha256()
    for goal in goals:
        out = search_proof(goal, budget)
        if out.proved and found is not None:
            found.append(out.proof)
        verdict = [out.status, out.bound, None if out.objects is None else sorted(out.objects),
                   format_proof_script("g", out.proof) if out.proved else None,
                   out.counterexample, out.limit]
        verdicts.update(json.dumps(verdict, sort_keys=True).encode() + b"\n")
        outcomes.update(json.dumps(verdict + [out.counters()], sort_keys=True).encode() + b"\n")
    return outcomes.hexdigest(), verdicts.hexdigest()


# the outcome and verdict digests of the set below, recorded with the search
# keyed by its masks
_OUTCOME_DIGESTS = ("64d0d2beca9c5479782feeea2c7fd3b8e787beb73961cdcbeed0e31f86144d04",
                    "8bf56a217efe623c11b8234bdddd2b7f8bcb1b8e048cb76eb9d271edc0cc2419")
# the outcome digest of the 400 instances of corpus_instances(11, 400) at the
# default budget, which CI checks outside Tier-1 (about 1.4 s), recorded with
# the search keyed by its masks
INSTANCES_DIGEST = "2a3e22d8d21e62e14d5fc8bf1c756f732f4450b41791987add0a1522f978396e"
# their verdict digest, recorded with the search keyed by canonical forms up
# to renaming that the mask keys replaced: a change to the search may move
# its counters, but no verdict of these 400 instances
INSTANCES_VERDICT_DIGEST = "9247b3097b76a358a7309c3d7f6bda28b829cb7a54fa5c4c11b75b613381580f"


def test_search_outcomes_match_their_digest():
    # 76 corpus instances and 60 random formulas at 1,000 nodes: every
    # status, and searches stopped by either limit
    rng = random.Random(13)
    goals = corpus_instances(12, 76)
    goals += [random_core_formula(rng, rng.randint(6, 12), "pqr") for _ in range(60)]
    assert outcome_digests(goals, SearchBudget(max_nodes=1000)) == _OUTCOME_DIGESTS
