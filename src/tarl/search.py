"""Bounded backward proof search for the sequent calculus.

Backward chaining from the goal sequent, reading the rule table of
``sequents`` backward: a row's premise function, given a principal of the
goal and an index k, yields each premise's actives, and the premise is the
goal with the principal removed (kept, for impL) and the actives added.
Invertible rows are applied eagerly, without backtracking: first those
whose principal is on the left (andL, negL), then on the right (orR, negR),
then impR with the least unused index.  Otherwise the branching rows are
explored depth-first: orL, andR, then impL over every index k.  Cut is
never applied.  Every returned proof re-checks.

Index deepening.  The objects (indices) a proof uses are the logic's own
measure of its cost, so the search runs passes at bound 1, 2, ... up to
``max_index``, under one node budget shared by all passes; a proof found at
bound b uses at most b objects.  Deepening stops after a pass that reached
no impL and no impR short of an unused index: a larger bound adds no step,
so the next pass would repeat this one.

Weakening.  When impR has no unused index below the bound, a pass below
``max_index`` also tries, after the branching steps, weakening away every
assertion that holds one used index x (some impR principal does not hold
x), which frees x for impR.  ``weaken`` is a rule, so the proof records the
step.  This finds proofs with fewer objects than the next pass would use;
T11's needs it.  The last pass does not weaken: no smaller proof is left to
prefer, and weakened branches end in depth cutoffs, which would turn a
``not_found`` verdict into ``budget_exhausted``.

Step triage.  The branching steps are read from their actives before any
premise is built.  A step is dropped when one of its premises would equal
its conclusion (an impL whose active is already on its side): that premise
could only be a loop prune.  The steps with a premise that closes at once
(an active added on one side is already on the other) are tried first, the
rest in table order.

A sequent's canonical form is a key that two sequents share exactly when a
renaming of indices maps one onto the other; it detects loops (a key
already on the branch) and indexes the failure cache (a key that failed
with at least as much depth left).  Each index gets a signature that no
renaming changes, the sorted codes of its occurrences (formula, side and
position), and the key is the least encoding over the rankings of the
indices by signature, so only indices with equal signatures are permuted
(individualisation by invariants, as in McKay and Piperno, "Practical
graph isomorphism, II", 2014).  Keys and signatures are made of ints:
the key is the sorted tuple of one int per assertion (see ``_Table``).
Keys do not encode the bound, so each pass has a fresh failure cache.

Refutation at the root.  By the paper's definition a formula is in the
logic only if its translation contains the identity in every proper
relation algebra, and every rule preserves that.  So one assignment of
relations with a point x where (x, x) is outside ``translate(goal)``
shows that no proof exists at any bound, depth or node budget.  Once a
search has spent ``REFUTE_AFTER`` nodes, summed over its passes, it tests
the goal once with ``verified_in_algebra`` on a fixed seeded block of
samples of the proper algebra on 3 points.  If a sample fails, the search
stops with status ``refuted`` and a counterexample: the base, each
relation as sorted pairs of ints and the least point x with (x, x)
outside the goal's value, which ``_refutes`` re-checks from those pairs
before the outcome is returned.  The check costs about as much as ten
search nodes, close to all that a typical provable goal takes (12 to 20
nodes), so searches that stay under ``REFUTE_AFTER`` = 64 nodes never pay
for it; a provable search that reaches it pays roughly 15% more at that
point, and a refutable one wastes at most 64 nodes before it stops.
Internal nodes are never checked: pruning every node this way saved few
nodes and took longer.

Formulas are hash-consed (``formulas``), so the codes use each formula's
``uid``.  Each search owns a table (``_Table``) that gives each assertion a
bit the first time it is made, and a sequent in the search is a pair of
ints, the masks of its left and right sides.  A sequent is an axiom when
its masks share a bit.  A premise is its conclusion with the principal's
bit cleared (impL keeps it) and the actives' bits set, and triage tests
the actives' bits against the sides.  Index x is used when a side meets
``holds[x]``, the bits of the assertions that hold x; weakening clears
those bits.  The table keeps the active masks of each rule, principal and
index, sorts the principals of each side once, by their formula's cached
text, and memoises canonical forms on the masks, since sequents recur
across passes; it is dropped with the search.  Only the sequents of a
found proof are read back as ``Sequent``s, which ``check_proof``
re-checks.  The outcome sums over all passes how each node ended and how
many keys were taken.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from itertools import chain, groupby, permutations, product, starmap
from operator import itemgetter, or_

from .algebra import ProperAlgebra, _proper_carrier, verified_in_algebra
from .formulas import FORMULAS, Formula, desugar_fusion
from .sequents import (
    MAX_BOUND, RULE_NAMED, RULES, Assertion, Proof, Rule, Sequent, check_proof,
)

__all__ = ["SearchBudget", "SearchOutcome", "search_proof", "REFUTE_AFTER", "MAX_DEPTH"]

# the node at which a search checks its goal for a refutation, once (never
# when 0: out.nodes is never 0 at the test)
REFUTE_AFTER = 64
# the largest max_depth: _Pass.prove and _linearize recurse once per level of
# the search, and this many levels fit under Python's default recursion
# limit (1,000 frames) with room for their callers
MAX_DEPTH = 512
# the samples of that check: this many, on this many points, from this seed
_REFUTE_SAMPLES, _REFUTE_BASE, _REFUTE_SEED = 64, 3, 0


@dataclass(frozen=True)
class SearchBudget:
    max_depth: int = 16
    max_index: int = 4
    max_nodes: int = 20000

    def __post_init__(self):
        if self.max_depth <= 0 or self.max_nodes <= 0:
            raise ValueError("budget fields must be positive")
        if self.max_depth > MAX_DEPTH:
            raise ValueError(f"max_depth must be at most {MAX_DEPTH}")
        if not 1 <= self.max_index <= MAX_BOUND:
            raise ValueError(f"max_index must be within 1..{MAX_BOUND}")


_COUNTERS = ("nodes", "axioms", "cutoffs", "loop_prunes", "cache_prunes",
             "expansions", "canonical_forms", "refutation_checks")


@dataclass
class SearchOutcome:
    """The verdict and the work done, summed over the passes.  Every node
    visited ends as exactly one of an axiom leaf, a depth cutoff, a loop
    prune (its canonical form is on the current branch), a cache prune (it
    failed before in its pass with at least this depth left) or an
    expansion, except the one at which the search stops early: nodes is
    their sum, plus 1 when the node budget ran out or the goal was refuted.
    canonical_forms, the number of keys taken at the key test, is not part
    of that sum.  bound is the index bound of the last pass.  A found proof
    comes with the objects (indices) it uses; its level is their number.

    refutation_checks is 1 when the search reached node ``REFUTE_AFTER``
    and checked its goal in sampled proper relation algebras, else 0.  The
    trigger is 64 because the check costs about ten nodes: a provable
    search that reaches it pays roughly 15% more there, and a refutable one
    spends at most 64 nodes.
    Status ``refuted`` means a sample failed at that node: counterexample
    holds ``base`` (the points are 0..base-1), ``relations`` (each
    variable's relation, sorted pairs of ints) and ``point``, an x with
    (x, x) outside ``translate(goal)``.  The goal is then outside the
    logic, so no proof exists at any bound, depth or node budget.
    ``not_found`` says only that the bounded space was searched in full.
    limit says why a search ended ``budget_exhausted``: "nodes" when the
    node budget ran out, "depth" when the last pass ended on depth
    cutoffs; it is None for every other status."""
    status: str  # "proved" | "refuted" | "not_found" | "budget_exhausted"
    proof: Proof | None = None
    nodes: int = 0
    axioms: int = 0
    cutoffs: int = 0
    loop_prunes: int = 0
    cache_prunes: int = 0
    expansions: int = 0
    canonical_forms: int = 0
    refutation_checks: int = 0
    objects: frozenset[int] | None = None
    bound: int = 0
    counterexample: dict | None = None
    limit: str | None = None  # "nodes" | "depth"

    @property
    def proved(self) -> bool:
        return self.status == "proved"

    @property
    def level(self) -> int | None:
        return None if self.objects is None else len(self.objects)

    def counters(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _COUNTERS}


_AXIOM = RULE_NAMED["axiom"]
_WEAKEN = RULE_NAMED["weaken"]
_IMPR = RULE_NAMED["impR"]
_CONNECTIVES = tuple({rule.conn for rule in RULES if rule.conn})


class _Table:
    """One search's assertions, the actives of its rule applications, the
    order of each side's principals and the canonical forms.

    Each assertion gets a bit the first time it is made, and a sequent is
    the pair (left, right) of the masks of its sides.  ``holds[x]`` has the
    bits of the assertions that hold index x.  A side's principals are
    sorted once, the first time a node has them."""

    def __init__(self):
        self._bits: dict[int, int] = {}
        self._made: list[Assertion] = []
        # each bit's canonical code, (uid << 1 | side, i, j), per side
        self._codes: tuple[list, list] = ([], [])
        self._connectives = 0  # the bits of assertions some rule takes as principal
        self.holds = [0] * MAX_BOUND
        self._actives: dict[tuple, list[tuple[int, int]]] = {}
        self._ordered: dict[int, list[Assertion]] = {}
        self._canonical: dict[tuple[int, int], tuple[int, ...]] = {}

    def bit(self, f: Formula, i: int, j: int) -> int:
        """The mask of (f)[i,j] alone; i and j are below 8, as max_index is
        at most MAX_BOUND."""
        key = f.uid << 6 | i << 3 | j
        one = self._bits.get(key)
        if one is None:
            one = self._bits[key] = 1 << len(self._made)
            self._made.append(Assertion(f, i, j))
            self._codes[0].append((f.uid << 1, i, j))
            self._codes[1].append((f.uid << 1 | 1, i, j))
            if isinstance(f, _CONNECTIVES):
                self._connectives |= one
            holds = self.holds
            holds[i] |= one
            holds[j] |= one
        return one

    def encode(self, side: Iterable[Assertion]) -> int:
        """The mask of a set of assertions."""
        return reduce(or_, [self.bit(a.formula, a.i, a.j) for a in side], 0)

    def actives(self, rule: Rule, a: Assertion, k: int | None) -> list[tuple[int, int]]:
        """The masks of each premise's left and right actives when rule has
        principal a and index k."""
        key = rule, a, k
        out = self._actives.get(key)
        if out is None:
            bit = self.bit
            out = self._actives[key] = [
                (reduce(or_, starmap(bit, left), 0), reduce(or_, starmap(bit, right), 0))
                for left, right in rule.premises(a.formula, a.i, a.j, k)]
        return out

    def decode(self, mask: int) -> frozenset[Assertion]:
        """The assertions of a mask."""
        return frozenset(_picked(self._made, mask))

    def ordered(self, side: int) -> list[Assertion]:
        """The assertions of side that some rule takes as principal (no
        atom), in ``Assertion.key`` order."""
        side &= self._connectives
        out = self._ordered.get(side)
        if out is None:
            out = self._ordered[side] = sorted(_picked(self._made, side), key=Assertion.key)
        return out

    def canonical(self, seq: tuple[int, int]) -> tuple[int, ...]:
        """The canonical form of seq (see the module docstring): the sorted
        codes ``(uid << 1 | side) << 6 | rank_i << 3 | rank_j`` of its
        assertions, with side 0 for the left and 1 for the right.  The
        ranks fit 3 bits because seq uses at most 8 indices (``max_index``
        is at most ``MAX_BOUND`` = 8).  An index's signature holds
        ``(uid << 1 | side) << 2 | position`` per occurrence, position 0 for
        i, 1 for j and 2 for both.  When no two signatures are equal there is one ranking."""
        best = self._canonical.get(seq)
        if best is not None:
            return best
        codes = _picked(self._codes[0], seq[0]) + _picked(self._codes[1], seq[1])
        occurs: dict[int, list[int]] = {}
        for code, i, j in codes:
            code <<= 2
            if i == j:
                occurs.setdefault(i, []).append(code | 2)
            else:
                occurs.setdefault(i, []).append(code)
                occurs.setdefault(j, []).append(code | 1)
        for sig in occurs.values():
            sig.sort()
        order = sorted(occurs, key=occurs.__getitem__)
        ties = [tuple(g) for _, g in groupby(order, key=occurs.__getitem__)]
        if len(ties) == len(order):
            rankings = [order]
        else:
            rankings = [list(chain.from_iterable(ranking))
                        for ranking in product(*map(permutations, ties))]
        for ranking in rankings:
            rank = dict(zip(ranking, range(len(ranking))))
            key = tuple(sorted([code << 6 | rank[i] << 3 | rank[j]
                                for code, i, j in codes]))
            if best is None or key < best:
                best = key
        self._canonical[seq] = best
        return best


def _picked(items: list, mask: int) -> list:
    """The items at the positions of the bits set in mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(items[low.bit_length() - 1])
        mask ^= low
    return out


def _fresh_index(seq: tuple[int, int], avoid: tuple[int, int], max_index: int,
                 table: _Table) -> int | None:
    used = seq[0] | seq[1]
    for k in range(max_index):
        if not used & table.holds[k] and k not in avoid:
            return k
    return None


# invertible rows in the order tried: left, right, then eigen-index rows
_INVERTIBLE = [phase for phase in (
    [r for r in RULES if r.invertible and r.side == side and bool(r.index) == eigen]
    for eigen in (False, True) for side in ("left", "right")) if phase]
_BRANCHING = [r for r in RULES if r.side and not r.invertible]


def _backward(rule: Rule, seq: tuple[int, int], principal: Assertion, k: int | None,
              table: _Table) -> list[tuple[int, int]]:
    """The premises from which rule concludes seq with this principal."""
    left, right = seq
    if not rule.keeps_principal:
        keep = ~table.bit(principal.formula, principal.i, principal.j)
        if rule.side == "left":
            left &= keep
        else:
            right &= keep
    return [(left | act_left, right | act_right)
            for act_left, act_right in table.actives(rule, principal, k)]


def _triage(rule: Rule, a: Assertion, k: int | None, seq: tuple[int, int],
            table: _Table) -> int | None:
    """The try order of a branching step, read from its actives: None when
    a premise would equal seq (the step is dropped), 0 when a premise
    closes at once, else 1."""
    left, right = seq
    order = 1
    for act_left, act_right in table.actives(rule, a, k):
        if rule.keeps_principal and not (act_left & ~left or act_right & ~right):
            return None
        if act_left & right or act_right & left:
            order = 0
    return order


def _steps(seq: tuple[int, int], run: _Pass):
    """Backward steps (rule, k, premises) to try in turn: the first
    invertible one alone, or else the branching ones after triage (see the
    module docstring), then the weaken steps that free an index for impR.
    A step's premises are built when it is tried.  Sets ``run.deeper`` when
    a larger bound would add a step."""
    table = run.table
    ordered = {"left": table.ordered(seq[0]), "right": table.ordered(seq[1])}
    short = False  # impR found no unused index below the bound
    for phase in _INVERTIBLE:
        for a in ordered[phase[0].side]:
            for rule in phase:
                if isinstance(a.formula, rule.conn) and not short:
                    k = _fresh_index(seq, (a.i, a.j), run.bound, table) if rule.index else None
                    if rule.index is None or k is not None:
                        yield rule, k, _backward(rule, seq, a, k, table)
                        return
                    short = run.deeper = True
    steps = []
    for rule in _BRANCHING:
        for a in ordered[rule.side]:
            if isinstance(a.formula, rule.conn):
                run.deeper |= bool(rule.index)
                for k in range(run.bound) if rule.index else (None,):
                    order = _triage(rule, a, k, seq, table)
                    if order is not None:
                        steps.append((order, rule, a, k))
    steps.sort(key=itemgetter(0))  # stable: table order within each class
    for _, rule, a, k in steps:
        yield rule, k, _backward(rule, seq, a, k, table)
    if short and run.weakens:
        imps = [a for a in ordered["right"] if isinstance(a.formula, _IMPR.conn)]
        left, right = seq
        for x, holds in enumerate(table.holds):
            if (left | right) & holds and any(x != a.i and x != a.j for a in imps):
                yield _WEAKEN, None, [(left & ~holds, right & ~holds)]


class _OutOfNodes(Exception):
    pass


class _Refuted(Exception):
    """The goal's counterexample, found at the root check."""


def _refutation(goal: Formula) -> dict | None:
    """A counterexample to goal in sampled proper relation algebras (see
    ``SearchOutcome``), or None when every sample contains the identity."""
    alg = ProperAlgebra(_REFUTE_BASE)
    found = verified_in_algebra(alg, goal, trials=_REFUTE_SAMPLES, seed=_REFUTE_SEED)
    if found:
        return None
    relations = {name: tuple(sorted(pairs)) for name, pairs in found.counterexample.items()}
    cert = {"base": _REFUTE_BASE, "point": None, "relations": relations}
    cert["point"] = _refutes(goal, cert)[0]
    return cert


def _refutes(goal: Formula, cert: dict) -> list[int]:
    """The points x that cert, read from its pairs alone, puts with (x, x)
    outside translate(goal), folded through the proper carrier's connectives."""
    c = _proper_carrier(cert["base"])
    env = {name: c.encode(pairs) for name, pairs in cert["relations"].items()}
    return (~FORMULAS.evaluate(goal, env, c.connectives).diagonal()).nonzero()[0].tolist()


class _Pass:
    """One depth-first search at one index bound, counting on out."""

    def __init__(self, bound: int, budget: SearchBudget, out: SearchOutcome, table: _Table,
                 goal: Formula):
        self.bound = bound
        self.weakens = bound < budget.max_index  # try the steps that free an index
        self.max_nodes = budget.max_nodes
        self.goal = goal
        self.refute_at = REFUTE_AFTER
        self.out = out
        self.table = table
        self.fail_cache = {}  # keys do not encode the bound, so each pass has its own
        self.deeper = False  # some node had a step that a larger bound extends

    def prove(self, seq: tuple[int, int], depth: int, seen: frozenset) -> tuple | None:
        """A proof tree of seq, each node (masks, rule, k, children), or
        None; each node visited is counted on out."""
        out = self.out
        out.nodes += 1
        if out.nodes > self.max_nodes:
            raise _OutOfNodes()
        if out.nodes == self.refute_at:
            out.refutation_checks += 1
            cert = _refutation(self.goal)
            if cert is not None:
                raise _Refuted(cert)
        if seq[0] & seq[1]:
            out.axioms += 1
            return seq, _AXIOM, None, ()
        if depth <= 0:
            out.cutoffs += 1
            return None
        key = self.table.canonical(seq)
        out.canonical_forms += 1
        if key in seen:
            out.loop_prunes += 1
            return None
        if self.fail_cache.get(key, -1) >= depth:
            out.cache_prunes += 1
            return None
        out.expansions += 1
        seen = seen | {key}

        for rule, k, premises in _steps(seq, self):
            children = []
            for sub in premises:
                child = self.prove(sub, depth - 1, seen)
                if child is None:
                    children = None
                    break
                children.append(child)
            if children is not None:
                return seq, rule, k, children
        self.fail_cache[key] = depth
        return None


def _linearize(node: tuple, lines: list, index: dict, table: _Table) -> int:
    """Appends the lines of a proof tree, each node's sequent read back from
    its masks, and returns the node's line number.  It recurses once per
    level (a comprehension would add a frame of its own)."""
    seq, rule, k, children = node
    if seq in index:
        return index[seq]
    refs = []
    for child in children:
        refs.append(_linearize(child, lines, index, table))
    eigen = k if rule.index == "eigen" else None  # impL's k is not recorded
    lines.append((Sequent(table.decode(seq[0]), table.decode(seq[1])),
                  rule(*refs, eigen=eigen)))
    index[seq] = len(lines)
    return len(lines)


def search_proof(goal: Formula, budget: SearchBudget = SearchBudget()) -> SearchOutcome:
    """Search for a proof of => (goal)[0,0]; fusion is desugared first."""
    table = _Table()
    root_seq = (0, table.encode([Assertion(desugar_fusion(goal), 0, 0)]))
    out = SearchOutcome("budget_exhausted")
    for bound in range(1, budget.max_index + 1):
        out.bound, cutoffs = bound, out.cutoffs
        run = _Pass(bound, budget, out, table, goal)
        try:
            tree = run.prove(root_seq, budget.max_depth, frozenset())
        except _OutOfNodes:
            out.limit = "nodes"
            return out
        except _Refuted as stop:
            cert = stop.args[0]
            if cert["point"] not in _refutes(goal, cert):  # pragma: no cover - soundness guard
                raise AssertionError(f"search produced a bad counterexample: {cert}")
            out.status, out.counterexample = "refuted", cert
            return out
        if tree is not None or not run.deeper:
            break
    if tree is None:
        if out.cutoffs == cutoffs:
            out.status = "not_found"
        else:
            out.limit = "depth"
        return out
    lines: list = []
    _linearize(tree, lines, {}, table)
    proof = Proof(lines=lines, bound=budget.max_index, goal=goal)
    report = check_proof(proof)
    if not report.valid:  # pragma: no cover - soundness guard
        raise AssertionError(f"search produced a bad proof: {report.first_error}")
    out.status, out.proof, out.objects = "proved", proof, report.objects_used
    return out
