"""Bounded backward proof search for the sequent calculus.

Backward chaining from the goal sequent, reading the rule table of
``sequents`` backward: a row's premise function, given a principal of the
goal and an index k, yields each premise's actives, and the premise is the
goal with the principal removed (kept, for impL) and the actives added.
Invertible rows are applied eagerly, without backtracking: first those
whose principal is on the left (andL, negL), then on the right (orR, negR),
then impR with the least unused index.  Otherwise the branching rows are
explored depth-first in table order: orL, andR, then impL over every index
k.  Cut is never applied.  Every returned proof re-checks.

A sequent's canonical form is a key that two sequents share exactly when a
renaming of indices maps one onto the other; it detects loops (a key
already on the branch) and indexes the failure cache (a key that failed
with at least as much depth left).  Each index gets a signature that no
renaming changes, the sorted (side, formula id, position) of its
occurrences, and the key is the least encoding over the rankings of the
indices by signature, so only indices with equal signatures are permuted
(individualisation by invariants, as in McKay and Piperno, "Practical
graph isomorphism, II", 2014).

Formulas are hash-consed (``formulas``), so the signatures use each
formula's ``uid`` and steps are ordered by its cached text.  Each search
owns a table (``_Table``) in which every assertion is made once, so
sequent set operations reuse stored hashes.  The outcome counts how each
node ended.
"""

from __future__ import annotations

from itertools import chain, groupby, permutations, product, starmap
from dataclasses import dataclass

from .formulas import Formula, desugar_fusion
from .sequents import RULE_NAMED, RULES, Assertion, Proof, Rule, Sequent, check_proof

__all__ = ["SearchBudget", "SearchOutcome", "search_proof"]


@dataclass(frozen=True)
class SearchBudget:
    max_depth: int = 16
    max_index: int = 4
    max_nodes: int = 20000

    def __post_init__(self):
        if self.max_depth <= 0 or self.max_nodes <= 0:
            raise ValueError("budget fields must be positive")
        if not 1 <= self.max_index <= 8:
            raise ValueError("max_index must be within 1..8")


_COUNTERS = ("nodes", "axioms", "cutoffs", "loop_prunes", "cache_prunes",
             "expansions")


@dataclass
class SearchOutcome:
    """The verdict and the work done.  Every node visited ends as exactly
    one of an axiom leaf, a depth cutoff, a loop prune (its canonical form
    is on the current branch), a cache prune (it failed before with at
    least this depth left) or an expansion, except the one that runs out
    of nodes: nodes is their sum, plus 1 when the node budget ran out."""
    status: str  # "proved" | "not_found" | "budget_exhausted"
    proof: Proof | None = None
    nodes: int = 0
    axioms: int = 0
    cutoffs: int = 0
    loop_prunes: int = 0
    cache_prunes: int = 0
    expansions: int = 0

    @property
    def proved(self) -> bool:
        return self.status == "proved"

    def counters(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _COUNTERS}


class _Budget:
    """One search's limits and the count of each kind of node."""

    def __init__(self, budget: SearchBudget):
        self.max_nodes = budget.max_nodes
        self.max_index = budget.max_index
        self.nodes = self.axioms = self.cutoffs = 0
        self.loop_prunes = self.cache_prunes = self.expansions = 0

    def tick(self) -> bool:
        self.nodes += 1
        return self.nodes <= self.max_nodes

    def outcome(self, status: str, proof: Proof | None = None) -> SearchOutcome:
        return SearchOutcome(status, proof,
                             *(getattr(self, name) for name in _COUNTERS))


_AXIOM = RULE_NAMED["axiom"]


class _Table:
    """One search's one-element assertion sets and canonical forms.

    Each assertion is made once, as a one-element set; sequents are unions
    and differences of these sets, which reuse the stored hashes, so an
    assertion is hashed once per search and not once per node."""

    def __init__(self):
        self._singles: dict[tuple[Formula, int, int], frozenset[Assertion]] = {}

    def single(self, f: Formula, i: int, j: int) -> frozenset[Assertion]:
        """{(f)[i,j]}."""
        key = (f, i, j)
        one = self._singles.get(key)
        if one is None:
            one = self._singles[key] = frozenset((Assertion(f, i, j),))
        return one

    def canonical(self, seq: Sequent) -> tuple:
        """The canonical form of seq (see the module docstring); a
        signature's position is 0 for i, 1 for j and 2 for both."""
        sides = ([(a.formula.uid, a.i, a.j) for a in seq.left],
                 [(a.formula.uid, a.i, a.j) for a in seq.right])
        occurs: dict[int, list] = {}
        for s, side in enumerate(sides):
            for f, i, j in side:
                if i == j:
                    occurs.setdefault(i, []).append((s, f, 2))
                else:
                    occurs.setdefault(i, []).append((s, f, 0))
                    occurs.setdefault(j, []).append((s, f, 1))
        for sig in occurs.values():
            sig.sort()
        order = sorted(occurs, key=occurs.__getitem__)
        ties = [list(g) for _, g in groupby(order, key=occurs.__getitem__)]
        best = None
        for ranking in product(*map(permutations, ties)):
            rank = dict(zip(chain.from_iterable(ranking), range(len(order))))
            key = tuple(tuple(sorted([(f, rank[i], rank[j]) for f, i, j in side]))
                        for side in sides)
            if best is None or key < best:
                best = key
        return best


def _fresh_index(seq: Sequent, avoid: tuple[int, int], max_index: int) -> int | None:
    used = seq.indices()
    for k in range(max_index):
        if k not in used and k not in avoid:
            return k
    return None


# invertible rows in the order tried: left, right, then eigen-index rows
_INVERTIBLE = [phase for phase in (
    [r for r in RULES if r.invertible and r.side == side and bool(r.index) == eigen]
    for eigen in (False, True) for side in ("left", "right")) if phase]
_BRANCHING = [r for r in RULES if r.side and not r.invertible]


def _backward(rule: Rule, seq: Sequent, principal: Assertion, k: int | None,
              table: _Table) -> list[Sequent]:
    """The premises from which rule concludes seq with this principal."""
    left, right = seq.left, seq.right
    if not rule.keeps_principal:
        drop = table.single(principal.formula, principal.i, principal.j)
        if rule.side == "left":
            left = left - drop
        else:
            right = right - drop
    return [Sequent(left.union(*starmap(table.single, act_left)),
                    right.union(*starmap(table.single, act_right)))
            for act_left, act_right in rule.premises(principal.formula, principal.i,
                                                     principal.j, k)]


def _steps(seq: Sequent, max_index: int, table: _Table):
    """Backward steps (rule, k, premises) to try in turn: the first
    invertible one alone, or else every branching one."""
    ordered = {"left": sorted(seq.left, key=Assertion.key),
               "right": sorted(seq.right, key=Assertion.key)}
    for phase in _INVERTIBLE:
        for a in ordered[phase[0].side]:
            for rule in phase:
                if not isinstance(a.formula, rule.conn):
                    continue
                k = _fresh_index(seq, (a.i, a.j), max_index) if rule.index else None
                if rule.index is None or k is not None:
                    yield rule, k, _backward(rule, seq, a, k, table)
                    return
    for rule in _BRANCHING:
        for a in ordered[rule.side]:
            if isinstance(a.formula, rule.conn):
                for k in range(max_index) if rule.index else (None,):
                    yield rule, k, _backward(rule, seq, a, k, table)


def _prove(seq: Sequent, depth: int, seen: frozenset, budget: _Budget,
           table: _Table, fail_cache: dict) -> tuple | None:
    """A proof tree of seq, each node (sequent, rule, k, children), or None."""
    if not budget.tick():
        raise _OutOfNodes()
    if seq.is_axiom():
        budget.axioms += 1
        return seq, _AXIOM, None, ()
    if depth <= 0:
        budget.cutoffs += 1
        return None
    key = table.canonical(seq)
    if key in seen:
        budget.loop_prunes += 1
        return None
    if fail_cache.get(key, -1) >= depth:
        budget.cache_prunes += 1
        return None
    budget.expansions += 1
    seen = seen | {key}

    for rule, k, premises in _steps(seq, budget.max_index, table):
        children = []
        for sub in premises:
            child = _prove(sub, depth - 1, seen, budget, table, fail_cache)
            if child is None:
                children = None
                break
            children.append(child)
        if children is not None:
            return seq, rule, k, children
    fail_cache[key] = depth
    return None


class _OutOfNodes(Exception):
    pass


def _linearize(node: tuple, lines: list, index: dict) -> int:
    seq, rule, k, children = node
    if seq in index:
        return index[seq]
    refs = [_linearize(child, lines, index) for child in children]
    lines.append((seq, rule.make(refs, k)))
    index[seq] = len(lines)
    return len(lines)


def search_proof(goal: Formula, budget: SearchBudget = SearchBudget()) -> SearchOutcome:
    """Search for a proof of => (goal)[0,0]; fusion is desugared first."""
    return _search(goal, budget, {})


def _search(goal: Formula, budget: SearchBudget, fail_cache: dict) -> SearchOutcome:
    """search_proof, with the failure cache passed in."""
    table = _Table()
    root_seq = Sequent(frozenset(), table.single(desugar_fusion(goal), 0, 0))
    tracker = _Budget(budget)
    try:
        tree = _prove(root_seq, budget.max_depth, frozenset(), tracker, table,
                      fail_cache)
    except _OutOfNodes:
        return tracker.outcome("budget_exhausted")
    if tree is None:
        return tracker.outcome("budget_exhausted" if tracker.cutoffs else "not_found")
    lines: list = []
    _linearize(tree, lines, {})
    proof = Proof(lines=lines, bound=budget.max_index, goal=goal)
    report = check_proof(proof)
    if not report.valid:  # pragma: no cover - soundness guard
        raise AssertionError(f"search produced a bad proof: {report.first_error}")
    return tracker.outcome("proved", proof)
