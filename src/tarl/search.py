"""Bounded backward proof search for the sequent calculus.

Backward chaining from the goal sequent, reading the rule table of
``sequents`` backward: a row's premise function, given a principal of the
goal and an index k, yields each premise's actives, and the premise is the
goal with the principal removed (kept, for impL) and the actives added.
Invertible rows are applied eagerly, without backtracking: first those
whose principal is on the left (andL, negL), then on the right (orR, negR),
then impR with the least unused index.  Otherwise the branching rows are
explored depth-first in table order: orL, andR, then impL over every index
k.  Cut is never applied.  Loops are detected on canonical forms of
sequents modulo index renaming, and every returned proof re-checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .formulas import Formula
from .sequents import (
    RULE_NAMED, RULES, Assertion, Proof, Rule, Sequent, check_proof, goal_sequent,
)

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


@dataclass
class SearchOutcome:
    status: str  # "proved" | "not_found" | "budget_exhausted"
    proof: Proof | None = None
    nodes: int = 0

    @property
    def proved(self) -> bool:
        return self.status == "proved"


class _Budget:
    def __init__(self, budget: SearchBudget):
        self.max_nodes = budget.max_nodes
        self.nodes = 0
        self.cutoff = False

    def tick(self) -> bool:
        self.nodes += 1
        return self.nodes <= self.max_nodes


_AXIOM = RULE_NAMED["axiom"]
_intern: dict = {}


def _fid(f: Formula) -> int:
    fid = _intern.get(f)
    if fid is None:
        fid = len(_intern)
        _intern[f] = fid
    return fid


def _canonical(seq: Sequent, max_index: int) -> tuple:
    """Least encoded form over all renamings of the used indices."""
    used = sorted(seq.indices())
    left = [(_fid(a.formula), a.i, a.j) for a in seq.left]
    right = [(_fid(a.formula), a.i, a.j) for a in seq.right]
    best = None
    for image in itertools.permutations(range(max_index), len(used)):
        ren = dict(zip(used, image))
        key = (tuple(sorted((f, ren[i], ren[j]) for (f, i, j) in left)),
               tuple(sorted((f, ren[i], ren[j]) for (f, i, j) in right)))
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


def _backward(rule: Rule, seq: Sequent, principal: Assertion,
              k: int | None) -> list[Sequent]:
    """The premises from which rule concludes seq with this principal."""
    left, right = seq.left, seq.right
    if not rule.keeps_principal:
        if rule.side == "left":
            left = left - {principal}
        else:
            right = right - {principal}
    return [Sequent(left | act_left, right | act_right)
            for act_left, act_right in rule.actives(principal, k, rule.refs)]


def _steps(seq: Sequent, max_index: int):
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
                    yield rule, k, _backward(rule, seq, a, k)
                    return
    for rule in _BRANCHING:
        for a in ordered[rule.side]:
            if isinstance(a.formula, rule.conn):
                for k in range(max_index) if rule.index else (None,):
                    yield rule, k, _backward(rule, seq, a, k)


def _prove(seq: Sequent, depth: int, seen: frozenset, budget: _Budget,
           max_index: int, fail_cache: dict) -> tuple | None:
    """A proof tree of seq, each node (sequent, rule, k, children), or None."""
    if not budget.tick():
        raise _OutOfNodes()
    if seq.is_axiom():
        return seq, _AXIOM, None, ()
    if depth <= 0:
        budget.cutoff = True
        return None
    key = _canonical(seq, max_index)
    if key in seen:
        return None
    if fail_cache.get(key, -1) >= depth:
        return None
    seen = seen | {key}

    for rule, k, premises in _steps(seq, max_index):
        children = []
        for sub in premises:
            child = _prove(sub, depth - 1, seen, budget, max_index, fail_cache)
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
    root_seq = goal_sequent(goal)
    tracker = _Budget(budget)
    fail_cache: dict = {}
    try:
        tree = _prove(root_seq, budget.max_depth, frozenset(), tracker,
                      budget.max_index, fail_cache)
    except _OutOfNodes:
        return SearchOutcome("budget_exhausted", nodes=tracker.nodes)
    if tree is None:
        status = "budget_exhausted" if tracker.cutoff else "not_found"
        return SearchOutcome(status, nodes=tracker.nodes)
    lines: list = []
    _linearize(tree, lines, {})
    proof = Proof(lines=lines, bound=budget.max_index, goal=goal)
    report = check_proof(proof)
    if not report.valid:  # pragma: no cover - soundness guard
        raise AssertionError(f"search produced a bad proof: {report.first_error}")
    return SearchOutcome("proved", proof=proof, nodes=tracker.nodes)
