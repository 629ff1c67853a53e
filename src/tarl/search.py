"""Bounded backward proof search for the sequent calculus.

Backward chaining from the goal sequent, reading the rule table of
``sequents`` backward: a row's premise function, given a principal of the
goal and an index k, yields each premise's actives, and the premise is the
goal with the principal removed (kept, for impL) and the actives added.
Principals are taken in ``Assertion.key`` order.  Invertible rows are
applied eagerly, without backtracking, to the first principal of the first
of these that has one: andL or negL on the left, orR or negR on the right,
impR with the least unused index.  Otherwise the branching rows are
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

Step triage.  A branching step is dropped when one of its premises
equals its conclusion (an impL whose active is already on its side): that
premise could only be a loop prune.  The steps with a premise that closes
at once (an axiom) are tried first, the rest after, each in table order.

A node's key is its sequent, the pair of masks below: it detects loops (a
key of a node on the branch being expanded, the pass's one set) and
indexes the failure cache (a key that failed with at least as much depth
left).  Keys do not encode the bound, so each pass has a fresh failure
cache.

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
outside the goal's value.  The certificate is re-read from its pairs
alone once, where it is made: ``_refutes`` folds the goal through the
proper carrier's connectives, and its least point is x.  The check takes
about 0.2 ms, as long as 40 to 55 search nodes, more than all that a
typical provable goal takes (12 to 20 nodes), so searches that stay
under ``REFUTE_AFTER`` = 64 nodes never pay for it; a provable search
that reaches it pays about 20% more (5% to 60%), and a refutable one
wastes at most 64 nodes before it stops (the 20 goals of the benchmark's
prove workload that reach it, on a 2-core x86-64 machine with Python
3.11).
Internal nodes are never checked: pruning every node this way saved few
nodes and took longer.

Each search owns a table (``_Table``): the checker's table of assertions
(``sequents._Bits``, which says how an assertion gets its bit) at bound
``max_index``, so a sequent in the search is a pair of ints, the masks of
its left and right sides.  A sequent is an axiom when its masks share a
bit.  A premise is its conclusion with the principal's bit cleared (impL
keeps it) and the actives' bits set.  A rule's principals on a side are
the side's mask and its connective's in ``kinds``; the table sorts the
bits of each such mask once, by their formula's cached text.  Index x is
used when a side meets ``holds[x]``; weakening clears those bits.  The
table keeps the active masks of each rule, principal and index; it is
dropped with the search.  Only the sequents of a found proof are read back
as ``Sequent``s, each distinct side once, which ``check_proof`` re-checks.
The outcome sums over all passes how each node ended.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import starmap
from operator import or_

from .algebra import ProperAlgebra, _proper_carrier, verified_in_algebra
from .formulas import FORMULAS, And, Formula, Imp, Neg, Or, desugar_fusion
from .sequents import (
    MAX_BOUND, AndL, AndR, Assertion, Axiom, ImpL, ImpR, NegL, NegR, OrL, OrR, Proof, Rule,
    Sequent, Weaken, _Bits, check_proof,
)

__all__ = ["SearchBudget", "SearchOutcome", "search_proof", "REFUTE_AFTER", "MAX_DEPTH"]

# the node at which a search checks its goal for a refutation, once (never
# when 0: out.nodes is never 0 at the test); the module docstring says what
# the check costs, and moving the trigger moves verdicts
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
             "expansions", "refutation_checks")


@dataclass
class SearchOutcome:
    """The verdict and the work done, summed over the passes.  Every node
    visited ends as exactly one of an axiom leaf, a depth cutoff, a loop
    prune (its sequent is on the current branch), a cache prune (it failed
    before in its pass with at least this depth left) or an expansion,
    except the one at which the search stops early: nodes is their sum,
    plus 1 when the node budget ran out or the goal was refuted.  bound is
    the index bound of the last pass.  A found proof comes with the objects
    (indices) it uses; its level is their number.

    refutation_checks is 1 when the search reached node ``REFUTE_AFTER``
    and checked its goal in sampled proper relation algebras, else 0 (the
    module docstring says what the check costs).
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


class _Table(_Bits):
    """One search's table of assertions (``sequents._Bits``), with what the
    search reads of it memoized: the actives of each rule application, each
    mask's principals in order and each mask's assertions."""

    __slots__ = ("_actives", "_ordered", "_decoded")

    def __init__(self, bound: int):
        super().__init__(bound)
        self._actives, self._ordered, self._decoded = {}, {}, {}

    def actives(self, rule: Rule, one: int, k: int | None) -> list[tuple[int, int]]:
        """The masks of each premise's left and right actives when rule has
        the principal of bit one and index k."""
        key = rule, one, k
        out = self._actives.get(key)
        if out is None:
            a, bit = self.made[one.bit_length() - 1], self.bit
            out = self._actives[key] = [
                (reduce(or_, starmap(bit, left), 0), reduce(or_, starmap(bit, right), 0))
                for left, right in rule.premises(a.formula, a.i, a.j, k)]
        return out

    def decode(self, mask: int) -> frozenset[Assertion]:
        """The assertions of a mask, read once per mask."""
        out = self._decoded.get(mask)
        if out is None:
            made = self.made
            out = self._decoded[mask] = frozenset(made[one.bit_length() - 1]
                                                  for one in _ones(mask))
        return out

    def ordered(self, mask: int) -> list[int]:
        """The bits of mask, one each, in their assertions' ``Assertion.key``
        order."""
        out = self._ordered.get(mask)
        if out is None:
            made, out = self.made, _ones(mask)
            if len(out) > 1:  # a key prints a formula
                out.sort(key=lambda one: made[one.bit_length() - 1].key())
            self._ordered[mask] = out
        return out


def _ones(mask: int) -> list[int]:
    """The bits set in mask, one each, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _fresh_index(seq: tuple[int, int], bound: int, table: _Table) -> int | None:
    used = seq[0] | seq[1]
    for k in range(bound):
        if not used & table.holds[k]:
            return k
    return None


def _backward(rule: Rule, seq: tuple[int, int], one: int, k: int | None,
              table: _Table) -> list[tuple[int, int]]:
    """The premises from which rule concludes seq with the principal of
    bit one."""
    left, right = seq
    if not rule.keeps_principal:
        if rule.side == "left":
            left &= ~one
        else:
            right &= ~one
    return [(left | act_left, right | act_right)
            for act_left, act_right in table.actives(rule, one, k)]


def _invertible(seq: tuple[int, int], run: _Pass) -> tuple | None:
    """The first invertible step (rule, principal's bit, k, premises): the
    key-least principal of andL or negL, else of orR or negR, else of impR
    with the least unused index; None when there is none.  Sets
    ``run.deeper`` when impR has no unused index below the bound."""
    left, right = seq
    table = run.table
    kinds = table.kinds
    mask = left & (kinds[And] | kinds[Neg])
    if mask:
        one = table.ordered(mask)[0]
        rule = AndL if one & kinds[And] else NegL
        return rule, one, None, _backward(rule, seq, one, None, table)
    mask = right & (kinds[Or] | kinds[Neg])
    if mask:
        one = table.ordered(mask)[0]
        rule = OrR if one & kinds[Or] else NegR
        return rule, one, None, _backward(rule, seq, one, None, table)
    mask = right & kinds[Imp]
    if mask:
        k = _fresh_index(seq, run.bound, table)
        if k is not None:
            one = table.ordered(mask)[0]
            return ImpR, one, k, _backward(ImpR, seq, one, k, table)
        run.deeper = True
    return None


def _steps(seq: tuple[int, int], run: _Pass) -> list[tuple]:
    """The branching steps (rule, principal's bit, k, premises) after
    triage (see the module docstring), then the weaken steps that free an
    index for impR.  Sets ``run.deeper`` when a larger bound would add a
    step."""
    left, right = seq
    table, kinds = run.table, run.table.kinds
    closing, rest = [], []
    for rule, side in ((OrL, left), (AndR, right), (ImpL, left)):
        mask = side & kinds[rule.conn]
        if not mask:
            continue
        run.deeper |= bool(rule.index)
        for one in table.ordered(mask):
            for k in range(run.bound) if rule.index else (None,):
                premises = _backward(rule, seq, one, k, table)
                if seq in premises:  # impL with an active already on its side
                    continue
                (l1, r1), (l2, r2) = premises  # a branching rule has two
                (closing if l1 & r1 or l2 & r2 else rest).append((rule, one, k, premises))
    steps = closing + rest
    if run.weakens:  # no invertible step applied, so each impR here was short
        imps = right & kinds[Imp]
        for holds in table.holds:  # holds[x]: x is used and some impR principal lacks x
            if (left | right) & holds and imps & ~holds:
                steps.append((Weaken, None, None, [(left & ~holds, right & ~holds)]))
    return steps


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
    points = _refutes(goal, cert)
    if not points:  # soundness guard: the sample and its pairs disagree
        raise AssertionError(f"search produced a bad counterexample: {cert}")
    cert["point"] = points[0]
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
        self.branch = set()  # the sequents of the nodes on the branch being expanded

    def prove(self, seq: tuple[int, int], depth: int) -> tuple | None:
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
            return seq, Axiom, None, ()
        if depth <= 0:
            out.cutoffs += 1
            return None
        branch = self.branch
        if seq in branch:
            out.loop_prunes += 1
            return None
        if self.fail_cache.get(seq, -1) >= depth:
            out.cache_prunes += 1
            return None
        out.expansions += 1
        branch.add(seq)
        step = _invertible(seq, self)
        for rule, _, k, premises in (step,) if step else _steps(seq, self):
            children = []
            for sub in premises:
                child = self.prove(sub, depth - 1)
                if child is None:
                    children = None
                    break
                children.append(child)
            if children is not None:
                branch.discard(seq)
                return seq, rule, k, children
        branch.discard(seq)
        self.fail_cache[seq] = depth
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
    table = _Table(budget.max_index)
    root_seq = (0, table.bit(desugar_fusion(goal), 0, 0))
    out = SearchOutcome("budget_exhausted")
    for bound in range(1, budget.max_index + 1):
        out.bound, cutoffs = bound, out.cutoffs
        run = _Pass(bound, budget, out, table, goal)
        try:
            tree = run.prove(root_seq, budget.max_depth)
        except _OutOfNodes:
            out.limit = "nodes"
            return out
        except _Refuted as stop:
            out.status, out.counterexample = "refuted", stop.args[0]
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
