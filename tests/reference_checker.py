"""A second proof checker, written from the calculus as the ``sequents``
module docstring states it, to compare with ``sequents.check_proof``.

It reads no rule table, keeps no memo and builds no ``Assertion``: a sequent
side is a set of (formula text, i, j) triples, a formula is taken apart by
parsing its text, and each rule is its own function that says when a
conclusion follows from its premises.  Contexts are sets, so a rule's
conclusion side is the union of its premises' contexts on that side, plus
the principal; a context may hold a copy of an active, and impR's may not,
as impR's actives carry its fresh eigen index.

    check(proof) -> (valid, objects used, first error line, error kind)
    step(earlier, line, bound) -> "ok" or the kind of the line's fault

where the error line and kind are None for a valid proof.
"""

from __future__ import annotations

from itertools import product

from tarl.formulas import And, Imp, Neg, Or, desugar_fusion, parse_formula, print_formula


def _parts(text: str):
    """The connective of the formula text and the texts of its operands."""
    f = parse_formula(text)
    if isinstance(f, Neg):
        return Neg, (print_formula(f.body),)
    if isinstance(f, (And, Or, Imp)):
        return type(f), (print_formula(f.left), print_formula(f.right))
    return None, ()


def _follows(concl, prems, principal, side, actives, exact=False):
    """Whether concl follows from prems, taken in the order given, where
    premise m's context on each side is that side less actives[m]'s, and
    principal (if any) is added on side.  With exact, no active stays in a
    context."""
    for (left, right), (act_left, act_right) in zip(prems, actives):
        if not (act_left <= left and act_right <= right):
            return False
    for s in (0, 1):
        least = set().union(*(p[s] - a[s] for p, a in zip(prems, actives)))
        most = set().union(*(p[s] for p in prems))
        if principal is not None and side == s:
            least.add(principal)
            most.add(principal)
        if not least <= concl[s] <= (least if exact else most):
            return False
    return True


def _either_order(concl, prems, principal, side, actives):
    """_follows, with two premises taken in either order."""
    return any(_follows(concl, order, principal, side, actives)
               for order in (prems, prems[::-1])[:len(prems)])


def _logical(conn, side, actives_of):
    """A rule whose principal has connective conn on side (0 left, 1 right);
    actives_of(operands, i, j) gives each premise's left and right actives."""
    def rule(concl, prems, eigen, bound):
        for text, i, j in concl[side]:
            c, operands = _parts(text)
            if c is conn and _either_order(concl, prems, (text, i, j), side,
                                           actives_of(operands, i, j)):
                return "ok"
        return "ShapeMismatch"
    return rule


def _weaken(concl, prems, eigen, bound):
    (left, right), = prems
    return "ok" if left <= concl[0] and right <= concl[1] else "ShapeMismatch"


def _cut(concl, prems, eigen, bound):
    """From Γ => Δ, X and X, Γ' => Δ' infer Γ, Γ' => Δ, Δ'."""
    (l1, r1), (l2, r2) = prems
    for x in (r1 & l2) | (r2 & l1):
        if _either_order(concl, prems, None, 0, [(set(), {x}), ({x}, set())]):
            return "ok"
    return "ShapeMismatch"


def _impL(concl, prems, eigen, bound):
    """From Γ => Δ, (A)[k,i] and Γ', (B)[k,j] => Δ' infer
    Γ, Γ', (A->B)[i,j] => Δ, Δ', for any k below the bound."""
    for (text, i, j), k in product(concl[0], range(bound)):
        c, operands = _parts(text)
        if c is Imp:
            a, b = operands
            if _either_order(concl, prems, (text, i, j), 0,
                             [(set(), {(a, k, i)}), ({(b, k, j)}, set())]):
                return "ok"
    return "ShapeMismatch"


def _impR(concl, prems, eigen, bound):
    """From Γ, (A)[k,i] => Δ, (B)[k,j] infer Γ => Δ, (A->B)[i,j], k = eigen
    differing from i and j and appearing nowhere in Γ, Δ."""
    if not 0 <= eigen < bound:
        return "IndexOutOfBound"
    verdict = "ShapeMismatch"
    for text, i, j in concl[1]:
        c, operands = _parts(text)
        if c is Imp:
            a, b = operands
            if _follows(concl, prems, (text, i, j), 1,
                        [({(a, eigen, i)}, {(b, eigen, j)})], exact=True):
                if eigen not in _indices(concl):
                    return "ok"
                verdict = "EigenvariableViolation"
    return verdict


_CHECKS = {
    "weaken": _weaken,
    "cut": _cut,
    "orL": _logical(Or, 0, lambda ab, i, j: [({(ab[0], i, j)}, set()),
                                            ({(ab[1], i, j)}, set())]),
    "orR": _logical(Or, 1, lambda ab, i, j: [(set(), {(ab[0], i, j), (ab[1], i, j)})]),
    "andL": _logical(And, 0, lambda ab, i, j: [({(ab[0], i, j), (ab[1], i, j)}, set())]),
    "andR": _logical(And, 1, lambda ab, i, j: [(set(), {(ab[0], i, j)}),
                                              (set(), {(ab[1], i, j)})]),
    "negL": _logical(Neg, 0, lambda a, i, j: [(set(), {(a[0], j, i)})]),
    "negR": _logical(Neg, 1, lambda a, i, j: [({(a[0], j, i)}, set())]),
    "impL": _impL,
    "impR": _impR,
}


def _indices(sequent) -> set[int]:
    return {x for side in sequent for _, i, j in side for x in (i, j)}


def _texts(sequent):
    return tuple(frozenset((print_formula(a.formula), a.i, a.j) for a in side)
                 for side in (sequent.left, sequent.right))


def _verdict(n, concl, just, earlier, bound) -> str:
    """ok, or the kind of the first fault of line n."""
    if any(x not in range(bound) for x in _indices(concl)):  # 1.5 is no index
        return "IndexOutOfBound"
    name = just.rule.name
    if name == "premise":  # a derived rule's hypothesis: no proof assumes it
        return "ShapeMismatch"
    if any(not 1 <= ref < n for ref in just.refs):
        return "BadRef"
    if name == "axiom":  # Γ ∩ Δ nonempty
        return "ok" if concl[0] & concl[1] else "NotAxiom"
    prems = [earlier[ref - 1] for ref in just.refs]
    return _CHECKS[name](concl, prems, just.eigen, bound)


def _kind(n, concl, line, earlier, bound) -> str:
    """ok, or the kind of the fault of line n, (sequent, justification),
    whose triples are concl, after the triples earlier."""
    sequent, just = line
    # a bool index prints as no number; as a set member it may stand for,
    # or hide behind, the int equal to it, so each is looked at
    if any(type(x) is bool for a in sequent.left | sequent.right for x in (a.i, a.j)):
        return "IndexOutOfBound"
    return _verdict(n, concl, just, earlier, bound)


def step(earlier, line, bound) -> str:
    """ok, or the kind of the fault of line, (sequent, justification), after
    the sequents earlier: what ``sequents.check_step`` says of it."""
    return _kind(len(earlier) + 1, _texts(line[0]), line, list(map(_texts, earlier)), bound)


def check(proof):
    """(valid, objects used, first error line, error kind) of proof."""
    lines = [_texts(s) for s, _ in proof.lines]
    objects = set().union(*map(_indices, lines))
    for n, (concl, line) in enumerate(zip(lines, proof.lines), start=1):
        kind = _kind(n, concl, line, lines, proof.bound)
        if kind != "ok":
            return False, frozenset(objects), n, kind
    if proof.goal is not None:
        goal = (frozenset(), frozenset({(print_formula(desugar_fusion(proof.goal)), 0, 0)}))
        if goal not in lines:
            return False, frozenset(objects), len(lines), "GoalMissing"
    return True, frozenset(objects), None, None


def agrees(proof, report) -> bool:
    """Whether check_proof's report on proof says what check(proof) does."""
    line, kind = (None, None) if report.first_error is None else (
        report.first_error[0], report.first_error[1].split(":")[0])
    return (report.valid, report.objects_used, line, kind) == check(proof)
