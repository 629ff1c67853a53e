"""Reference answers the benchmark checks results against.

Both checkers here are written from the definitions, independently of the
engines under test: formulas are evaluated with the set-valued operations
`op_fusion`, `op_implies` and `op_neg`, and the postulates are decided by
direct quantification over the ternary relation.
"""

from __future__ import annotations

import itertools

from tarl.formulas import And, Fusion, Imp, Neg, Or, Var
from tarl.models import op_fusion, op_implies, op_neg


def evaluate(m, assignment, f) -> frozenset:
    """J(f) under `assignment` (variable -> set of elements)."""
    if isinstance(f, Var):
        return frozenset(assignment[f.name])
    if isinstance(f, Neg):
        return op_neg(m, evaluate(m, assignment, f.body))
    left = evaluate(m, assignment, f.left)
    right = evaluate(m, assignment, f.right)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    if isinstance(f, Imp):
        return op_implies(m, left, right)
    if isinstance(f, Fusion):
        return op_fusion(m, left, right)
    raise TypeError(f"not a formula: {f!r}")


def postulates(m) -> dict[str, bool]:
    """Truth of each audited postulate in structure `m`."""
    E, R, s, z = m.elements, set(m.triples), m.star, m.zero
    # R2 a b c d  iff  some x has R a b x and R x c d
    r2 = {(a, b, c, d) for (a, b, x) in R for (y, c, d) in R if x == y}
    # R2' a b c d  iff  some x has R b c x and R a x d
    r2_assoc = {(a, b, c, d) for (b, c, x) in R for (a, y, d) in R if x == y}
    return {
        "p1": all((z, a, a) in R for a in E),
        "p2": all((a, a, a) in R for a in E),
        "p3": all((a, c, b, d) in r2 for (a, b, c, d) in r2),
        "p3prime": r2 <= r2_assoc,
        "p4": all((a, b, c) in R for (y, a, b, c) in r2 if y == z),
        "p5": all((a, s[c], s[b]) in R for (a, b, c) in R),
        "p5prime": all((s[c], a, s[b]) in R for (a, b, c) in R),
        "p6": all(s[s[a]] == a for a in E),
        "comm": all((b, a, c) in R for (a, b, c) in R),
        "normal": s[z] == z,
        "crstar": all(((z, a, b) in R) == (a == b)
                      for a, b in itertools.product(E, repeat=2)),
        "peirce": all((c, s[b], a) in R for (a, b, c) in R),
    }
