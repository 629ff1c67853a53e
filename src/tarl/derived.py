"""Derived inference rules assembled from complete proofs.

Each combinator takes finished proofs of its premises and emits one fully
elaborated proof of its conclusion: input proofs are concatenated (permuting
indices first where the construction calls for a relabelled copy) and the
glue lines are appended with explicit references, so every output can be
re-checked line by line.  Nothing is trusted: inputs are checked on the way
in and outputs carry their conclusion as the goal.
"""

from __future__ import annotations

from .formulas import And, Formula, Imp, Neg, Or, desugar_fusion
from .sequents import (
    AndR, Assertion, Axiom, Cut, ImpL, ImpR, Justification, NegL, NegR, OrL,
    Proof, Sequent, check_proof, goal_sequent, permute_indices,
    substitute_proof,
)

__all__ = ["apply_derived_rule", "PremiseMismatch", "InvalidInput",
            "DERIVED_RULES", "conclusion_formula"]


class PremiseMismatch(ValueError):
    pass


class InvalidInput(ValueError):
    pass


def _a(f: Formula, i: int, j: int) -> Assertion:
    return Assertion(desugar_fusion(f), i, j)


def _seq(left=(), right=()) -> Sequent:
    return Sequent.of(left, right)


def conclusion_formula(proof: Proof) -> Formula:
    """The formula F with => (F)[0,0] proved, from the goal or last line."""
    if proof.goal is not None:
        return desugar_fusion(proof.goal)
    last = proof.conclusion()
    if last.left or len(last.right) != 1:
        raise PremiseMismatch("input proof does not end in => (F)[0,0]")
    (only,) = last.right
    if (only.i, only.j) != (0, 0):
        raise PremiseMismatch("input proof does not conclude at indices 0,0")
    return only.formula


def _admit(proof: Proof, what: str) -> Formula:
    report = check_proof(proof)
    if not report.valid:
        raise InvalidInput(f"{what} fails to check: {report.first_error}")
    return conclusion_formula(proof)


class _Builder:
    """Accumulates lines; splicing an input proof offsets its references."""

    def __init__(self, bound: int):
        self.bound = bound
        self.lines: list[tuple[Sequent, Justification]] = []

    def splice(self, proof: Proof, target: Sequent) -> int:
        """Append a whole proof; return the 1-based line number of target."""
        offset = len(self.lines)
        found = None
        for seq, just in proof.lines:
            self.lines.append((seq, just.shifted(offset)))
            if seq == target:
                found = len(self.lines)
        if found is None:
            raise PremiseMismatch(f"spliced proof never derives {target}")
        return found

    def add(self, seq: Sequent, just: Justification) -> int:
        self.lines.append((seq, just))
        return len(self.lines)

    def done(self, goal: Formula) -> Proof:
        return Proof(lines=self.lines, bound=self.bound, goal=goal)

    def discharge(self, line: int, goal: Imp) -> Proof:
        """Finish with => (goal)[0,0] by impR on line, at eigen index 1."""
        self.add(goal_sequent(goal), ImpR(line, eigen=1))
        return self.done(goal)


def _need(condition: bool, message: str):
    if not condition:
        raise PremiseMismatch(message)


def _swap(proof: Proof, x: int, y: int) -> Proof:
    perm = {i: i for i in range(proof.bound)}
    perm[x], perm[y] = y, x
    return permute_indices(proof, perm)


def _max_bound(*proofs: Proof, at_least: int = 2) -> int:
    return max([at_least] + [p.bound for p in proofs])


def _detach(b: _Builder, f: Imp, i: int, j: int, k: int, imp) -> int:
    """From Γ => (A -> B)[i,j] derive Γ, (A)[k,i] => (B)[k,j]: two axioms,
    impL and a cut on the implication.  imp is the line that proves it, or a
    (proof, sequent) pair to splice in just before the cut."""
    fa, fb = f.left, f.right
    l1 = b.add(_seq((_a(fa, k, i),), (_a(fa, k, i),)), Axiom())
    l2 = b.add(_seq((_a(fb, k, j),), (_a(fb, k, j),)), Axiom())
    l3 = b.add(_seq((_a(f, i, j), _a(fa, k, i)), (_a(fb, k, j),)), ImpL(l1, l2))
    if not isinstance(imp, int):
        imp = b.splice(*imp)
    gamma = b.lines[imp - 1][0].left
    return b.add(_seq(gamma | {_a(fa, k, i)}, (_a(fb, k, j),)),
                 Cut(imp, l3, cut=_a(f, i, j)))


# ------------------------------------------------------------------
# The rules
# ------------------------------------------------------------------

def _adjunction(pa: Proof, pb: Proof) -> Proof:
    fa, fb = _admit(pa, "first input"), _admit(pb, "second input")
    b = _Builder(_max_bound(pa, pb, at_least=1))
    la = b.splice(pa, goal_sequent(fa))
    lb = b.splice(pb, goal_sequent(fb))
    b.add(goal_sequent(And(fa, fb)), AndR(la, lb))
    return b.done(And(fa, fb))


def _modusponens(pimp: Proof, pa: Proof) -> Proof:
    fimp, fa = _admit(pimp, "first input"), _admit(pa, "second input")
    _need(isinstance(fimp, Imp), "first input must prove an implication")
    _need(fimp.left == fa, "second input must prove the antecedent")
    fb = fimp.right
    b = _Builder(_max_bound(pimp, pa, at_least=1))
    limp = b.splice(pimp, goal_sequent(fimp))
    la = b.splice(pa, goal_sequent(fa))
    l3 = b.add(_seq((_a(fb, 0, 0),), (_a(fb, 0, 0),)), Axiom())
    l4 = b.add(_seq((_a(fimp, 0, 0),), (_a(fb, 0, 0),)), ImpL(la, l3))
    b.add(goal_sequent(fb), Cut(limp, l4, cut=_a(fimp, 0, 0)))
    return b.done(fb)


def _disjunctivesyllogism(por: Proof, pneg: Proof) -> Proof:
    forr, fneg = _admit(por, "first input"), _admit(pneg, "second input")
    _need(isinstance(forr, Or), "first input must prove a disjunction")
    _need(isinstance(fneg, Neg) and fneg.body == forr.left,
          "second input must prove the negated left disjunct")
    fa, fb = forr.left, forr.right
    b = _Builder(_max_bound(por, pneg, at_least=1))
    lor = b.splice(por, goal_sequent(forr))
    lneg = b.splice(pneg, goal_sequent(fneg))
    l1 = b.add(_seq((_a(fa, 0, 0),), (_a(fa, 0, 0),)), Axiom())
    l2 = b.add(_seq((_a(fb, 0, 0),), (_a(fb, 0, 0),)), Axiom())
    l3 = b.add(_seq((_a(forr, 0, 0),), (_a(fa, 0, 0), _a(fb, 0, 0))),
               OrL(l1, l2))
    l4 = b.add(_seq((), (_a(fa, 0, 0), _a(fb, 0, 0))),
               Cut(lor, l3, cut=_a(forr, 0, 0)))
    l5 = b.add(_seq((_a(fneg, 0, 0),), (_a(fb, 0, 0),)), NegL(l4))
    b.add(goal_sequent(fb), Cut(lneg, l5, cut=_a(fneg, 0, 0)))
    return b.done(fb)


def _transitivity(p1: Proof, p2: Proof) -> Proof:
    f1, f2 = _admit(p1, "first input"), _admit(p2, "second input")
    _need(isinstance(f1, Imp) and isinstance(f2, Imp),
          "both inputs must prove implications")
    _need(f1.right == f2.left, "middle formulas must agree")
    fa, fb, fc = f1.left, f1.right, f2.right
    b = _Builder(_max_bound(p1, p2))
    l5 = _detach(b, f1, 0, 0, 1, b.splice(p1, goal_sequent(f1)))
    l10 = _detach(b, f2, 0, 0, 1, b.splice(p2, goal_sequent(f2)))
    l11 = b.add(_seq((_a(fa, 1, 0),), (_a(fc, 1, 0),)),
                Cut(l5, l10, cut=_a(fb, 1, 0)))
    return b.discharge(l11, Imp(fa, fc))


def _contraposition(p: Proof) -> Proof:
    f = _admit(p, "input")
    _need(isinstance(f, Imp), "input must prove an implication")
    fa, fb = f.left, f.right
    b = _Builder(_max_bound(p))
    l1 = b.splice(_swap(p, 0, 1), _seq((), (_a(f, 1, 1),)))
    l5 = _detach(b, f, 1, 1, 0, l1)
    l6 = b.add(_seq((), (_a(fb, 0, 1), _a(Neg(fa), 1, 0))), NegR(l5))
    l7 = b.add(_seq((_a(Neg(fb), 1, 0),), (_a(Neg(fa), 1, 0),)), NegL(l6))
    return b.discharge(l7, Imp(Neg(fb), Neg(fa)))


def _contraposition2(p: Proof) -> Proof:
    f = _admit(p, "input")
    _need(isinstance(f, Imp) and isinstance(f.right, Neg),
          "input must prove an implication with negated consequent")
    fa, fb = f.left, f.right.body
    b = _Builder(_max_bound(p))
    l1 = b.splice(_swap(p, 0, 1), _seq((), (_a(f, 1, 1),)))
    l2 = b.add(_seq((_a(fa, 0, 1),), (_a(fa, 0, 1),)), Axiom())
    l3 = b.add(_seq((_a(fb, 1, 0),), (_a(fb, 1, 0),)), Axiom())
    l4 = b.add(_seq((_a(Neg(fb), 0, 1), _a(fb, 1, 0)), ()), NegL(l3))
    l5 = b.add(_seq((_a(f, 1, 1), _a(fb, 1, 0), _a(fa, 0, 1)), ()),
               ImpL(l2, l4))
    l6 = b.add(_seq((_a(fb, 1, 0), _a(fa, 0, 1)), ()),
               Cut(l1, l5, cut=_a(f, 1, 1)))
    l7 = b.add(_seq((_a(fb, 1, 0),), (_a(Neg(fa), 1, 0),)), NegR(l6))
    return b.discharge(l7, Imp(fb, Neg(fa)))


def _cutrule(p1: Proof, p2: Proof) -> Proof:
    f1, f2 = _admit(p1, "first input"), _admit(p2, "second input")
    _need(isinstance(f1, Imp) and isinstance(f1.left, And),
          "first premise must be a conjunction implication")
    _need(isinstance(f2, Imp) and isinstance(f2.right, Or),
          "second premise must imply a disjunction")
    fa, fb = f1.left.left, f1.left.right
    fc = f1.right
    _need(f2.left == fb and f2.right.left == fc and f2.right.right == fa,
          "premises must be A&B->C and B->C|A over matching formulas")
    b = _Builder(_max_bound(p1, p2))
    l5 = _detach(b, f2, 0, 0, 1, (p2, goal_sequent(f2)))
    l6 = b.add(_seq((_a(fc, 1, 0),), (_a(fc, 1, 0),)), Axiom())
    l7 = b.add(_seq((_a(fa, 1, 0),), (_a(fa, 1, 0),)), Axiom())
    l8 = b.add(_seq((_a(f2.right, 1, 0),), (_a(fc, 1, 0), _a(fa, 1, 0))),
               OrL(l6, l7))
    l9 = b.add(_seq((_a(fb, 1, 0),), (_a(fc, 1, 0), _a(fa, 1, 0))),
               Cut(l5, l8, cut=_a(f2.right, 1, 0)))
    l14 = _detach(b, f1, 0, 0, 1, (p1, goal_sequent(f1)))
    l15 = b.add(_seq((_a(fa, 1, 0),), (_a(fa, 1, 0),)), Axiom())
    l16 = b.add(_seq((_a(fb, 1, 0),), (_a(fb, 1, 0),)), Axiom())
    l17 = b.add(_seq((_a(fa, 1, 0), _a(fb, 1, 0)), (_a(f1.left, 1, 0),)),
                AndR(l15, l16))
    l18 = b.add(_seq((_a(fa, 1, 0), _a(fb, 1, 0)), (_a(fc, 1, 0),)),
                Cut(l17, l14, cut=_a(f1.left, 1, 0)))
    l19 = b.add(_seq((_a(fb, 1, 0),), (_a(fc, 1, 0),)),
                Cut(l9, l18, cut=_a(fa, 1, 0)))
    return b.discharge(l19, Imp(fb, fc))


def _erule(p: Proof, fb: Formula) -> Proof:
    fa = _admit(p, "input")
    fb = desugar_fusion(fb)
    b = _Builder(_max_bound(p))
    l1 = b.splice(_swap(p, 0, 1), _seq((), (_a(fa, 1, 1),)))
    l2 = b.add(_seq((_a(fb, 1, 0),), (_a(fb, 1, 0),)), Axiom())
    l3 = b.add(_seq((_a(Imp(fa, fb), 1, 0),), (_a(fb, 1, 0),)), ImpL(l1, l2))
    return b.discharge(l3, Imp(Imp(fa, fb), fb))


def _suffixing(p: Proof, fc: Formula) -> Proof:
    f = _admit(p, "input")
    _need(isinstance(f, Imp), "input must prove an implication")
    fa, fb = f.left, f.right
    fc = desugar_fusion(fc)
    b = _Builder(_max_bound(p, at_least=3))
    l1 = b.splice(_swap(p, 0, 1), _seq((), (_a(f, 1, 1),)))
    l2 = b.add(_seq((_a(fa, 2, 1),), (_a(fa, 2, 1),)), Axiom())
    l3 = b.add(_seq((_a(fb, 2, 1),), (_a(fb, 2, 1),)), Axiom())
    l4 = b.add(_seq((_a(f, 1, 1), _a(fa, 2, 1)), (_a(fb, 2, 1),)),
               ImpL(l2, l3))
    l5 = b.add(_seq((_a(fc, 2, 0),), (_a(fc, 2, 0),)), Axiom())
    l6 = b.add(_seq((_a(Imp(fb, fc), 1, 0), _a(fb, 2, 1)), (_a(fc, 2, 0),)),
               ImpL(l3, l5))
    l7 = b.add(_seq((_a(fa, 2, 1),), (_a(fb, 2, 1),)),
               Cut(l1, l4, cut=_a(f, 1, 1)))
    l8 = b.add(_seq((_a(Imp(fb, fc), 1, 0), _a(fa, 2, 1)), (_a(fc, 2, 0),)),
               Cut(l7, l6, cut=_a(fb, 2, 1)))
    l9 = b.add(_seq((_a(Imp(fb, fc), 1, 0),), (_a(Imp(fa, fc), 1, 0),)),
               ImpR(l8, eigen=2))
    return b.discharge(l9, Imp(Imp(fb, fc), Imp(fa, fc)))


def _cycling(p: Proof) -> Proof:
    f = _admit(p, "input")
    _need(isinstance(f, Imp) and isinstance(f.right, Imp),
          "input must prove A -> (B -> C)")
    fa, fb, fc = f.left, f.right.left, f.right.right
    fbc = f.right
    b = _Builder(_max_bound(p, at_least=3))
    l5 = _detach(b, f, 2, 2, 0, (_swap(p, 0, 2), _seq((), (_a(f, 2, 2),))))
    l9 = _detach(b, fbc, 0, 2, 1, l5)
    l10 = b.add(_seq((_a(fb, 1, 0),), (_a(fc, 1, 2), _a(Neg(fa), 2, 0))),
                NegR(l9))
    l11 = b.add(_seq((_a(fb, 1, 0), _a(Neg(fc), 2, 1)), (_a(Neg(fa), 2, 0),)),
                NegL(l10))
    l12 = b.add(_seq((_a(fb, 1, 0),), (_a(Imp(Neg(fc), Neg(fa)), 1, 0),)),
                ImpR(l11, eigen=2))
    return b.discharge(l12, Imp(fb, Imp(Neg(fc), Neg(fa))))


def _prefixingR(p: Proof, fc: Formula) -> Proof:
    from .registry import get_corpus_entry

    f = _admit(p, "input")
    _need(isinstance(f, Imp), "input must prove an implication")
    fc = desugar_fusion(fc)
    schema = get_corpus_entry("prefixingA").proof
    instance = substitute_proof(schema, {"a": f.left, "b": f.right, "c": fc})
    return _modusponens(instance, p)


def _affixing(p1: Proof, p2: Proof) -> Proof:
    f1, f2 = _admit(p1, "first input"), _admit(p2, "second input")
    _need(isinstance(f1, Imp) and isinstance(f2, Imp),
          "both inputs must prove implications")
    return _transitivity(_suffixing(p1, f2.left), _prefixingR(p2, f1.left))


def _monotonicfusion(p1: Proof, p2: Proof) -> Proof:
    f1, f2 = _admit(p1, "first input"), _admit(p2, "second input")
    _need(isinstance(f1, Imp) and isinstance(f2, Imp),
          "both inputs must prove implications")
    fa, fb = f1.left, f1.right
    fc, fd = f2.left, f2.right
    contra_cd = _contraposition(p2)                      # ~D -> ~C
    step4 = _suffixing(p1, Neg(fd))                      # (B->~D) -> (A->~D)
    step5 = _prefixingR(contra_cd, fa)                   # (A->~D) -> (A->~C)
    step6 = _prefixingR(step5, Imp(fb, Neg(fd)))
    step7 = _modusponens(step6, step4)                   # (B->~D) -> (A->~C)
    return _contraposition(step7)                        # ~(A->~C) -> ~(B->~D)


DERIVED_RULES = {
    "adjunction": (_adjunction, 2, 0),
    "modusponens": (_modusponens, 2, 0),
    "disjunctivesyllogism": (_disjunctivesyllogism, 2, 0),
    "transitivity": (_transitivity, 2, 0),
    "contraposition": (_contraposition, 1, 0),
    "contraposition2": (_contraposition2, 1, 0),
    "cut": (_cutrule, 2, 0),
    "erule": (_erule, 1, 1),
    "suffixing": (_suffixing, 1, 1),
    "cycling": (_cycling, 1, 0),
    "prefixingR": (_prefixingR, 1, 1),
    "affixing": (_affixing, 2, 0),
    "monotonicfusion": (_monotonicfusion, 2, 0),
}


def apply_derived_rule(rule: str, inputs: list[Proof],
                       parameters: list[Formula] = ()) -> Proof:
    """Run a named combinator; the result re-checks and proves its goal."""
    if rule not in DERIVED_RULES:
        raise PremiseMismatch(f"unknown derived rule {rule!r}")
    fn, n_inputs, n_params = DERIVED_RULES[rule]
    if len(inputs) != n_inputs:
        raise PremiseMismatch(f"{rule} takes {n_inputs} input proof(s)")
    if len(parameters) != n_params:
        raise PremiseMismatch(f"{rule} takes {n_params} formula parameter(s)")
    out = fn(*inputs, *parameters)
    report = check_proof(out)
    if not report.valid:  # pragma: no cover - would be a construction bug
        raise AssertionError(f"combinator emitted a bad proof: {report.first_error}")
    return out
