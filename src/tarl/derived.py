"""Derived inference rules assembled from complete proofs.

``DERIVED_RULES`` gives each rule's premise schemas, parameter names,
conclusion schema and builder; a schema is a formula, parsed once at import.
``_derive`` binds the parameters, matches each input's conclusion to its
premise (``_match``, the inverse of ``substitute``) and calls the builder
with the instantiated conclusion as goal and the bound formulas by name.
A builder concatenates the input proofs (permuting indices first where the
construction calls for a relabelled copy) and appends glue lines with
explicit references.  Nothing is trusted: ``apply_derived_rule`` checks
each input and the output once, and the output holds every line of the
intermediate proofs that composite rules build through ``_derive``.
"""

from __future__ import annotations

from dataclasses import replace

from .formulas import (
    And, Formula, Imp, Neg, Or, Var, desugar_fusion, parse_formula,
    print_formula, substitute,
)
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
    if not proof.lines:
        raise PremiseMismatch("input proof has no lines and no goal")
    last = proof.conclusion()
    if last.left or len(last.right) != 1:
        raise PremiseMismatch("input proof does not end in => (F)[0,0]")
    (only,) = last.right
    if (only.i, only.j) != (0, 0):
        raise PremiseMismatch("input proof does not conclude at indices 0,0")
    return only.formula


def _match(schema: Formula, f: Formula, binding: dict[str, Formula]) -> bool:
    """Extend binding so that substitute(schema, binding) is f, if it can
    be.  Formulas are interned, so a bound variable matches by identity."""
    if isinstance(schema, Var):
        return binding.setdefault(schema.name, f) is f
    if type(schema) is not type(f):
        return False
    if isinstance(schema, Neg):
        return _match(schema.body, f.body, binding)
    return (_match(schema.left, f.left, binding)
            and _match(schema.right, f.right, binding))


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


def _swap(proof: Proof, x: int, y: int) -> Proof:
    """proof with indices x and y exchanged, its bound widened to hold both."""
    bound = max(proof.bound, x + 1, y + 1)
    perm = {i: i for i in range(bound)}
    perm[x], perm[y] = y, x
    return permute_indices(replace(proof, bound=bound), perm)


def _max_bound(*proofs: Proof, at_least: int = 2) -> int:
    return max([at_least] + [p.bound for p in proofs])


def _detach(w: _Builder, f: Imp, i: int, j: int, k: int, imp) -> int:
    """From Γ => (A -> B)[i,j] derive Γ, (A)[k,i] => (B)[k,j]: two axioms,
    impL and a cut on the implication.  imp is the line that proves it, or a
    (proof, sequent) pair to splice in just before the cut."""
    fa, fb = f.left, f.right
    l1 = w.add(_seq((_a(fa, k, i),), (_a(fa, k, i),)), Axiom())
    l2 = w.add(_seq((_a(fb, k, j),), (_a(fb, k, j),)), Axiom())
    l3 = w.add(_seq((_a(f, i, j), _a(fa, k, i)), (_a(fb, k, j),)), ImpL(l1, l2))
    if not isinstance(imp, int):
        imp = w.splice(*imp)
    gamma = w.lines[imp - 1][0].left
    return w.add(_seq(gamma | {_a(fa, k, i)}, (_a(fb, k, j),)),
                 Cut(imp, l3, cut=_a(f, i, j)))


# ------------------------------------------------------------------
# The builders: (goal, *inputs, **binding), see _derive
# ------------------------------------------------------------------

def _adjunction(goal, pa, pb, *, a, b) -> Proof:
    w = _Builder(_max_bound(pa, pb, at_least=1))
    la = w.splice(pa, goal_sequent(a))
    lb = w.splice(pb, goal_sequent(b))
    w.add(goal_sequent(goal), AndR(la, lb))
    return w.done(goal)


def _modusponens(goal, pimp, pa, *, a, b) -> Proof:
    fimp = Imp(a, b)
    w = _Builder(_max_bound(pimp, pa, at_least=1))
    limp = w.splice(pimp, goal_sequent(fimp))
    la = w.splice(pa, goal_sequent(a))
    l3 = w.add(_seq((_a(b, 0, 0),), (_a(b, 0, 0),)), Axiom())
    l4 = w.add(_seq((_a(fimp, 0, 0),), (_a(b, 0, 0),)), ImpL(la, l3))
    w.add(goal_sequent(b), Cut(limp, l4, cut=_a(fimp, 0, 0)))
    return w.done(goal)


def _disjunctivesyllogism(goal, por, pneg, *, a, b) -> Proof:
    forr, fneg = Or(a, b), Neg(a)
    w = _Builder(_max_bound(por, pneg, at_least=1))
    lor = w.splice(por, goal_sequent(forr))
    lneg = w.splice(pneg, goal_sequent(fneg))
    l1 = w.add(_seq((_a(a, 0, 0),), (_a(a, 0, 0),)), Axiom())
    l2 = w.add(_seq((_a(b, 0, 0),), (_a(b, 0, 0),)), Axiom())
    l3 = w.add(_seq((_a(forr, 0, 0),), (_a(a, 0, 0), _a(b, 0, 0))),
               OrL(l1, l2))
    l4 = w.add(_seq((), (_a(a, 0, 0), _a(b, 0, 0))),
               Cut(lor, l3, cut=_a(forr, 0, 0)))
    l5 = w.add(_seq((_a(fneg, 0, 0),), (_a(b, 0, 0),)), NegL(l4))
    w.add(goal_sequent(b), Cut(lneg, l5, cut=_a(fneg, 0, 0)))
    return w.done(goal)


def _transitivity(goal, p1, p2, *, a, b, c) -> Proof:
    f1, f2 = Imp(a, b), Imp(b, c)
    w = _Builder(_max_bound(p1, p2))
    l5 = _detach(w, f1, 0, 0, 1, w.splice(p1, goal_sequent(f1)))
    l10 = _detach(w, f2, 0, 0, 1, w.splice(p2, goal_sequent(f2)))
    l11 = w.add(_seq((_a(a, 1, 0),), (_a(c, 1, 0),)),
                Cut(l5, l10, cut=_a(b, 1, 0)))
    return w.discharge(l11, goal)


def _contraposition(goal, p, *, a, b) -> Proof:
    f = Imp(a, b)
    w = _Builder(_max_bound(p))
    l1 = w.splice(_swap(p, 0, 1), _seq((), (_a(f, 1, 1),)))
    l5 = _detach(w, f, 1, 1, 0, l1)
    l6 = w.add(_seq((), (_a(b, 0, 1), _a(Neg(a), 1, 0))), NegR(l5))
    l7 = w.add(_seq((_a(Neg(b), 1, 0),), (_a(Neg(a), 1, 0),)), NegL(l6))
    return w.discharge(l7, goal)


def _contraposition2(goal, p, *, a, b) -> Proof:
    f = Imp(a, Neg(b))
    w = _Builder(_max_bound(p))
    l1 = w.splice(_swap(p, 0, 1), _seq((), (_a(f, 1, 1),)))
    l2 = w.add(_seq((_a(a, 0, 1),), (_a(a, 0, 1),)), Axiom())
    l3 = w.add(_seq((_a(b, 1, 0),), (_a(b, 1, 0),)), Axiom())
    l4 = w.add(_seq((_a(Neg(b), 0, 1), _a(b, 1, 0)), ()), NegL(l3))
    l5 = w.add(_seq((_a(f, 1, 1), _a(b, 1, 0), _a(a, 0, 1)), ()),
               ImpL(l2, l4))
    l6 = w.add(_seq((_a(b, 1, 0), _a(a, 0, 1)), ()),
               Cut(l1, l5, cut=_a(f, 1, 1)))
    l7 = w.add(_seq((_a(b, 1, 0),), (_a(Neg(a), 1, 0),)), NegR(l6))
    return w.discharge(l7, goal)


def _cutrule(goal, p1, p2, *, a, b, c) -> Proof:
    ab, ca = And(a, b), Or(c, a)
    f1, f2 = Imp(ab, c), Imp(b, ca)
    w = _Builder(_max_bound(p1, p2))
    l5 = _detach(w, f2, 0, 0, 1, (p2, goal_sequent(f2)))
    l6 = w.add(_seq((_a(c, 1, 0),), (_a(c, 1, 0),)), Axiom())
    l7 = w.add(_seq((_a(a, 1, 0),), (_a(a, 1, 0),)), Axiom())
    l8 = w.add(_seq((_a(ca, 1, 0),), (_a(c, 1, 0), _a(a, 1, 0))),
               OrL(l6, l7))
    l9 = w.add(_seq((_a(b, 1, 0),), (_a(c, 1, 0), _a(a, 1, 0))),
               Cut(l5, l8, cut=_a(ca, 1, 0)))
    l14 = _detach(w, f1, 0, 0, 1, (p1, goal_sequent(f1)))
    l15 = w.add(_seq((_a(a, 1, 0),), (_a(a, 1, 0),)), Axiom())
    l16 = w.add(_seq((_a(b, 1, 0),), (_a(b, 1, 0),)), Axiom())
    l17 = w.add(_seq((_a(a, 1, 0), _a(b, 1, 0)), (_a(ab, 1, 0),)),
                AndR(l15, l16))
    l18 = w.add(_seq((_a(a, 1, 0), _a(b, 1, 0)), (_a(c, 1, 0),)),
                Cut(l17, l14, cut=_a(ab, 1, 0)))
    l19 = w.add(_seq((_a(b, 1, 0),), (_a(c, 1, 0),)),
                Cut(l9, l18, cut=_a(a, 1, 0)))
    return w.discharge(l19, goal)


def _erule(goal, p, *, a, b) -> Proof:
    w = _Builder(_max_bound(p))
    l1 = w.splice(_swap(p, 0, 1), _seq((), (_a(a, 1, 1),)))
    l2 = w.add(_seq((_a(b, 1, 0),), (_a(b, 1, 0),)), Axiom())
    l3 = w.add(_seq((_a(Imp(a, b), 1, 0),), (_a(b, 1, 0),)), ImpL(l1, l2))
    return w.discharge(l3, goal)


def _suffixing(goal, p, *, a, b, c) -> Proof:
    f = Imp(a, b)
    w = _Builder(_max_bound(p, at_least=3))
    l1 = w.splice(_swap(p, 0, 1), _seq((), (_a(f, 1, 1),)))
    l2 = w.add(_seq((_a(a, 2, 1),), (_a(a, 2, 1),)), Axiom())
    l3 = w.add(_seq((_a(b, 2, 1),), (_a(b, 2, 1),)), Axiom())
    l4 = w.add(_seq((_a(f, 1, 1), _a(a, 2, 1)), (_a(b, 2, 1),)),
               ImpL(l2, l3))
    l5 = w.add(_seq((_a(c, 2, 0),), (_a(c, 2, 0),)), Axiom())
    l6 = w.add(_seq((_a(Imp(b, c), 1, 0), _a(b, 2, 1)), (_a(c, 2, 0),)),
               ImpL(l3, l5))
    l7 = w.add(_seq((_a(a, 2, 1),), (_a(b, 2, 1),)),
               Cut(l1, l4, cut=_a(f, 1, 1)))
    l8 = w.add(_seq((_a(Imp(b, c), 1, 0), _a(a, 2, 1)), (_a(c, 2, 0),)),
               Cut(l7, l6, cut=_a(b, 2, 1)))
    l9 = w.add(_seq((_a(Imp(b, c), 1, 0),), (_a(Imp(a, c), 1, 0),)),
               ImpR(l8, eigen=2))
    return w.discharge(l9, goal)


def _cycling(goal, p, *, a, b, c) -> Proof:
    fbc = Imp(b, c)
    f = Imp(a, fbc)
    w = _Builder(_max_bound(p, at_least=3))
    l5 = _detach(w, f, 2, 2, 0, (_swap(p, 0, 2), _seq((), (_a(f, 2, 2),))))
    l9 = _detach(w, fbc, 0, 2, 1, l5)
    l10 = w.add(_seq((_a(b, 1, 0),), (_a(c, 1, 2), _a(Neg(a), 2, 0))),
                NegR(l9))
    l11 = w.add(_seq((_a(b, 1, 0), _a(Neg(c), 2, 1)), (_a(Neg(a), 2, 0),)),
                NegL(l10))
    l12 = w.add(_seq((_a(b, 1, 0),), (_a(Imp(Neg(c), Neg(a)), 1, 0),)),
                ImpR(l11, eigen=2))
    return w.discharge(l12, goal)


def _prefixingR(goal, p, *, a, b, c) -> Proof:
    from .registry import get_corpus_entry

    schema = get_corpus_entry("prefixingA").proof
    instance = substitute_proof(schema, {"a": a, "b": b, "c": c})
    return _derive("modusponens", [instance, p], ())


def _affixing(goal, p1, p2, *, a, b, c, d) -> Proof:
    return _derive("transitivity", [_derive("suffixing", [p1], [c]),
                                    _derive("prefixingR", [p2], [a])], ())


def _monotonicfusion(goal, p1, p2, *, a, b, c, d) -> Proof:
    contra_cd = _derive("contraposition", [p2], ())      # ~D -> ~C
    step4 = _derive("suffixing", [p1], [Neg(d)])         # (B->~D) -> (A->~D)
    step5 = _derive("prefixingR", [contra_cd], [a])      # (A->~D) -> (A->~C)
    step6 = _derive("prefixingR", [step5], [Imp(b, Neg(d))])
    step7 = _derive("modusponens", [step6, step4], ())   # (B->~D) -> (A->~C)
    return _derive("contraposition", [step7], ())        # ~(A->~C) -> ~(B->~D)


# name: (premise schemas, parameter names, conclusion schema, builder)
DERIVED_RULES = {
    name: (tuple(map(parse_formula, premises)), params,
           parse_formula(conclusion), build)
    for name, (premises, params, conclusion, build) in {
        "adjunction": (["a", "b"], (), "a & b", _adjunction),
        "modusponens": (["a -> b", "a"], (), "b", _modusponens),
        "disjunctivesyllogism": (["a | b", "~a"], (), "b", _disjunctivesyllogism),
        "transitivity": (["a -> b", "b -> c"], (), "a -> c", _transitivity),
        "contraposition": (["a -> b"], (), "~b -> ~a", _contraposition),
        "contraposition2": (["a -> ~b"], (), "b -> ~a", _contraposition2),
        "cut": (["a & b -> c", "b -> c | a"], (), "b -> c", _cutrule),
        "erule": (["a"], ("b",), "(a -> b) -> b", _erule),
        "suffixing": (["a -> b"], ("c",), "(b -> c) -> (a -> c)", _suffixing),
        "cycling": (["a -> (b -> c)"], (), "b -> (~c -> ~a)", _cycling),
        "prefixingR": (["a -> b"], ("c",), "(c -> a) -> (c -> b)", _prefixingR),
        "affixing": (["a -> b", "c -> d"], (), "(b -> c) -> (a -> d)", _affixing),
        "monotonicfusion": (["a -> b", "c -> d"], (), "a o c -> b o d",
                            _monotonicfusion),
    }.items()}


def _derive(rule: str, inputs: list[Proof], params) -> Proof:
    """Match the inputs to the rule's premises and build its conclusion;
    neither the inputs nor the output are checked here."""
    premises, names, conclusion, build = DERIVED_RULES[rule]
    binding = {name: desugar_fusion(f) for name, f in zip(names, params)}
    for n, (schema, proof) in enumerate(zip(premises, inputs), start=1):
        if not _match(schema, conclusion_formula(proof), binding):
            raise PremiseMismatch(f"{rule}: input {n} does not prove an "
                                  f"instance of {print_formula(schema)}")
    goal = desugar_fusion(substitute(conclusion, binding))
    out = build(goal, *inputs, **binding)
    if out.goal is not goal:  # pragma: no cover - would be a construction bug
        raise AssertionError(f"{rule} built a proof of {out.goal}, not {goal}")
    return out


def apply_derived_rule(rule: str, inputs: list[Proof],
                       parameters: list[Formula] = ()) -> Proof:
    """Run a named rule on checked inputs; the result re-checks and proves
    the rule's conclusion."""
    if rule not in DERIVED_RULES:
        raise PremiseMismatch(f"unknown derived rule {rule!r}")
    premises, names, _, _ = DERIVED_RULES[rule]
    if len(inputs) != len(premises):
        raise PremiseMismatch(f"{rule} takes {len(premises)} input proof(s)")
    if len(parameters) != len(names):
        raise PremiseMismatch(f"{rule} takes {len(names)} formula parameter(s)")
    for name, f in zip(names, parameters):
        if not isinstance(f, Formula):
            raise PremiseMismatch(f"{rule}: parameter {name} is not a formula: {f!r}")
    for n, proof in enumerate(inputs, start=1):
        report = check_proof(proof)
        if not report.valid:
            raise InvalidInput(f"input {n} fails to check: {report.first_error}")
    out = _derive(rule, inputs, parameters)
    report = check_proof(out)
    if not report.valid:  # pragma: no cover - would be a construction bug
        raise AssertionError(f"combinator emitted a bad proof: {report.first_error}")
    return out
