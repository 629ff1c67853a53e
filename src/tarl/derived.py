"""Derived inference rules: a checked proof skeleton per rule, and one splice.

``DERIVED_RULES`` gives each rule's premise schemas, parameter names and
conclusion schema.  A rule's skeleton, ``data/rules/<name>.prf``, is a proof
in the schema variables whose premise k is a leaf ``=> (P_k)[i,i] ; premise``.
``apply_derived_rule`` matches each input's conclusion to its premise
(``_match``, the inverse of ``substitute``), instantiates the skeleton and
splices each input in place of its leaf with indices 0 and i exchanged.
Nothing is trusted: a skeleton's other lines are checked as it loads,
``check_proof`` rejects every ``premise`` line, and ``apply_derived_rule``
checks each input and the output once.
"""

from __future__ import annotations

from dataclasses import replace

from .formulas import (Formula, Neg, Var, desugar_fusion, parse_formula, print_formula,
                       substitute)
from .registry import _load, data_dir
from .sequents import (Premise, Proof, RuleError, check_proof, check_step, goal_sequent,
                       parse_proof_script, permute_indices, substitute_proof)

__all__ = ["apply_derived_rule", "PremiseMismatch", "InvalidInput",
           "DERIVED_RULES", "conclusion_formula"]


class PremiseMismatch(ValueError):
    pass


class InvalidInput(ValueError):
    pass


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
    be, walking the two trees side by side, left operands first.  Formulas
    are interned, so a bound variable matches by identity."""
    todo = [(schema, f)]
    while todo:
        schema, f = todo.pop()
        if isinstance(schema, Var):
            if binding.setdefault(schema.name, f) is not f:
                return False
        elif type(schema) is not type(f):
            return False
        elif isinstance(schema, Neg):
            todo.append((schema.body, f.body))
        else:
            todo += (schema.right, f.right), (schema.left, f.left)
    return True


def _skeleton(rule: str) -> tuple[Proof, dict[int, tuple[int, int]]]:
    """The rule's skeleton, read once and checked line by line, the premise
    lines taken as hypotheses, and for each of its premise lines the input k
    that replaces it and the index i of its leaf (P_k)[i,i]."""
    premises, _, conclusion = DERIVED_RULES[rule]

    def read(text: str):
        name, proof = parse_proof_script(text)
        leaves, earlier = {}, []
        for n, line in enumerate(proof.lines, start=1):
            seq, just = line
            if just.rule is Premise:
                leaf = next(iter(seq.right), None)
                if (seq.left or len(seq.right) != 1 or not leaf.i == leaf.j < proof.bound
                        or leaf.formula not in premises):
                    raise ValueError(f"line {n}: {seq} is not => (P)[i,i], P a premise "
                                     f"of {rule}, i < {proof.bound}")
                leaves[n] = premises.index(leaf.formula), leaf.i
            else:
                try:
                    check_step(earlier, line, proof.bound)
                except RuleError as e:
                    raise ValueError(str(e)) from None
            earlier.append(seq)
        if earlier[-1:] != [goal_sequent(conclusion)]:
            raise ValueError(f"line {len(earlier)}: the skeleton does not end in "
                             f"=> ({print_formula(conclusion)})[0,0]")
        return name, (proof, leaves)

    return _load(data_dir() / "rules" / f"{rule}.prf", read, "lemma", rule)


def _splice(rule: str, inputs: list[Proof], binding: dict) -> Proof:
    """The rule's skeleton under binding, each premise line replaced by its
    input, and references to it by the input's last line that derives it."""
    skeleton, leaves = _skeleton(rule)
    lines, at = [], [0]  # at[n]: the output line of skeleton line n
    for n, (seq, just) in enumerate(substitute_proof(skeleton, binding).lines, start=1):
        if n not in leaves:
            lines.append((seq, replace(just, refs=tuple(at[r] for r in just.refs))))
            at.append(len(lines))
            continue
        k, i = leaves[n]
        proof = inputs[k]
        if i:  # exchange indices 0 and i, widening the bound to hold i
            perm = {x: x for x in range(max(proof.bound, i + 1))} | {0: i, i: 0}
            proof = permute_indices(replace(proof, bound=len(perm)), perm)
        offset = len(lines)
        lines += [(s, j.shifted(offset)) for s, j in proof.lines]
        derives = [m for m, (s, _) in enumerate(proof.lines, start=offset + 1) if s == seq]
        if not derives:
            raise PremiseMismatch(f"{rule}: input {k + 1} never derives {seq}")
        at.append(derives[-1])
    goal = desugar_fusion(substitute(DERIVED_RULES[rule][2], binding))
    return Proof(lines, max(skeleton.bound, *(p.bound for p in inputs)), goal)


# name: (premise schemas, parameter names, conclusion schema)
DERIVED_RULES = {
    name: (tuple(map(parse_formula, premises)), params, parse_formula(conclusion))
    for name, (premises, params, conclusion) in {
        "adjunction": (["a", "b"], (), "a & b"),
        "modusponens": (["a -> b", "a"], (), "b"),
        "disjunctivesyllogism": (["a | b", "~a"], (), "b"),
        "transitivity": (["a -> b", "b -> c"], (), "a -> c"),
        "contraposition": (["a -> b"], (), "~b -> ~a"),
        "contraposition2": (["a -> ~b"], (), "b -> ~a"),
        "cut": (["a & b -> c", "b -> c | a"], (), "b -> c"),
        "erule": (["a"], ("b",), "(a -> b) -> b"),
        "suffixing": (["a -> b"], ("c",), "(b -> c) -> (a -> c)"),
        "cycling": (["a -> (b -> c)"], (), "b -> (~c -> ~a)"),
        "prefixingR": (["a -> b"], ("c",), "(c -> a) -> (c -> b)"),
        "affixing": (["a -> b", "c -> d"], (), "(b -> c) -> (a -> d)"),
        "monotonicfusion": (["a -> b", "c -> d"], (), "a o c -> b o d"),
    }.items()}


def apply_derived_rule(rule: str, inputs: list[Proof],
                       parameters: list[Formula] = ()) -> Proof:
    """Run a named rule on checked inputs; the result re-checks and proves
    the rule's conclusion."""
    if rule not in DERIVED_RULES:
        raise PremiseMismatch(f"unknown derived rule {rule!r}")
    premises, names, _ = DERIVED_RULES[rule]
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
    binding = {name: desugar_fusion(f) for name, f in zip(names, parameters)}
    for n, (schema, proof) in enumerate(zip(premises, inputs), start=1):
        if not _match(schema, conclusion_formula(proof), binding):
            raise PremiseMismatch(f"{rule}: input {n} does not prove an "
                                  f"instance of {print_formula(schema)}")
    out = _splice(rule, inputs, binding)
    report = check_proof(out)
    if not report.valid:  # pragma: no cover - would be a construction bug
        raise AssertionError(f"combinator emitted a bad proof: {report.first_error}")
    return out
