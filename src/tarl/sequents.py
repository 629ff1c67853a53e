"""Sequents of indexed assertions, the rule table and the proof checker.

An assertion (A)[i,j] is a fusion-free formula tagged with two object
indices below the proof's bound (4 by default, configurable 1..8).  A proof
is a numbered list of sequents, each justified as an axiom or by one rule
applied to earlier lines.  The rules:

    axiom                Γ ∩ Δ nonempty
    cut r1 r2            from Γ => Δ, X  and  X, Γ' => Δ'  infer Γ,Γ' => Δ,Δ'
    weaken r             any superset sequent of line r
    orL r1 r2 / orR r    disjunction left / right
    andL r / andR r1 r2  conjunction left / right
    negL r / negR r      move (A)[i,j] across => as (~A)[j,i]
    impL r1 r2           from Γ => Δ, (A)[k,i] and Γ', (B)[k,j] => Δ'
                         infer Γ, Γ', (A->B)[i,j] => Δ, Δ'
    impR r k=<idx>       from Γ, (A)[k,i] => Δ, (B)[k,j] infer
                         Γ => Δ, (A->B)[i,j], provided k differs from i and j
                         and appears nowhere in Γ, Δ

Each rule is one row of RULES, the only place that says what a rule does.
A row gives the script name, justification class and number of line
references; the principal's side and connective; the index the rule takes
(any k for impL, the eigen index for impR); and the premise function, which
maps the principal (A)[i,j] (for cut, the cut assertion) and k to each
premise's left and right actives.

The checker reads a row forward.  With base the union of the premise sides
less their actives, each conclusion side must lie between base plus the
principal and that plus the actives: contexts are sets, so an active may
also belong to the context.  impR's actives carry the fresh eigen index, so
none may stay; weaken's conclusion may add anything.  For two-premise rules
the reference order is immaterial.  The search (search.py) reads the same
rows backward.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import starmap
from typing import Callable, Iterable, Sequence

from .formulas import (
    Formula, Imp, And, Or, Neg, ParseError,
    desugar_fusion, is_core, parse_formula, print_formula, substitute,
)

__all__ = [
    "Assertion", "Sequent", "Proof", "CheckReport", "RuleError",
    "Axiom", "Cut", "Weaken", "OrL", "OrR", "AndL", "AndR",
    "NegL", "NegR", "ImpL", "ImpR", "Justification", "Rule", "RULES",
    "RULE_NAMED", "rule_of", "goal_sequent", "check_step", "check_proof",
    "permute_indices", "objects_level", "substitute_proof",
    "parse_proof_script", "format_proof_script", "NotABijection",
    "InvalidProof",
]

DEFAULT_BOUND = 4
MAX_BOUND = 8


@dataclass(frozen=True)
class Assertion:
    formula: Formula
    i: int
    j: int

    def __post_init__(self):
        if not is_core(self.formula):
            raise ValueError("assertions carry fusion-free formulas; desugar first")

    def key(self):
        return (print_formula(self.formula), self.i, self.j)

    def __str__(self) -> str:
        return f"({print_formula(self.formula)})[{self.i},{self.j}]"


@dataclass(frozen=True)
class Sequent:
    left: frozenset[Assertion]
    right: frozenset[Assertion]

    @staticmethod
    def of(left: Iterable[Assertion] = (), right: Iterable[Assertion] = ()) -> "Sequent":
        return Sequent(frozenset(left), frozenset(right))

    def indices(self) -> frozenset[int]:
        out = set()
        for a in self.left | self.right:
            out.add(a.i)
            out.add(a.j)
        return frozenset(out)

    def is_axiom(self) -> bool:
        return bool(self.left & self.right)

    def __str__(self) -> str:
        fmt = lambda side: ", ".join(str(a) for a in sorted(side, key=Assertion.key))
        return f"{fmt(self.left)} => {fmt(self.right)}".strip()


def is_axiom(s: Sequent) -> bool:
    """True when some assertion occurs on both sides (formula and indices equal)."""
    return s.is_axiom()


def goal_sequent(f: Formula) -> Sequent:
    """=> (F)[0,0], the sequent a proof of F derives; fusion is desugared."""
    return Sequent.of((), (Assertion(desugar_fusion(f), 0, 0),))


# ------------------------------------------------------------------
# Justifications
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Axiom:
    pass


@dataclass(frozen=True)
class _OneRef:
    ref: int


@dataclass(frozen=True)
class _TwoRefs:
    ref1: int
    ref2: int


class Weaken(_OneRef):
    """weaken r"""


class OrR(_OneRef):
    """orR r"""


class AndL(_OneRef):
    """andL r"""


class NegL(_OneRef):
    """negL r"""


class NegR(_OneRef):
    """negR r"""


class OrL(_TwoRefs):
    """orL r1 r2"""


class AndR(_TwoRefs):
    """andR r1 r2"""


class ImpL(_TwoRefs):
    """impL r1 r2"""


@dataclass(frozen=True)
class ImpR(_OneRef):
    eigen: int


@dataclass(frozen=True)
class Cut(_TwoRefs):
    cut: Assertion | None = None  # scripts leave it implicit; combinators name it


Justification = (Axiom | Cut | Weaken | OrL | OrR | AndL | AndR
                 | NegL | NegR | ImpL | ImpR)


# ------------------------------------------------------------------
# The rule table
# ------------------------------------------------------------------

_REF_FIELDS = ((), ("ref",), ("ref1", "ref2"))


@dataclass(frozen=True)
class Rule:
    """One row of the rule table; the module docstring says how it is read."""
    name: str                      # the rule's name in proof scripts
    just: type                     # its justification class
    refs: int                      # number of premise line references
    side: str | None = None        # "left"/"right": the principal's side
    conn: type | None = None       # the principal's connective
    premises: Callable | None = None  # see RULES
    index: str | None = None       # "any" k below the bound, or the "eigen" one
    invertible: bool = False       # search applies it without backtracking
    keeps_principal: bool = False  # a backward step leaves the principal in
    widens: bool = False           # the conclusion may add any assertion

    def refs_of(self, just) -> list[int]:
        return [getattr(just, name) for name in _REF_FIELDS[self.refs]]

    def shifted(self, just, offset: int):
        """just with each line reference moved on by offset."""
        return replace(just, **{name: getattr(just, name) + offset
                                for name in _REF_FIELDS[self.refs]})

    def make(self, refs: Sequence[int], k: int | None = None):
        return self.just(*refs, k) if self.index == "eigen" else self.just(*refs)

    def actives(self, principal: Assertion | None, k: int | None,
                n: int) -> list[tuple[frozenset, frozenset]]:
        """Each of the n premises' left and right active assertions."""
        if self.premises is None:
            return [(frozenset(), frozenset())] * n
        return [(frozenset(starmap(Assertion, left)),
                 frozenset(starmap(Assertion, right)))
                for left, right in self.premises(principal.formula, principal.i,
                                                 principal.j, k)]


# premises: (A, i, j, k) -> [(left actives, right actives) per premise], the
# principal being (A)[i,j], the cut assertion for cut; actives are triples
# (formula, i, j)
RULES = (
    Rule("axiom", Axiom, 0),
    Rule("weaken", Weaken, 1, widens=True),
    Rule("cut", Cut, 2,
         premises=lambda f, i, j, k: [([], [(f, i, j)]), ([(f, i, j)], [])]),
    Rule("andL", AndL, 1, "left", And, invertible=True,
         premises=lambda f, i, j, k: [([(f.left, i, j), (f.right, i, j)], [])]),
    Rule("negL", NegL, 1, "left", Neg, invertible=True,
         premises=lambda f, i, j, k: [([], [(f.body, j, i)])]),
    Rule("orR", OrR, 1, "right", Or, invertible=True,
         premises=lambda f, i, j, k: [([], [(f.left, i, j), (f.right, i, j)])]),
    Rule("negR", NegR, 1, "right", Neg, invertible=True,
         premises=lambda f, i, j, k: [([(f.body, j, i)], [])]),
    Rule("impR", ImpR, 1, "right", Imp, index="eigen", invertible=True,
         premises=lambda f, i, j, k: [([(f.left, k, i)], [(f.right, k, j)])]),
    Rule("orL", OrL, 2, "left", Or,
         premises=lambda f, i, j, k: [([(f.left, i, j)], []), ([(f.right, i, j)], [])]),
    Rule("andR", AndR, 2, "right", And,
         premises=lambda f, i, j, k: [([], [(f.left, i, j)]), ([], [(f.right, i, j)])]),
    Rule("impL", ImpL, 2, "left", Imp, index="any", keeps_principal=True,
         premises=lambda f, i, j, k: [([], [(f.left, k, i)]), ([(f.right, k, j)], [])]),
)

RULE_NAMED = {rule.name: rule for rule in RULES}
_RULE_OF = {rule.just: rule for rule in RULES}


def rule_of(just) -> Rule:
    """The table row of a justification."""
    try:
        return _RULE_OF[type(just)]
    except KeyError:
        raise TypeError(f"not a justification: {just!r}") from None


@dataclass
class Proof:
    """A numbered proof; lines are (sequent, justification), refs are 1-based."""
    lines: list[tuple[Sequent, Justification]]
    bound: int = DEFAULT_BOUND
    goal: Formula | None = None

    def conclusion(self) -> Sequent:
        return self.lines[-1][0]

    def goal_sequent(self) -> Sequent | None:
        return None if self.goal is None else goal_sequent(self.goal)


@dataclass
class CheckReport:
    valid: bool
    objects_used: frozenset[int]
    first_error: tuple[int, str] | None = None

    @property
    def level(self) -> int:
        return len(self.objects_used)


class RuleError(Exception):
    """A line that does not check; kind is one of BadRef, ShapeMismatch,
    EigenvariableViolation, IndexOutOfBound, NotAxiom."""

    def __init__(self, line: int, kind: str, detail: str = ""):
        self.line = line
        self.kind = kind
        self.detail = detail
        msg = f"line {line}: {kind}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NotABijection(ValueError):
    pass


class InvalidProof(ValueError):
    pass


# ------------------------------------------------------------------
# Rule checking: the table read forward
# ------------------------------------------------------------------

def _get(earlier: Sequence[Sequent], ref: int, line_no: int) -> Sequent:
    if not 1 <= ref <= len(earlier):
        raise RuleError(line_no, "BadRef", f"reference {ref} out of range")
    return earlier[ref - 1]


def _principals(rule: Rule, concl: Sequent, just, prems: list[Sequent],
                bound: int) -> list[tuple[Assertion | None, int | None]]:
    """The (principal, k) pairs a line may apply its rule to."""
    if rule.premises is None:
        return [(None, None)]
    if rule.side is None:  # cut: the named assertion, or any the premises share
        if just.cut is not None:
            return [(just.cut, None)]
        p, q = prems
        return [(x, None) for x in (p.right & q.left) | (q.right & p.left)]
    ks = (range(bound) if rule.index == "any"
          else (just.eigen,) if rule.index == "eigen" else (None,))
    return [(p, k) for p in getattr(concl, rule.side)
            if isinstance(p.formula, rule.conn) for k in ks]


def _least(rule: Rule, principal: Assertion | None, k: int | None,
           prems: Sequence[Sequent]):
    """For each order of the premises that holds the actives, yield the
    conclusion's least reading, left and right: the premise sides less their
    actives, plus the principal.  Also yield the actives."""
    actives = rule.actives(principal, k, len(prems))
    for order in (prems, prems[::-1])[:len(prems)]:  # either premise first
        left, right = set(), set()
        for prem, (act_left, act_right) in zip(order, actives):
            if not (act_left <= prem.left and act_right <= prem.right):
                break
            left |= prem.left - act_left
            right |= prem.right - act_right
        else:
            if rule.side:
                (left if rule.side == "left" else right).add(principal)
            yield left, right, actives


def _fits(rule: Rule, have: frozenset, least: set, actives, side: int) -> bool:
    """least <= have <= least + the actives on this side, in one pass over
    have.  impR keeps no active, as its actives carry the fresh eigen index;
    weaken may add anything."""
    extra = have - least
    if len(have) - len(extra) != len(least):  # part of least is missing
        return False
    return rule.widens or not extra or (
        rule.index != "eigen" and extra <= set().union(*(a[side] for a in actives)))


def _check_rule(concl: Sequent, just: Justification,
                earlier: Sequence[Sequent], line_no: int, bound: int) -> None:
    rule = _RULE_OF.get(type(just))
    if rule is None:
        raise RuleError(line_no, "ShapeMismatch", f"unknown rule {just!r}")
    prems = [_get(earlier, ref, line_no) for ref in rule.refs_of(just)]
    if not prems:
        if concl.is_axiom():
            return
        raise RuleError(line_no, "NotAxiom", "no assertion common to both sides")
    if rule.index == "eigen" and not 0 <= just.eigen < bound:
        raise RuleError(line_no, "IndexOutOfBound", f"eigen index {just.eigen}")
    stale = False
    for principal, k in _principals(rule, concl, just, prems, bound):
        for left, right, actives in _least(rule, principal, k, prems):
            if not (_fits(rule, concl.left, left, actives, 0)
                    and _fits(rule, concl.right, right, actives, 1)):
                continue
            # the principal carries i and j, so this keeps k apart from them too
            if rule.index == "eigen" and any(k in (a.i, a.j) for a in left | right):
                stale = True
                continue
            return
    if stale:
        raise RuleError(line_no, "EigenvariableViolation",
                        f"index {just.eigen} not fresh")
    raise RuleError(line_no, "ShapeMismatch", f"{rule.name} shape")


def _check_line(earlier: Sequence[Sequent], line: tuple[Sequent, Justification],
                bound: int, indices: frozenset[int]) -> None:
    """check_step, given the indices of the line's sequent."""
    concl, just = line
    line_no = len(earlier) + 1
    for idx in indices:
        if not 0 <= idx < bound:
            raise RuleError(line_no, "IndexOutOfBound", f"index {idx}")
    _check_rule(concl, just, earlier, line_no, bound)


def check_step(earlier: Sequence[Sequent], line: tuple[Sequent, Justification],
               bound: int = DEFAULT_BOUND) -> None:
    """Validate one line against earlier sequents; raises RuleError if bad."""
    _check_line(earlier, line, bound, line[0].indices())


def check_proof(proof: Proof) -> CheckReport:
    """Check every line; reports rather than raising."""
    earlier: list[Sequent] = []
    objects: set[int] = set()
    first_error = None
    for n, line in enumerate(proof.lines, start=1):
        seq, _ = line
        indices = seq.indices()
        objects |= indices
        if first_error is None:
            try:
                _check_line(earlier, line, proof.bound, indices)
            except RuleError as e:
                first_error = (n, f"{e.kind}: {e.detail}" if e.detail else e.kind)
        earlier.append(seq)
    if first_error is None and proof.goal is not None:
        target = proof.goal_sequent()
        if all(seq != target for seq, _ in proof.lines):
            first_error = (len(proof.lines), "GoalMissing")
    return CheckReport(valid=first_error is None,
                       objects_used=frozenset(objects),
                       first_error=first_error)


def objects_level(proof: Proof) -> int:
    """Number of distinct indices a valid proof uses (its L1..Ln class)."""
    report = check_proof(proof)
    if not report.valid:
        raise InvalidProof(f"proof does not check: {report.first_error}")
    return report.level


# ------------------------------------------------------------------
# Transformations
# ------------------------------------------------------------------

def _relabel(proof: Proof, assertion: Callable[[Assertion], Assertion],
             index: Callable[[int], int] | None, goal: Formula | None) -> Proof:
    """Map every assertion, including those a justification names (a cut's),
    and every eigen index of a proof."""

    def sequent(s: Sequent) -> Sequent:
        return Sequent(frozenset(map(assertion, s.left)),
                       frozenset(map(assertion, s.right)))

    def just(j: Justification) -> Justification:
        changes = {name: assertion(v) for name, v in vars(j).items()
                   if isinstance(v, Assertion)}
        if index is not None and rule_of(j).index == "eigen":
            changes["eigen"] = index(j.eigen)
        return replace(j, **changes) if changes else j

    return Proof(lines=[(sequent(s), just(j)) for s, j in proof.lines],
                 bound=proof.bound, goal=goal)


def permute_indices(proof: Proof, perm: dict[int, int]) -> Proof:
    """Apply a bijection on 0..bound-1 to every index, eigen indices included."""
    domain = set(range(proof.bound))
    if set(perm) != domain or set(perm.values()) != domain:
        raise NotABijection(f"{perm!r} is not a bijection on 0..{proof.bound - 1}")
    # the goal lives at indices 0,0, so it survives only if 0 stays put
    return _relabel(proof, lambda a: Assertion(a.formula, perm[a.i], perm[a.j]),
                    perm.__getitem__, proof.goal if perm[0] == 0 else None)


def substitute_proof(proof: Proof, mapping: dict[str, Formula]) -> Proof:
    """Instantiate a schematic proof; rule applications survive substitution."""
    core_map = {name: desugar_fusion(f) for name, f in mapping.items()}
    goal = substitute(proof.goal, mapping) if proof.goal is not None else None
    formulas: dict[Formula, Formula] = {}  # each distinct formula once

    def assertion(a: Assertion) -> Assertion:
        f = formulas.get(a.formula)
        if f is None:
            f = formulas[a.formula] = substitute(a.formula, core_map)
        return Assertion(f, a.i, a.j)

    return _relabel(proof, assertion, None, goal)


# ------------------------------------------------------------------
# Proof scripts
# ------------------------------------------------------------------
#
# lemma <name> [: <formula>] [bound <n>]
# <k>. <sequent> ; <rule> [<refs>] [k=<idx>]
# with sequents written  (formula)[i,j], ... => ...

_GAP = re.compile(r"[ \t,]*")
_PAREN = re.compile(r"[()]")
_INDICES = re.compile(r"\s*\[\s*(\d+)\s*,\s*(\d+)\s*\]")
_EIGEN = re.compile(r"k\s*=\s*(\d+)")
_REF = re.compile(r"\d+")
_LINE = re.compile(r"(\d+)\s*\.\s*(.*?)\s*;\s*(.*)$")


def _split_assertions(text: str, offset: int) -> list[Assertion]:
    out = []
    pos = _GAP.match(text).end()
    while pos < len(text):
        if text[pos] != "(":
            raise ParseError(offset + pos, "'(' starting an assertion", text[pos])
        start = pos
        depth = 0
        for paren in _PAREN.finditer(text, start):
            depth += 1 if paren.group() == "(" else -1
            if depth == 0:
                pos = paren.end()
                break
        else:
            raise ParseError(offset + start, "balanced parentheses")
        m = _INDICES.match(text, pos)
        if not m:
            raise ParseError(offset + pos, "'[i,j]' after assertion formula")
        f = desugar_fusion(parse_formula(text[start + 1:pos - 1]))
        out.append(Assertion(f, int(m.group(1)), int(m.group(2))))
        pos = _GAP.match(text, m.end()).end()
    return out


def _parse_sequent(text: str, offset: int) -> Sequent:
    if "=>" not in text:
        raise ParseError(offset, "'=>' separating the sequent sides")
    left_text, right_text = text.split("=>", 1)
    return Sequent.of(_split_assertions(left_text, offset),
                      _split_assertions(right_text, offset + len(left_text) + 2))


def _parse_justification(text: str, line_no: int, offset: int) -> Justification:
    parts = text.split()
    if not parts:
        raise ParseError(offset, "a rule name")
    name, args = parts[0], parts[1:]
    eigen = None
    refs = []
    for arg in args:
        m = _EIGEN.fullmatch(arg)
        if m:
            eigen = int(m.group(1))
        elif _REF.fullmatch(arg):
            refs.append(int(arg))
        else:
            raise ParseError(offset, "a line reference or k=<idx>", arg)
    rule = RULE_NAMED.get(name)
    if rule is None:
        raise ParseError(offset, "a rule name", name)
    if rule.index == "eigen" and eigen is None:
        raise ParseError(offset, f"k=<idx> on {name}")
    if rule.refs == 2 and len(refs) not in (0, 2):
        raise ParseError(offset, f"zero or two references on {name}")
    # omitted references name the immediately preceding lines
    refs = refs[:rule.refs] or [line_no - n for n in range(rule.refs, 0, -1)]
    return rule.make(refs, eigen)


def parse_proof_script(text: str) -> tuple[str, Proof]:
    """Parse the line-oriented script format; returns (lemma name, proof)."""
    name = None
    goal = None
    bound = DEFAULT_BOUND
    lines: list[tuple[Sequent, Justification]] = []
    offset = 0
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        offset += len(raw) + 1
        if not stripped:
            continue
        if stripped.startswith("lemma"):
            header = stripped[len("lemma"):].strip()
            m = re.match(r"(\S+)\s*(?::(.*?))?(?:\bbound\s+(\d+))?$", header)
            if not m:
                raise ParseError(offset, "lemma <name> [: <formula>] [bound <n>]")
            name = m.group(1)
            if m.group(2) and m.group(2).strip():
                goal = parse_formula(m.group(2).strip())
            if m.group(3):
                bound = int(m.group(3))
                if not 1 <= bound <= MAX_BOUND:
                    raise ParseError(offset, f"bound between 1 and {MAX_BOUND}")
            continue
        m = _LINE.match(stripped)
        if not m:
            raise ParseError(offset, "'<k>. <sequent> ; <rule>'")
        line_no = int(m.group(1))
        if line_no != len(lines) + 1:
            raise ParseError(offset, f"line number {len(lines) + 1}", m.group(1))
        seq = _parse_sequent(m.group(2), offset)
        just = _parse_justification(m.group(3), line_no, offset)
        lines.append((seq, just))
    if name is None:
        raise ParseError(0, "a 'lemma <name>' header")
    return name, Proof(lines=lines, bound=bound, goal=goal)


def _format_justification(j: Justification) -> str:
    rule = rule_of(j)
    words = [rule.name, *map(str, rule.refs_of(j))]
    if rule.index == "eigen":
        words.append(f"k={j.eigen}")
    return " ".join(words)


def format_proof_script(name: str, proof: Proof) -> str:
    header = f"lemma {name}"
    if proof.goal is not None:
        header += f" : {print_formula(proof.goal)}"
    if proof.bound != DEFAULT_BOUND:
        header += f" bound {proof.bound}"
    out = [header]
    for n, (seq, just) in enumerate(proof.lines, start=1):
        out.append(f"{n}. {seq} ; {_format_justification(just)}")
    return "\n".join(out) + "\n"
