"""Sequents of indexed assertions, the rule table and the proof checker.

An assertion (A)[i,j] is a fusion-free formula tagged with two object
indices below the proof's bound (4 by default, configurable 1..8); an index
that is a bool is out of bound, since it prints as no number.  A proof
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
    premise              a derived rule's hypothesis => (P)[i,i], which only
                         the rule skeletons of ``derived`` hold: the checker
                         rejects it, so that no proof assumes its goal

Each rule is one row of RULES, the only place that says what a rule does.
A row gives the script name and number of line references; the principal's
side and connective; the index the rule takes (any k for impL, the eigen
index for impR); and the premise function, which maps the principal (A)[i,j]
(for cut, the cut assertion) and k to each premise's left and right actives.

Rows build the justifications that cite them: calling a row with a line's
premise references gives its Justification, as in ImpL(1, 2),
ImpR(3, eigen=1), Cut(1, 2) and Axiom().  The names Axiom ... Premise
are the rows themselves.  Assertions, sequents and justifications are
immutable and built by the thousand, so each slot is written through its
own setter, bound once, not by `object.__setattr__` or `dataclasses.replace`.

The checker reads a row forward on bit masks, as search reads it backward,
and both give each distinct assertion a bit in one table (``_Bits``).
Formulas are hash-consed (``formulas``), so ``uid << 6 | i << 3 | j`` keys
(A)[i,j]; an index takes three bits, so a bound is at most 8.  A side is
an int, the mask of its assertions' bits; ``holds[x]`` is the mask of the
assertions that hold index x, ``kinds[c]`` that of connective c.
Each premise must hold its actives, and each conclusion side must lie
between least, the premise sides less their actives, and most, the premise
sides, both with the principal on its side (``_follows``, for one premise
or two, in either order): an active may also belong to the context.
impR's actives carry the fresh eigen index, so its most is its least;
weaken's conclusion may add anything.  The principals are the
conclusion's assertions of the row's connective on its side (for cut, any
the premises share); impL takes each k for which a premise's right side
holds (A)[k,i].  An active with no bit is in no premise.  The search
(search.py) never takes cut or premise.

Proof scripts are read a line at a time, by one reader: regular
expressions find the line's number, its first ';' and the first '=>' before
it, allowing any blanks and commas between the parts, and place every error
of the line.  Each side is then walked assertion by assertion (``_side``,
over ``_ASSERTION``, the one grammar of an assertion), and the walk alone
raises a side's ParseError.  The printer prints each side with ``_listed``.

Assertions have a text memo of their own, a ``formulas.Cache`` as the
formula memo is: a text maps to a weak reference to its assertion.  The
walk stores each assertion it reads under its text from '(' to ']'; an
assertion stores its text when it is first printed, if the walk would read
that text back to it (indices that are ints, not negative).  Before a side
is walked, it is split at ', ' and each piece looked up in the memo; if
every piece is there, the side is read with no walk.  A lookup cannot
disagree with the walk: the walk reads each text in the memo as exactly
one assertion, that of the memo, and a formula holds no '[' or ',', so the
walk reads the pieces joined by ', ' as those assertions.  So a printed
proof is read back with no assertion rebuilt, while its assertions live,
and the memo keeps none of them alive.  A third memo, a ``Cache`` too,
maps the text of a line after its ';' to the Justification read
from it, unless the references it omits depend on the line: the instances
of one proof print the same justifications.  Substitution and permutation
map each distinct side of a proof once, so their images share sides as
their sources do.
"""

from __future__ import annotations

import re
import sys
import weakref
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable, Iterable, Sequence

from .formulas import (
    Formula, Imp, And, Or, Neg, ParseError, MEMO_SIZE, Cache, desugar_fusion,
    end_of_file, file_lines, parse_at, parse_formula, print_formula, substitution,
)

__all__ = [
    "Assertion", "Sequent", "Proof", "CheckReport", "RuleError",
    "Axiom", "Cut", "Weaken", "OrL", "OrR", "AndL", "AndR",
    "NegL", "NegR", "ImpL", "ImpR", "Premise", "Justification", "Rule", "RULES",
    "RULE_NAMED", "goal_sequent", "check_step", "check_proof",
    "permute_indices", "substitute_proof",
    "parse_proof_script", "format_proof_script", "NotABijection",
]

DEFAULT_BOUND = 4
MAX_BOUND = 8


class Assertion:
    """(formula)[i,j]: a fusion-free formula at a pair of object indices.
    Assertions are immutable; each keeps its hash, that of the triple
    (formula, i, j), and two are equal when their triples are.  Its printed
    text is cached on first use (see __str__)."""

    __slots__ = ("formula", "i", "j", "_hash", "_text", "__weakref__")

    def __init__(self, formula: Formula, i: int, j: int):
        if not formula._core:
            raise ValueError("assertions carry fusion-free formulas; desugar first")
        _set_formula(self, formula)
        _set_i(self, i)
        _set_j(self, j)
        _set_hash(self, hash((formula, i, j)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not Assertion:
            return NotImplemented
        return (self._hash == other._hash and self.formula is other.formula
                and self.i == other.i and self.j == other.j)

    def __setattr__(self, name, value):  # Sequent's and Justification's too
        raise FrozenInstanceError(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"{self.__class__.__name__} is immutable")

    def __reduce__(self):
        return Assertion, (self.formula, self.i, self.j)

    def __repr__(self) -> str:
        return f"Assertion(formula={self.formula!r}, i={self.i!r}, j={self.j!r})"

    def key(self):
        return (print_formula(self.formula), self.i, self.j)

    def __str__(self) -> str:
        """(formula)[i,j], built and cached on first use.  It is then stored
        in the assertion memo if the reader reads it back to this assertion:
        when i and j are ints (not bools or numpy integers) and not negative."""
        text = getattr(self, "_text", None)  # unset until first printed
        if text is None:
            i, j = self.i, self.j
            text = f"({print_formula(self.formula)})[{i},{j}]"
            _set_text(self, text)
            if type(i) is int and type(j) is int and i >= 0 and j >= 0:
                _MEMO.keep(text, weakref.ref(self))
        return text


_set_formula, _set_i, _set_j, _set_hash, _set_text = (
    getattr(Assertion, slot).__set__ for slot in ("formula", "i", "j", "_hash", "_text"))


@dataclass(frozen=True, slots=True, init=False)
class Sequent:
    left: frozenset[Assertion]
    right: frozenset[Assertion]

    def __init__(self, left: frozenset[Assertion], right: frozenset[Assertion]):
        _set_left(self, left)
        _set_right(self, right)

    @staticmethod
    def of(left: Iterable[Assertion] = (), right: Iterable[Assertion] = ()) -> "Sequent":
        return Sequent(frozenset(left), frozenset(right))

    def indices(self) -> frozenset[int]:
        """The object indices of the assertions.  A bool index is kept in
        place of the int equal to it (True == 1), so the checker sees it."""
        every = [x for a in self.left | self.right for x in (a.i, a.j)]
        bools = {x for x in every if x.__class__ is bool}
        return frozenset(set(every) - bools | bools)

    def __str__(self) -> str:
        return f"{_listed(self.left)} => {_listed(self.right)}".strip()


def _listed(side: frozenset[Assertion]) -> str:
    """A sequent side as printed: its assertions in the order of their keys."""
    if len(side) > 1:
        side = sorted(side, key=Assertion.key)
    return ", ".join(map(str, side))


def goal_sequent(f: Formula) -> Sequent:
    """=> (F)[0,0], the sequent a proof of F derives; fusion is desugared."""
    return Sequent.of((), (Assertion(desugar_fusion(f), 0, 0),))


# ------------------------------------------------------------------
# The rule table
# ------------------------------------------------------------------

@dataclass(frozen=True, eq=False, repr=False)
class Rule:
    """One row of the rule table; the module docstring says how it is read.
    Rows compare by identity, and calling one justifies a line by it."""
    name: str                      # the rule's name in proof scripts
    refs: int                      # number of premise line references
    side: str | None = None        # "left"/"right": the principal's side
    conn: type | None = None       # the principal's connective
    premises: Callable | None = None  # see RULES
    index: str | None = None       # "any" k below the bound, or the "eigen" one
    keeps_principal: bool = False  # a backward step leaves the principal in
    widens: bool = False           # the conclusion may add any assertion

    def __call__(self, *refs: int, eigen: int | None = None) -> "Justification":
        """This rule applied to the lines refs; impR names its eigen index."""
        misfit = self.misfit(refs, eigen)
        if misfit:
            raise TypeError(misfit)
        return Justification(self, refs, eigen)

    def misfit(self, refs: tuple, eigen) -> str:
        """Why this rule cannot cite the lines refs with that eigen index,
        or '' if it can: the count of references, or an eigen index given
        or missing."""
        if len(refs) != self.refs:
            return f"{self.name} takes {self.refs} line references, got {len(refs)}"
        if (eigen is None) == (self.index == "eigen"):
            return f"{self.name} takes {'an' if eigen is None else 'no'} eigen index"
        return ""

    def __repr__(self) -> str:
        return self.name

    def __reduce__(self):
        # pickled and copied as the row of its name, so identity survives
        return _row, (self.name,)


@dataclass(frozen=True, slots=True, init=False)
class Justification:
    """A line's rule, its 1-based premise line references and impR's eigen
    index."""
    rule: Rule
    refs: tuple[int, ...]
    eigen: int | None = None

    def __init__(self, rule: Rule, refs: tuple[int, ...], eigen: int | None = None):
        _set_rule(self, rule)
        _set_refs(self, refs)
        _set_eigen(self, eigen)

    def shifted(self, offset: int) -> "Justification":
        """This justification with each line reference moved on by offset."""
        return Justification(self.rule, tuple(ref + offset for ref in self.refs), self.eigen)


_set_left, _set_right = Sequent.left.__set__, Sequent.right.__set__
_set_rule, _set_refs, _set_eigen = (
    getattr(Justification, slot).__set__ for slot in ("rule", "refs", "eigen"))


# dataclass's own, for a frozen class with slots, raise TypeError on a name
# that is no field: they call super() on the class that slots=True replaced
for _cls in (Sequent, Justification):
    _cls.__setattr__, _cls.__delattr__ = Assertion.__setattr__, Assertion.__delattr__


# premises: (A, i, j, k) -> [(left actives, right actives) per premise], the
# principal being (A)[i,j], the cut assertion for cut; actives are triples
# (formula, i, j)
RULES = (
    Rule("axiom", 0),
    Rule("weaken", 1, widens=True),
    Rule("cut", 2,
         premises=lambda f, i, j, k: [([], [(f, i, j)]), ([(f, i, j)], [])]),
    Rule("andL", 1, "left", And,
         premises=lambda f, i, j, k: [([(f.left, i, j), (f.right, i, j)], [])]),
    Rule("negL", 1, "left", Neg,
         premises=lambda f, i, j, k: [([], [(f.body, j, i)])]),
    Rule("orR", 1, "right", Or,
         premises=lambda f, i, j, k: [([], [(f.left, i, j), (f.right, i, j)])]),
    Rule("negR", 1, "right", Neg,
         premises=lambda f, i, j, k: [([(f.body, j, i)], [])]),
    Rule("impR", 1, "right", Imp, index="eigen",
         premises=lambda f, i, j, k: [([(f.left, k, i)], [(f.right, k, j)])]),
    Rule("orL", 2, "left", Or,
         premises=lambda f, i, j, k: [([(f.left, i, j)], []), ([(f.right, i, j)], [])]),
    Rule("andR", 2, "right", And,
         premises=lambda f, i, j, k: [([], [(f.left, i, j)]), ([], [(f.right, i, j)])]),
    Rule("impL", 2, "left", Imp, index="any", keeps_principal=True,
         premises=lambda f, i, j, k: [([], [(f.left, k, i)]), ([(f.right, k, j)], [])]),
    Rule("premise", 0),
)

RULE_NAMED = {rule.name: rule for rule in RULES}
Axiom, Weaken, Cut, AndL, NegL, OrR, NegR, ImpR, OrL, AndR, ImpL, Premise = RULES
# the rows' connectives, each with a mask in every _Bits
_CONNECTIVES = tuple(dict.fromkeys(rule.conn for rule in RULES if rule.conn))


def _row(name: str) -> Rule:
    return RULE_NAMED[name]


@dataclass
class Proof:
    """A numbered proof; lines are (sequent, justification), refs are 1-based."""
    lines: list[tuple[Sequent, Justification]]
    bound: int = DEFAULT_BOUND
    goal: Formula | None = None

    def conclusion(self) -> Sequent:
        return self.lines[-1][0]


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


# ------------------------------------------------------------------
# Rule checking: the table read forward, on bit masks
# ------------------------------------------------------------------

class _Bits:
    """The one table of assertions, the checker's and (``search._Table``)
    the search's: a bit each, by its key (see the module docstring), at
    indices below bound, given by ``_new`` alone.  ``bit`` looks a triple
    up by its key.  ``side`` looks the members of a set up by identity
    (``made`` keeps the first of each key alive, and the checked lines the
    rest), and only ``side`` records identities (``ids``) and tests
    indices, those of an object new to it, so a bool is never taken for
    the int equal to it: one with an index that is a bool or out of bound
    gets a new bit each time and sets ``bad``.  ``made`` holds each bit's
    assertion, with int indices (None for a bad one)."""

    __slots__ = ("bound", "ids", "keys", "made", "holds", "kinds", "bad")

    def __init__(self, bound: int):
        if not 1 <= bound <= MAX_BOUND:  # an index has three bits of the key
            raise ValueError(f"bound must be within 1..{MAX_BOUND}")
        self.bound, self.bad, self.holds = bound, False, [0] * bound
        self.ids, self.keys, self.made = {}, {}, []
        self.kinds = dict.fromkeys(_CONNECTIVES, 0)

    def side(self, side: frozenset[Assertion]) -> int:
        get, mask = self.ids.get, 0
        for a in side:
            bit = get(id(a))
            mask |= self._new(a) if bit is None else bit
        return mask

    def bit(self, f: Formula, i: int, j: int) -> int:
        """The bit of (f)[i,j]; i and j are ints below the bound."""
        key = f.uid << 6 | i << 3 | j
        bit = self.keys.get(key)
        return self._new(Assertion(f, i, j), key) if bit is None else bit

    def _new(self, a: Assertion, key: int | None = None) -> int:
        """The one maker of bits.  From ``side`` (no key) a is an object new
        to ``ids``: its indices are tested and its identity recorded.  From
        ``bit`` its key is new to ``keys``."""
        (f, i, j), made, kept = (a.formula, a.i, a.j), self.made, a
        if key is None:
            bound = self.bound
            if not (i.__class__ is j.__class__ is int and 0 <= i < bound and 0 <= j < bound):
                if bool in (i.__class__, j.__class__) or not {i, j} <= {*range(bound)}:
                    self.bad = True
                    made.append(None)
                    return 1 << len(made) - 1
                i, j = int(i), int(j)  # numpy integers, say
                kept = Assertion(f, i, j)
            key = f.uid << 6 | i << 3 | j
            bit = self.keys.get(key)
            if bit is not None:  # an equal assertion, another object
                self.ids[id(a)] = bit
                return bit
            self.ids[id(a)] = 1 << len(made)  # the bit made below
        bit = self.keys[key] = 1 << len(made)
        made.append(kept)
        self.holds[i] |= bit
        self.holds[j] |= bit
        self.kinds[f.__class__] = self.kinds.get(f.__class__, 0) | bit
        return bit


def _out_of_bound(seq: Sequent, line_no: int, bound: int) -> RuleError:
    """Line line_no's RuleError, naming seq's least bad index, whatever the
    set's order; a bool is one, as it prints as no number."""
    bad = min(x for x in seq.indices() if x.__class__ is bool or x not in range(bound))
    return RuleError(line_no, "IndexOutOfBound", f"index {bad}")


def _follows(concl: tuple[int, int], prems: list, actives: list,
             principal: tuple[int, int], rule: Rule) -> bool:
    """Whether the masks concl follow by rule from the masks prems, by the
    least and most of the module docstring, premise m having the actives of
    masks actives[m], and principal the principal's bit on each side."""
    least_left, least_right = most_left, most_right = principal
    for (left, right), (act_left, act_right) in zip(prems, actives):
        if act_left & ~left or act_right & ~right:
            return False
        least_left |= left & ~act_left
        least_right |= right & ~act_right
        most_left |= left
        most_right |= right
    if rule.widens:
        most_left = most_right = -1  # every bit
    elif rule.index == "eigen":
        most_left, most_right = least_left, least_right
    left, right = concl
    return not (least_left & ~left or left & ~most_left
                or least_right & ~right or right & ~most_right)


def _check_rule(table: _Bits, concl: tuple[int, int], just: Justification,
                lines: list[tuple[int, int]], line_no: int) -> None:
    """Raise the RuleError of line line_no, of masks concl, by just from the
    earlier lines, of masks lines, if it has one."""
    if not isinstance(just, Justification):
        raise RuleError(line_no, "ShapeMismatch", f"unknown rule {just!r}")
    rule, (left, right) = just.rule, concl
    if rule is Premise:
        raise RuleError(line_no, "ShapeMismatch", "a premise line is a derived "
                        "rule's hypothesis, not a step of a proof")
    misfit = rule.misfit(just.refs, just.eigen)
    if misfit:
        raise RuleError(line_no, "ShapeMismatch", misfit)
    index, side, premises, prems = rule.index, rule.side, rule.premises, []
    for ref in just.refs:
        if type(ref) is not int:  # nor a bool, which prints as no number
            raise RuleError(line_no, "BadRef", f"reference {ref!r} is no line number")
        if not 1 <= ref < line_no:
            raise RuleError(line_no, "BadRef", f"reference {ref} out of range")
        prems.append(lines[ref - 1])
    if not prems:
        if left & right:
            return
        raise RuleError(line_no, "NotAxiom", "no assertion common to both sides")
    if index == "eigen" and not (type(just.eigen) is int and 0 <= just.eigen < table.bound):
        raise RuleError(line_no, "IndexOutOfBound", f"eigen index {just.eigen}")
    if premises is None:  # weaken
        principals = 0
        if _follows(concl, prems, [(0, 0)], (0, 0), rule):
            return
    elif side is None:  # cut: any assertion the premises share
        (left1, right1), (left2, right2) = prems
        principals = right1 & left2 | right2 & left1
    else:
        principals = (left if side == "left" else right) & table.kinds[rule.conn]
    keys, ks, stale = table.keys, (just.eigen,), False
    while principals:
        bit = principals & -principals
        principals ^= bit
        a = table.made[bit.bit_length() - 1]
        f, i, j = a.formula, a.i, a.j
        on = (bit, 0) if side == "left" else (0, bit) if side else (0, 0)
        if index == "any":  # impL: k where a premise's right side holds (A)[k,i]
            key, rights = f.left.uid << 6 | i, prems[0][1] | prems[1][1]
            ks = [k for k in range(table.bound) if keys.get(key | k << 3, 0) & rights]
        for k in ks:
            actives = []  # an active with no bit is -1, every bit, which no side holds
            for triples_left, triples_right in premises(f, i, j, k):
                act_left = act_right = 0
                for g, x, y in triples_left:
                    act_left |= keys.get(g.uid << 6 | x << 3 | y, -1)
                for g, x, y in triples_right:
                    act_right |= keys.get(g.uid << 6 | x << 3 | y, -1)
                actives.append((act_left, act_right))
            if not (_follows(concl, prems, actives, on, rule)
                    or len(actives) == 2 and _follows(concl, prems, actives[::-1], on, rule)):
                continue
            # the principal carries i and j, so this keeps k apart from them too
            if index == "eigen" and table.holds[k] & (left | right):
                stale = True
                continue
            return
    if stale:
        raise RuleError(line_no, "EigenvariableViolation", f"index {just.eigen} not fresh")
    raise RuleError(line_no, "ShapeMismatch", f"{rule.name} shape")


def check_step(earlier: Sequence[Sequent], line: tuple[Sequent, Justification],
               bound: int = DEFAULT_BOUND) -> None:
    """Validate one line against earlier sequents; raises RuleError if bad."""
    table, (seq, just), line_no = _Bits(bound), line, len(earlier) + 1
    concl = table.side(seq.left), table.side(seq.right)
    if table.bad:
        raise _out_of_bound(seq, line_no, bound)
    _check_rule(table, concl, just, [(table.side(s.left), table.side(s.right))
                                     for s in earlier], line_no)


def check_proof(proof: Proof) -> CheckReport:
    """Check every line; reports, but raises ValueError on a bound outside 1..MAX_BOUND."""
    table, lines, first_error, bad = _Bits(proof.bound), [], None, False
    for n, (seq, just) in enumerate(proof.lines, start=1):
        concl = table.side(seq.left), table.side(seq.right)
        try:
            if table.bad:
                table.bad, bad = False, True
                if first_error is None:
                    raise _out_of_bound(seq, n, proof.bound)
            elif first_error is None:
                _check_rule(table, concl, just, lines, n)
                lines.append(concl)  # the lines' masks, up to the first error
        except RuleError as e:
            first_error = (n, f"{e.kind}: {e.detail}" if e.detail else e.kind)
    if first_error is None and proof.goal is not None:
        goal = (0, table.keys.get(desugar_fusion(proof.goal).uid << 6, -1))
        if goal not in reversed(lines):  # nearly always the last
            first_error = (len(proof.lines), "GoalMissing")
    # with a bad index, line by line, as a set keeps the first of equal members
    objects = (set().union(*(seq.indices() for seq, _ in proof.lines)) if bad
               else {x for x, bits in enumerate(table.holds) if bits})
    return CheckReport(valid=first_error is None, objects_used=frozenset(objects),
                       first_error=first_error)


# ------------------------------------------------------------------
# Transformations
# ------------------------------------------------------------------

def _relabel(proof: Proof, assertion: Callable[[Assertion], Assertion],
             index: Callable[[int], int] | None, goal: Formula | None) -> Proof:
    """Map every assertion and every eigen index of a proof.  Each distinct
    side is mapped once, so the image shares sides as the proof does."""
    images: dict[frozenset, frozenset] = {}

    def side(s: frozenset) -> frozenset:
        image = images.get(s)
        if image is None:
            image = images[s] = frozenset(map(assertion, s))
        return image

    def just(j: Justification) -> Justification:
        return j if j.eigen is None else Justification(j.rule, j.refs, index(j.eigen))

    lines = [(Sequent(side(s.left), side(s.right)), j if index is None else just(j))
             for s, j in proof.lines]
    return Proof(lines=lines, bound=proof.bound, goal=goal)


def permute_indices(proof: Proof, perm: dict[int, int]) -> Proof:
    """Apply a bijection on 0..bound-1 to every index, eigen indices included."""
    domain = set(range(proof.bound))
    if set(perm) != domain or set(perm.values()) != domain:
        raise NotABijection(f"{perm!r} is not a bijection on 0..{proof.bound - 1}")
    # the goal lives at indices 0,0, so it survives only if 0 stays put
    return _relabel(proof, lambda a: Assertion(a.formula, perm[a.i], perm[a.j]),
                    perm.__getitem__, proof.goal if perm[0] == 0 else None)


def substitute_proof(proof: Proof, mapping: dict[str, Formula]) -> Proof:
    """Instantiate a schematic proof; rule applications survive substitution.
    Each distinct subformula is substituted once, and each distinct
    assertion built once."""
    core = {name: desugar_fusion(f) for name, f in mapping.items()}
    image = substitution(core)
    goal = proof.goal  # keeps its fusions, and so do the formulas put in it
    if goal is not None:
        goal = (image if core == mapping else substitution(mapping))(goal)
    made: dict[Assertion, Assertion] = {}

    def assertion(a: Assertion) -> Assertion:
        b = made.get(a)
        if b is None:
            b = made[a] = Assertion(image(a.formula), a.i, a.j)
        return b

    return _relabel(proof, assertion, None, goal)


# ------------------------------------------------------------------
# Proof scripts
# ------------------------------------------------------------------
#
# lemma <name> [: <formula>] [bound <n>]
# <k>. <sequent> ; <rule> [<refs>] [k=<idx>]
# with sequents written  (formula)[i,j], ... => ...
#
# The regular expressions below find a line's parts and place its errors
# (_read_sequent); each side is walked by _ASSERTION (_side), unless every
# assertion of it is looked up in _MEMO (_lookup_side).

# text -> the assertion the walk reads from it, weakly (Assertion.__str__, _side)
_MEMO = Cache("assertions", MEMO_SIZE)
# a line's text after its ';' -> the Justification read from it, unless the
# references it omits depend on the line (_script_line); a Justification
# holds only a row of RULES and numbers, so the memo holds it, not a weak
# reference
_JUSTIFIED = Cache("justifications", MEMO_SIZE)

_HEADER = re.compile(r"lemma\s+([^\s:]+)\s*(?::\s*(.*?))?\s*(?:\bbound\s+(\d+))?$")
# a proof line is <k>. <left side> => <right side> ; <rule> <arguments>: the
# reader matches the number and the blanks and commas after its dot, then
# splits the rest at the first ';' and at the first '=>' before it, so that
# it can say which of the two is missing
_NUMBER = re.compile(r"(\d+)\s*\.[\s,]*")
_BLANKS = re.compile(r"[\s,]*")
# an assertion and the blanks and commas after it: a formula holds no '[', so
# it ends at the last ')' before one; the match also stands without [i,j], so
# that a bad one is reported after the formula is read; the empty group after
# ']' ends the assertion's text, which the walk stores in _MEMO
_ASSERTION = re.compile(r"\(([^\[]*)\)\s*(?:\[\s*(\d+)\s*,\s*(\d+)\s*\]()[\s,]*)?")
_NEXT = re.compile(r"\s*(=>|\S|$)")  # where an error is: '=>', a character or the end
_WORD = re.compile(r"\S+")  # a rule's name or argument, placed when it is at fault


def _error(content: str, at: int, expected: str, n: int, col: int) -> ParseError:
    """A ParseError at what comes next from content[at] on, on line n of a
    script whose content starts at column col."""
    m = _NEXT.match(content, at)
    return ParseError(col + m.start(1), expected, m.group(1) or "end of line", n)


def _word_at(content: str, semi: int, number: int) -> int:
    """The offset of word number (from 0) after the ';' at offset semi, or
    the end of content if there is none."""
    starts = [m.start() for m in _WORD.finditer(content, semi + 1)]
    return starts[number] if number < len(starts) else len(content)


def _int(digits: str) -> int | None:
    """The number digits writes in decimal, or None if it is not one or has
    more digits than int reads (sys.get_int_max_str_digits())."""
    if digits.isdecimal():
        try:
            return int(digits)
        except ValueError:
            pass
    return None


def _side(content: str, pos: int, end: int, n: int, col: int) -> frozenset[Assertion]:
    """The assertions of the sequent side content[pos:end], walked one by
    one past any blanks and commas before them, each stored in the
    assertion memo under its text; raises the ParseError of a side that
    does not read."""
    pos = _BLANKS.match(content, pos, end).end()
    out = []
    while pos < end:
        m = _ASSERTION.match(content, pos, end)
        if m is None:  # no '(', or no ')' before the next '['
            raise _error(content, pos, "an assertion '(<formula>)[i,j]'", n, col)
        f = parse_at(parse_formula, content, m.start(1), m.end(1), n, col)
        if m.group(2) is None:
            raise _error(content, m.end(), "'[i,j]' after the formula", n, col)
        i, j = _int(m.group(2)), _int(m.group(3))
        if i is None or j is None:  # more digits than int reads
            g = 2 if i is None else 3
            raise ParseError(col + m.start(g), f"an index of at most "
                             f"{sys.get_int_max_str_digits()} digits", m.group(g), n)
        a = Assertion(desugar_fusion(f), i, j)
        _MEMO.keep(content[m.start():m.start(4)], weakref.ref(a))
        out.append(a)
        pos = m.end()
    return frozenset(out)


def _lookup_side(text: str) -> frozenset[Assertion] | None:
    """The assertions of the sequent side text, if each piece of it between
    ', ' is a text in the assertion memo whose assertion lives; else None,
    and the side is walked (see the module docstring)."""
    out = []
    for piece in text.split(", ") if text else ():
        ref = _MEMO.get(piece)
        a = ref and ref()
        if a is None:
            return None
        out.append(a)
    return frozenset(out)


def _read_sequent(content: str, line_no: int, n: int, col: int) -> tuple[Sequent, int]:
    """Proof line line_no's sequent, written as content on line n of a
    script from column col, and the offset of its ';'.  Each side, less its
    outer blanks, is looked up (_lookup_side), and walked (_side) if it is
    not there.  Raises the ParseError of a line that does not read."""
    m = _NUMBER.match(content)
    if not m:
        raise ParseError(col, "'<k>. <sequent> ; <rule>'", line=n)
    if _int(m.group(1)) != line_no:
        raise ParseError(col, f"line number {line_no}", m.group(1), n)
    start = m.end()
    semi = content.find(";", start)
    if semi < 0:
        raise _error(content, len(content), "';' and a rule", n, col)
    arrow = content.find("=>", start, semi)
    if arrow < 0:
        raise _error(content, semi, "'=>' separating the sequent sides", n, col)
    left = _lookup_side(content[start:arrow].strip())
    if left is None:
        left = _side(content, start, arrow, n, col)
    right = _lookup_side(content[arrow + 2:semi].strip())
    if right is None:
        right = _side(content, arrow + 2, semi, n, col)
    return Sequent(left, right), semi


def _script_line(content: str, line_no: int, n: int, col: int) -> tuple[Sequent, Justification]:
    """Proof line line_no, written as content on line n of a script from
    column col; _read_sequent reads the sequent.  The justification is
    looked up in _JUSTIFIED by its text, and read only if it is not there."""
    seq, semi = _read_sequent(content, line_no, n, col)
    tail = content[semi + 1:]
    just = _JUSTIFIED.get(tail)
    if just is not None:
        return seq, just
    name, *args = tail.split() or ("",)
    rule = RULE_NAMED.get(name)
    if rule is None:
        raise ParseError(col + _word_at(content, semi, 0), "a rule name",
                         name or "end of line", n)
    refs, eigen = [], None
    for number, word in enumerate(args, start=1):
        try:
            if word.isdecimal():
                refs.append(int(word))
                continue
            if word.startswith("k=") and word[2:].isdecimal() and eigen is None:
                eigen = int(word[2:])
                continue
        except ValueError:  # more digits than int reads; _int would cost a
            pass            # call for every reference of every line
        raise ParseError(col + _word_at(content, semi, number),
                         "a line reference or one k=<idx>", word, n)
    try:  # omitted references name the immediately preceding lines
        just = rule(*(refs or range(line_no - rule.refs, line_no)), eigen=eigen)
    except TypeError:
        usage = rule.name + " <ref>" * rule.refs + " k=<idx>" * (rule.index == "eigen")
        at = _word_at(content, semi, 0)
        raise ParseError(col + at, repr(usage), content[at:], n) from None
    if refs or not rule.refs:  # else the references depend on line_no
        _JUSTIFIED.keep(tail, just)
    return seq, just


def parse_proof_script(text: str) -> tuple[str, Proof]:
    """Parse the line-oriented script format; returns (lemma name, proof).
    A ParseError names the line and column at fault."""
    name = goal = None
    bound = DEFAULT_BOUND
    lines: list[tuple[Sequent, Justification]] = []
    for n, col, content in file_lines(text):
        if not content.startswith("lemma"):
            lines.append(_script_line(content, len(lines) + 1, n, col))
            continue
        if name is not None:
            raise ParseError(col, "a proof line: a script has one 'lemma' header",
                             "lemma", n)
        m = _HEADER.match(content)
        if not m:
            raise ParseError(col, "'lemma <name> [: <formula>] [bound <n>]'", line=n)
        name = m.group(1)
        if m.group(2) == "":
            raise _error(content, m.start(2), "a formula", n, col)
        if m.group(2):
            goal = parse_at(parse_formula, content, m.start(2), m.end(2), n, col)
        if m.group(3):
            bound = _int(m.group(3))
            if bound not in range(1, MAX_BOUND + 1):  # None if too long to read
                raise ParseError(col + m.start(3), f"bound between 1 and {MAX_BOUND}",
                                 m.group(3), n)
    if name is None:
        raise end_of_file(text, "a 'lemma <name>' header")
    if not lines:
        raise end_of_file(text, "a proof line")
    return name, Proof(lines=lines, bound=bound, goal=goal)


def format_proof_script(name: str, proof: Proof) -> str:
    header = f"lemma {name}"
    if proof.goal is not None:
        header += f" : {print_formula(proof.goal)}"
    if proof.bound != DEFAULT_BOUND:
        header += f" bound {proof.bound}"
    out = [header]
    for n, (seq, just) in enumerate(proof.lines, start=1):
        eigen = [] if just.eigen is None else [f"k={just.eigen}"]
        out.append(f"{n}. {seq} ; "
                   + " ".join([just.rule.name, *map(str, just.refs), *eigen]))
    return "\n".join(out) + "\n"
