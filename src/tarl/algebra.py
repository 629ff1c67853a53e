"""Relation-algebra terms evaluated in finite algebras.

Two kinds of finite algebra are supported:

  * ProperAlgebra(n): all binary relations on an n-element base, with the
    set-theoretic operations (union, intersection, complement, relative
    product, converse) and the diagonal as identity.  The carrier has
    2^(n*n) elements, so identities are tested on seeded random samples.
  * ComplexAlgebra(m): all subsets of a structure's element set.  Relative
    product is fusion in the opposite order (X;Y gathers R y x z), converse
    is the star image, the identity is {0}.  Carriers are tiny, so
    identities are tested exhaustively.

One recursion evaluates a term over a batch of assignments; converse,
relative product and the constants come from the carrier: lookups in the
structure's mask tables for complex algebras, boolean n x n matrices
stacked along a leading batch axis for proper ones.  Laws are tested one
batch at a time (the whole valuation grid of a complex algebra, blocks of
500 samples of a proper one), and `eval_term` is a batch of one.

The term grammar is  `+` join, `.` meet, prefix `-` complement, postfix `^`
converse, `;` relative product, constants `id`, `0`, `1`, with precedence
`- ^` > `;` > `.` > `+`.  Chain files hold one `lhs (=|<=) rhs ; tag` step
per line and are verified step by step and end to end.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .formulas import And, Formula, Fusion, Imp, Neg, Or, ParseError, Var, variables
from .models import (
    ModelStructure, UnassignedVariable, _grid_rows, _valuation_grid, tables_for,
)

__all__ = [
    "RATerm", "RVar", "Join", "Meet", "Compl", "Conv", "Comp",
    "Ident", "Zero", "One", "IDENT", "ZERO", "ONE",
    "parse_ra_term", "print_ra_term", "term_variables", "translate",
    "ProperAlgebra", "ComplexAlgebra", "UnassignedVariable",
    "eval_term", "holds_identity", "holds_law", "verified_in_algebra",
    "sample_relations",
    "IdentityResult", "Law", "ChainStep", "ChainReport", "StepResult",
    "parse_chain", "check_chain",
    "TARSKI_AXIOMS", "DERIVED_LAWS", "law_names", "get_law",
]


# ------------------------------------------------------------------
# Terms
# ------------------------------------------------------------------

@dataclass(frozen=True)
class RATerm:
    def __str__(self) -> str:
        return print_ra_term(self)


@dataclass(frozen=True)
class RVar(RATerm):
    name: str


@dataclass(frozen=True)
class Join(RATerm):
    left: RATerm
    right: RATerm


@dataclass(frozen=True)
class Meet(RATerm):
    left: RATerm
    right: RATerm


@dataclass(frozen=True)
class Compl(RATerm):
    body: RATerm


@dataclass(frozen=True)
class Conv(RATerm):
    body: RATerm


@dataclass(frozen=True)
class Comp(RATerm):
    left: RATerm
    right: RATerm


@dataclass(frozen=True)
class Ident(RATerm):
    pass


@dataclass(frozen=True)
class Zero(RATerm):
    pass


@dataclass(frozen=True)
class One(RATerm):
    pass


IDENT = Ident()
ZERO = Zero()
ONE = One()

_RA_TOKEN = re.compile(r"\s*(id|[a-z][a-zA-Z0-9_]*|[-+.;^()01])")


def parse_ra_term(text: str) -> RATerm:
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        m = _RA_TOKEN.match(text, pos)
        if not m:
            if not text[pos:].strip():
                break
            raise ParseError(pos, "a relation-algebra token", text[pos:].strip()[0])
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()

    state = {"pos": 0}

    def peek():
        return tokens[state["pos"]][0] if state["pos"] < len(tokens) else None

    def eat():
        tok = tokens[state["pos"]][0]
        state["pos"] += 1
        return tok

    def where():
        return tokens[state["pos"]][1] if state["pos"] < len(tokens) else len(text)

    def expr():
        t = meet()
        while peek() == "+":
            eat()
            t = Join(t, meet())
        return t

    def meet():
        t = comp()
        while peek() == ".":
            eat()
            t = Meet(t, comp())
        return t

    def comp():
        t = unary()
        while peek() == ";":
            eat()
            t = Comp(t, unary())
        return t

    def unary():
        if peek() == "-":
            eat()
            return Compl(unary())
        return postfix()

    def postfix():
        t = atom()
        while peek() == "^":
            eat()
            t = Conv(t)
        return t

    def atom():
        tok = peek()
        if tok == "(":
            eat()
            t = expr()
            if peek() != ")":
                raise ParseError(where(), "')'", peek() or "end of input")
            eat()
            return t
        if tok == "id":
            eat()
            return IDENT
        if tok == "0":
            eat()
            return ZERO
        if tok == "1":
            eat()
            return ONE
        if tok is not None and re.fullmatch(r"[a-z][a-zA-Z0-9_]*", tok):
            eat()
            return RVar(tok)
        raise ParseError(where(), "a term", tok or "end of input")

    t = expr()
    if peek() is not None:
        raise ParseError(where(), "end of input", peek())
    return t


def _ra_level(t: RATerm) -> int:
    if isinstance(t, Join):
        return 1
    if isinstance(t, Meet):
        return 2
    if isinstance(t, Comp):
        return 3
    return 4


def _ra_render(t: RATerm, strength: int) -> str:
    if isinstance(t, RVar):
        text = t.name
    elif isinstance(t, Ident):
        text = "id"
    elif isinstance(t, Zero):
        text = "0"
    elif isinstance(t, One):
        text = "1"
    elif isinstance(t, Compl):
        text = "-" + _ra_render(t.body, 4)
    elif isinstance(t, Conv):
        inner = _ra_render(t.body, 4)
        if isinstance(t.body, (Compl, Conv)):
            inner = "(" + inner + ")"
        text = inner + "^"
    elif isinstance(t, Join):
        text = _ra_render(t.left, 1) + " + " + _ra_render(t.right, 2)
    elif isinstance(t, Meet):
        text = _ra_render(t.left, 2) + " . " + _ra_render(t.right, 3)
    elif isinstance(t, Comp):
        text = _ra_render(t.left, 3) + ";" + _ra_render(t.right, 4)
    else:  # pragma: no cover
        raise TypeError(f"not a term: {t!r}")
    if _ra_level(t) < strength:
        return "(" + text + ")"
    return text


def print_ra_term(t: RATerm) -> str:
    return _ra_render(t, 0)


def term_variables(t: RATerm) -> frozenset[str]:
    if isinstance(t, RVar):
        return frozenset((t.name,))
    if isinstance(t, (Compl, Conv)):
        return term_variables(t.body)
    if isinstance(t, (Join, Meet, Comp)):
        return term_variables(t.left) | term_variables(t.right)
    return frozenset()


# ------------------------------------------------------------------
# Translation from formulas
# ------------------------------------------------------------------

def translate(f: Formula) -> RATerm:
    """Map connectives to relation operations: | to +, & to ., ~ to
    converse-complement, -> to residuation, fusion to relative product in
    the opposite order."""
    if isinstance(f, Var):
        return RVar(f.name)
    if isinstance(f, Or):
        return Join(translate(f.left), translate(f.right))
    if isinstance(f, And):
        return Meet(translate(f.left), translate(f.right))
    if isinstance(f, Neg):
        return Conv(Compl(translate(f.body)))
    if isinstance(f, Imp):
        return Compl(Comp(Conv(translate(f.left)), Compl(translate(f.right))))
    if isinstance(f, Fusion):
        return Comp(translate(f.right), translate(f.left))
    raise TypeError(f"not a formula: {f!r}")


# ------------------------------------------------------------------
# Algebras
# ------------------------------------------------------------------

@dataclass(frozen=True)
class ProperAlgebra:
    base_size: int

    def __post_init__(self):
        if not 2 <= self.base_size <= 6:
            raise ValueError("base size must be within 2..6")

    @property
    def kind(self) -> str:
        return "proper"

    def describe(self) -> str:
        return f"proper algebra over a {self.base_size}-element base"


@dataclass(frozen=True)
class ComplexAlgebra:
    structure: ModelStructure

    @property
    def kind(self) -> str:
        return "complex"

    def describe(self) -> str:
        return f"complex algebra of {self.structure.name}"


def sample_relations(n: int, names: Iterable[str], seed: int,
                     trial: int) -> dict[str, frozenset[tuple[int, int]]]:
    """Counter-based sampling: each (seed, trial, name) fixes one relation."""
    out = {}
    for name in names:
        bits = _sample_bits(n, name, seed, trial)
        out[name] = frozenset((i, j) for i in range(n) for j in range(n)
                              if bits >> (i * n + j) & 1)
    return out


def _sample_bits(n: int, name: str, seed: int, trial: int) -> int:
    """The sampled relation as n*n bits; bit i*n + j holds the pair (i, j)."""
    return random.Random(f"{seed}:{trial}:{name}").getrandbits(n * n)


# ------------------------------------------------------------------
# Evaluation
# ------------------------------------------------------------------

class _Masks:
    """The carrier of a complex algebra: subsets of K as bitmasks."""
    axes = ()                        # one element is one mask

    def __init__(self, m: ModelStructure):
        self.m = m
        self.tab = tab = tables_for(m)
        self.ident = 1 << tab.zero_bit
        self.zero = 0
        self.one = tab.all_mask

    def conv(self, x):
        return self.tab.star[x]

    def comp(self, x, y):
        return self.tab.fus[y, x]    # X;Y is fusion in the opposite order

    def encode(self, value) -> int:
        return self.tab.mask_of(self.m, value)

    def decode(self, x) -> frozenset[str]:
        return self.tab.subset_of(self.m, int(x))

    def batches(self, names: list[str], trials: int, seed: int, cap: int):
        """The whole assignment grid as one batch: carriers are exhausted."""
        size = self.tab.size
        rows = _grid_rows(size, names, cap)
        return [(len(rows), _valuation_grid(names, size, rows))]


class _Matrices:
    """The carrier of a proper algebra: relations as boolean n x n matrices."""
    axes = (-2, -1)                  # one element is one matrix

    def __init__(self, n: int):
        self.n = n
        self.ident = np.eye(n, dtype=bool)
        self.zero = np.zeros((n, n), dtype=bool)
        self.one = np.ones((n, n), dtype=bool)

    def conv(self, x):
        return np.swapaxes(x, -1, -2)

    def comp(self, x, y):
        return (x.astype(np.uint8) @ y.astype(np.uint8)) > 0

    def encode(self, pairs) -> np.ndarray:
        mat = np.zeros((self.n, self.n), dtype=bool)
        for (i, j) in pairs:
            mat[i, j] = True
        return mat

    def decode(self, x) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, np.argwhere(x).tolist()))

    def batches(self, names: list[str], trials: int, seed: int, cap: int):
        """Blocks of at most 500 seeded samples, in trial order."""
        n = self.n
        shifts = np.arange(n * n)
        for start in range(0, trials, 500):
            block = range(start, min(start + 500, trials))
            yield len(block), {
                name: (np.array([_sample_bits(n, name, seed, t) for t in block])[:, None]
                       >> shifts & 1).astype(bool).reshape(-1, n, n)
                for name in names}


def _carrier(alg):
    if isinstance(alg, ProperAlgebra):
        return _Matrices(alg.base_size)
    return _Masks(alg.structure)


def _eval(t: RATerm, env: dict, c):
    """The value of `t` under a batch of assignments in carrier `c`."""
    if isinstance(t, RVar):
        if t.name not in env:
            raise UnassignedVariable(t.name)
        return env[t.name]
    if isinstance(t, Join):
        return _eval(t.left, env, c) | _eval(t.right, env, c)
    if isinstance(t, Meet):
        return _eval(t.left, env, c) & _eval(t.right, env, c)
    if isinstance(t, Compl):
        return c.one ^ _eval(t.body, env, c)
    if isinstance(t, Conv):
        return c.conv(_eval(t.body, env, c))
    if isinstance(t, Comp):
        return c.comp(_eval(t.left, env, c), _eval(t.right, env, c))
    if isinstance(t, Ident):
        return c.ident
    if isinstance(t, Zero):
        return c.zero
    if isinstance(t, One):
        return c.one
    raise TypeError(f"not a term: {t!r}")


def eval_term(alg, assignment: dict, t: RATerm):
    """Evaluation of one assignment, as a batch of one; returns a carrier
    element (a set of pairs for proper algebras, a subset of K for complex
    ones)."""
    c = _carrier(alg)
    env = {name: c.encode(value) for name, value in assignment.items()}
    return c.decode(_eval(t, env, c))


def _related(rel: str, lhs, rhs, axes: tuple) -> np.ndarray:
    """Per assignment, whether lhs REL rhs; `axes` are those of one element."""
    ok = np.equal(lhs if rel == "=" else lhs | rhs, rhs)
    return ok.all(axis=axes) if axes else ok


# ------------------------------------------------------------------
# Identity and law testing
# ------------------------------------------------------------------

@dataclass
class IdentityResult:
    passed: bool
    counterexample: dict | None = None
    checked: int = 0

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class Law:
    """lhs REL rhs, under zero or more premises of the same shape."""
    name: str
    lhs: RATerm
    rel: str
    rhs: RATerm
    premises: tuple[tuple[RATerm, str, RATerm], ...] = ()

    def all_variables(self) -> list[str]:
        out = term_variables(self.lhs) | term_variables(self.rhs)
        for (l, _, r) in self.premises:
            out |= term_variables(l) | term_variables(r)
        return sorted(out)


def holds_law(alg, law: Law, trials: int = 1000, seed: int = 0,
              cap: int = 2 ** 20) -> IdentityResult:
    """Semantic check of a law (with premises) in one algebra: exhaustively
    on complex algebras, on seeded random samples in proper ones.  The
    counterexample is the first failing assignment; `checked` counts the
    assignments that meet the premises, up to the batch that fails."""
    return _holds(alg, law, law.all_variables(), trials, seed, cap)


def _holds(alg, law: Law, names: Sequence[str], trials: int, seed: int,
           cap: int) -> IdentityResult:
    """holds_law, given the law's variable names."""
    if trials < 1:  # a sampled law would pass after checking nothing
        raise ValueError(f"trials must be at least 1, got {trials}")
    c = _carrier(alg)
    checked = 0
    for size, env in c.batches(names, trials, seed, cap):
        keep = np.ones(size, dtype=bool)
        for (l, rel, r) in law.premises:
            keep &= _related(rel, _eval(l, env, c), _eval(r, env, c), c.axes)
        good = _related(law.rel, _eval(law.lhs, env, c), _eval(law.rhs, env, c), c.axes)
        bad = np.nonzero(keep & ~good)[0]
        checked += int(keep.sum())
        if bad.size:
            row = int(bad[0])
            return IdentityResult(False, {name: c.decode(env[name][row]) for name in names},
                                  checked)
    return IdentityResult(True, checked=checked)


def holds_identity(alg, lhs: RATerm, rel: str, rhs: RATerm,
                   trials: int = 1000, seed: int = 0,
                   cap: int = 2 ** 20) -> IdentityResult:
    return holds_law(alg, Law("adhoc", lhs, rel, rhs), trials, seed, cap)


def verified_in_algebra(alg, f: Formula, assignment: dict | None = None,
                        trials: int = 500, seed: int = 0,
                        cap: int = 2 ** 20) -> IdentityResult:
    """Identity-containment of the translated formula: id <= translate(f),
    for one assignment if given, otherwise quantified over the carrier."""
    law, names = _identity_law(f)
    if assignment is not None:
        c = _carrier(alg)
        env = {name: c.encode(value) for name, value in assignment.items()}
        ok = bool(_related("<=", c.ident, _eval(law.rhs, env, c), c.axes))
        return IdentityResult(ok, None if ok else dict(assignment), 1)
    return _holds(alg, law, names, trials, seed, cap)


@functools.lru_cache(maxsize=1024)
def _identity_law(f: Formula) -> tuple[Law, tuple[str, ...]]:
    """id <= translate(f) and its variable names; formulas are interned and
    immutable, so an entry cannot go stale."""
    return Law("adhoc", IDENT, "<=", translate(f)), tuple(sorted(variables(f)))


# ------------------------------------------------------------------
# Chains
# ------------------------------------------------------------------

@dataclass(frozen=True)
class ChainStep:
    lhs: RATerm
    rel: str
    rhs: RATerm
    tag: str


@dataclass
class StepResult:
    step: ChainStep
    results: dict[str, IdentityResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results.values())


@dataclass
class ChainReport:
    steps: list[StepResult]
    segments: list[tuple[int, int, str, IdentityResult | None]]
    # (first step index, last step index, combined relation, end-to-end check)

    @property
    def passed(self) -> bool:
        return (all(s.passed for s in self.steps)
                and all(seg[3] is None or seg[3].passed for seg in self.segments))


def parse_chain(text: str) -> list[ChainStep]:
    """One step per line: `lhs (=|<=) rhs ; tag`.  The tag separator is a
    semicolon surrounded by spaces, distinguishing it from relative product
    (written without spaces)."""
    steps = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        body, sep, tag = line.rpartition(" ; ")
        if not sep:
            body, tag = line, ""
        m = re.match(r"(.*?)(<=|=)(.*)$", body)
        if not m:
            raise ParseError(0, "'lhs = rhs' or 'lhs <= rhs'", line)
        steps.append(ChainStep(parse_ra_term(m.group(1)), m.group(2),
                               parse_ra_term(m.group(3)), tag.strip()))
    return steps


def check_chain(algs: dict[str, object], steps: list[ChainStep],
                trials: int = 500, seed: int = 0) -> ChainReport:
    out = []
    for step in steps:
        results = {name: holds_identity(alg, step.lhs, step.rel, step.rhs,
                                        trials=trials, seed=seed)
                   for name, alg in algs.items()}
        out.append(StepResult(step, results))
    segments = []
    start = 0
    while start < len(steps):
        end = start
        while (end + 1 < len(steps)
               and steps[end].rhs == steps[end + 1].lhs):
            end += 1
        combined = "=" if all(s.rel == "=" for s in steps[start:end + 1]) else "<="
        end_to_end = None
        if end > start:
            checks = [holds_identity(alg, steps[start].lhs, combined,
                                     steps[end].rhs, trials=trials, seed=seed)
                      for alg in algs.values()]
            ok = all(c.passed for c in checks)
            end_to_end = IdentityResult(ok, None if ok else
                                        next(c.counterexample for c in checks
                                             if not c.passed))
        segments.append((start, end, combined, end_to_end))
        start = end + 1
    return ChainReport(out, segments)


# ------------------------------------------------------------------
# The stock of laws
# ------------------------------------------------------------------

def _law(name: str, text: str, premise_texts=()) -> Law:
    m = re.match(r"(.*?)(<=|=)(.*)$", text)
    lhs, rel, rhs = m.group(1), m.group(2), m.group(3)
    premises = []
    for p in premise_texts:
        pm = re.match(r"(.*?)(<=|=)(.*)$", p)
        premises.append((parse_ra_term(pm.group(1)), pm.group(2),
                         parse_ra_term(pm.group(3))))
    return Law(name, parse_ra_term(lhs), rel, parse_ra_term(rhs),
               tuple(premises))


TARSKI_AXIOMS = {
    "ra1": _law("ra1", "x + y = y + x"),
    "ra2": _law("ra2", "x + (y + z) = (x + y) + z"),
    "ra3": _law("ra3", "-(-x + -y) + -(-x + y) = x"),
    "ra4": _law("ra4", "x;(y;z) = (x;y);z"),
    "ra5": _law("ra5", "(x + y);z = x;z + y;z"),
    "ra6": _law("ra6", "x;id = x"),
    "ra7": _law("ra7", "(x^)^ = x"),
    "ra8": _law("ra8", "(x + y)^ = x^ + y^"),
    "ra9": _law("ra9", "(x;y)^ = y^;x^"),
    "ra10": _law("ra10", "x^;-(x;y) + -y = -y"),
}

DERIVED_LAWS = {
    "dra1": _law("dra1", "x;z <= y;z", ["x <= y"]),
    "dra2": _law("dra2", "z;(x + y) = z;x + z;y"),
    "dra3": _law("dra3", "z;x <= z;y", ["x <= y"]),
    "dra4": _law("dra4", "1^ = 1"),
    "dra5": _law("dra5", "-(x^) = (-x)^"),
    "dra6": _law("dra6", "(x . y)^ = x^ . y^"),
    "dra7": _law("dra7", "x;y . z <= x;(y . x^;z)"),
    "refleq": _law("refleq", "x;y . z <= (x . -(w^));y + x;(y . w;z)"),
}


def law_names() -> list[str]:
    return sorted(TARSKI_AXIOMS) + sorted(DERIVED_LAWS)


def get_law(name: str) -> Law:
    if name in TARSKI_AXIOMS:
        return TARSKI_AXIOMS[name]
    if name in DERIVED_LAWS:
        return DERIVED_LAWS[name]
    raise KeyError(name)
