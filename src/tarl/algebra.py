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

The term grammar is  `+` join, `.` meet, prefix `-` complement, postfix `^`
converse, `;` relative product, constants `id`, `0`, `1`, with precedence
`- ^` > `;` > `.` > `+`.  Chain files hold one `lhs (=|<=) rhs ; tag` step
per line and are verified step by step and end to end.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .formulas import And, Formula, Fusion, Imp, Neg, Or, ParseError, Var
from .models import ModelStructure, TooManyValuations, UnassignedVariable, tables_for

__all__ = [
    "RATerm", "RVar", "Join", "Meet", "Compl", "Conv", "Comp",
    "Ident", "Zero", "One", "IDENT", "ZERO", "ONE",
    "parse_ra_term", "print_ra_term", "term_variables", "translate",
    "ProperAlgebra", "ComplexAlgebra", "UnassignedVariable",
    "eval_term", "holds_identity", "holds_law", "verified_in_algebra",
    "random_proper_algebra", "sample_relations", "RelationSampler",
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


@dataclass(frozen=True)
class RelationSampler:
    """A proper algebra bundled with its deterministic relation sampler;
    assignments depend only on (seed, trial, variable name), so results do
    not change with worker count or evaluation order."""
    algebra: ProperAlgebra
    seed: int

    def assignment(self, names: Iterable[str], trial: int) -> dict:
        return sample_relations(self.algebra.base_size, names, self.seed, trial)

    def assignments(self, names: Iterable[str], count: int, start: int = 0):
        for trial in range(start, start + count):
            yield self.assignment(names, trial)


def random_proper_algebra(base_size: int, seed: int) -> RelationSampler:
    return RelationSampler(ProperAlgebra(base_size), seed)


def sample_relations(n: int, names: Iterable[str], seed: int,
                     trial: int) -> dict[str, frozenset[tuple[int, int]]]:
    """Counter-based sampling: each (seed, trial, name) fixes one relation."""
    out = {}
    for name in names:
        rng = random.Random(f"{seed}:{trial}:{name}")
        bits = rng.getrandbits(n * n)
        out[name] = frozenset((i, j) for i in range(n) for j in range(n)
                              if bits >> (i * n + j) & 1)
    return out


# ------------------------------------------------------------------
# Evaluation
# ------------------------------------------------------------------

def _eval_proper(t: RATerm, env: dict, n: int) -> frozenset:
    if isinstance(t, RVar):
        if t.name not in env:
            raise UnassignedVariable(t.name)
        return frozenset(env[t.name])
    if isinstance(t, Join):
        return _eval_proper(t.left, env, n) | _eval_proper(t.right, env, n)
    if isinstance(t, Meet):
        return _eval_proper(t.left, env, n) & _eval_proper(t.right, env, n)
    if isinstance(t, Compl):
        full = {(i, j) for i in range(n) for j in range(n)}
        return frozenset(full - _eval_proper(t.body, env, n))
    if isinstance(t, Conv):
        return frozenset((j, i) for (i, j) in _eval_proper(t.body, env, n))
    if isinstance(t, Comp):
        left = _eval_proper(t.left, env, n)
        right = _eval_proper(t.right, env, n)
        adj: dict[int, set[int]] = {}
        for (i, j) in right:
            adj.setdefault(i, set()).add(j)
        return frozenset((i, k) for (i, j) in left for k in adj.get(j, ()))
    if isinstance(t, Ident):
        return frozenset((i, i) for i in range(n))
    if isinstance(t, Zero):
        return frozenset()
    if isinstance(t, One):
        return frozenset((i, j) for i in range(n) for j in range(n))
    raise TypeError(f"not a term: {t!r}")


def _eval_complex_mask(t: RATerm, env: dict, tab) -> int:
    if isinstance(t, RVar):
        if t.name not in env:
            raise UnassignedVariable(t.name)
        return env[t.name]
    if isinstance(t, Join):
        return _eval_complex_mask(t.left, env, tab) | _eval_complex_mask(t.right, env, tab)
    if isinstance(t, Meet):
        return _eval_complex_mask(t.left, env, tab) & _eval_complex_mask(t.right, env, tab)
    if isinstance(t, Compl):
        return tab.all_mask ^ _eval_complex_mask(t.body, env, tab)
    if isinstance(t, Conv):
        return tab.star_mask[_eval_complex_mask(t.body, env, tab)]
    if isinstance(t, Comp):
        # X;Y is fusion in the opposite order
        left = _eval_complex_mask(t.left, env, tab)
        right = _eval_complex_mask(t.right, env, tab)
        return tab.fus[right][left]
    if isinstance(t, Ident):
        return 1 << tab.zero_bit
    if isinstance(t, Zero):
        return 0
    if isinstance(t, One):
        return tab.all_mask
    raise TypeError(f"not a term: {t!r}")


def eval_term(alg, assignment: dict, t: RATerm):
    """Bottom-up evaluation of one assignment; returns a carrier element
    (a set of pairs for proper algebras, a subset of K for complex ones)."""
    if isinstance(alg, ProperAlgebra):
        return _eval_proper(t, assignment, alg.base_size)
    tab = tables_for(alg.structure)
    env = {name: tab.mask_of(alg.structure, val)
           for name, val in assignment.items()}
    return tab.subset_of(alg.structure, _eval_complex_mask(t, env, tab))


def _eval_complex_vec(t: RATerm, env: dict, tab) -> np.ndarray:
    if isinstance(t, RVar):
        if t.name not in env:
            raise UnassignedVariable(t.name)
        return env[t.name]
    if isinstance(t, Join):
        return _eval_complex_vec(t.left, env, tab) | _eval_complex_vec(t.right, env, tab)
    if isinstance(t, Meet):
        return _eval_complex_vec(t.left, env, tab) & _eval_complex_vec(t.right, env, tab)
    if isinstance(t, Compl):
        return tab.all_mask ^ _eval_complex_vec(t.body, env, tab)
    if isinstance(t, Conv):
        return tab.star_np[_eval_complex_vec(t.body, env, tab)]
    if isinstance(t, Comp):
        left = _eval_complex_vec(t.left, env, tab)
        right = _eval_complex_vec(t.right, env, tab)
        return tab.fus_np[right, left]
    if isinstance(t, Ident):
        return np.int64(1 << tab.zero_bit)
    if isinstance(t, Zero):
        return np.int64(0)
    if isinstance(t, One):
        return np.int64(tab.all_mask)
    raise TypeError(f"not a term: {t!r}")


def _eval_proper_vec(t: RATerm, env: dict, n: int, trials: int) -> np.ndarray:
    if isinstance(t, RVar):
        if t.name not in env:
            raise UnassignedVariable(t.name)
        return env[t.name]
    if isinstance(t, Join):
        return _eval_proper_vec(t.left, env, n, trials) | _eval_proper_vec(t.right, env, n, trials)
    if isinstance(t, Meet):
        return _eval_proper_vec(t.left, env, n, trials) & _eval_proper_vec(t.right, env, n, trials)
    if isinstance(t, Compl):
        return ~_eval_proper_vec(t.body, env, n, trials)
    if isinstance(t, Conv):
        return _eval_proper_vec(t.body, env, n, trials).transpose(0, 2, 1)
    if isinstance(t, Comp):
        left = _eval_proper_vec(t.left, env, n, trials).astype(np.uint8)
        right = _eval_proper_vec(t.right, env, n, trials).astype(np.uint8)
        return (left @ right) > 0
    if isinstance(t, Ident):
        return np.broadcast_to(np.eye(n, dtype=bool), (trials, n, n))
    if isinstance(t, Zero):
        return np.zeros((trials, n, n), dtype=bool)
    if isinstance(t, One):
        return np.ones((trials, n, n), dtype=bool)
    raise TypeError(f"not a term: {t!r}")


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


def _complex_grid(tab, names, cap):
    total = tab.size ** len(names)
    if total > cap:
        raise TooManyValuations(f"{total} assignments exceeds cap {cap}")
    rows = np.arange(total)
    env = {}
    for pos, name in enumerate(names):
        stride = tab.size ** (len(names) - 1 - pos)
        env[name] = (rows // stride) % tab.size
    return env, total


def _relation_ok_masks(rel: str, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    if rel == "=":
        return lhs == rhs
    return (lhs | rhs) == rhs


def _relation_ok_bool(rel: str, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    if rel == "=":
        return (lhs == rhs).all(axis=(1, 2))
    return (lhs | rhs == rhs).all(axis=(1, 2))


def holds_law(alg, law: Law, trials: int = 1000, seed: int = 0,
              cap: int = 2 ** 20) -> IdentityResult:
    """Semantic check of a law (with premises) in one algebra: exhaustively
    on complex algebras, on seeded random samples in proper ones."""
    if trials < 1:  # a sampled law would pass after checking nothing
        raise ValueError(f"trials must be at least 1, got {trials}")
    names = law.all_variables()
    if isinstance(alg, ComplexAlgebra):
        tab = tables_for(alg.structure)
        env, total = _complex_grid(tab, names, cap)
        keep = np.ones(total, dtype=bool)
        for (l, rel, r) in law.premises:
            keep &= _relation_ok_masks(rel, _eval_complex_vec(l, env, tab),
                                       _eval_complex_vec(r, env, tab))
        good = _relation_ok_masks(law.rel,
                                  _eval_complex_vec(law.lhs, env, tab),
                                  _eval_complex_vec(law.rhs, env, tab))
        bad = np.nonzero(keep & ~good)[0]
        if bad.size == 0:
            return IdentityResult(True, checked=int(keep.sum()))
        row = int(bad[0])
        ce = {name: tab.subset_of(alg.structure, int(env[name][row]))
              for name in names}
        return IdentityResult(False, ce, int(keep.sum()))
    n = alg.base_size
    checked = 0
    for start in range(0, trials, 500):
        block = min(500, trials - start)
        env = {}
        for name in names:
            mats = np.zeros((block, n, n), dtype=bool)
            for t in range(block):
                rel = sample_relations(n, [name], seed, start + t)[name]
                for (i, j) in rel:
                    mats[t, i, j] = True
            env[name] = mats
        keep = np.ones(block, dtype=bool)
        for (l, rel, r) in law.premises:
            keep &= _relation_ok_bool(rel, _eval_proper_vec(l, env, n, block),
                                      _eval_proper_vec(r, env, n, block))
        good = _relation_ok_bool(law.rel,
                                 _eval_proper_vec(law.lhs, env, n, block),
                                 _eval_proper_vec(law.rhs, env, n, block))
        bad = np.nonzero(keep & ~good)[0]
        checked += int(keep.sum())
        if bad.size:
            t = int(bad[0])
            ce = {name: frozenset(zip(*map(list, np.nonzero(env[name][t]))))
                  for name in names}
            return IdentityResult(False, ce, checked)
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
    term = translate(f)
    if assignment is not None:
        value = eval_term(alg, assignment, term)
        if isinstance(alg, ProperAlgebra):
            diag = {(i, i) for i in range(alg.base_size)}
            ok = diag <= set(value)
        else:
            ok = alg.structure.zero in value
        return IdentityResult(ok, None if ok else dict(assignment), 1)
    return holds_identity(alg, IDENT, "<=", term, trials, seed, cap)


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
