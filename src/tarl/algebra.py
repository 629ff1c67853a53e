"""Relation-algebra terms evaluated in finite algebras.

Two kinds of finite algebra are supported:

  * ProperAlgebra(n): all binary relations on an n-element base, with the
    set-theoretic operations (union, intersection, complement, relative
    product, converse) and the diagonal as identity.  The carrier has
    2^(n*n) elements, so identities are tested on seeded random samples.
    The sampler is counter-based (Salmon et al., "Parallel random numbers:
    as easy as 1, 2, 3", SC 2011): a 64-bit key per (seed, name), the
    BLAKE2b digest of "seed:name", and the SplitMix64 finaliser of the
    key plus (trial + 1) times the golden gamma.  Seed, trial and name alone
    fix a relation, so `sample_relations` and a block of 500 trials drawn
    in one numpy pass agree on every trial.
  * ComplexAlgebra(m): all subsets of a structure's element set.  Relative
    product is fusion in the opposite order (X;Y gathers R y x z), converse
    is the star image, the identity is {0}.  Carriers are tiny, so
    identities are tested exhaustively.

Each algebra has one carrier, built at its first call and shared read-only
by every later one (a complex algebra's on its structure's tables, a proper
one's per base size), with a table of operations: lookups in the mask
tables for complex algebras, boolean n x n matrices stacked along a leading
batch axis for proper ones.  `TERMS.evaluate` runs a term with them over a
batch of assignments, and `eval_term` is a batch of one.  The translation of
formulas is one table, `_connectives`, written over any table of operations:
read with a carrier's, `FORMULAS.evaluate` gives a formula's value with no
term built and nothing cached per formula; read with the term constructors,
it is `translate`.  A complex algebra's carrier runs the translation once,
when it is built, over every mask and every pair of masks, and keeps the
results as tables: each connective is then one lookup, a pair (x, y) at
x << n | y of a flat table, where the translation spends up to four
operations.  Laws are tested one batch at a time: a complex algebra's
grid of every mask in the blocks that validity walks (`models.grid_blocks`,
over the `models.Grid` its carrier keeps), a proper one's samples in blocks
of 500.  A formula f in a complex algebra needs no law loop: id <=
translate(f) holds at an assignment when f's value contains element 0,
since the identity is {0}, so `verified_in_algebra` runs validity's own
loop (`models.first_failure`) over that grid with the tabulated
connectives.  In a proper algebra it is the law id <= translate(f) on
samples.

The term grammar is  `+` join, `.` meet, prefix `-` complement, postfix `^`
converse, `;` relative product, constants `id`, `0`, `1`, with precedence
`^` > `-` > `;` > `.` > `+`: the table `TERMS` of the grammar that formulas
use (`tarl.formulas.Grammar`), whose printer writes the fewest parentheses
(`x^^`, `(-x)^`, `-x^`).  A name is read whole (`idle` is a variable), and
printing a variable named like a constant raises ValueError.  Terms are
interned nodes on the base that formulas use (`tarl.formulas.Node`), so
equal terms are one object; a term keeps its variables in its `_vars` slot
and its program for `TERMS.evaluate` in `_term_program`, and a term node
takes no formula as a child.  Chain files hold one `lhs (=|<=) rhs ; tag`
step per line, read as laws named by their tag, and are verified step by
step and, each run of linked steps (one's rhs is the next one's lhs, the
same node), end to end.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .formulas import (
    FORMULAS, And, Env, Formula, Fusion, Grammar, Imp, Neg, Node, Or, ParseError,
    UnassignedVariable, end_of_file, file_lines, parse_at, variables,
)
from .models import ModelStructure, first_failure, grid_blocks, shared_grid, tables_for

__all__ = [
    "RATerm", "RVar", "Join", "Meet", "Compl", "Conv", "Comp",
    "Ident", "Zero", "One", "IDENT", "ZERO", "ONE",
    "TERMS", "parse_ra_term", "print_ra_term", "term_variables", "translate",
    "ProperAlgebra", "ComplexAlgebra", "UnassignedVariable",
    "eval_term", "holds_law", "verified_in_algebra",
    "sample_relations",
    "IdentityResult", "Law", "ChainReport", "StepResult",
    "parse_chain", "check_chain",
    "TARSKI_AXIOMS", "DERIVED_LAWS", "law_names", "get_law",
]


# ------------------------------------------------------------------
# Terms
# ------------------------------------------------------------------

class RATerm(Node):
    """Base class of the term nodes, interned as formulas are; a term
    keeps its variables and its program once they are computed."""

    __slots__ = ("_term_program",)

    def _start(self, children):
        _set_program(self, None)

    def __str__(self) -> str:
        return print_ra_term(self)


_set_program = RATerm._term_program.__set__


class RVar(RATerm):
    """A term variable.  Any name is taken (translating a formula variable
    `id` makes RVar("id")); the printer refuses one that is no name of the
    term grammar."""
    __slots__ = ("name",)
    _fields = ("name",)
    _leaf = True


class _Unary(RATerm):
    __slots__ = ("body",)
    _fields = ("body",)


class _Binary(RATerm):
    __slots__ = ("left", "right")
    _fields = ("left", "right")


class Join(_Binary):
    __slots__ = ()


class Meet(_Binary):
    __slots__ = ()


class Comp(_Binary):
    __slots__ = ()


class Compl(_Unary):
    __slots__ = ()


class Conv(_Unary):
    __slots__ = ()


class Ident(RATerm):
    __slots__ = ()


class Zero(RATerm):
    __slots__ = ()


class One(RATerm):
    __slots__ = ()


IDENT = Ident()
ZERO = Zero()
ONE = One()

TERMS = Grammar(
    symbols=r"[-+.;^()01]",
    binary={"+": (1, Join, " + "), ".": (2, Meet, " . "), ";": (3, Comp, ";")},
    right=None, prefix={"-": Compl}, postfix={"^": Conv},
    constants={"id": IDENT, "0": ZERO, "1": ONE}, variable=RVar,
    bad_token="a relation-algebra token", bad_operand="a term", aliases={},
    program="_term_program")


def parse_ra_term(text: str) -> RATerm:
    return TERMS.parse(text)


def print_ra_term(t: RATerm) -> str:
    return TERMS.show(t)


term_variables = TERMS.variables  # the names of a term's variables


# ------------------------------------------------------------------
# Translation from formulas
# ------------------------------------------------------------------

def _connectives(ops: dict) -> dict:
    """The translation over ops, a table of term operations: | join, & meet,
    ~ converse-complement, -> residuation, o relative product reversed."""
    compl, conv, comp = ops[Compl], ops[Conv], ops[Comp]
    return {Or: ops[Join], And: ops[Meet],
            Neg: lambda a: conv(compl(a)),
            Imp: lambda a, b: compl(comp(conv(a), compl(b))),
            Fusion: lambda a, b: comp(b, a)}


_TRANSLATION = _connectives({cls: cls for cls in (Join, Meet, Compl, Conv, Comp)})
_TERM_VARIABLES = Env(RVar)  # each formula variable's term: the term variable of its name


def translate(f: Formula) -> RATerm:
    """f's term: the translation read with the term constructors as operations."""
    return FORMULAS.evaluate(f, _TERM_VARIABLES, _TRANSLATION)


# ------------------------------------------------------------------
# Algebras
# ------------------------------------------------------------------

@dataclass(frozen=True)
class ProperAlgebra:
    base_size: int

    def __post_init__(self):
        if not 2 <= self.base_size <= 6:
            raise ValueError("base size must be within 2..6")

    def describe(self) -> str:
        return f"proper algebra over a {self.base_size}-element base"


@dataclass(frozen=True)
class ComplexAlgebra:
    structure: ModelStructure

    def describe(self) -> str:
        return f"complex algebra of {self.structure.name}"


def sample_relations(n: int, names: Iterable[str], seed: int,
                     trial: int) -> dict[str, frozenset[tuple[int, int]]]:
    """The relations that law testing draws at one trial, as a block of one
    trial of `_sample_block`: counter-based SplitMix64 keyed on the BLAKE2b
    digest of "seed:name".  Seed, trial and name alone fix each relation,
    whatever the blocks a law is tested in and whatever PYTHONHASHSEED."""
    out = {}
    for name in names:
        bits = int(_sample_block(n, name, seed, [trial])[0])
        out[name] = frozenset((i, j) for i in range(n) for j in range(n)
                              if bits >> (i * n + j) & 1)
    return out


def _sample_block(n: int, name: str, seed: int, trials) -> np.ndarray:
    """The relations named `name` at the given trial numbers, as uint64
    words of n*n bits; bit i*n + j holds the pair (i, j).

    Word t is the top n*n bits of the SplitMix64 finaliser (Steele, Lea and
    Flood, OOPSLA 2014) of key + (t + 1) * 0x9E3779B97F4A7C15, where key is
    the 8-byte BLAKE2b digest of "seed:name" (not the salted `hash`).
    Unsigned numpy arithmetic wraps modulo 2^64."""
    key = hashlib.blake2b(f"{seed}:{name}".encode(), digest_size=8).digest()
    z = (np.asarray(trials, dtype=np.uint64) + 1) * 0x9E3779B97F4A7C15
    z += int.from_bytes(key, "little")
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return (z ^ (z >> 31)) >> (64 - n * n)


# ------------------------------------------------------------------
# Evaluation
# ------------------------------------------------------------------

def _ops(one, zero, ident, conv, comp) -> dict:
    """A carrier's operations for TERMS.evaluate, given its constants, its
    converse and its relative product; the Boolean ones are bitwise."""
    return {Join: operator.or_, Meet: operator.and_, Compl: lambda x: one ^ x,
            Conv: conv, Comp: comp, Ident: ident, Zero: zero, One: one}


class _Masks:
    """The carrier of a complex algebra: subsets of K as bitmasks.  Its
    connectives are tabulated once: the translation, run over every mask
    and every pair of masks, gives a table per connective, so each is one
    lookup, a pair (x, y) at x << n | y of a flat table."""
    axes = ()                        # one element is one mask

    def __init__(self, m: ModelStructure):
        self.m = m
        self.tab = tab = tables_for(m)
        # the identity and the shift of a pair's first mask as numpy values:
        # a Python int operand is converted on every operation with an array
        # of masks
        ident, n = np.array(tab.zero_mask), np.array(len(m.elements))
        ident.flags.writeable = False
        # X;Y is fusion in the opposite order
        fus = tab.fus.reshape(-1)
        self.ops = _ops(tab.all_mask, 0, ident, tab.star.__getitem__,
                        lambda x, y: fus[y << n | x])
        direct = _connectives(self.ops)
        pairs = np.indices((tab.size, tab.size)).reshape(2, -1)  # pair k is (k >> n, k % 2**n)
        neg, imp, fusion = (direct[Neg](np.arange(tab.size)),
                            direct[Imp](*pairs), direct[Fusion](*pairs))
        for table in (neg, imp, fusion):
            table.flags.writeable = False
        self.connectives = {**direct, Neg: neg.__getitem__,
                            Imp: lambda x, y: imp[x << n | y],
                            Fusion: lambda x, y: fusion[x << n | y]}
        self.grid = shared_grid(range(tab.size))

    def encode(self, value) -> int:
        return self.tab.mask_of(self.m, value)

    def decode(self, x) -> frozenset[str]:
        return self.tab.subsets[x]

    def batches(self, names: list[str], trials: int, seed: int):
        """Validity's blocks of the grid of every mask: carriers are exhausted."""
        return grid_blocks(names, self.grid)


class _Matrices:
    """The carrier of a proper algebra: relations as boolean n x n matrices."""
    axes = (-2, -1)                  # one element is one matrix

    def __init__(self, n: int):
        self.n = n
        constants = np.ones((n, n), bool), np.zeros((n, n), bool), np.eye(n, dtype=bool)
        for const in constants:          # shared: TERMS.evaluate returns them as they are
            const.flags.writeable = False
        self.ops = _ops(*constants, lambda x: np.swapaxes(x, -1, -2),
                        lambda x, y: (x.astype(np.uint8) @ y.astype(np.uint8)) > 0)
        self.connectives = _connectives(self.ops)

    def encode(self, pairs) -> np.ndarray:
        mat = np.zeros((self.n, self.n), dtype=bool)
        for (i, j) in pairs:
            mat[i, j] = True
        return mat

    def decode(self, x) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, np.argwhere(x).tolist()))

    def batches(self, names: list[str], trials: int, seed: int):
        """Blocks of at most 500 seeded samples, in trial order, each with the
        trials up to its end."""
        n = self.n
        shifts = np.arange(n * n, dtype=np.uint64)
        for start in range(0, trials, 500):
            block = np.arange(start, min(start + 500, trials))
            yield start + len(block), {
                name: (_sample_block(n, name, seed, block)[:, None]
                       >> shifts & 1).astype(bool).reshape(-1, n, n)
                for name in names}


_proper_carrier = functools.cache(_Matrices)


def _carrier(alg):
    """alg's one carrier, kept on its structure's tables or per base size."""
    if isinstance(alg, ProperAlgebra):
        return _proper_carrier(alg.base_size)
    tab = tables_for(alg.structure)
    if tab.carrier is None:
        tab.carrier = _Masks(alg.structure)
    return tab.carrier


def eval_term(alg, assignment: dict, t: RATerm):
    """Evaluation of one assignment, as a batch of one; returns a carrier
    element (a set of pairs for proper algebras, a subset of K for complex
    ones)."""
    c = _carrier(alg)
    env = {name: c.encode(value) for name, value in assignment.items()}
    return c.decode(TERMS.evaluate(t, env, c.ops))


def _related(c, left, rel: str, right) -> np.ndarray:
    """Per assignment of a batch in carrier c, whether the values left REL right."""
    ok = np.equal(left if rel == "=" else left | right, right)
    return ok.all(axis=c.axes) if c.axes else ok


# ------------------------------------------------------------------
# Identity and law testing
# ------------------------------------------------------------------

@dataclass
class IdentityResult:
    passed: bool
    counterexample: dict | None = None
    checked: int = 0                 # assignments that meet the premises
    grid: int = 0                    # assignments evaluated

    def __bool__(self) -> bool:
        return self.passed

    def counters(self) -> dict[str, int]:
        return {"checked": self.checked, "grid": self.grid}


@dataclass(frozen=True)
class Law:
    """lhs REL rhs, under zero or more premises of the same shape."""
    name: str
    lhs: RATerm
    rel: str
    rhs: RATerm
    premises: tuple[tuple[RATerm, str, RATerm], ...] = ()

    def all_variables(self) -> list[str]:
        terms = (self.lhs, self.rhs, *(t for l, _, r in self.premises for t in (l, r)))
        return sorted(frozenset().union(*map(term_variables, terms)))


def holds_law(alg, law: Law, trials: int = 1000, seed: int = 0) -> IdentityResult:
    """Semantic check of a law (with premises) in one algebra: exhaustively
    on complex algebras, on seeded random samples in proper ones.  The
    counterexample is the first failing assignment; up to the batch that
    fails, `checked` counts the assignments meeting the premises, `grid` all."""
    return _holds(alg, law.all_variables(), trials, seed, lambda c, env: [
        _related(c, TERMS.evaluate(lhs, env, c.ops), rel, TERMS.evaluate(rhs, env, c.ops))
        for lhs, rel, rhs in (*law.premises, (law.lhs, law.rel, law.rhs))])


def _need_trials(trials: int) -> None:
    if trials < 1:  # a sampled law would pass after checking nothing
        raise ValueError(f"trials must be at least 1, got {trials}")


def _holds(alg, names: Sequence[str], trials: int, seed: int, test) -> IdentityResult:
    """The law loop over the batches of assignments to names in alg's
    carrier c, each with the assignments up to its end: test(c, env) gives,
    per assignment of the batch env, whether each premise holds and then
    whether the conclusion does."""
    _need_trials(trials)
    c = _carrier(alg)
    checked = grid = 0
    for end, env in c.batches(names, trials, seed):
        *premises, good = test(c, env)
        if premises:
            # every row of the block, though a premise without variables
            # is one value
            keep = np.ones(end - grid, dtype=bool)
            for premise in premises:
                keep &= premise
            bad = (keep & ~good).nonzero()[0]
            checked += int(np.count_nonzero(keep))
        else:
            # a law without variables is one value for the whole block
            bad = (~good).ravel().nonzero()[0]
            checked += end - grid
        grid = end
        if bad.size:
            row = int(bad[0])
            return IdentityResult(False, {name: c.decode(env[name][row]) for name in names},
                                  checked, grid)
    return IdentityResult(True, checked=checked, grid=grid)


def verified_in_algebra(alg, f: Formula, trials: int = 500, seed: int = 0) -> IdentityResult:
    """Identity-containment of the translated formula, id <= translate(f),
    quantified over the carrier.  f is evaluated through the carrier's
    connectives, so no term is built.  A complex algebra's identity is {0},
    so there the check is validity's loop, `models.first_failure`, over
    every mask; a proper algebra's samples go through the law loop.  Either
    way a trial count below 1 is refused first."""
    if isinstance(alg, ProperAlgebra):
        return _holds(alg, sorted(variables(f)), trials, seed, lambda c, env: [
            _related(c, c.ops[Ident], "<=", FORMULAS.evaluate(f, env, c.connectives))])
    _need_trials(trials)
    c = _carrier(alg)
    end, _, failing = first_failure(f, c.grid, c.connectives, c.tab.lacks_zero, c.tab.subsets)
    return IdentityResult(failing is None, failing, end, end)


# ------------------------------------------------------------------
# Chains
# ------------------------------------------------------------------

@dataclass
class StepResult:
    step: Law                        # named by the step's tag, or a segment's span
    results: dict[str, IdentityResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results.values())


@dataclass
class ChainReport:
    steps: list[StepResult]
    segments: list[StepResult]       # each run of linked steps, end to end

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps + self.segments)


def _relation(text: str, end: int | None = None, line: int | None = None,
              col: int = 0) -> tuple[RATerm, str, RATerm]:
    """The terms and relation of `lhs (=|<=) rhs`, written as text[:end]; an
    error is placed as `parse_at` places it."""
    m = re.match(r"(.*?)(<=|=)(.*)$", text[:end])
    if not m:
        raise ParseError(col, "'lhs = rhs' or 'lhs <= rhs'", text[:end], line)
    return (parse_at(parse_ra_term, text, 0, m.end(1), line, col),
            m.group(2),
            parse_at(parse_ra_term, text, m.start(3), m.end(3), line, col))


def parse_chain(text: str) -> list[Law]:
    """One step per line: `lhs (=|<=) rhs ; tag`, read as a law named by its
    tag.  The tag separator is a semicolon surrounded by spaces,
    distinguishing it from relative product (written without spaces).  A
    ParseError names the line and column at fault; a file with no step is
    one."""
    steps = []
    for n, col, line in file_lines(text):
        body, sep, tag = line.rpartition(" ; ")
        if not sep:
            body, tag = line, ""
        steps.append(Law(tag.strip(), *_relation(line, len(body), n, col)))
    if not steps:
        raise end_of_file(text, "a chain step")
    return steps


def check_chain(algs: dict[str, object], steps: list[Law],
                trials: int = 500, seed: int = 0) -> ChainReport:
    """Each step, and each run of two or more linked steps (one's rhs is the
    next one's lhs) end to end, as a law named "<first>..<last>" by its step
    numbers from 1, checked in every algebra."""
    def check(law: Law) -> StepResult:
        return StepResult(law, {name: holds_law(alg, law, trials=trials, seed=seed)
                                for name, alg in algs.items()})
    out = [check(step) for step in steps]
    segments = []
    start = 0
    while start < len(steps):
        end = start
        while end + 1 < len(steps) and steps[end].rhs is steps[end + 1].lhs:
            end += 1
        if end > start:
            combined = "=" if all(s.rel == "=" for s in steps[start:end + 1]) else "<="
            segments.append(check(Law(f"{start + 1}..{end + 1}", steps[start].lhs,
                                      combined, steps[end].rhs)))
        start = end + 1
    return ChainReport(out, segments)


# ------------------------------------------------------------------
# The stock of laws
# ------------------------------------------------------------------

def _law(name: str, text: str, premise_texts=()) -> Law:
    return Law(name, *_relation(text), tuple(map(_relation, premise_texts)))


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
    return {**TARSKI_AXIOMS, **DERIVED_LAWS}[name]
