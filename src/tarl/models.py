"""Finite ternary-relation structures and their subset algebras.

A structure is a finite set K with a ternary relation R, an involution *
and a distinguished element 0.  Subsets of K form an algebra under

    X o Y  = {z : R x y z for some x in X, y in Y}
    X -> Y = {z : whenever R z x y and x in X, y in Y}
    X*     = {x* : x in X}
    ~X     = K minus X*

with variables mapped to subsets subject to heredity (truth propagates
along R0-successors).  Subsets are bitmasks and each operation is one
read-only int64 lookup table.  The evaluator of the formula grammar,
`FORMULAS.evaluate`, runs a formula over an array of valuations with these
lookups as its operations: a block of grid rows at a time for exhaustive
checks, a batch of one for `interpret`.  Every exhaustive check walks its
valuation grid with `grid_blocks`: `valid_in`, `find_invalidating_singletons`
and the complex algebras of `tarl.algebra`.  A grid's blocks grow fourfold
from `_FIRST_BLOCK` rows to `_GRID_CHUNK`, and each block's columns of masks
are built once and cached, read-only, in a dict emptied once it passes
GRID_CACHE_BYTES; a check stops at the first block that holds a failing
row.  The structure postulates (p1..p6 and friends) are audited, never
assumed, so deliberately defective structures can be represented and
inspected.  The audit works on a batch of relations at once, held as a (B, n, n, n) boolean
tensor: R o R is a batched boolean matrix product and every postulate is
one indexed comparison, so `check_postulates` is a batch of one and
`enumerate_structures` audits thousands of candidates per call.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .formulas import (
    FORMULAS, And, Formula, Fusion, Imp, Neg, Or, ParseError,
    UnassignedVariable, end_of_file, file_lines, variables,
)

__all__ = [
    "ModelStructure", "Valuation", "PostulateReport", "ValidityResult",
    "Shared", "SemanticWitness", "ClosureViolation", "UnassignedVariable",
    "TooManyValuations", "composition_table",
    "op_fusion", "op_implies", "op_star", "op_neg",
    "interpret", "verified", "valid_in", "find_invalidating_singletons",
    "is_hereditary", "hereditary_subsets", "check_postulates",
    "variable_sharing_certificate", "enumerate_structures",
    "load_model_file", "dump_model_file",
    "POSTULATE_NAMES",
]

DEFAULT_VALUATION_CAP = 2 ** 20

# candidates audited together by enumerate_structures; bounds its memory
_CHUNK = 1024
# rows in the first block of a valuation grid; each later block has four
# times as many, up to _GRID_CHUNK
_FIRST_BLOCK = 1024
_GRID_CHUNK = 1 << 16
# the grid block cache is emptied once it holds more bytes than this
GRID_CACHE_BYTES = 16 << 20

POSTULATE_NAMES = ("p1", "p2", "p3", "p4", "p5", "p6",
                   "comm", "p3prime", "p5prime", "normal", "crstar", "peirce")


class TooManyValuations(ValueError):
    pass


class ClosureViolation(AssertionError):
    pass


@dataclass(frozen=True)
class ModelStructure:
    name: str
    elements: tuple[str, ...]
    zero: str
    star: dict[str, str]
    triples: frozenset[tuple[str, str, str]]
    # built on first use by tables_for; the fields it derives from are frozen
    _tables: "_Tables | None" = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        known = set(self.elements)
        if len(known) != len(self.elements):
            raise ValueError("elements must be distinct")
        if self.zero not in known:
            raise ValueError("zero must be an element")
        if self.star.keys() != known:
            raise ValueError("star must be a total map on the elements")
        outside = set(self.star.values()) - known
        if outside:
            raise ValueError(f"star maps to unknown element {min(outside)}")
        if not known.issuperset(itertools.chain.from_iterable(self.triples)):
            # the least bad triple, so the message does not follow the hash seed
            t = min(t for t in self.triples if not known.issuperset(t))
            e = next(e for e in t if e not in known)
            raise ValueError(f"triple {t} mentions unknown element {e}")

    def index(self, e: str) -> int:
        return self.elements.index(e)

    def has(self, a: str, b: str, c: str) -> bool:
        return (a, b, c) in self.triples

    def same_as(self, other: "ModelStructure") -> bool:
        """Equality up to renaming nothing: same elements, star, 0, triples."""
        return (self.elements == other.elements and self.zero == other.zero
                and self.star == other.star and self.triples == other.triples)


def composition_table(m: ModelStructure) -> dict[tuple[str, str], frozenset[str]]:
    """Derived view: (x, y) -> {x} o {y}."""
    out = {}
    for x in m.elements:
        for y in m.elements:
            out[(x, y)] = frozenset(z for z in m.elements if m.has(x, y, z))
    return out


# ------------------------------------------------------------------
# Bitmask tables; subsets of K are masks over the element order
# ------------------------------------------------------------------

def _unions(rows: np.ndarray) -> np.ndarray:
    """out[mask] is the OR of rows[i] over the elements i of mask: the table
    for mask | 1 << i is the table for mask OR-ed with row i."""
    out = np.zeros((1 << len(rows),) + rows.shape[1:], dtype=np.int64)
    for i, row in enumerate(rows):
        out[1 << i:2 << i] = out[:1 << i] | row
    return out


class _Tables:
    def __init__(self, m: ModelStructure):
        n = len(m.elements)
        if n > 10:
            raise TooManyValuations(f"{n} elements is beyond table support")
        size = 1 << n
        self.size = size
        self.all_mask = size - 1
        R, star, zero = _tensor(m)
        self.zero_mask = 1 << zero
        self.bits = {e: 1 << i for i, e in enumerate(m.elements)}
        # subsets[mask]: the elements of mask, decoded once and shared; the
        # subset for mask | 1 << i is the one for mask with element i added
        subsets = [frozenset()]
        for e in m.elements:
            subsets += [s | {e} for s in subsets]
        self.subsets = tuple(subsets)
        single = R[0] @ (1 << np.arange(n))            # [x, y]: {x} o {y}
        self.fus = np.ascontiguousarray(_unions(_unions(single).T).T)
        self.star = _unions(1 << star)
        self.neg = self.all_mask ^ self.star
        # z is in X->Y iff every y with R z x y for some x in X is in Y;
        # single.T[x, z] holds those y for one x
        req = _unions(single.T)
        masks = np.arange(size)
        self.imp = np.zeros((size, size), dtype=np.int64)
        for z in range(n):
            self.imp |= ((req[:, z, None] & ~masks) == 0).astype(np.int64) << z
        # X is hereditary iff {0} o X is within X
        closed = self.fus[self.zero_mask] & ~masks == 0
        self.hereditary = tuple(np.flatnonzero(closed).tolist())
        self.singletons = tuple(1 << i for i in range(n) if closed[1 << i])
        self.lacks_zero = masks & self.zero_mask == 0     # [X]: 0 is not in X
        for table in (self.fus, self.imp, self.star, self.neg, self.lacks_zero):
            table.flags.writeable = False    # shared by every caller of tables_for
        self.carrier = None                  # algebra._carrier builds it at first use
        # the connectives for FORMULAS.evaluate, on masks or arrays of masks
        fus, imp = self.fus, self.imp
        self.ops = {Neg: self.neg.__getitem__, And: operator.and_, Or: operator.or_,
                    Imp: lambda x, y: imp[x, y], Fusion: lambda x, y: fus[x, y]}

    def mask_of(self, m: ModelStructure, subset) -> int:
        acc = 0
        for e in subset:
            try:
                acc |= self.bits[e]
            except KeyError:
                raise ValueError(f"{e!r} is not an element of {m.name}") from None
        return acc


def tables_for(m: ModelStructure) -> _Tables:
    if m._tables is None:
        object.__setattr__(m, "_tables", _Tables(m))
    return m._tables


# ------------------------------------------------------------------
# Subset operations (public, set-valued)
# ------------------------------------------------------------------

def op_fusion(m: ModelStructure, xs, ys) -> frozenset[str]:
    xs, ys = set(xs), set(ys)
    return frozenset(z for (a, b, z) in m.triples if a in xs and b in ys)


def op_implies(m: ModelStructure, xs, ys) -> frozenset[str]:
    xs, ys = set(xs), set(ys)
    out = []
    for z in m.elements:
        if all(not (a == z and b in xs and c not in ys)
               for (a, b, c) in m.triples):
            out.append(z)
    return frozenset(out)


def op_star(m: ModelStructure, xs) -> frozenset[str]:
    return frozenset(m.star[x] for x in xs)


def op_neg(m: ModelStructure, xs) -> frozenset[str]:
    return frozenset(m.elements) - op_star(m, xs)


# ------------------------------------------------------------------
# Valuations and interpretation
# ------------------------------------------------------------------

@dataclass
class Valuation:
    assignment: dict[str, frozenset[str]]

    def __str__(self) -> str:
        items = []
        for v in sorted(self.assignment):
            inner = ",".join(sorted(self.assignment[v]))
            items.append(f"{v}->{{{inner}}}")
        return " ".join(items)


def is_hereditary(m: ModelStructure, v: Valuation) -> bool:
    """Heredity: if R 0 a b and a is in J(p) then b is in J(p)."""
    succ = [(b, c) for (a, b, c) in m.triples if a == m.zero]
    return all(not (a in val and b not in val)
               for val in v.assignment.values() for (a, b) in succ)


def hereditary_subsets(m: ModelStructure) -> list[int]:
    """Masks closed under R0-successors, ascending (lexicographic) order."""
    return list(tables_for(m).hereditary)


def interpret(m: ModelStructure, v: Valuation, f: Formula) -> frozenset[str]:
    """J(f): the set of elements where f holds; fusion is interpreted directly."""
    t = tables_for(m)
    env = {name: t.mask_of(m, val) for name, val in v.assignment.items()}
    return t.subsets[FORMULAS.evaluate(f, env, t.ops)]


def verified(m: ModelStructure, v: Valuation, f: Formula) -> bool:
    return m.zero in interpret(m, v, f)


class _GridCache:
    """The digit columns of grid blocks, built once each: `columns` maps
    (allowed masks, arity, lo, hi) to a read-only array, and it is emptied
    once it holds more than GRID_CACHE_BYTES of them."""

    def __init__(self):
        self.columns: dict[tuple, np.ndarray] = {}
        self.nbytes = 0

    def block(self, allowed, arity: int, lo: int, hi: int) -> np.ndarray:
        """The (arity, hi - lo) masks of rows lo..hi-1 of the grid of every
        assignment of the masks `allowed` to `arity` variables, the first
        variable most significant, so row order is the lexicographic order
        of assignments."""
        key = (allowed, arity, lo, hi)
        cols = self.columns.get(key)
        if cols is None:
            base = len(allowed)
            powers = base ** np.arange(arity - 1, -1, -1, dtype=np.int64)
            digits = np.arange(lo, hi, dtype=np.int64) // powers[:, None] % base
            cols = np.asarray(allowed, dtype=np.int64)[digits]
            cols.flags.writeable = False
            self.columns[key] = cols
            self.nbytes += cols.nbytes
            if self.nbytes > GRID_CACHE_BYTES:
                self.columns.clear()
                self.nbytes = 0
        return cols


_GRID_CACHE = _GridCache()


def grid_blocks(names: list[str], allowed):
    """The grid of every assignment of the masks `allowed` to `names`, in
    blocks in row order: for each, the rows up to its end and its columns by
    name.  A grid past DEFAULT_VALUATION_CAP raises TooManyValuations before
    the first block."""
    total = len(allowed) ** len(names)
    if total > DEFAULT_VALUATION_CAP:
        raise TooManyValuations(
            f"{total} valuations exceeds cap {DEFAULT_VALUATION_CAP}")
    lo, size = 0, min(_FIRST_BLOCK, _GRID_CHUNK)
    while lo < total:
        hi = min(lo + size, total)
        yield hi, dict(zip(names, _GRID_CACHE.block(allowed, len(names), lo, hi)))
        lo, size = hi, min(4 * size, _GRID_CHUNK)


def _valuation(t: _Tables, names: list[str], masks) -> Valuation:
    return Valuation({name: t.subsets[mask] for name, mask in zip(names, masks)})


@dataclass
class ValidityResult:
    valid: bool
    witness: Valuation | None = None
    valuations: int = 0              # grid rows evaluated
    grid: int = 0                    # rows in the whole grid

    def __bool__(self) -> bool:
        return self.valid

    def counters(self) -> dict[str, int]:
        return {"valuations": self.valuations, "grid": self.grid}


def valid_in(m: ModelStructure, f: Formula) -> ValidityResult:
    """Exhaustive check over every heredity-closed valuation; the witness is
    the lexicographically first failing one.  The grid is evaluated block by
    block and the first block with a failing row ends the check, so
    `valuations` counts the rows up to the end of that block (the whole
    `grid` when f is valid)."""
    t = tables_for(m)
    names = sorted(variables(f))
    for end, env in grid_blocks(names, t.hereditary):
        bad = t.lacks_zero[FORMULAS.evaluate(f, env, t.ops)].nonzero()[0]
        if bad.size:
            row = int(bad[0])
            return ValidityResult(False, _valuation(t, names, [env[n].item(row) for n in names]),
                                  end, len(t.hereditary) ** len(names))
    return ValidityResult(True, valuations=end, grid=end)


def find_invalidating_singletons(m: ModelStructure, f: Formula) -> list[Valuation]:
    """All singleton-valued valuations sending the whole formula to the
    empty set, in lexicographic order of the assignments.  The grid of
    hereditary singletons is walked in the blocks `valid_in` uses, under
    the same cap: past it, TooManyValuations before any row is evaluated."""
    t = tables_for(m)
    names = sorted(variables(f))
    out = []
    for _, env in grid_blocks(names, t.singletons):
        rows = np.logical_not(FORMULAS.evaluate(f, env, t.ops)).nonzero()[0]
        if rows.size:
            out.extend(_valuation(t, names, masks)
                       for masks in zip(*[env[n][rows].tolist() for n in names]))
    return out


# ------------------------------------------------------------------
# Postulate audit
# ------------------------------------------------------------------

@dataclass
class PostulateReport:
    flags: dict[str, bool]
    witnesses: dict[str, tuple]
    peirce_missing: tuple[tuple[str, str, str], ...]

    def passes(self, names) -> bool:
        return all(self.flags[n] for n in names)


def _compose(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """out[i, a, b, c, d] iff some x has left[i, a, b, x] and right[i, x, c, d],
    as one batched matrix product (float32 counts are exact up to 2**24)."""
    B, n = left.shape[:2]
    counts = (left.astype(np.float32).reshape(B, n * n, n)
              @ right.astype(np.float32).reshape(B, n, n * n))
    return counts.reshape(B, n, n, n, n) > 0


def _failures(R: np.ndarray, star: np.ndarray, zero: int,
              names) -> dict[str, np.ndarray]:
    """Where each named postulate fails, for a batch of relations on 0..n-1.

    R[i, a, b, c] says that R a b c holds in relation i; star[a] is the index
    of a*, and zero the index of 0.  In the tensor of a postulate, entry
    [i, *w] is true iff the tuple w of element indices, in the order of the
    postulate's quantifiers, is a counterexample in relation i; for peirce, w
    is a missing image (c, b*, a) of a triple R a b c.  C order of w is
    element order, so the first true entry is the least witness."""
    B, n = R.shape[:2]
    e = np.arange(n)
    wanted = set(names)
    if wanted & {"p3", "p3prime", "p4"}:
        r2 = _compose(R, R)          # R2 a b c d: R a b x and R x c d

    def every(fail):                 # a failure that does not depend on R
        return np.broadcast_to(fail, (B,) + fail.shape)

    def r2_assoc():                  # R2' a b c d: R b c x and R a x d
        return _compose(R, R.transpose(0, 2, 1, 3)).transpose(0, 3, 1, 2, 4)

    def peirce_images():             # some R a b c has image (c, b*, a) = (u, v, w)
        hits = (star == e[:, None]).astype(np.float32)       # [v, b]: b* = v
        return hits @ R.transpose(0, 3, 2, 1).astype(np.float32) > 0

    table = {
        "p1": lambda: ~R[:, zero, e, e],
        "p2": lambda: ~R[:, e, e, e],
        "p3": lambda: r2 & ~r2.transpose(0, 1, 3, 2, 4),
        "p4": lambda: r2[:, zero] & ~R,
        "p5": lambda: R & ~R[:, :, star][:, :, :, star].transpose(0, 1, 3, 2),
        "p6": lambda: every(star[star] != e),
        "comm": lambda: R & ~R.transpose(0, 2, 1, 3),
        "p3prime": lambda: r2 & ~r2_assoc(),
        "p5prime": lambda: R & ~R[:, star][:, :, :, star].transpose(0, 2, 3, 1),
        "normal": lambda: every((e == zero) & (star[zero] != zero)),
        "crstar": lambda: R[:, zero] != (e[:, None] == e),
        "peirce": lambda: peirce_images() & ~R,
    }
    return {name: table[name]() for name in POSTULATE_NAMES if name in wanted}


def _tensor(m: ModelStructure) -> tuple[np.ndarray, np.ndarray, int]:
    """The relation of `m` as a batch of one, its star as indices, 0's index."""
    idx = {e: i for i, e in enumerate(m.elements)}
    n = len(m.elements)
    R = np.zeros(n ** 3, dtype=bool)
    R[[(idx[a] * n + idx[b]) * n + idx[c] for a, b, c in m.triples]] = True
    star = np.array([idx[m.star[e]] for e in m.elements])
    return R.reshape(1, n, n, n), star, idx[m.zero]


def check_postulates(m: ModelStructure) -> PostulateReport:
    """Decide every postulate on `m` as a batch of one.  Witnesses are the
    lexicographically least failures in element order; `peirce_missing` is
    every missing Peirce image, in element order.  Only those are decoded:
    the flat C-order index of a failure is its tuple's digits base n."""
    R, star, zero = _tensor(m)
    n = len(m.elements)
    flags: dict[str, bool] = {}
    witnesses: dict[str, tuple] = {}
    missing: tuple = ()
    for name, fail in _failures(R, star, zero, POSTULATE_NAMES).items():
        hits = np.flatnonzero(fail[0])[:None if name == "peirce" else 1].tolist()
        where = [tuple(m.elements[i // n ** k % n] for k in range(fail.ndim - 2, -1, -1))
                 for i in hits]
        flags[name] = not where
        if where:
            witnesses[name] = where[0]
        if name == "peirce":
            missing = tuple(where)
    return PostulateReport(flags, witnesses, missing)


# ------------------------------------------------------------------
# Variable sharing certificate
# ------------------------------------------------------------------

@dataclass
class Shared:
    variables: frozenset[str]


@dataclass
class SemanticWitness:
    structure: str
    valuation: Valuation
    left_value: frozenset[str]
    right_value: frozenset[str]
    implication_value: frozenset[str]


def variable_sharing_certificate(a: Formula, b: Formula):
    """Shared variables, or else the canonical refuting valuation on K4."""
    from .registry import get_structure  # deferred; registry builds on models

    shared = variables(a) & variables(b)
    if shared:
        return Shared(frozenset(shared))
    k4 = get_structure("K4")
    assignment = {}
    vars_a = variables(a)
    for name in sorted(vars_a | variables(b)):
        assignment[name] = frozenset({"a"} if name in vars_a else {"a*"})
    v = Valuation(assignment)
    ja = interpret(k4, v, a)
    jb = interpret(k4, v, b)
    jimp = interpret(k4, v, Imp(a, b))
    if ja not in (frozenset({"a"}), frozenset({"0", "a"})):
        raise ClosureViolation(f"left value {set(ja)} escaped the closure")
    if jb not in (frozenset({"a*"}), frozenset({"0", "a*"})):
        raise ClosureViolation(f"right value {set(jb)} escaped the closure")
    if jimp:
        raise ClosureViolation(f"implication value {set(jimp)} is not empty")
    return SemanticWitness("K4", v, ja, jb, jimp)


# ------------------------------------------------------------------
# Structure enumeration (auditable brute force under a candidate cap)
# ------------------------------------------------------------------

def _candidates(size: int, required: frozenset):
    """The candidate relations of an enumeration, as (star, R) pairs: star is
    the index array of an involution and R a (C, size, size, size) boolean
    tensor of at most `_CHUNK` relations.  The star maps are the permutations
    of the elements that are their own inverse (and fix 0 under normal), in
    lexicographic order.  A triple is its flat index, as in `_tensor`:
    p1/p2/crstar seed triples in or out as masks, and p5/p5'/comm are each a
    permutation of the indices that closes triples into orbits, each labelled
    by its least index.  Every union of the free orbits with the seeded ones
    is a candidate, in ascending order of its free-orbit bitmask, whose bit i
    is the orbit with the i-th least label.  The orbits of the star maps are
    found first, one map at a time, and a query raises TooManyValuations at
    the first map that takes the count past DEFAULT_VALUATION_CAP, before any
    chunk is built."""
    n = size
    a, b, c = np.indices((n, n, n)).reshape(3, -1)
    triples = np.arange(n ** 3)
    forced_in = (a == 0) & (b == c) & bool(required & {"p1", "crstar"})
    forced_in |= (a == b) & (b == c) & ("p2" in required)
    forced_out = (a == 0) & (b != c) & ("crstar" in required)
    plans = []                       # (star, seeded in, free, bit, candidates)
    total = 0
    for star in itertools.permutations(range(n)):
        if any(star[j] != i for i, j in enumerate(star)):
            continue
        if "normal" in required and star[0]:
            continue
        star = np.array(star)
        perms = [perm for name, perm in (
            ("p5", (a * n + star[c]) * n + star[b]),
            ("p5prime", (star[c] * n + a) * n + star[b]),
            ("comm", (b * n + a) * n + c)) if name in required]
        label, last = triples, None
        while last is None or (label != last).any():
            last = label
            for perm in perms:
                label = np.minimum(label, label[perm])
        seeded_in = np.bincount(label[forced_in], minlength=n ** 3) > 0
        seeded_out = np.bincount(label[forced_out], minlength=n ** 3) > 0
        if (seeded_in & seeded_out).any():
            continue
        free = (label == triples) & ~seeded_in & ~seeded_out
        count = 1 << int(free.sum())
        total += count
        if total > DEFAULT_VALUATION_CAP:
            raise TooManyValuations(
                f"more than {DEFAULT_VALUATION_CAP} candidates (the cap)")
        # a triple of the i-th free orbit is in a candidate iff bit i of its word is set
        bit = (np.cumsum(free) - free)[label].astype(np.uint64)
        plans.append((star, seeded_in[label], free[label], bit, count))
    for star, base, is_free, bit, count in plans:
        for lo in range(0, count, _CHUNK):
            words = np.arange(lo, min(lo + _CHUNK, count), dtype=np.uint64)
            R = base | is_free & (words[:, None] >> bit & 1).astype(bool)
            yield star, R.reshape(-1, n, n, n)


def enumerate_structures(size: int, required):
    """Yield every structure on `size` elements with an involutive star
    whose audit passes the required postulates, named enum{size}_0,
    enum{size}_1, ...  Star maps that are not involutions are never tried,
    even when p6 is not required.  Exhaustive over the raw encoding of
    `_candidates` (no isomorphism reduction), which refuses a query of more
    than DEFAULT_VALUATION_CAP candidates with TooManyValuations.  Each chunk
    of candidates is audited as one boolean tensor, for the required
    postulates only, and a structure is built only for those that pass."""
    required = frozenset(required)
    unknown = required - set(POSTULATE_NAMES)
    if unknown:
        raise ValueError(f"unknown postulates: {sorted(unknown)}")
    if size < 1:
        raise ValueError(f"a structure needs at least one element, not {size}")
    elems = tuple(str(i) for i in range(size))
    named = list(itertools.product(elems, repeat=3))
    count = 0
    for star, R in _candidates(size, required):
        ok = np.ones(len(R), dtype=bool)
        for fail in _failures(R, star, 0, required).values():
            ok &= ~fail.reshape(len(R), -1).any(axis=1)
        # one star map per chunk; a yield makes no numpy call, its row is a list
        images = {elems[a]: elems[b] for a, b in enumerate(star.tolist())}
        for row in R[ok].reshape(-1, size ** 3).tolist():
            yield ModelStructure(f"enum{size}_{count}", elems, elems[0], dict(images),
                                 frozenset(itertools.compress(named, row)))
            count += 1


# ------------------------------------------------------------------
# Model files
# ------------------------------------------------------------------

def load_model_file(text: str) -> ModelStructure:
    """The structure a model file describes; a ParseError names the line
    and column at fault."""
    name = None
    elements: tuple[str, ...] | None = None
    zero = None
    star: dict[str, str] | None = None
    triples: set[tuple[str, str, str]] | None = None
    table_rows: list[list[frozenset[str]]] | None = None
    seen: dict[str, tuple[int, int]] = {}  # each directive's line and column
    lines = file_lines(text)
    for n, col, line in lines:
        head, _, rest = line.partition(" ")
        if head in seen:
            raise ParseError(col, f"one '{head}' line", head, n)
        seen[head] = n, col
        if head == "model":
            name = rest.strip()
        elif head == "elements":
            elements = tuple(rest.split())
        elif head == "zero":
            zero = rest.strip()
        elif head == "star":
            star = {}
            for pair in re.compile(r"\S+").finditer(line, len(head)):
                a, _, b = pair.group().partition(":")
                if not re.fullmatch(r"[^:]+:[^:]+", pair.group()):
                    raise ParseError(col + pair.start(), "'<element>:<image>' in 'star'",
                                     pair.group(), n)
                if a in star:
                    raise ParseError(col + pair.start(), "one image per element in 'star'",
                                     pair.group(), n)
                star[a] = b
        elif head == "triples":
            triples = set()
            for n, col, row in lines:
                if row == "end":
                    break
                parts = row.split()
                if len(parts) != 3:
                    raise ParseError(col, "three elements per triple line", row, n)
                triples.add((parts[0], parts[1], parts[2]))
            else:
                raise end_of_file(text, "'end' closing 'triples'")
        elif head == "table":
            if elements is None:
                raise ParseError(col, "'elements' before 'table'", head, n)
            table_rows = []
            for n, col, row in itertools.islice(lines, len(elements)):
                cells = re.findall(r"\{([^}]*)\}", row)
                if len(cells) != len(elements):
                    raise ParseError(col, f"{len(elements)} cells per table row", row, n)
                table_rows.append([
                    frozenset(x.strip() for x in cell.split(",") if x.strip())
                    for cell in cells])
            if len(table_rows) < len(elements):
                raise end_of_file(text, f"{len(elements)} table rows")
        else:
            raise ParseError(col, "a model file directive", head, n)
    if name is None or elements is None or zero is None or star is None:
        raise end_of_file(text, "model, elements, zero and star sections")
    if triples is None and table_rows is None:
        raise end_of_file(text, "a 'triples' or 'table' section")
    from_table = None
    if table_rows is not None:
        from_table = {(x, y, z)
                      for x, row in zip(elements, table_rows)
                      for y, cell in zip(elements, row) for z in cell}
    if triples is not None and from_table is not None and set(triples) != from_table:
        n, col = max(seen["triples"], seen["table"])
        raise ParseError(col, "matching 'triples' and 'table' sections", line=n)
    final = triples if triples is not None else from_table
    return ModelStructure(name, elements, zero, star, frozenset(final))


def dump_model_file(m: ModelStructure) -> str:
    out = [f"model {m.name}",
           "elements " + " ".join(m.elements),
           f"zero {m.zero}",
           "star " + " ".join(f"{a}:{b}" for a, b in
                              ((e, m.star[e]) for e in m.elements)),
           "table"]
    table = composition_table(m)
    for x in m.elements:
        cells = []
        for y in m.elements:
            members = sorted(table[(x, y)], key=m.elements.index)
            cells.append("{" + ",".join(members) + "}")
        out.append(" ".join(cells))
    return "\n".join(out) + "\n"
