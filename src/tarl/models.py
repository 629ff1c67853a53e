"""Finite ternary-relation structures and their subset algebras.

A structure is a finite set K with a ternary relation R, an involution *
and a distinguished element 0.  Subsets of K form an algebra under

    X o Y  = {z : R x y z for some x in X, y in Y}
    X -> Y = {z : whenever R z x y and x in X, y in Y}
    X*     = {x* : x in X}
    ~X     = K minus X*

with variables mapped to subsets subject to heredity (truth propagates
along R0-successors).  Subsets are bitmasks, each operation is one int64
lookup table, and one recursion evaluates a formula over an array of
valuations: the whole grid for `valid_in`, chunks of the singleton grid
for `find_invalidating_singletons`, a batch of one for `interpret`.  The
structure postulates (p1..p6 and friends) are audited, never assumed, so
deliberately defective structures can be represented and inspected.  The
audit works on a batch of relations at once, held as a (B, n, n, n) boolean
tensor: R o R is a batched boolean matrix product and every postulate is
one indexed comparison, so `check_postulates` is a batch of one and
`enumerate_structures` audits thousands of candidates per call.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from .formulas import (
    And, Formula, Fusion, Imp, Neg, Or, ParseError, Var, variables,
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
# grid rows evaluated together by find_invalidating_singletons
_GRID_CHUNK = 1 << 16

POSTULATE_NAMES = ("p1", "p2", "p3", "p4", "p5", "p6",
                   "comm", "p3prime", "p5prime", "normal", "crstar", "peirce")


class UnassignedVariable(KeyError):
    pass


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
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("elements must be distinct")
        if self.zero not in self.elements:
            raise ValueError("zero must be an element")
        if set(self.star) != set(self.elements):
            raise ValueError("star must be a total map on the elements")
        outside = set(self.star.values()) - set(self.elements)
        if outside:
            raise ValueError(f"star maps to unknown element {min(outside)}")
        for t in self.triples:
            for e in t:
                if e not in self.elements:
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
        self.n = n
        size = 1 << n
        self.size = size
        self.all_mask = size - 1
        self.zero_bit = m.index(m.zero)
        idx = {e: i for i, e in enumerate(m.elements)}
        single = np.zeros((n, n), dtype=np.int64)    # [x, y]: {x} o {y}
        need = np.zeros((n, n), dtype=np.int64)      # [x, z]: the y with R z x y
        for (a, b, c) in m.triples:
            single[idx[a], idx[b]] |= 1 << idx[c]
            need[idx[b], idx[a]] |= 1 << idx[c]
        self.fus = np.ascontiguousarray(_unions(_unions(single).T).T)
        self.star = _unions(np.array([1 << idx[m.star[e]] for e in m.elements]))
        self.neg = self.all_mask ^ self.star
        # z is in X->Y iff every y with R z x y for some x in X is in Y
        req = _unions(need)
        masks = np.arange(size)
        self.imp = np.zeros((size, size), dtype=np.int64)
        for z in range(n):
            self.imp |= ((req[:, z, None] & ~masks) == 0).astype(np.int64) << z
        # X is hereditary iff {0} o X is within X
        closed = self.fus[1 << self.zero_bit] & ~masks == 0
        self.hereditary = tuple(np.flatnonzero(closed).tolist())

    def mask_of(self, m: ModelStructure, subset) -> int:
        acc = 0
        for e in subset:
            acc |= 1 << m.index(e)
        return acc

    def subset_of(self, m: ModelStructure, mask: int) -> frozenset[str]:
        return frozenset(e for i, e in enumerate(m.elements) if mask >> i & 1)


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


def _interpret_vec(f: Formula, env: dict, t: _Tables):
    """J(f) as masks, one per valuation: each variable maps to an array of
    masks (or one mask, a batch of one), and every operation is a lookup."""
    if isinstance(f, Var):
        if f.name not in env:
            raise UnassignedVariable(f.name)
        return env[f.name]
    if isinstance(f, Neg):
        return t.neg[_interpret_vec(f.body, env, t)]
    if isinstance(f, And):
        return _interpret_vec(f.left, env, t) & _interpret_vec(f.right, env, t)
    if isinstance(f, Or):
        return _interpret_vec(f.left, env, t) | _interpret_vec(f.right, env, t)
    if isinstance(f, Imp):
        return t.imp[_interpret_vec(f.left, env, t), _interpret_vec(f.right, env, t)]
    if isinstance(f, Fusion):
        return t.fus[_interpret_vec(f.left, env, t), _interpret_vec(f.right, env, t)]
    raise TypeError(f"not a formula: {f!r}")


def interpret(m: ModelStructure, v: Valuation, f: Formula) -> frozenset[str]:
    """J(f): the set of elements where f holds; fusion is interpreted directly."""
    t = tables_for(m)
    env = {name: t.mask_of(m, val) for name, val in v.assignment.items()}
    return t.subset_of(m, int(_interpret_vec(f, env, t)))


def verified(m: ModelStructure, v: Valuation, f: Formula) -> bool:
    return m.zero in interpret(m, v, f)


def _grid_rows(base: int, names: list[str], cap: int) -> np.ndarray:
    """Every row of a grid of `base` ** len(names) valuations, if the cap allows."""
    total = base ** len(names)
    if total > cap:
        raise TooManyValuations(f"{total} valuations exceeds cap {cap}")
    return np.arange(total)


def _valuation_grid(names: list[str], base: int, rows: np.ndarray,
                    allowed: list[int] | None = None) -> dict[str, np.ndarray]:
    """Columns for the given rows of the grid of every assignment of `base`
    masks (the list `allowed`, or else 0..base-1), first name most
    significant, so row order is the lexicographic order of assignments."""
    env = {name: rows // base ** (len(names) - 1 - pos) % base
           for pos, name in enumerate(names)}
    if allowed is None:
        return env
    allowed_np = np.array(allowed, dtype=np.int64)
    return {name: allowed_np[digits] for name, digits in env.items()}


def _valuation(m: ModelStructure, t: _Tables, env: dict[str, np.ndarray],
               row: int) -> Valuation:
    return Valuation({name: t.subset_of(m, int(col[row])) for name, col in env.items()})


@dataclass
class ValidityResult:
    valid: bool
    witness: Valuation | None = None

    def __bool__(self) -> bool:
        return self.valid


def valid_in(m: ModelStructure, f: Formula,
             cap: int = DEFAULT_VALUATION_CAP) -> ValidityResult:
    """Exhaustive check over every heredity-closed valuation; the witness is
    the lexicographically first failing one."""
    t = tables_for(m)
    names = sorted(variables(f))
    allowed = t.hereditary
    rows = _grid_rows(len(allowed), names, cap)
    env = _valuation_grid(names, len(allowed), rows, allowed)
    value = _interpret_vec(f, env, t)
    failing = np.nonzero((value >> t.zero_bit & 1) == 0)[0]
    if failing.size == 0:
        return ValidityResult(True)
    return ValidityResult(False, _valuation(m, t, env, int(failing[0])))


def find_invalidating_singletons(m: ModelStructure, f: Formula) -> list[Valuation]:
    """All singleton-valued valuations sending the whole formula to the
    empty set, in lexicographic order of the assignments.  The grid of
    hereditary singletons is walked in row chunks, so it needs no cap."""
    t = tables_for(m)
    names = sorted(variables(f))
    singles = [1 << i for i in range(t.n) if 1 << i in t.hereditary]
    total = len(singles) ** len(names)
    out = []
    for lo in range(0, total, _GRID_CHUNK):
        rows = np.arange(lo, min(lo + _GRID_CHUNK, total))
        env = _valuation_grid(names, len(singles), rows, singles)
        empty = np.nonzero(_interpret_vec(f, env, t) == 0)[0]
        out.extend(_valuation(m, t, env, int(row)) for row in empty)
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
    R = np.zeros((1, n, n, n), dtype=bool)
    for t in m.triples:
        R[(0,) + tuple(idx[e] for e in t)] = True
    star = np.array([idx[m.star[e]] for e in m.elements])
    return R, star, idx[m.zero]


def check_postulates(m: ModelStructure) -> PostulateReport:
    """Decide every postulate on `m` as a batch of one.  Witnesses are the
    lexicographically least failures in element order; `peirce_missing` is
    every missing Peirce image, in element order."""
    R, star, zero = _tensor(m)
    flags: dict[str, bool] = {}
    witnesses: dict[str, tuple] = {}
    missing: tuple = ()
    for name, fail in _failures(R, star, zero, POSTULATE_NAMES).items():
        where = [tuple(m.elements[i] for i in w)
                 for w in np.argwhere(fail[0]).tolist()]
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

def _involutions(n: int, fix_zero: bool):
    def go(rest, acc):
        if not rest:
            yield dict(acc)
            return
        a = rest[0]
        yield from go(rest[1:], acc + [(a, a)])
        for b in rest[1:]:
            yield from go([x for x in rest[1:] if x != b], acc + [(a, b), (b, a)])
    items = list(range(n))
    if fix_zero:
        for s in go(items[1:], [(0, 0)]):
            yield s
    else:
        yield from go(items, [])


def _candidates(size: int, required: frozenset):
    """The candidate relations of an enumeration, as (star, R) pairs: star is
    the index array of an involution and R a (C, size, size, size) boolean
    tensor of at most `_CHUNK` relations.  p1/p2/crstar seed triples in or
    out, and p5/p5'/comm close triples into orbits; every union of the free
    orbits with the seeded ones is a candidate, in ascending order of its
    free-orbit bitmask.  The orbits of the star maps are found first, one
    map at a time, and a query raises TooManyValuations at the first map
    that takes the count past DEFAULT_VALUATION_CAP, before any chunk is
    built."""
    idx = range(size)
    all_triples = list(itertools.product(idx, repeat=3))
    position = {t: i for i, t in enumerate(all_triples)}
    forced_in = set()
    forced_out = set()
    if "p1" in required or "crstar" in required:
        forced_in |= {(0, a, a) for a in idx}
    if "p2" in required:
        forced_in |= {(a, a, a) for a in idx}
    if "crstar" in required:
        forced_out |= {(0, a, b) for a in idx for b in idx if a != b}
    forced = forced_in | forced_out
    plans = []                       # (star, seeded orbits, free orbits)
    total = 0
    for star in _involutions(size, fix_zero=("normal" in required)):
        transforms = []
        if "p5" in required:
            transforms.append(lambda t: (t[0], star[t[2]], star[t[1]]))
        if "p5prime" in required:
            transforms.append(lambda t: (star[t[2]], t[0], star[t[1]]))
        if "comm" in required:
            transforms.append(lambda t: (t[1], t[0], t[2]))
        orbit_of = {}
        orbits = []
        for t in all_triples:
            if t in orbit_of:
                continue
            orbit = {t}
            frontier = [t]
            while frontier:
                cur = frontier.pop()
                for tr in transforms:
                    nxt = tr(cur)
                    if nxt not in orbit:
                        orbit.add(nxt)
                        frontier.append(nxt)
            orbits.append(frozenset(orbit))
            for u in orbit:
                orbit_of[u] = orbit
        if any(o & forced_in and o & forced_out for o in orbits):
            continue
        free = [o for o in orbits if not o & forced]
        total += 1 << len(free)
        if total > DEFAULT_VALUATION_CAP:
            raise TooManyValuations(
                f"more than {DEFAULT_VALUATION_CAP} candidates (the cap)")
        plans.append((star, [o for o in orbits if o & forced_in], free))
    for star, fixed_in, free in plans:
        # a candidate's word takes free orbit i iff its bit i is set
        base = np.zeros(len(all_triples), dtype=bool)
        is_free = np.zeros(len(all_triples), dtype=bool)
        bit = np.zeros(len(all_triples), dtype=np.uint64)
        for t in itertools.chain.from_iterable(fixed_in):
            base[position[t]] = True
        for i, orbit in enumerate(free):
            for t in orbit:
                is_free[position[t]] = True
                bit[position[t]] = i
        star_idx = np.array([star[a] for a in idx])
        count = 1 << len(free)
        for lo in range(0, count, _CHUNK):
            words = np.arange(lo, min(lo + _CHUNK, count), dtype=np.uint64)
            R = base | is_free & (words[:, None] >> bit & 1).astype(bool)
            yield star_idx, R.reshape(-1, size, size, size)


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
        for row in R[ok].reshape(-1, size ** 3):
            yield ModelStructure(
                name=f"enum{size}_{count}",
                elements=elems,
                zero=elems[0],
                star={elems[a]: elems[b] for a, b in enumerate(star.tolist())},
                triples=frozenset(named[t] for t in np.flatnonzero(row)))
            count += 1


# ------------------------------------------------------------------
# Model files
# ------------------------------------------------------------------

def load_model_file(text: str) -> ModelStructure:
    name = None
    elements: tuple[str, ...] | None = None
    zero = None
    star: dict[str, str] | None = None
    triples: set[tuple[str, str, str]] | None = None
    table_rows: list[list[frozenset[str]]] | None = None
    seen: set[str] = set()
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].split("#", 1)[0].strip()
        i += 1
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head in seen:
            raise ParseError(i, f"one '{head}' line", head)
        seen.add(head)
        if head == "model":
            name = rest.strip()
        elif head == "elements":
            elements = tuple(rest.split())
        elif head == "zero":
            zero = rest.strip()
        elif head == "star":
            star = {}
            for pair in rest.split():
                a, _, b = pair.partition(":")
                if a in star:
                    raise ParseError(i, "one image per element in 'star'", pair)
                star[a] = b
        elif head == "triples":
            triples = set()
            while i < len(lines):
                row = lines[i].split("#", 1)[0].strip()
                i += 1
                if row == "end":
                    break
                if not row:
                    continue
                parts = row.split()
                if len(parts) != 3:
                    raise ParseError(i, "three elements per triple line")
                triples.add((parts[0], parts[1], parts[2]))
        elif head == "table":
            if elements is None:
                raise ParseError(i, "'elements' before 'table'")
            table_rows = []
            while len(table_rows) < len(elements) and i < len(lines):
                row = lines[i].split("#", 1)[0].strip()
                i += 1
                if not row:
                    continue
                cells = re.findall(r"\{([^}]*)\}", row)
                if len(cells) != len(elements):
                    raise ParseError(i, f"{len(elements)} cells per table row")
                table_rows.append([
                    frozenset(x.strip() for x in cell.split(",") if x.strip())
                    for cell in cells])
        else:
            raise ParseError(i, "a model file directive", head)
    if name is None or elements is None or zero is None or star is None:
        raise ParseError(0, "model, elements, zero and star sections")
    if triples is None and table_rows is None:
        raise ParseError(0, "a 'triples' or 'table' section")
    from_table = None
    if table_rows is not None:
        from_table = {(x, y, z)
                      for x, row in zip(elements, table_rows)
                      for y, cell in zip(elements, row) for z in cell}
    if triples is not None and from_table is not None and set(triples) != from_table:
        raise ParseError(0, "matching 'triples' and 'table' sections")
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
