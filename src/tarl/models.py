"""Finite ternary-relation structures and their subset algebras.

A structure is a finite set K with a ternary relation R, an involution *
and a distinguished element 0.  Subsets of K form an algebra under

    X o Y  = {z : R x y z for some x in X, y in Y}
    X -> Y = {z : whenever R z x y and x in X, y in Y}
    X*     = {x* : x in X}
    ~X     = K minus X*

with variables mapped to subsets subject to heredity (truth propagates
along R0-successors).  Subsets are bitmasks and each connective is one
lookup in a read-only int64 table: a binary one reads a flat view of its
table at x << n | y, for n elements.  The evaluator of the formula grammar,
`FORMULAS.evaluate`, runs a formula over an array of valuations with these
lookups as its operations: a block of grid rows at a time for exhaustive
checks, a batch of one for `interpret`.  Every exhaustive check walks a
valuation grid (`Grid`) block by block and stops at the first block that
holds a failing row: `valid_in` and `find_invalidating_singletons` the grids
of hereditary masks and hereditary singletons, which the tables keep, and
the complex algebras of `tarl.algebra` the grid of every mask, which the
algebra's carrier keeps.  A grid's blocks grow fourfold from `_FIRST_BLOCK`
rows to `_GRID_CHUNK`.  The grid keeps each arity's first block itself, as
read-only columns, with the block size it was built for; each later block
is built once and kept, read-only, in a store.  `valid_in` and a complex
algebra's formula check are one loop, `first_failure`: a row fails when its
value lacks element 0, which is also when it does not contain {0}, the
complex algebra's identity.  The structure postulates (p1..p6 and friends) are
audited, never assumed, so deliberately defective structures can be
represented and inspected.  Each postulate is one row of a table built
once per star map and zero (and kept in a store, as later grid blocks
are), rows cheapest first: for each counterexample position, the index of
the fact it is given and of the fact it asks, out of a relation's facts
(the flat relation, True, False, R o R and R2'); it fails when the given
fact holds and the asked one does not.  The enumerator reads its orbit
permutations off the rows of p5, p5' and comm, and its seeds and refused
star maps off the rows' constant sides.  `check_postulates` audits one
structure with one comparison over every row; `enumerate_structures`
audits each chunk of candidates, held as a (B, n, n, n) boolean tensor,
one row at a time in table order, each only on the candidates that passed
the ones before.  Its candidates are closed under the postulates that the
required ones imply (`_IMPLIED`), which only drops candidates that cannot
pass; the required ones are all audited.
"""

from __future__ import annotations

import itertools
import operator
import re
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .formulas import (
    FORMULAS, And, Cache, Formula, Fusion, Imp, Neg, Or, ParseError,
    UnassignedVariable, end_of_file, file_lines, shared_variables, variables,
)

__all__ = [
    "ModelStructure", "Valuation", "PostulateReport", "ValidityResult",
    "Shared", "SemanticWitness", "ClosureViolation", "InvalidStructure",
    "UnassignedVariable",
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
# the bound of each array store, in bytes
GRID_CACHE_BYTES = 16 << 20

POSTULATE_NAMES = ("p1", "p2", "p3", "p4", "p5", "p6",
                   "comm", "p3prime", "p5prime", "normal", "crstar", "peirce")


class TooManyValuations(ValueError):
    pass


class ClosureViolation(AssertionError):
    pass


class InvalidStructure(ValueError):
    """Fields of a ModelStructure that do not fit together; `field` names
    the one at fault."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class ModelStructure:
    name: str
    elements: tuple[str, ...]
    zero: str
    # a read-only view of the structure's own copy of the map it was given
    star: Mapping[str, str]
    triples: frozenset[tuple[str, str, str]]
    # built on first use by tables_for and _tensor; the fields they derive
    # from are frozen
    _tables: "_Tables | None" = field(default=None, init=False, repr=False,
                                      compare=False)
    _relation: "tuple | None" = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        star = dict(self.star)
        object.__setattr__(self, "star", MappingProxyType(star))
        known = set(self.elements)
        if len(known) != len(self.elements):
            raise InvalidStructure("elements", "elements must be distinct")
        if self.zero not in known:
            raise InvalidStructure("zero", "zero must be an element")
        if star.keys() != known:
            raise InvalidStructure("star", "star must be a total map on the elements")
        if not known.issuperset(star.values()):
            outside = set(star.values()) - known
            raise InvalidStructure("star", f"star maps to unknown element {min(outside)}")
        if not known.issuperset(itertools.chain.from_iterable(self.triples)):
            # the least bad triple, so the message does not follow the hash seed
            t = min(t for t in self.triples if not known.issuperset(t))
            e = next(e for e in t if e not in known)
            raise InvalidStructure("triples", f"triple {t} mentions unknown element {e}")

    @classmethod
    def _unchecked(cls, name, elements, zero, star, triples) -> "ModelStructure":
        """A structure whose fields fit together by construction, built
        without `__post_init__`: `star` must already be a read-only view of a
        map that nothing else holds.  Only the enumerator builds structures
        this way: the checks were most of the cost of one of its yields."""
        m = object.__new__(cls)
        m.__dict__.update(name=name, elements=elements, zero=zero, star=star,
                          triples=triples, _tables=None, _relation=None)
        return m

    def __reduce__(self):
        # pickle, copy and deepcopy rebuild from the fields, so the copy has
        # its own star map and builds its own tables (a view does not pickle)
        return type(self), (self.name, self.elements, self.zero, dict(self.star),
                            self.triples)

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
        self.hereditary_grid = shared_grid(self.hereditary)
        self.singleton_grid = shared_grid(self.singletons)
        self.lacks_zero = masks & self.zero_mask == 0     # [X]: 0 is not in X
        for table in (self.fus, self.imp, self.star, self.neg, self.lacks_zero):
            table.flags.writeable = False    # shared by every caller of tables_for
        self.carrier = None                  # algebra._carrier builds it at first use
        # the connectives for FORMULAS.evaluate, on masks or arrays of masks:
        # each binary one reads a flat view of its table at x << n | y, one
        # index where [x, y] would take numpy's slower 2-d fancy indexing; n
        # is a numpy value, as a Python int is converted at every shift
        fus, imp = self.fus.reshape(-1), self.imp.reshape(-1)
        n = np.array(n)
        self.ops = {Neg: self.neg.__getitem__, And: operator.and_, Or: operator.or_,
                    Imp: lambda x, y: imp[x << n | y], Fusion: lambda x, y: fus[x << n | y]}

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


def _grid_columns(allowed, arity: int, lo: int, hi: int) -> np.ndarray:
    """The (arity, hi - lo) masks of rows lo..hi-1 of the grid of every
    assignment of the masks `allowed` to `arity` variables, the first
    variable most significant, so row order is the lexicographic order of
    assignments."""
    base = len(allowed)
    powers = base ** np.arange(arity - 1, -1, -1, dtype=np.int64)
    digits = np.arange(lo, hi, dtype=np.int64) // powers[:, None] % base
    cols = np.asarray(allowed, dtype=np.int64)[digits]
    cols.flags.writeable = False
    return cols


# the columns of later grid blocks, by their arguments
_GRID_CACHE = Cache("grid blocks", GRID_CACHE_BYTES, operator.attrgetter("nbytes"))


class Grid:
    """The grid of every assignment of the masks `allowed` (a tuple or a
    range) to some variables, the first variable most significant, in
    blocks that grow fourfold from `_FIRST_BLOCK` rows to `_GRID_CHUNK`.
    The grid keeps each arity's first block, as a tuple of read-only
    columns, with the block size it was built for: once that size changes,
    the block is built again and replaces it.  The blocks after it are kept
    in `_GRID_CACHE`.  A grid of one row or none keeps nothing, so it keeps
    blocks for no more arities than the cap allows."""

    def __init__(self, allowed):
        self.allowed = allowed
        self.first: dict[int, tuple] = {}    # arity: (block size, end, columns)

    def blocks(self, arity: int):
        """The rows in the grid for `arity` variables, and its blocks in row
        order, each as its end and its columns; a grid past
        DEFAULT_VALUATION_CAP raises TooManyValuations."""
        total = len(self.allowed) ** arity
        if total > DEFAULT_VALUATION_CAP:
            raise TooManyValuations(
                f"{total} valuations exceeds cap {DEFAULT_VALUATION_CAP}")
        size = min(_FIRST_BLOCK, _GRID_CHUNK)
        kept = self.first.get(arity)
        if kept is None or kept[0] != size:
            end = min(size, total)
            kept = size, end, tuple(_grid_columns(self.allowed, arity, 0, end))
            if total > 1:
                self.first[arity] = kept
        _, end, cols = kept
        if end == total:
            return total, ((end, cols),)
        return total, itertools.chain(((end, cols),), self._later(arity, end, total))

    def _later(self, arity: int, lo: int, total: int):
        """The blocks after the first, which ends at lo."""
        size = min(4 * lo, _GRID_CHUNK)
        while lo < total:
            hi = min(lo + size, total)
            key = self.allowed, arity, lo, hi
            cols = _GRID_CACHE.get(key)
            yield hi, _GRID_CACHE.keep(key, _grid_columns(*key)) if cols is None else cols
            lo, size = hi, min(4 * size, _GRID_CHUNK)


_GRIDS = weakref.WeakValueDictionary()  # masks: the live Grid of those masks


def shared_grid(masks) -> Grid:
    """The one live Grid of the masks, so that every table and carrier
    whose grid holds the same masks shares its first blocks."""
    masks = tuple(masks)
    grid = _GRIDS.get(masks)
    if grid is None:
        grid = _GRIDS[masks] = Grid(masks)
    return grid


def grid_blocks(names: list[str], grid: Grid):
    """The blocks of `grid` for the variables `names`, in row order: for
    each, the rows up to its end and its columns by name.  A grid past
    DEFAULT_VALUATION_CAP raises TooManyValuations before the first block."""
    for end, cols in grid.blocks(len(names))[1]:
        yield end, dict(zip(names, cols))


def first_failure(f: Formula, grid: Grid, ops, lacks_zero, subsets):
    """The validity loop: the rows of `grid` for f's variables are evaluated
    block by block with the operations `ops`, and a row fails when its value
    lacks element 0 (`lacks_zero[value]`).  Returns the rows evaluated, up to
    the end of the first block with a failing row, the rows in the grid, and
    the first failing row's assignment decoded by `subsets` (None when no
    row fails).  `valid_in` runs it over the hereditary masks with the mask
    tables, and a complex algebra's formula check over every mask with its
    tabulated connectives: its identity is {0}, which a value contains when
    it holds element 0."""
    names = sorted(variables(f))
    total, blocks = grid.blocks(len(names))
    for end, cols in blocks:
        bad = lacks_zero[FORMULAS.evaluate(f, dict(zip(names, cols)), ops)]
        row = bad.argmax()           # the first failing row, or 0 when none fails
        if bad[row]:
            return end, total, {name: subsets[col.item(row)] for name, col in zip(names, cols)}
    return total, total, None


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
    end, total, failing = first_failure(f, t.hereditary_grid, t.ops, t.lacks_zero, t.subsets)
    if failing is None:
        return ValidityResult(True, valuations=end, grid=total)
    return ValidityResult(False, Valuation(failing), end, total)


def find_invalidating_singletons(m: ModelStructure, f: Formula) -> list[Valuation]:
    """All singleton-valued valuations sending the whole formula to the
    empty set, in lexicographic order of the assignments.  The grid of
    hereditary singletons is walked in the blocks `valid_in` uses, under
    the same cap: past it, TooManyValuations before any row is evaluated."""
    t = tables_for(m)
    names = sorted(variables(f))
    out = []
    for _, cols in t.singleton_grid.blocks(len(names))[1]:
        rows = np.logical_not(FORMULAS.evaluate(f, dict(zip(names, cols)), t.ops)).nonzero()[0]
        if rows.size:
            found = [map(t.subsets.__getitem__, col[rows].tolist()) for col in cols]
            out.extend(map(Valuation, map(dict, map(zip, itertools.repeat(names), zip(*found)))))
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
        """Whether every postulate of the collection `names` holds; a bare
        string, or a name not in POSTULATE_NAMES, is refused."""
        return all(self.flags[n] for n in _postulate_set(names))

    def payload(self) -> dict:
        """The report in plain values, tuples as lists, for `--json`."""
        return {"flags": dict(self.flags),
                "witnesses": {k: list(v) for k, v in self.witnesses.items()},
                "peirce_missing": [list(t) for t in self.peirce_missing]}


def _compose(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """out[i, u, v] iff some x has left[i, u, x] and right[i, x, v], as one
    batched matrix product (float32 counts are exact up to 2**24)."""
    return left.astype(np.float32) @ right.astype(np.float32) > 0


# the blocks of an audit's facts, in their order (see `_Audit`)
_R, _TRUE, _FALSE, _RR, _R2P = range(5)


def _block(R: np.ndarray, block: int, lo: int, hi: int) -> np.ndarray:
    """Entries lo..hi-1 of one block of the facts of each relation of the
    batch R, as a (B, hi - lo) array: a slice of the flat relation, or of a
    composition, whose entries lo..hi-1 (multiples of n*n) are rows
    lo/n**2..hi/n**2 of its product, so only those rows are composed."""
    B, n = R.shape[:2]
    if block == _R:
        return R.reshape(B, -1)[:, lo:hi]
    right = R if block == _RR else R.transpose(0, 2, 1, 3)
    rows = R.reshape(B, n * n, n)[:, lo // n ** 2:hi // n ** 2]
    return _compose(rows, right.reshape(B, n, n * n)).reshape(B, -1)


def _reader(block: int, index: np.ndarray, offsets, n: int):
    """How `_passing` reads the facts `index`, all in `block`: a constant, or
    (block, lo, hi, gather) for the block's entries lo..hi-1, the least span
    of whole n*n rows that holds them, and the gather into that span, None
    when the facts are the whole span in order."""
    if block in (_TRUE, _FALSE):
        return np.bool_(block == _TRUE)
    local = index - offsets[block]
    row = n * n
    lo, hi = int(local.min()) // row * row, -(-(int(local.max()) + 1) // row) * row
    if local.size == hi - lo and (local == np.arange(lo, hi)).all():
        return block, lo, hi, None
    gather = local - lo
    gather.flags.writeable = False
    return block, lo, hi, gather


class _Row(NamedTuple):
    powers: list[int]                # the place value of each quantifier in C order
    start: int                       # where the row begins in the table's arrays
    given: np.ndarray                # [position]: the index of the fact given
    asked: np.ndarray                # [position]: the index of the fact asked


class _Audit:
    """The postulates on relations over 0..n-1 with star map `star` and
    zero `zero`, one row each, cheapest first, of a table of gathers built
    once per (star, zero) by `_audit_table` and shared, read-only.

    The facts of a relation are one vector of blocks (`_block`): the flat
    relation (n**3, as in `_tensor`), True, False, R o R (n**4, R2 a b c d:
    R a b x and R x c d) and R2' (n**4, held at [b, c, a, d]; R2' a b c d:
    R b c x and R a x d); block k starts at offsets[k].  A row lists its
    postulate's counterexample positions in C order, each as the index of
    the fact it is given and of the fact it asks; a position fails when
    given > asked.  `given` and `asked` are all rows end to end, and row k
    is positions starts[k]..starts[k+1]-1.  The rows of p5, p5' and comm ask
    within the flat relation, so their `asked` is a permutation of the
    triples' flat indices under an involutive star: `_candidates` closes
    triples into its orbits, and seeds them from the rows' constant sides
    (`seeds`).  The only state that changes is the cache of `plan`, whose
    arrays `nbytes` counts along with the table's."""

    def __init__(self, star: tuple[int, ...], zero: int):
        n, s = len(star), np.array(star)
        self.n, self.key = n, (star, zero)
        self.offsets = offsets = np.cumsum([0, n ** 3, 1, 1, n ** 4])
        true, false = offsets[_TRUE], offsets[_FALSE]

        def at(block, *digits):      # the index of a tuple of a block's entries
            return offsets[block] + np.ravel_multi_index(digits, (n,) * len(digits))

        e = np.arange(n)
        i, j = np.indices((n, n)).reshape(2, -1)
        a, b, c = np.indices((n, n, n)).reshape(3, -1)
        w, x, y, z = np.indices((n, n, n, n)).reshape(4, -1)
        every = np.full(n, true)
        rows = {                     # name: (quantifiers, given, asked)
            "p6": (1, every, np.where(s[s] == e, true, false)),           # a** = a
            "normal": (1, every, np.where((e == zero) & (s[zero] != zero), false, true)),
            "p1": (1, every, at(_R, zero, e, e)),                         # R 0 a a
            "p2": (1, every, at(_R, e, e, e)),                            # R a a a
            "crstar": (2, np.where(i == j, true, at(_R, zero, i, j)),      # R 0 a b iff a = b
                       np.where(i == j, at(_R, zero, i, j), false)),
            "p5": (3, at(_R, a, b, c), at(_R, a, s[c], s[b])),            # R a b c: R a c* b*
            "p5prime": (3, at(_R, a, b, c), at(_R, s[c], a, s[b])),       # R a b c: R c* a b*
            "comm": (3, at(_R, a, b, c), at(_R, b, a, c)),                # R a b c: R b a c
            "peirce": (3, at(_R, a, b, c), at(_R, c, s[b], a)),           # R a b c: R c b* a
            "p4": (3, at(_RR, zero, a, b, c), at(_R, a, b, c)),           # R2 0 a b c: R a b c
            "p3": (4, at(_RR, w, x, y, z), at(_RR, w, y, x, z)),          # R2 a b c d: R2 a c b d
            "p3prime": (4, at(_RR, w, x, y, z), at(_R2P, x, y, w, z)),    # R2 a b c d: R2' a b c d
        }
        self.given = np.concatenate([given for _, given, _ in rows.values()])
        self.asked = np.concatenate([asked for _, _, asked in rows.values()])
        self.starts = np.cumsum([0] + [n ** arity for arity, _, _ in rows.values()])
        for table in (self.offsets, self.given, self.asked, self.starts):
            table.flags.writeable = False
        # what `_AUDITS` counts, until `plan` adds its arrays
        self.nbytes = sum(table.nbytes for table in (self.offsets, self.given,
                                                     self.asked, self.starts))
        starts = self.starts.tolist()
        self.rows = {name: _Row([n ** p for p in range(arity - 1, -1, -1)], start,
                                self.given[start:end], self.asked[start:end])
                     for (name, (arity, _, _)), start, end in zip(rows.items(), starts, starts[1:])}
        self._plans: dict[str, tuple] = {}

    def plan(self, name: str) -> tuple[bool | None, tuple]:
        """How `_passing` reads a row, built at its first use: (fixed,
        terms).  The row's positions are split by the pair of blocks they
        read.  A position given False or asked True never fails, and one
        given True and asked False always does; `fixed` says whether the
        star map alone fails the row (p6 and normal read no relation), and
        is None when the relation decides.  Each other pair of blocks is one
        term: its given and asked readers (`_reader`) and a vector of ones
        as long as its positions."""
        if name not in self._plans:
            row, n, offsets = self.rows[name], self.n, self.offsets
            # the blocks of each position's given and asked facts, as g * 8 + k
            pairs = (offsets.searchsorted(row.given, "right") * 8
                     + offsets.searchsorted(row.asked, "right") - 9)
            codes = sorted(set(pairs.tolist()))
            always, terms = False, []
            for g, k in (divmod(code, 8) for code in codes):
                if g == _FALSE or k == _TRUE:        # never fails
                    continue
                if (g, k) == (_TRUE, _FALSE):        # fails whatever the relation
                    always = True
                    continue
                given, asked = row.given, row.asked
                if len(codes) > 1:
                    part = pairs == g * 8 + k
                    given, asked = given[part], asked[part]
                terms.append((_reader(g, given, offsets, n), _reader(k, asked, offsets, n),
                              np.ones(len(given), np.float32)))
            self._plans[name] = True if always else None if terms else False, tuple(terms)
            # the plan's own arrays: each term's vector of ones and gathers
            grown = sum(ones.nbytes + sum(reader[3].nbytes for reader in readers
                                          if isinstance(reader, tuple) and reader[3] is not None)
                        for *readers, ones in terms)
            self.nbytes += grown
            _AUDITS.grew(self.key, self)
        return self._plans[name]

    def seeds(self, names) -> tuple[np.ndarray, np.ndarray, bool]:
        """The constant sides of the rows `names`, as `plan` splits them: the
        triples (flat indices) asked where True is given, which every passing
        relation has, those given where False is asked, which none has, and
        whether a position is given True and asked False, which none passes."""
        true, false = self.offsets[_TRUE], self.offsets[_FALSE]
        given = np.concatenate([self.given[:0], *(self.rows[name].given for name in names)])
        asked = np.concatenate([self.asked[:0], *(self.rows[name].asked for name in names)])
        given_true, asked_false = given == true, asked == false
        return (asked[given_true & (asked < true)], given[asked_false & (given < true)],
                bool((given_true & asked_false).any()))


# a table holds about 22,000 indices at n = 8 (170 KB, 293 KB with the plans
# of all twelve rows) and 4.5 million at n = 32 (36 MB, past the store's bound)
_AUDITS = Cache("audit tables", GRID_CACHE_BYTES, operator.attrgetter("nbytes"))


def _audit_table(star: tuple[int, ...], zero: int) -> _Audit:
    """The `_Audit` of (star, zero), built at its first use and kept in
    `_AUDITS`."""
    return _AUDITS.get((star, zero)) or _AUDITS.keep((star, zero), _Audit(star, zero))


def _read(R: np.ndarray, reader, blocks: dict) -> np.ndarray:
    """The facts a `_reader` names, for each relation of the batch R; the
    block spans it reads are kept in `blocks`, so a row composes each once."""
    if not isinstance(reader, tuple):
        return reader
    block, lo, hi, gather = reader
    span = blocks.get((block, lo, hi))
    if span is None:
        span = blocks[block, lo, hi] = _block(R, block, lo, hi)
    return span if gather is None else span[:, gather]


def _passing(R: np.ndarray, star: np.ndarray, zero: int, required) -> np.ndarray:
    """The indices, ascending, of the relations of the batch R that pass
    every required postulate.  The postulates are read off the rows of
    `_audit_table` in order, cheapest first, each on the relations that
    passed the ones before it, so a costly postulate sees only the
    survivors.  A row that reads no relation (p6, normal) is decided once
    for the batch; each other term compares its two readers: a whole span
    of a block in order is read as it is, anything else by one gather, and
    a composition only over the rows its span needs (p4: R[:, zero] o R)."""
    audit = _audit_table(tuple(star.tolist()), zero)
    rows = np.arange(len(R))
    for name in [name for name in audit.rows if name in required]:
        fixed, terms = audit.plan(name)
        if fixed is not None:
            if fixed:
                return rows[:0]
            continue
        if not len(rows):
            break
        blocks: dict = {}
        bad = 0
        for given, asked, ones in terms:
            # a float32 product counts a row's failures faster than `any`
            # along short rows
            bad = bad + (_read(R, given, blocks) > _read(R, asked, blocks)).astype(np.float32) @ ones
        ok = bad == 0
        if not ok.all():
            R, rows = R[ok], rows[ok]
    return rows


def _flat(m: ModelStructure) -> tuple[np.ndarray, np.ndarray, int]:
    """The relation of `m` as a batch of one, its star as indices, 0's
    index; the arrays are read-only."""
    idx = {e: i for i, e in enumerate(m.elements)}
    n = len(m.elements)
    R = np.zeros(n ** 3, dtype=bool)
    R[[(idx[a] * n + idx[b]) * n + idx[c] for a, b, c in m.triples]] = True
    star = np.array([idx[m.star[e]] for e in m.elements])
    R.flags.writeable = star.flags.writeable = False
    return R.reshape(1, n, n, n), star, idx[m.zero]


def _tensor(m: ModelStructure) -> tuple[np.ndarray, np.ndarray, int]:
    """`_flat(m)`, built on first use and held on the structure."""
    if m._relation is None:
        object.__setattr__(m, "_relation", _flat(m))
    return m._relation


def check_postulates(m: ModelStructure) -> PostulateReport:
    """Decide every postulate on `m` with one comparison of its facts, given
    against asked, over every row of `_audit_table` end to end, and one
    `nonzero`.  `searchsorted` finds where each postulate's failures begin
    among the hits, and only the first of each is decoded (the C-order index
    of a position is its tuple's digits base n), so witnesses are the
    lexicographically least failures in element order.  Peirce's failing
    triples ask for their missing images, whose flat indices sort them in
    element order: `peirce_missing` is each once, and its witness the least.
    A structure of more than 32 elements, whose p3 and p3' rows would have
    more than DEFAULT_VALUATION_CAP positions, raises TooManyValuations
    before anything is built."""
    n, elems = len(m.elements), m.elements
    if n ** 4 > DEFAULT_VALUATION_CAP:
        raise TooManyValuations(
            f"{n} elements: {n ** 4} audit positions exceeds cap {DEFAULT_VALUATION_CAP}")
    R, star, zero = _tensor(m)
    audit = _audit_table(tuple(star.tolist()), zero)
    facts = np.concatenate([R.reshape(-1), [True, False], _block(R, _RR, 0, n ** 4)[0],
                            _block(R, _R2P, 0, n ** 4)[0]])
    hits = (facts[audit.given] > facts[audit.asked]).nonzero()[0]
    ends = hits.searchsorted(audit.starts).tolist()
    flags: dict[str, bool] = dict.fromkeys(POSTULATE_NAMES)   # keys in report order
    witnesses: dict[str, tuple] = {}
    missing: tuple = ()
    for (name, row), lo, hi in zip(audit.rows.items(), ends, ends[1:]):
        flags[name] = lo == hi
        if lo == hi:
            continue
        if name == "peirce":
            images = sorted(set(audit.asked[hits[lo:hi]].tolist()))
            missing = tuple([(elems[i // n ** 2], elems[i // n % n], elems[i % n])
                             for i in images])
            witnesses[name] = missing[0]
        else:
            position = int(hits[lo]) - row.start
            witnesses[name] = tuple([elems[position // p % n] for p in row.powers])
    return PostulateReport(flags, {n: witnesses[n] for n in flags if n in witnesses}, missing)


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

    shared = shared_variables(a, b)
    if shared:
        return Shared(shared)
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

def _postulate_set(names) -> frozenset:
    """`names` as a set of postulate names; a bare string, or a name not in
    POSTULATE_NAMES, is refused."""
    if isinstance(names, str):
        raise TypeError(f"postulates are a collection of names, not the string {names!r}")
    names = frozenset(names)
    unknown = names - set(POSTULATE_NAMES)
    if unknown:
        raise ValueError(f"unknown postulates: {sorted(unknown)}")
    return names


# (premises, postulate): every relation that meets the premises meets the
# postulate too.  comm: R a b c and p1's R 0 a a give R2 0 a b c, p3 turns
# that into R2 0 b a c, and p4 turns that into R b a c
_IMPLIED = ((frozenset({"p1", "p3", "p4"}), "comm"),)


def _candidates(size: int, required):
    """The candidate relations of an enumeration, as (star, R) pairs: star is
    the index array of an involution and R a (C, size, size, size) boolean
    tensor of at most `_CHUNK` relations.  The star maps are the involutions
    of the elements that no required row refuses, in lexicographic order.  A
    triple is its flat index, as in `_tensor`; the rows' constant sides seed
    triples in or out (`_Audit.seeds`), and p5/p5'/comm are each a
    permutation of the indices, the `asked` of its row of `_audit_table`,
    that closes triples into orbits, each labelled by its least index.  The
    orbits are closed under the required postulates and under those they
    imply (`_IMPLIED`), and the seeds fill or empty whole closed orbits.
    Every union of the free orbits with the seeded ones is a candidate, in
    ascending order of its free-orbit bitmask, whose bit i is the orbit with
    the i-th least top, the largest label that its triples have without the
    implications.  Comparing two candidates' words then compares the words
    they have without the implications, so the closed candidates come in
    the order that they have among the unclosed ones, and a query that
    implies nothing has the unclosed stream itself (its tops are its
    labels).

    The call plans the whole query before it returns the generator of
    chunks: it checks the arguments and `_CHUNK`, which must be a power of
    two, and finds the orbits of the star maps one map at a time, raising
    TooManyValuations at the first map that takes the count past
    DEFAULT_VALUATION_CAP.  A star map's first chunk is one table, yielded
    as it is (read-only); each later chunk is that table OR-ed with one n**3
    row, since its words differ from the first chunk's only in the bits
    above those of `_CHUNK - 1`."""
    required = _postulate_set(required)
    if size < 1:
        raise ValueError(f"a structure needs at least one element, not {size}")
    if _CHUNK < 1 or _CHUNK & (_CHUNK - 1):
        raise ValueError(f"the chunk size must be a power of two, not {_CHUNK}")
    closed = required | {name for premises, name in _IMPLIED if premises <= required}
    n = size
    triples = np.arange(n ** 3)
    plans = []                       # (star, seeded in, free, bit, candidates)
    total = 0
    for star in itertools.permutations(range(n)):
        if any(star[j] != i for i, j in enumerate(star)):
            continue
        audit = _audit_table(star, 0)
        forced_in, forced_out, refused = audit.seeds(required)
        perms = {name: audit.rows[name].asked for name in ("p5", "p5prime", "comm")}
        star = np.array(star)
        # each triple's orbit label under the required maps, then under the
        # implied ones too; `top` holds, at each closed label, the largest
        # unclosed label of its orbit (the label itself when none is implied)
        unclosed = _orbits(triples, [perm for name, perm in perms.items() if name in required])
        label = _orbits(unclosed, [perm for name, perm in perms.items() if name in closed])
        top = np.zeros(n ** 3, dtype=np.intp)
        np.maximum.at(top, label, unclosed)
        seeded_in = np.bincount(label[forced_in], minlength=n ** 3) > 0
        seeded_out = np.bincount(label[forced_out], minlength=n ** 3) > 0
        if refused or (seeded_in & seeded_out).any():
            continue
        free = (label == triples) & ~seeded_in & ~seeded_out
        count = 1 << int(free.sum())
        total += count
        if total > DEFAULT_VALUATION_CAP:
            raise TooManyValuations(
                f"more than {DEFAULT_VALUATION_CAP} candidates (the cap)")
        # a triple of the i-th free orbit, in the order of their tops, is in
        # a candidate iff bit i of its word is set
        tops = np.zeros(n ** 3, dtype=bool)
        tops[top[free]] = True
        bit = (np.cumsum(tops) - tops)[top[label]].astype(np.uint64)
        plans.append((star, seeded_in[label], free[label], bit, count))
    return _chunks(plans, n)


def _orbits(label: np.ndarray, perms) -> np.ndarray:
    """Each triple's least label over its orbit under the permutations
    `perms`, starting from `label`."""
    last = None
    while last is None or (label != last).any():
        last = label
        for perm in perms:
            label = np.minimum(label, label[perm])
    return label


def _chunks(plans, n: int):
    """The chunks of each (star, base, is_free, bit, count) plan of
    `_candidates`, in order.  Word lo + j, for lo a multiple of the power of
    two `_CHUNK` and j < `_CHUNK`, is lo | j, so its relation is the first
    chunk's row j OR-ed with the row of lo; count is a power of two, so
    every chunk after the first is full."""
    for star, base, is_free, bit, count in plans:
        words = np.arange(min(_CHUNK, count), dtype=np.uint64)
        low = (base | is_free & (words[:, None] >> bit & 1).astype(bool)).reshape(-1, n, n, n)
        low.flags.writeable = False          # every later chunk of this map reads it
        yield star, low
        for lo in range(_CHUNK, count, _CHUNK):
            high = is_free & (np.uint64(lo) >> bit & 1).astype(bool)
            yield star, low | high.reshape(n, n, n)


def enumerate_structures(size: int, required):
    """Yield every structure on `size` elements with an involutive star
    whose audit passes the required postulates, named enum{size}_0,
    enum{size}_1, ...  `required` is a collection of names from
    POSTULATE_NAMES, never a bare string.  Star maps that are not
    involutions are never tried, even when p6 is not required.  Exhaustive
    over the raw encoding of `_candidates` (no isomorphism reduction), which
    refuses a bad argument, or a query of more than DEFAULT_VALUATION_CAP
    candidates with TooManyValuations, when the first structure is asked
    for and before any chunk is built.  Its candidates are seeded from the
    constant sides of the required audit rows and closed under the
    postulates that the required ones imply (`_IMPLIED`): the candidates
    that are not cannot pass, and the closed orbits are numbered by the
    largest unclosed orbit label they hold, so the yields, their order and
    their names are those of the unclosed candidates.  Names follow the
    query as stated, and stating a postulate that the others imply can
    reorder the yields: (4, p1..p6) and (4, p1..p6, comm) give the same 852
    structures, but their orders first differ at enum4_5.  Each chunk of
    candidates is one table OR-ed with one row, and is audited as one
    boolean tensor by `_passing`, one required row at a time in table
    order, cheapest first (p6 and normal once for the chunk, then single
    gathers of R, peirce among them), the compositions (p4, p3, p3') last
    and only on the candidates still passing.  A structure is built only
    for those that pass them all, in candidate order.  Its fields fit
    together by construction, so it skips the checks of `__post_init__`
    (`ModelStructure._unchecked`), and the structures of one chunk share its
    one read-only map of star images."""
    required = _postulate_set(required)
    chunks = _candidates(size, required)
    elems = tuple(str(i) for i in range(size))
    named = list(itertools.product(elems, repeat=3))
    count = 0
    for star, R in chunks:
        # one star map per chunk; a yield makes no numpy call, its row is a list
        images = MappingProxyType({elems[a]: elems[b] for a, b in enumerate(star.tolist())})
        for row in R[_passing(R, star, 0, required)].reshape(-1, size ** 3).tolist():
            yield ModelStructure._unchecked(f"enum{size}_{count}", elems, elems[0], images,
                                            frozenset(itertools.compress(named, row)))
            count += 1


# ------------------------------------------------------------------
# Model files
# ------------------------------------------------------------------

def load_model_file(text: str) -> ModelStructure:
    """The structure a model file describes; a ParseError names the line
    and column at fault.  Whether the sections fit together is checked by
    ModelStructure, and its error is placed at the section it names."""
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
    try:
        return ModelStructure(name, elements, zero, star, frozenset(final))
    except InvalidStructure as e:
        # the directive that gave the field; triples may come from a table
        head = e.field if e.field in seen else "table"
        n, col = seen[head]
        raise ParseError(col, f"a valid '{head}' section ({e})", head, n) from None


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
