"""The 21-element group F21 and its block partitions.

F21 is generated by f and g with f^3 = g^7 = 1 and gf = fg^2; elements are
normal forms f^a g^b (a mod 3, b mod 7), multiplied by
(a1,b1)*(a2,b2) = (a1+a2, b1*2^a2 + b2).  Partitioning the 20 non-identity
elements into an inverse-closed 6-block and a 7-block plus its inverses
turns {0,a,b,b*} into a ternary-relation structure via
R x y z  iff  block(z) is contained in block(x)block(y); every listed
partition reproduces the same composition table (the K3 table).

sigma maps a subset x of the group to the binary relation
{(k, kh) : k in G, h in x} (right translations); it is an injective
homomorphism from subsets of G to relations on G, turning the four blocks
into a concrete partition of G x G.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .models import ModelStructure

__all__ = [
    "GroupElement", "IDENTITY", "ALL_ELEMENTS", "gmul", "ginv", "gpow",
    "element_of", "format_element",
    "Partition", "PARTITIONS", "InvalidPartition", "validate_partition",
    "build_atom_structure",
    "sigma", "compose_relations", "converse_relation", "full_relation",
    "identity_relation", "SigmaReport", "check_sigma_homomorphism",
    "permutation_generators", "permutation_multiplication_agrees",
]


@dataclass(frozen=True, order=True)
class GroupElement:
    a: int  # exponent of f, mod 3
    b: int  # exponent of g, mod 7

    def __post_init__(self):
        if not (0 <= self.a < 3 and 0 <= self.b < 7):
            raise ValueError("normal form out of range")

    def __str__(self) -> str:
        return format_element(self)


IDENTITY = GroupElement(0, 0)
ALL_ELEMENTS = tuple(GroupElement(a, b) for a in range(3) for b in range(7))


def gmul(x: GroupElement, y: GroupElement) -> GroupElement:
    # moving f past g doubles the g exponent: g^b f = f g^(2b)
    return GroupElement((x.a + y.a) % 3, (x.b * pow(2, y.a, 7) + y.b) % 7)


def ginv(x: GroupElement) -> GroupElement:
    a = (-x.a) % 3
    return GroupElement(a, (-x.b * pow(2, a, 7)) % 7)


def gpow(x: GroupElement, n: int) -> GroupElement:
    out = IDENTITY
    for _ in range(n):
        out = gmul(out, x)
    return out


_ELEMENT_RE = re.compile(r"(?:f(\d*))?(?:g(\d*))?$")


def element_of(text: str) -> GroupElement:
    """Parse 'f2g3', 'g5', 'f', '1' into a normal form."""
    text = text.strip()
    if text == "1":
        return IDENTITY
    m = _ELEMENT_RE.fullmatch(text)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise ValueError(f"bad group element: {text!r}")
    a = int(m.group(1) or 1) if m.group(1) is not None else 0
    b = int(m.group(2) or 1) if m.group(2) is not None else 0
    return GroupElement(a % 3, b % 7)


def format_element(x: GroupElement) -> str:
    if x == IDENTITY:
        return "1"
    parts = []
    if x.a:
        parts.append("f" if x.a == 1 else f"f{x.a}")
    if x.b:
        parts.append("g" if x.b == 1 else f"g{x.b}")
    return "".join(parts)


# ------------------------------------------------------------------
# Partitions of the 20 non-identity elements
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    id: int
    a_set: frozenset[GroupElement]
    b_set: frozenset[GroupElement]
    bstar_set: frozenset[GroupElement]


class InvalidPartition(ValueError):
    pass


def _els(text: str) -> frozenset[GroupElement]:
    return frozenset(element_of(tok) for tok in text.split())


_A_FIRST = _els("f f2 g g2 g5 g6")
_A_SECOND = _els("f f2 fg fg2 f2g3 f2g6")

_PARTITION_DATA = [
    (_A_FIRST, "fg f2g fg2 fg3 g4 fg4 fg6", "g3 f2g2 f2g3 f2g4 fg5 f2g5 f2g6"),
    (_A_FIRST, "fg g3 fg3 fg4 fg5 fg6 f2g6", "f2g fg2 f2g2 g4 f2g3 f2g4 f2g5"),
    (_A_FIRST, "fg g3 fg3 f2g4 fg5 f2g5 f2g6", "f2g fg2 f2g2 g4 f2g3 fg4 fg6"),
    (_A_FIRST, "fg f2g2 g4 fg4 f2g4 fg5 f2g6", "f2g fg2 g3 fg3 f2g3 f2g5 fg6"),
    (_A_FIRST, "fg fg3 g4 f2g4 fg5 f2g5 f2g6", "f2g fg2 g3 f2g2 f2g3 fg4 fg6"),
    (_A_SECOND, "g f2g g3 f2g2 fg4 g5 f2g4", "g2 fg3 g4 fg5 g6 f2g5 fg6"),
    (_A_SECOND, "g f2g g3 f2g2 fg4 g5 fg6", "g2 fg3 g4 f2g4 fg5 g6 f2g5"),
    (_A_SECOND, "g f2g g3 fg3 fg4 g5 fg6", "g2 f2g2 g4 f2g4 fg5 g6 f2g5"),
]

PARTITIONS = tuple(
    Partition(i + 1, a, _els(b), _els(bs))
    for i, (a, b, bs) in enumerate(_PARTITION_DATA))


def validate_partition(p: Partition) -> None:
    non_identity = set(ALL_ELEMENTS) - {IDENTITY}
    blocks = [p.a_set, p.b_set, p.bstar_set]
    if len(p.a_set) != 6 or len(p.b_set) != 7 or len(p.bstar_set) != 7:
        raise InvalidPartition("block sizes must be 6, 7, 7")
    union = set().union(*blocks)
    if union != non_identity or sum(map(len, blocks)) != 20:
        raise InvalidPartition("blocks must partition the non-identity elements")
    if {ginv(x) for x in p.a_set} != set(p.a_set):
        raise InvalidPartition("the 6-block must be closed under inverses")
    if {ginv(x) for x in p.b_set} != set(p.bstar_set):
        raise InvalidPartition("the starred block must hold the inverses")


def build_atom_structure(p: Partition) -> ModelStructure:
    """The four-block structure: R x y z iff block(z) is a subset of the
    complex product block(x)block(y)."""
    validate_partition(p)
    blocks = {
        "0": frozenset({IDENTITY}),
        "a": p.a_set,
        "b": p.b_set,
        "b*": p.bstar_set,
    }
    names = ("0", "a", "b", "b*")
    triples = set()
    for x in names:
        for y in names:
            product = {gmul(h, k) for h in blocks[x] for k in blocks[y]}
            for z in names:
                if blocks[z] <= product:
                    triples.add((x, y, z))
    return ModelStructure(
        name=f"grouprep{p.id}", elements=names, zero="0",
        star={"0": "0", "a": "a", "b": "b*", "b*": "b"},
        triples=frozenset(triples))


# ------------------------------------------------------------------
# The right-translation relations
# ------------------------------------------------------------------

def sigma(xs) -> frozenset[tuple[GroupElement, GroupElement]]:
    return frozenset((k, gmul(k, h)) for k in ALL_ELEMENTS for h in xs)


def compose_relations(r, s) -> frozenset:
    adj: dict[GroupElement, set[GroupElement]] = {}
    for (i, j) in s:
        adj.setdefault(i, set()).add(j)
    return frozenset((i, k) for (i, j) in r for k in adj.get(j, ()))


def converse_relation(r) -> frozenset:
    return frozenset((j, i) for (i, j) in r)


def full_relation() -> frozenset:
    return frozenset((h, k) for h in ALL_ELEMENTS for k in ALL_ELEMENTS)


def identity_relation() -> frozenset:
    return frozenset((h, h) for h in ALL_ELEMENTS)


@dataclass
class SigmaReport:
    checks: list[tuple[str, bool, object]]

    @property
    def passed(self) -> bool:
        return all(ok for (_, ok, _) in self.checks)

    def failures(self):
        return [(name, witness) for (name, ok, witness) in self.checks if not ok]


def check_sigma_homomorphism(p: Partition) -> SigmaReport:
    """Audit the homomorphism identities of sigma over the four blocks and
    all unions of blocks, plus the block-level product facts.  Relations
    live as 21x21 boolean matrices during the audit."""
    import numpy as np

    validate_partition(p)
    idx = {e: i for i, e in enumerate(ALL_ELEMENTS)}
    mul = np.zeros((21, 21), dtype=np.int8)
    for h in ALL_ELEMENTS:
        for k in ALL_ELEMENTS:
            mul[idx[h], idx[k]] = idx[gmul(h, k)]
    inv = np.array([idx[ginv(h)] for h in ALL_ELEMENTS])

    def subset_vec(xs) -> np.ndarray:
        v = np.zeros(21, dtype=bool)
        for h in xs:
            v[idx[h]] = True
        return v

    def sigma_mat(vec: np.ndarray) -> np.ndarray:
        # row k has ones at columns k*h for h in the subset
        out = np.zeros((21, 21), dtype=bool)
        cols = mul[:, np.nonzero(vec)[0]]
        rows = np.repeat(np.arange(21), cols.shape[1])
        out[rows, cols.ravel()] = True
        return out

    def compose(r: np.ndarray, s: np.ndarray) -> np.ndarray:
        return (r.astype(np.uint8) @ s.astype(np.uint8)) > 0

    blocks = [subset_vec({IDENTITY}), subset_vec(p.a_set),
              subset_vec(p.b_set), subset_vec(p.bstar_set)]
    samples = []
    for mask in range(16):
        v = np.zeros(21, dtype=bool)
        for i in range(4):
            if mask >> i & 1:
                v |= blocks[i]
        samples.append(v)
    full = np.ones((21, 21), dtype=bool)
    diag = np.eye(21, dtype=bool)
    checks: list[tuple[str, bool, object]] = []

    def check(name, ok, witness=None):
        checks.append((name, bool(ok), witness))

    def names_of(vec):
        return [format_element(ALL_ELEMENTS[i]) for i in np.nonzero(vec)[0]]

    check("sigma({1}) = diagonal", (sigma_mat(subset_vec({IDENTITY})) == diag).all())
    for x in samples:
        sx = sigma_mat(x)
        star_x = np.zeros(21, dtype=bool)
        star_x[inv[np.nonzero(x)[0]]] = True
        check("sigma(G-x) = G^2 - sigma(x)",
              (sigma_mat(~x) == (full & ~sx)).all(), names_of(x))
        check("sigma(x*) = sigma(x)^-1",
              (sigma_mat(star_x) == sx.T).all(), names_of(x))
    for x in samples:
        sx = sigma_mat(x)
        for y in samples:
            sy = sigma_mat(y)
            witness = (names_of(x), names_of(y))
            check("sigma(x|y) = sigma(x)|sigma(y)",
                  (sigma_mat(x | y) == (sx | sy)).all(), witness)
            check("sigma(x&y) = sigma(x)&sigma(y)",
                  (sigma_mat(x & y) == (sx & sy)).all(), witness)
            product = np.zeros(21, dtype=bool)
            pairs = mul[np.ix_(np.nonzero(x)[0], np.nonzero(y)[0])]
            product[pairs.ravel()] = True
            check("sigma(xy) = sigma(x);sigma(y)",
                  (sigma_mat(product) == compose(sx, sy)).all(), witness)
    s0, sa, sb, sbs = (sigma_mat(b) for b in blocks)
    check("converse(sigma(a)) = sigma(a)", (sa.T == sa).all())
    check("sigma(a);sigma(a) = GxG", compose(sa, sa).all())
    check("sigma(b);sigma(b*) = GxG", compose(sb, sbs).all())
    check("sigma(b*);sigma(b) = GxG", compose(sbs, sb).all())
    for name, rel in (("a", sa), ("b", sb), ("b*", sbs)):
        check(f"sigma(0);sigma({name}) = sigma({name})",
              (compose(s0, rel) == rel).all())
        check(f"sigma({name});sigma(0) = sigma({name})",
              (compose(rel, s0) == rel).all())
    union = s0 | sa | sb | sbs
    counts = int(s0.sum() + sa.sum() + sb.sum() + sbs.sum())
    check("blocks partition GxG", union.all() and counts == 21 * 21)
    return SigmaReport(checks)


# ------------------------------------------------------------------
# The permutation presentation on {1..21}
# ------------------------------------------------------------------

_PERM_F_CYCLES = [(3, 6, 12), (5, 8, 14), (7, 10, 16), (9, 18, 15),
                  (11, 20, 17), (13, 21, 19)]
_PERM_G_CYCLES = [(2, 20, 17, 14, 11, 8, 5), (4, 16, 7, 19, 10, 21, 13)]


def _perm_from_cycles(cycles) -> dict[int, int]:
    perm = {i: i for i in range(1, 22)}
    for cycle in cycles:
        for i, x in enumerate(cycle):
            perm[x] = cycle[(i + 1) % len(cycle)]
    return perm


def permutation_generators() -> tuple[dict[int, int], dict[int, int]]:
    return _perm_from_cycles(_PERM_F_CYCLES), _perm_from_cycles(_PERM_G_CYCLES)


def _pmul(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    # right action: apply p, then q
    return {i: q[p[i]] for i in p}


def permutation_multiplication_agrees() -> bool:
    """The permutation pair generates a 21-element group isomorphic to the
    normal-form presentation, under the apply-left-then-right convention."""
    pf, pg = permutation_generators()

    def image(x: GroupElement) -> tuple:
        out = {i: i for i in range(1, 22)}
        for _ in range(x.a):
            out = _pmul(out, pf)
        for _ in range(x.b):
            out = _pmul(out, pg)
        return tuple(sorted(out.items()))

    if len({image(x) for x in ALL_ELEMENTS}) != 21:
        return False
    return all(
        image(gmul(x, y)) == tuple(sorted(_pmul(dict(image(x)),
                                                dict(image(y))).items()))
        for x, y in itertools.product(ALL_ELEMENTS, repeat=2))
