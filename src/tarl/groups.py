"""The 21-element group F21 and its block partitions.

F21 is generated by f and g with f^3 = g^7 = 1 and gf = fg^2; elements are
normal forms f^a g^b (a mod 3, b mod 7), multiplied by
(a1,b1)*(a2,b2) = (a1+a2, b1*2^a2 + b2).  Partitioning the 20 non-identity
elements into an inverse-closed 6-block and a 7-block plus its inverses
turns {0,a,b,b*} into a ternary-relation structure via
R x y z  iff  block(z) is contained in block(x)block(y); every listed
partition reproduces the same composition table (the K3 table).  The
products come from `_PRODUCT`, the 21 x 21 table of element indices built
once from gmul, and blocks and their complex products are bitmasks over
ALL_ELEMENTS; sigma images read the same table.

sigma maps a subset x of the group to the binary relation
{(k, kh) : k in G, h in x} (right translations); it is an injective
homomorphism from subsets of G to relations on G, turning the four blocks
into a concrete partition of G x G.  The audit of that claim is the shared
term evaluator, `TERMS.evaluate`, run twice for each operation of the term
grammar: once in the complex algebra of the block structure, on every pair
of unions of blocks, and once on their sigma images, a stack of 21 x 21
boolean matrices.  The set-based relation operations the audit replaced
live on in the tests, as its oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .algebra import TERMS, _Masks, _Matrices, parse_ra_term
from .models import ModelStructure

__all__ = [
    "GroupElement", "IDENTITY", "ALL_ELEMENTS", "gmul", "ginv", "gpow",
    "element_of", "format_element",
    "Partition", "PARTITIONS", "InvalidPartition", "validate_partition",
    "build_atom_structure", "SigmaReport", "check_sigma_homomorphism",
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


def _blocks(p: Partition) -> dict[str, frozenset[GroupElement]]:
    """Each atom's block of the group."""
    return {"0": frozenset({IDENTITY}), "a": p.a_set, "b": p.b_set, "b*": p.bstar_set}


# _PRODUCT[i, j]: the index in ALL_ELEMENTS of ALL_ELEMENTS[i] * ALL_ELEMENTS[j]
_INDEX = {x: i for i, x in enumerate(ALL_ELEMENTS)}
_PRODUCT = np.array([[_INDEX[gmul(x, y)] for y in ALL_ELEMENTS] for x in ALL_ELEMENTS])
_PRODUCT.flags.writeable = False


def build_atom_structure(p: Partition) -> ModelStructure:
    """The four-block structure: R x y z iff block(z) is a subset of the
    complex product block(x)block(y).  Blocks and their products are
    bitmasks over ALL_ELEMENTS, the products read from `_PRODUCT`."""
    validate_partition(p)
    blocks = _blocks(p)
    names = tuple(blocks)
    member = np.zeros((len(names), 21), dtype=bool)       # [atom, element]
    for i, atom in enumerate(names):
        member[i, [_INDEX[x] for x in blocks[atom]]] = True
    masks = member @ (1 << np.arange(21))
    pairs = member[:, None, :, None] & member[None, :, None, :]     # [x, y, h, k]
    product = np.bitwise_or.reduce(np.where(pairs, 1 << _PRODUCT, 0), axis=(2, 3))
    holds = masks & ~product[:, :, None] == 0                        # [x, y, z]
    return ModelStructure(
        name=f"grouprep{p.id}", elements=names, zero="0",
        star={"0": "0", "a": "a", "b": "b*", "b*": "b"},
        triples=frozenset((names[x], names[y], names[z]) for x, y, z in zip(*holds.nonzero())))


# ------------------------------------------------------------------
# The sigma audit: the term evaluator run twice
# ------------------------------------------------------------------

# One term per operation of the term grammar.  The complex algebra's x;y is
# fusion y x, while sigma(x);sigma(y) = sigma(xy): the x;y check holds as
# written because every block structure commutes.
_OPERATIONS = tuple(map(parse_ra_term, ("x + y", "x . y", "x;y", "-x", "x^", "id", "0", "1")))


@dataclass
class SigmaReport:
    checks: list[tuple[str, bool, object]]

    @property
    def passed(self) -> bool:
        return all(ok for (_, ok, _) in self.checks)

    def failures(self):
        return [(name, witness) for (name, ok, witness) in self.checks if not ok]


def check_sigma_homomorphism(p: Partition) -> SigmaReport:
    """Whether sigma is a homomorphism on the unions of p's blocks."""
    return _audit(build_atom_structure(p), _blocks(p))


def _sigma_stack(m: ModelStructure, blocks: dict[str, frozenset[GroupElement]]) -> np.ndarray:
    """sig[mask]: sigma of the union of the blocks of the atoms in mask."""
    sig = np.zeros((1 << len(m.elements), 21, 21), dtype=bool)
    k = np.arange(21)
    for i, atom in enumerate(m.elements):
        hs = [_INDEX[h] for h in blocks[atom]]
        sig[np.flatnonzero(np.arange(len(sig)) >> i & 1)[:, None, None],
            k[:, None], _PRODUCT[k[:, None], hs]] = True
    return sig


def _audit(m: ModelStructure, blocks: dict[str, frozenset[GroupElement]]) -> SigmaReport:
    """Per term operation, the first pair of unions of blocks it fails on."""
    masks, matrices, sig = _Masks(m), _Matrices(21), _sigma_stack(m, blocks)
    xs, ys = np.indices((len(sig), len(sig)))
    checks = []
    for t in _OPERATIONS:
        left = sig[np.broadcast_to(TERMS.evaluate(t, {"x": xs, "y": ys}, masks.ops), xs.shape)]
        right = TERMS.evaluate(t, {"x": sig[xs], "y": sig[ys]}, matrices.ops)
        bad = np.argwhere(~(left == right).all(axis=(-2, -1)))
        witness = tuple(sorted(masks.decode(x)) for x in bad[0]) if len(bad) else None
        checks.append((str(t), not len(bad), witness))
    return SigmaReport(checks)
