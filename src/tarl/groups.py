"""The 21-element group F21 and its block partitions.

F21 is generated by f and g with f^3 = g^7 = 1 and gf = fg^2.  It is one
read-only table, `PRODUCT`: element 7a + b is the normal form f^a g^b, and
the product of (a1, b1) and (a2, b2) is (a1 + a2 mod 3, b1*2^a2 + b2 mod 7),
since moving f past g doubles the g exponent.  Element 0 is the identity,
and `INVERSE` is read off the table.  Partitioning the 20 non-identity
elements into an inverse-closed 6-block and a 7-block plus its inverses
turns {0,a,b,b*} into a ternary-relation structure via
R x y z  iff  block(z) is contained in block(x)block(y); every listed
partition reproduces the same composition table (the K3 table).  Blocks
are sets of element indices, and they and their complex products are
bitmasks over the indices; sigma images read the same table.

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
    "PRODUCT", "INVERSE",
    "Partition", "PARTITIONS", "InvalidPartition", "validate_partition",
    "build_atom_structure", "SigmaReport", "check_sigma_homomorphism",
]

# PRODUCT[x, y]: the index of the product of elements x = 7a + b and y
_A, _B = np.divmod(np.arange(21), 7)
PRODUCT = (_A[:, None] + _A) % 3 * 7 + (_B[:, None] * 2 ** _A + _B) % 7
INVERSE = (PRODUCT == 0).argmax(1)
PRODUCT.flags.writeable = INVERSE.flags.writeable = False


# ------------------------------------------------------------------
# Partitions of the 20 non-identity elements
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    id: int
    a_set: frozenset[int]        # element indices
    b_set: frozenset[int]
    bstar_set: frozenset[int]


class InvalidPartition(ValueError):
    pass


def _els(text: str) -> frozenset[int]:
    """The indices 7a + b of the words f^a g^b written 'f2g3', 'g5', 'f', ..."""
    def exponent(power: str | None) -> int:
        return int(power[1:] or 1) if power else 0
    words = (re.fullmatch(r"(f\d?)?(g\d?)?", word).groups() for word in text.split())
    return frozenset(7 * exponent(f) + exponent(g) for f, g in words)


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
    if len(p.a_set) != 6 or len(p.b_set) != 7 or len(p.bstar_set) != 7:
        raise InvalidPartition("block sizes must be 6, 7, 7")
    # 20 elements in blocks of 6 + 7 + 7 cover the 20 only when disjoint
    if p.a_set | p.b_set | p.bstar_set != set(range(1, len(PRODUCT))):
        raise InvalidPartition("blocks must partition the non-identity elements")
    if {INVERSE[x] for x in p.a_set} != p.a_set:
        raise InvalidPartition("the 6-block must be closed under inverses")
    if {INVERSE[x] for x in p.b_set} != p.bstar_set:
        raise InvalidPartition("the starred block must hold the inverses")


def _blocks(p: Partition) -> dict[str, frozenset[int]]:
    """Each atom's block of the group."""
    return {"0": frozenset({0}), "a": p.a_set, "b": p.b_set, "b*": p.bstar_set}


def build_atom_structure(p: Partition) -> ModelStructure:
    """The four-block structure: R x y z iff block(z) is a subset of the
    complex product block(x)block(y).  Blocks and their products are
    bitmasks over the element indices, the products read from `PRODUCT`."""
    validate_partition(p)
    blocks = _blocks(p)
    names = tuple(blocks)
    member = np.zeros((len(names), len(PRODUCT)), dtype=bool)     # [atom, element]
    for i, atom in enumerate(names):
        member[i, list(blocks[atom])] = True
    masks = member @ (1 << np.arange(len(PRODUCT)))
    pairs = member[:, None, :, None] & member[None, :, None, :]     # [x, y, h, k]
    product = np.bitwise_or.reduce(np.where(pairs, 1 << PRODUCT, 0), axis=(2, 3))
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


def _sigma_stack(m: ModelStructure, blocks: dict[str, frozenset[int]]) -> np.ndarray:
    """sig[mask]: sigma of the union of the blocks of the atoms in mask."""
    k = np.arange(len(PRODUCT))
    sig = np.zeros((1 << len(m.elements), len(k), len(k)), dtype=bool)
    for i, atom in enumerate(m.elements):
        sig[np.flatnonzero(np.arange(len(sig)) >> i & 1)[:, None, None],
            k[:, None], PRODUCT[:, list(blocks[atom])]] = True
    return sig


def _audit(m: ModelStructure, blocks: dict[str, frozenset[int]]) -> SigmaReport:
    """Per term operation, the first pair of unions of blocks it fails on."""
    masks, matrices, sig = _Masks(m), _Matrices(len(PRODUCT)), _sigma_stack(m, blocks)
    xs, ys = np.indices((len(sig), len(sig)))
    checks = []
    for t in _OPERATIONS:
        left = sig[np.broadcast_to(TERMS.evaluate(t, {"x": xs, "y": ys}, masks.ops), xs.shape)]
        right = TERMS.evaluate(t, {"x": sig[xs], "y": sig[ys]}, matrices.ops)
        bad = np.argwhere(~(left == right).all(axis=(-2, -1)))
        witness = tuple(sorted(masks.decode(x)) for x in bad[0]) if len(bad) else None
        checks.append((str(t), not len(bad), witness))
    return SigmaReport(checks)
