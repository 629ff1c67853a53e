import itertools
import random

import numpy as np
import pytest

from tarl import groups
from tarl.groups import (
    INVERSE, InvalidPartition, PARTITIONS, PRODUCT, Partition, build_atom_structure,
    check_sigma_homomorphism, validate_partition,
)
from tarl.models import check_postulates, composition_table
from tarl.registry import get_structure

ELEMENTS = range(21)     # element 7a + b is f^a g^b; 0 is the identity
F, G = 7, 1
TABLE = PRODUCT.tolist()


# ------------------------------------------------------------------
# Oracles: relations on G as sets of pairs, and the group as permutations
# ------------------------------------------------------------------

def sigma(xs) -> frozenset[tuple[int, int]]:
    return frozenset((k, TABLE[k][h]) for k in ELEMENTS for h in xs)


def compose_relations(r, s) -> frozenset:
    adj: dict[int, set[int]] = {}
    for (i, j) in s:
        adj.setdefault(i, set()).add(j)
    return frozenset((i, k) for (i, j) in r for k in adj.get(j, ()))


def converse_relation(r) -> frozenset:
    return frozenset((j, i) for (i, j) in r)


def full_relation() -> frozenset:
    return frozenset((h, k) for h in ELEMENTS for k in ELEMENTS)


def identity_relation() -> frozenset:
    return frozenset((h, h) for h in ELEMENTS)


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


def permutation_image(x: int) -> dict[int, int]:
    """pf^a pg^b for the element x = 7a + b."""
    pf, pg = permutation_generators()
    a, b = divmod(x, 7)
    out = {i: i for i in range(1, 22)}
    for p in [pf] * a + [pg] * b:
        out = _pmul(out, p)
    return out


def power(x: int, n: int) -> int:
    out = 0
    for _ in range(n):
        out = TABLE[out][x]
    return out


def test_product_is_the_permutation_product():
    """The permutation pair generates a 21-element group isomorphic to
    PRODUCT, under the apply-left-then-right convention."""
    images = [permutation_image(x) for x in ELEMENTS]
    assert len({tuple(sorted(p.items())) for p in images}) == 21
    for x, y in itertools.product(ELEMENTS, repeat=2):
        assert images[TABLE[x][y]] == _pmul(images[x], images[y]), (x, y)


def test_group_order_and_identity():
    assert PRODUCT.shape == (21, 21)
    assert (PRODUCT[0] == ELEMENTS).all() and (PRODUCT[:, 0] == ELEMENTS).all()


def test_defining_relations():
    assert power(F, 3) == 0 and power(F, 1) != 0
    assert power(G, 7) == 0 and all(power(G, n) != 0 for n in range(1, 7))
    assert TABLE[G][F] == TABLE[F][power(G, 2)] == 7 + 2      # gf = fg^2


def test_product_normal_form_example():
    assert TABLE[F + G][F + G] == 2 * 7 + 3                   # fg fg = f2g3


def test_noncommutative():
    assert TABLE[F][G] != TABLE[G][F]


def test_associativity_exhaustive():
    x, y, z = np.indices((21, 21, 21))
    assert (PRODUCT[PRODUCT[x, y], z] == PRODUCT[x, PRODUCT[y, z]]).all()


def test_inverses():
    assert INVERSE[F] == 2 * 7          # f2
    assert INVERSE[G] == 6              # g6
    assert (PRODUCT[ELEMENTS, INVERSE] == 0).all()
    assert (PRODUCT[INVERSE, ELEMENTS] == 0).all()


def test_the_tables_are_read_only():
    for table in (PRODUCT, INVERSE):
        with pytest.raises(ValueError):
            table[0] = table[0]


def test_f21_is_its_tables_alone():
    # the public names: no element class and no element arithmetic
    assert groups.__all__ == [
        "PRODUCT", "INVERSE", "Partition", "PARTITIONS", "InvalidPartition",
        "validate_partition", "build_atom_structure", "SigmaReport",
        "check_sigma_homomorphism"]


def test_partition_words_read_as_indices():
    for x in ELEMENTS[1:]:
        a, b = divmod(x, 7)
        word = ("f" * (a > 0) + str(a) * (a > 1) + "g" * (b > 0) + str(b) * (b > 1))
        assert groups._els(word) == {x}, word
    # the first 6-block, "f f2 g g2 g5 g6"
    assert PARTITIONS[0].a_set == {F, 2 * F, G, 2 * G, 5 * G, 6 * G}


def test_partitions_are_valid():
    assert len(PARTITIONS) == 8
    for p in PARTITIONS:
        validate_partition(p)


def test_all_partitions_build_the_same_structure():
    k3 = get_structure("K3")
    expected = composition_table(k3)
    for p in PARTITIONS:
        m = build_atom_structure(p)
        assert composition_table(m) == expected
        assert m.star == k3.star
        report = check_postulates(m)
        assert report.passes(["p1", "p2", "p3", "p4", "p5", "p6", "comm",
                              "normal", "crstar", "peirce"])


def test_validate_partition_refuses_overlaps_and_an_open_six_block():
    p = PARTITIONS[0]
    x = min(p.b_set)
    # x in two blocks, so one element is in none
    overlap = Partition(99, p.a_set, p.b_set, p.bstar_set - {min(p.bstar_set)} | {x})
    with pytest.raises(InvalidPartition, match="must partition"):
        validate_partition(overlap)
    # f and x change blocks: still a partition, but f's inverse stays behind
    assert F in p.a_set and INVERSE[F] in p.a_set
    swapped = Partition(99, p.a_set - {F} | {x}, p.b_set - {x} | {F}, p.bstar_set)
    with pytest.raises(InvalidPartition, match="closed under inverses"):
        validate_partition(swapped)


def test_validate_partition_refuses_wrong_block_sizes():
    p = PARTITIONS[0]
    x = min(p.b_set)
    y = int(INVERSE[x])
    # x and its inverse join the 6-block: an inverse-closed 8/6/6 partition
    # of the non-identity elements, which only the sizes refuse
    eight = Partition(99, p.a_set | {x, y}, p.b_set - {x}, p.bstar_set - {y})
    assert eight.a_set | eight.b_set | eight.bstar_set == set(ELEMENTS[1:])
    assert {INVERSE[e] for e in eight.a_set} == eight.a_set
    assert {INVERSE[e] for e in eight.b_set} == eight.bstar_set
    # y moves to b: a 6/8/6 partition, whose 6-block alone has its size
    six = Partition(99, p.a_set, p.b_set | {y}, p.bstar_set - {y})
    for q in (eight, six):
        with pytest.raises(InvalidPartition, match="block sizes"):
            validate_partition(q)


def test_corrupted_partition_rejected_or_differs():
    p = PARTITIONS[0]
    moved = next(iter(p.b_set))
    corrupt = Partition(id=99, a_set=p.a_set,
                        b_set=p.b_set - {moved},
                        bstar_set=p.bstar_set | {moved})
    with pytest.raises(InvalidPartition):
        build_atom_structure(corrupt)


def test_validate_partition_refuses_a_starred_block_of_non_inverses():
    # x and the inverse of another member of b change blocks: the sizes and
    # the 6-block stay, but the starred block no longer holds b's inverses
    p = PARTITIONS[0]
    x = min(p.b_set)
    assert INVERSE[x] in p.bstar_set
    y = int(INVERSE[max(p.b_set)])
    corrupt = Partition(id=98, a_set=p.a_set,
                        b_set=(p.b_set - {x}) | {y},
                        bstar_set=(p.bstar_set - {y}) | {x})
    with pytest.raises(InvalidPartition, match="starred block must hold the inverses"):
        build_atom_structure(corrupt)


def test_sigma_of_identity_and_empty():
    assert sigma({0}) == identity_relation()
    assert sigma(frozenset()) == frozenset()


def test_sigma_singletons_are_disjoint_permutations():
    rels = [sigma({h}) for h in ELEMENTS]
    for i, r in enumerate(rels):
        assert len(r) == 21
        for s in rels[i + 1:]:
            assert not (r & s)


def test_sigma_blocks_partition_the_square():
    p = PARTITIONS[0]
    pieces = [sigma({0}), sigma(p.a_set), sigma(p.b_set),
              sigma(p.bstar_set)]
    union = frozenset().union(*pieces)
    assert union == full_relation()
    assert sum(map(len, pieces)) == len(union)


def test_sigma_homomorphism_all_partitions():
    for p in PARTITIONS:
        report = check_sigma_homomorphism(p)
        assert report.passed, report.failures()[:3]


def test_sigma_block_products():
    p = PARTITIONS[3]
    sa, sb, sbs = sigma(p.a_set), sigma(p.b_set), sigma(p.bstar_set)
    assert converse_relation(sa) == sa
    assert compose_relations(sa, sa) == full_relation()
    assert compose_relations(sb, sbs) == full_relation()
    assert compose_relations(sbs, sb) == full_relation()
    off_diagonal = full_relation() - identity_relation()
    assert compose_relations(sb, sb) == off_diagonal
    assert compose_relations(sa, sb) == off_diagonal


def test_random_subset_sigma_homomorphism():
    rng = random.Random(6)
    for _ in range(20):
        xs = frozenset(e for e in ELEMENTS if rng.random() < 0.4)
        ys = frozenset(e for e in ELEMENTS if rng.random() < 0.4)
        prod = frozenset(TABLE[h][k] for h in xs for k in ys)
        assert sigma(prod) == compose_relations(sigma(xs), sigma(ys))
        assert sigma(xs | ys) == sigma(xs) | sigma(ys)
        assert sigma(xs & ys) == sigma(xs) & sigma(ys)


@pytest.mark.parametrize("p", PARTITIONS, ids=lambda p: f"partition{p.id}")
def test_sigma_stack_agrees_with_the_set_oracle(p):
    m = build_atom_structure(p)
    blocks = groups._blocks(p)
    sig = groups._sigma_stack(m, blocks)
    assert sig.shape == (16, 21, 21)
    for mask in range(16):
        union = frozenset().union(*(blocks[a] for i, a in enumerate(m.elements)
                                    if mask >> i & 1))
        expected = np.zeros((21, 21), dtype=bool)
        for (h, k) in sigma(union):
            expected[h, k] = True
        assert (sig[mask] == expected).all(), mask


def test_the_audit_has_one_check_per_term_operation():
    report = check_sigma_homomorphism(PARTITIONS[0])
    assert report.checks == [(op, True, None) for op in
                             ("x + y", "x . y", "x;y", "-x", "x^", "id", "0", "1")]


def test_swapping_a_and_b_fails_at_product_and_converse():
    p = PARTITIONS[0]
    blocks = groups._blocks(p)
    report = groups._audit(build_atom_structure(p), dict(blocks, a=blocks["b"], b=blocks["a"]))
    assert not report.passed
    assert report.failures() == [("x;y", (["a"], ["a"])), ("x^", (["a"], []))]


def test_swapping_b_and_b_star_passes_as_an_automorphism_of_k3():
    p = PARTITIONS[0]
    blocks = groups._blocks(p)
    swapped = dict(blocks, b=blocks["b*"], **{"b*": blocks["b"]})
    assert groups._audit(build_atom_structure(p), swapped).passed
