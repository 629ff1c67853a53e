import itertools
import random

import numpy as np
import pytest

from tarl import groups
from tarl.groups import (
    ALL_ELEMENTS, IDENTITY, InvalidPartition, PARTITIONS, Partition,
    GroupElement, build_atom_structure, check_sigma_homomorphism, element_of,
    format_element, ginv, gmul, gpow, validate_partition,
)
from tarl.models import check_postulates, composition_table
from tarl.registry import get_structure


# ------------------------------------------------------------------
# Oracles: relations on G as sets of pairs, and the group as permutations
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


def test_group_order_and_identity():
    assert len(ALL_ELEMENTS) == 21
    for x in ALL_ELEMENTS:
        assert gmul(IDENTITY, x) == x == gmul(x, IDENTITY)


def test_defining_relations():
    f, g = element_of("f"), element_of("g")
    assert gpow(f, 3) == IDENTITY
    assert gpow(g, 7) == IDENTITY
    assert gmul(g, f) == element_of("fg2")


def test_gmul_normal_form_example():
    assert gmul(element_of("fg"), element_of("fg")) == element_of("f2g3")


def test_noncommutative():
    f, g = element_of("f"), element_of("g")
    assert gmul(f, g) != gmul(g, f)


def test_associativity_exhaustive():
    for x, y, z in itertools.product(ALL_ELEMENTS, repeat=3):
        assert gmul(gmul(x, y), z) == gmul(x, gmul(y, z))


def test_inverses():
    assert ginv(element_of("f")) == element_of("f2")
    assert ginv(element_of("g")) == element_of("g6")
    for x in ALL_ELEMENTS:
        assert gmul(x, ginv(x)) == IDENTITY
        assert gmul(ginv(x), x) == IDENTITY


def test_element_formatting_roundtrip():
    for x in ALL_ELEMENTS:
        assert element_of(format_element(x)) == x


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


def test_out_of_range_and_malformed_elements_are_refused():
    with pytest.raises(ValueError, match="out of range"):
        GroupElement(3, 0)
    with pytest.raises(ValueError, match="bad group element"):
        element_of("h")


def test_validate_partition_refuses_overlaps_and_an_open_six_block():
    p = PARTITIONS[0]
    x, f = min(p.b_set), element_of("f")
    # x in two blocks, so one element is in none
    overlap = Partition(99, p.a_set, p.b_set, p.bstar_set - {min(p.bstar_set)} | {x})
    with pytest.raises(InvalidPartition, match="must partition"):
        validate_partition(overlap)
    # f and x change blocks: still a partition, but f's inverse stays behind
    assert f in p.a_set and ginv(f) in p.a_set
    swapped = Partition(99, p.a_set - {f} | {x}, p.b_set - {x} | {f}, p.bstar_set)
    with pytest.raises(InvalidPartition, match="closed under inverses"):
        validate_partition(swapped)


def test_corrupted_partition_rejected_or_differs():
    p = PARTITIONS[0]
    moved = next(iter(p.b_set))
    corrupt = Partition(id=99, a_set=p.a_set,
                        b_set=p.b_set - {moved},
                        bstar_set=p.bstar_set | {moved})
    with pytest.raises(InvalidPartition):
        build_atom_structure(corrupt)


def test_swapping_two_block_members_changes_the_table():
    # keep the size/partition invariants but break inverse closure
    p = PARTITIONS[0]
    x = next(iter(p.b_set))
    y = ginv(x)
    assert y in p.bstar_set
    others = [e for e in p.b_set if e not in (x, ginv(x))]
    z = others[0]
    corrupt = Partition(id=98, a_set=p.a_set,
                        b_set=(p.b_set - {x}) | {ginv(z)},
                        bstar_set=(p.bstar_set - {ginv(z)}) | {x})
    try:
        m = build_atom_structure(corrupt)
    except InvalidPartition:
        return
    assert composition_table(m) != composition_table(get_structure("K3"))


def test_sigma_of_identity_and_empty():
    assert sigma({IDENTITY}) == identity_relation()
    assert sigma(frozenset()) == frozenset()


def test_sigma_singletons_are_disjoint_permutations():
    rels = [sigma({h}) for h in ALL_ELEMENTS]
    for i, r in enumerate(rels):
        assert len(r) == 21
        for s in rels[i + 1:]:
            assert not (r & s)


def test_sigma_blocks_partition_the_square():
    p = PARTITIONS[0]
    pieces = [sigma({IDENTITY}), sigma(p.a_set), sigma(p.b_set),
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


def test_permutation_presentation_is_isomorphic():
    assert permutation_multiplication_agrees()


def test_random_subset_sigma_homomorphism():
    rng = random.Random(6)
    for _ in range(20):
        xs = frozenset(e for e in ALL_ELEMENTS if rng.random() < 0.4)
        ys = frozenset(e for e in ALL_ELEMENTS if rng.random() < 0.4)
        prod = frozenset(gmul(h, k) for h in xs for k in ys)
        assert sigma(prod) == compose_relations(sigma(xs), sigma(ys))
        assert sigma(xs | ys) == sigma(xs) | sigma(ys)
        assert sigma(xs & ys) == sigma(xs) & sigma(ys)


@pytest.mark.parametrize("p", PARTITIONS, ids=lambda p: f"partition{p.id}")
def test_sigma_stack_agrees_with_the_set_oracle(p):
    m = build_atom_structure(p)
    blocks = groups._blocks(p)
    sig = groups._sigma_stack(m, blocks)
    assert sig.shape == (16, 21, 21)
    idx = {e: i for i, e in enumerate(ALL_ELEMENTS)}
    for mask in range(16):
        union = frozenset().union(*(blocks[a] for i, a in enumerate(m.elements)
                                    if mask >> i & 1))
        expected = np.zeros((21, 21), dtype=bool)
        for (h, k) in sigma(union):
            expected[idx[h], idx[k]] = True
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
