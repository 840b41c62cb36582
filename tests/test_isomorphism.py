"""Isomorphism testing: invariants, backtracking, and the supported bound.

``isomorphism_classes`` is checked against pairwise ``is_isomorphic``, the
oracle it replaced in catalog validation and the claim sweeps.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcensus import (GroupTable, UnsupportedOrderError,
                         action_from_generator_images, center,
                         conjugacy_classes, derived_subgroup, direct_product,
                         extend_generator_map, generated_subgroup,
                         generating_set, is_isomorphic, isomorphism_classes,
                         make_cyclic, make_dicyclic, make_dihedral,
                         make_symmetric, semidirect_product, theorem_claims)
from groupcensus.isomorphism import _element_keys, _profile
from groupcensus.verify import _klein_by_c4, _q8_by_c2


def relabelled(g, images, name="relabelled"):
    """g with element x renamed images[x]; images must fix 0."""
    back = [0] * g.order
    for x, y in enumerate(images):
        back[y] = x
    rows = [[images[g.product[back[a]][back[b]]] for b in range(g.order)]
            for a in range(g.order)]
    return GroupTable(rows, name=name)


def c4_by_c4():
    c4 = make_cyclic(4)
    inv = tuple(c4.inverse)
    action = action_from_generator_images(make_cyclic(4), c4, {1: inv})
    return semidirect_product(c4, make_cyclic(4), action)


def profile_twins():
    """The two pairs of order-16 groups that agree on every invariant."""
    return [(direct_product(make_dicyclic(8), make_cyclic(2)), c4_by_c4()),
            (_klein_by_c4(), _q8_by_c2())]


def assert_classes_match_oracle(tables):
    keys = isomorphism_classes(tables)
    assert len(keys) == len(tables)
    for i, j in itertools.combinations(range(len(tables)), 2):
        same = (tables[i].order == tables[j].order
                and is_isomorphic(tables[i], tables[j]))
        assert (keys[i] == keys[j]) == same, (tables[i].name, tables[j].name)
    # classes are numbered by first appearance
    firsts = sorted(set(keys), key=keys.index)
    assert firsts == list(range(len(firsts)))
    return keys


def test_known_isomorphic_pairs():
    assert is_isomorphic(make_dihedral(6), make_symmetric(3))
    c4xc2 = direct_product(make_cyclic(4), make_cyclic(2))
    from groupcensus import inversion_action
    twisted = semidirect_product(c4xc2, make_cyclic(2), inversion_action(c4xc2))
    assert is_isomorphic(twisted, direct_product(make_dihedral(8), make_cyclic(2)))


def test_known_non_isomorphic_pairs():
    assert not is_isomorphic(make_dicyclic(8), make_dihedral(8))
    assert not is_isomorphic(make_cyclic(4),
                             direct_product(make_cyclic(2), make_cyclic(2)))
    assert not is_isomorphic(make_cyclic(6), make_cyclic(8))


def test_backtracking_separates_invariant_twins():
    # C4:C4 and Q8xC2 agree on order, order histogram, centre size, derived
    # size and class sizes; only the search can tell them apart
    c4c4 = c4_by_c4()
    q8xc2 = direct_product(make_dicyclic(8), make_cyclic(2))
    assert len(center(c4c4)) == len(center(q8xc2)) == 4
    assert sorted(c4c4.element_orders()) == sorted(q8xc2.element_orders())
    assert not is_isomorphic(c4c4, q8xc2)


def test_reflexive_and_symmetric_on_catalog(catalog):
    for _entry, table, _report in catalog:
        assert is_isomorphic(table, table)
    same_order = [(a, b) for _, a, _ in catalog for _, b, _ in catalog
                  if a.order == b.order]
    for a, b in same_order:
        assert is_isomorphic(a, b) == is_isomorphic(b, a)


def test_unsupported_order_raises():
    big = direct_product(make_cyclic(8), make_cyclic(8))  # order 64
    with pytest.raises(UnsupportedOrderError):
        is_isomorphic(big, big)
    # order 32 is within the guaranteed bound
    d8c2c2 = direct_product(direct_product(make_cyclic(2), make_cyclic(2)),
                            make_dihedral(8))
    assert is_isomorphic(d8c2c2, d8c2c2)


def test_center_derived_classes():
    s3 = make_symmetric(3)
    assert center(s3) == (0,)
    assert len(derived_subgroup(s3)) == 3
    assert sorted(len(c) for c in conjugacy_classes(s3)) == [1, 2, 3]
    q8 = make_dicyclic(8)
    assert len(center(q8)) == 2
    assert sorted(len(c) for c in conjugacy_classes(make_symmetric(4))) == \
        [1, 3, 6, 6, 8]
    c6 = make_cyclic(6)
    assert center(c6) == tuple(range(6))
    assert derived_subgroup(c6) == (0,)


# The pair loops these invariants ran before the byte-vector kernels, kept
# verbatim as oracles.


def center_oracle(g):
    """Elements commuting with everything."""
    return tuple(x for x in range(g.order)
                 if all(g.product[x][y] == g.product[y][x] for y in range(g.order)))


def derived_subgroup_oracle(g):
    """Subgroup generated by all commutators."""
    commutators = set()
    for x in range(g.order):
        for y in range(g.order):
            xy = g.product[x][y]
            yx = g.product[y][x]
            commutators.add(g.product[xy][g.inverse[yx]])
    return generated_subgroup(g, commutators)


def conjugacy_classes_oracle(g):
    """Conjugacy classes, each sorted, ordered by least element."""
    seen = [False] * g.order
    classes = []
    for x in range(g.order):
        if seen[x]:
            continue
        cls = {g.product[g.product[t][x]][g.inverse[t]] for t in range(g.order)}
        for y in cls:
            seen[y] = True
        classes.append(tuple(sorted(cls)))
    return classes


def element_keys_oracle(g):
    """Per-element (order, centralizer size) used to prune image candidates."""
    orders = g.element_orders()
    keys = []
    for x in range(g.order):
        centralizer = sum(1 for y in range(g.order)
                          if g.product[x][y] == g.product[y][x])
        keys.append((orders[x], centralizer))
    return keys


def test_invariant_kernels_match_pair_loops(catalog, claim_tables,
                                            order_64_products):
    tables = ([table for _entry, table, _report in catalog] + claim_tables
              + order_64_products)
    assert len(tables) == 74 + 25 + 3
    for g in tables:
        assert center(g) == center_oracle(g), g.name
        assert conjugacy_classes(g) == conjugacy_classes_oracle(g), g.name
        assert derived_subgroup(g) == derived_subgroup_oracle(g), g.name
        assert _element_keys(g) == element_keys_oracle(g), g.name
        fresh = g.renamed(g.name)
        fresh._profile = None
        assert _profile(fresh)[3:5] == (len(center_oracle(g)),
                                        len(derived_subgroup_oracle(g)))


def test_generating_set_generates():
    for g in (make_cyclic(12), make_dicyclic(16), make_symmetric(4)):
        gens = generating_set(g)
        assert len(generated_subgroup(g, gens)) == g.order
    klein4 = make_cyclic(2)
    for _ in range(3):
        klein4 = direct_product(klein4, make_cyclic(2))
    assert len(generating_set(klein4)) == 4


def test_extend_generator_map():
    g = make_symmetric(3)
    gens = generating_set(g)
    identity_images = {x: x for x in gens}
    assert extend_generator_map(g, g, identity_images) == list(range(g.order))
    # sending an order-3 element onto an order-2 element cannot extend
    three = next(x for x in range(6) if g.element_orders()[x] == 3)
    two = next(x for x in range(6) if g.element_orders()[x] == 2)
    assert extend_generator_map(g, g, {three: two}) is None


# ---------------------------------------------------------------------------
# isomorphism classes


def test_classes_match_oracle_on_catalog(catalog):
    tables = [table for _entry, table, _report in catalog]
    keys = assert_classes_match_oracle(tables)
    assert keys == list(range(len(tables)))


def test_classes_match_oracle_on_claims():
    tables = [recipe.build() for claim in theorem_claims()
              for recipe in claim.groups]
    assert len(tables) == 25
    keys = assert_classes_match_oracle(tables)
    assert len(set(keys)) == 25


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(1, 16)), st.permutations(range(1, 16)),
       st.permutations(range(4)))
def test_classes_see_through_relabelled_twins(images_a, images_b, order):
    for a, b in profile_twins():
        tables = [a, b, relabelled(a, [0, *images_a]),
                  relabelled(b, [0, *images_b])]
        shuffled = [tables[k] for k in order]
        keys = dict(zip(order, assert_classes_match_oracle(shuffled)))
        assert keys[0] == keys[2] != keys[1] == keys[3]


def test_profile_cache_is_shared_by_renamed_copies():
    g = make_dicyclic(16)
    assert isomorphism_classes([g, g.renamed("Q16 again")]) == [0, 0]
    assert g.renamed("copy")._profile is g._profile is not None


def test_classes_reject_unsupported_orders():
    big = direct_product(make_cyclic(8), make_cyclic(8))  # order 64
    with pytest.raises(UnsupportedOrderError):
        isomorphism_classes([make_cyclic(2), big])
    assert isomorphism_classes([]) == []
