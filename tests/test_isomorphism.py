"""Isomorphism testing: invariants, backtracking, and the supported bound.

``isomorphism_classes`` is checked against pairwise ``is_isomorphic``, the
oracle it replaced in catalog validation and the claim sweeps.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupcensus.catalog
from groupcensus import (GroupTable, UnsupportedOrderError,
                         action_from_generator_images, conjugacy_classes,
                         derived_subgroup, direct_product,
                         extend_generator_map, generated_subgroup,
                         generating_set, is_isomorphic, isomorphism_classes,
                         make_cyclic, make_dicyclic, make_dihedral,
                         make_symmetric, semidirect_product, theorem_claims,
                         verify_all)
from groupcensus import isomorphism
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
    """The two pairs of order-16 groups that agree on every invariant but
    the square-root histogram."""
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
    # size and class sizes; the square-root histogram and the search tell
    # them apart
    c4c4 = c4_by_c4()
    q8xc2 = direct_product(make_dicyclic(8), make_cyclic(2))
    assert len(center_oracle(c4c4)) == len(center_oracle(q8xc2)) == 4
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
    assert center_oracle(s3) == (0,)
    assert len(derived_subgroup(s3)) == 3
    assert sorted(len(c) for c in conjugacy_classes(s3)) == [1, 2, 3]
    q8 = make_dicyclic(8)
    assert len(center_oracle(q8)) == 2
    assert sorted(len(c) for c in conjugacy_classes(make_symmetric(4))) == \
        [1, 3, 6, 6, 8]
    c6 = make_cyclic(6)
    assert center_oracle(c6) == tuple(range(6))
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
        assert conjugacy_classes(g) == conjugacy_classes_oracle(g), g.name
        assert derived_subgroup(g) == derived_subgroup_oracle(g), g.name
        assert _element_keys(g) == element_keys_oracle(g), g.name
        fresh = g.renamed(g.name)
        fresh._profile = None
        assert _profile(fresh)[2:4] == (len(center_oracle(g)),
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


# ---------------------------------------------------------------------------
# the square-root histogram


def test_classes_match_oracle_on_catalog_and_claims(catalog, claim_tables):
    tables = [table for _entry, table, _report in catalog] + claim_tables
    keys = assert_classes_match_oracle(tables)
    # every claimed group of order <= 24 is a catalog group; C2xC2xD8 has
    # order 32
    assert len(set(keys)) == 74 + 1


def test_profile_is_invariant_under_relabelling(catalog):
    rnd = random.Random(10)
    for _entry, table, _report in catalog:
        for _ in range(3):
            images = [0] + rnd.sample(range(1, table.order), table.order - 1)
            assert _profile(relabelled(table, images)) == _profile(table), \
                table.name


def test_catalog_tables_fall_into_74_buckets(catalog):
    assert len({_profile(table) for _entry, table, _report in catalog}) == 74


def test_square_roots_split_the_profile_twins():
    for a, b in profile_twins():
        assert _profile(a)[:-1] == _profile(b)[:-1]
        assert _profile(a)[-1] != _profile(b)[-1]
    (q8xc2, c4c4), (klein_c4, q8c2) = profile_twins()
    assert _profile(q8xc2)[-1] == ((4, 1), (12, 1))
    assert _profile(c4c4)[-1] == _profile(klein_c4)[-1] == ((4, 2), (8, 1))
    assert _profile(q8c2)[-1] == ((8, 2),)


def test_search_separates_twins_without_square_roots(monkeypatch):
    # with the square-root histogram left out of the profile, the twins
    # reach the search, which must still tell them apart
    full = isomorphism._profile
    monkeypatch.setattr(isomorphism, "_profile", lambda g: full(g)[:-1])
    for a, b in profile_twins():
        assert not is_isomorphic(a, b)
        assert is_isomorphic(a, relabelled(a, [0, *range(15, 0, -1)]))


def test_verify_all_searches_only_isomorphic_pairs(monkeypatch):
    verdicts = []
    plain = isomorphism.is_isomorphic

    def counted(a, b):
        verdicts.append(plain(a, b))
        return verdicts[-1]

    monkeypatch.setattr(isomorphism, "is_isomorphic", counted)
    assert verify_all().passed
    assert len(verdicts) == 32
    assert all(verdicts)


def test_verify_all_computes_each_cheap_key_once(monkeypatch):
    # catalog_validate, each theorem's catalog hits, the odd-4 check and
    # the full profiles ask for the keys of the same tables again
    groupcensus.catalog.load_catalog.cache_clear()
    groupcensus.catalog._built_order.cache_clear()
    calls = []
    plain = isomorphism._cheap_key

    def counted(g):
        calls.append((g, g._cheap is None))
        return plain(g)

    monkeypatch.setattr(isomorphism, "_cheap_key", counted)
    assert verify_all().passed
    computed = [g for g, fresh in calls if fresh]
    assert len(computed) == len({id(g) for g, _fresh in calls}) == 108
    assert len(calls) > len(computed)


def test_cheap_key_is_shared_by_renamed_copies():
    g = make_dicyclic(16)
    key = isomorphism._cheap_key(g)
    assert g.renamed("copy")._cheap is key is g._cheap is not None
