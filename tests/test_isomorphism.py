"""Isomorphism testing: invariants, backtracking, and order-64 coverage.

``isomorphism_classes`` is checked against pairwise ``is_isomorphic``, the
oracle it replaced in catalog validation and the claim sweeps, and
``is_isomorphic``, which closes each partial generator map, against
``leaf_search_oracle``, the search it replaced, which tries a map only
once every generator has an image.  ``groups._closure``, which closes
those maps, is checked against ``partial_map_oracle``, the dict-and-set
closure it replaced.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import groupcensus.catalog
import groupcensus.verify
from groupcensus import (MAX_ORDER, GroupTable, catalog_tables,
                         conjugacy_classes, cyclic_extension, derived_subgroup,
                         direct_product, extend_generator_map,
                         generated_subgroup, generating_set, is_isomorphic,
                         isomorphism_classes, make_cyclic, make_dicyclic,
                         make_dihedral, make_quasidihedral, make_symmetric,
                         theorem_claims, verify_all)
from groupcensus import isomorphism
from groupcensus.groups import _closure
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
    return cyclic_extension(c4, 4, c4.inverse, 0)


def profile_twins():
    """The two pairs of order-16 groups that agree on every invariant but
    the square-root histogram."""
    return [(direct_product(make_dicyclic(8), make_cyclic(2)), c4_by_c4()),
            (_klein_by_c4(), _q8_by_c2())]


def partial_map_oracle(src, dst, images):
    """The injective homomorphism images defines on the subgroup it spans.

    Closes the map breadth-first over the subgroup of src that the mapped
    elements generate.  Returns it as {element: image}, or None when two
    words for one element get different images or two elements one image.
    """
    mapping = {0: 0}
    mapping.update(images)
    used = set(mapping.values())
    if len(used) != len(mapping):
        return None
    frontier = list(mapping)
    while frontier:
        x = frontier.pop()
        fx = mapping[x]
        for gen, fgen in images.items():
            y = src.product[x][gen]
            fy = dst.product[fx][fgen]
            known = mapping.get(y)
            if known is None:
                if fy in used:
                    return None
                mapping[y] = fy
                used.add(fy)
                frontier.append(y)
            elif known != fy:
                return None
    return mapping


def leaf_search_oracle(a, b):
    """The search ``is_isomorphic`` ran before it closed partial maps.

    After the same invariants, it gives every generator an image among the
    elements with its per-element keys and only then asks
    ``extend_generator_map`` whether the map extends to an isomorphism.
    """
    if a.order != b.order:
        return False
    if _profile(a) != _profile(b):
        return False
    gens = generating_set(a)
    if not gens:
        return True
    a_keys = _element_keys(a)
    b_keys = _element_keys(b)
    candidates = [[y for y in range(b.order) if b_keys[y] == a_keys[gen]]
                  for gen in gens]

    def search(depth, images):
        if depth == len(gens):
            return extend_generator_map(a, b, images) is not None
        taken = set(images.values())
        for y in candidates[depth]:
            if y in taken:
                continue
            images[gens[depth]] = y
            if search(depth + 1, images):
                return True
            del images[gens[depth]]
        return False

    return search(0, {})


def assert_classes_match_oracle(tables, oracle=is_isomorphic):
    keys = isomorphism_classes(tables)
    assert len(keys) == len(tables)
    for i, j in itertools.combinations(range(len(tables)), 2):
        same = (tables[i].order == tables[j].order
                and oracle(tables[i], tables[j]))
        assert (keys[i] == keys[j]) == same, (tables[i].name, tables[j].name)
    # classes are numbered by first appearance
    firsts = sorted(set(keys), key=keys.index)
    assert firsts == list(range(len(firsts)))
    return keys


def test_known_isomorphic_pairs():
    assert is_isomorphic(make_dihedral(6), make_symmetric(3))
    c4xc2 = direct_product(make_cyclic(4), make_cyclic(2))
    twisted = cyclic_extension(c4xc2, 2, c4xc2.inverse, 0)
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


def test_search_agrees_with_leaf_oracle_on_catalog_and_claims(
        catalog, claim_tables):
    tables = [table for _entry, table, _report in catalog] + claim_tables
    pairs = [(a, b) for a, b in itertools.combinations(tables, 2)
             if a.order == b.order]
    verdicts = [is_isomorphic(a, b) for a, b in pairs]
    assert verdicts == [leaf_search_oracle(a, b) for a, b in pairs]
    # the 25 claims are 24 catalog groups and C2xC2xD8 of order 32
    assert sum(verdicts) == 24
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
        fresh = GroupTable(g.product, g.name)
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


def family_tables():
    """Every cyclic, dihedral, dicyclic and quasidihedral table of order
    up to 64."""
    return ([make_cyclic(n) for n in range(1, MAX_ORDER + 1)]
            + [make_dihedral(k) for k in range(2, MAX_ORDER + 1, 2)]
            + [make_dicyclic(k) for k in range(8, MAX_ORDER + 1, 4)]
            + [make_quasidihedral(k) for k in (16, 32, 64)])


def test_kept_generating_set_generates_within_log2(catalog):
    # the set Light's test grew: each element the least one outside the
    # subgroup of those before it, so each at least doubles that subgroup
    tables = [table for _entry, table, _report in catalog] + family_tables()
    assert len(tables) == 74 + 64 + 32 + 15 + 3
    for g in tables:
        gens = generating_set(g)
        assert gens == list(g._generators), g.name
        assert len(generated_subgroup(g, gens)) == g.order, g.name
        assert 2 ** len(gens) <= g.order, g.name
        for k, x in enumerate(gens):
            below = set(generated_subgroup(g, gens[:k]))
            assert x == min(set(range(g.order)) - below), g.name


def test_extend_generator_map():
    g = make_symmetric(3)
    gens = generating_set(g)
    identity_images = {x: x for x in gens}
    assert extend_generator_map(g, g, identity_images) == list(range(g.order))
    # sending an order-3 element onto an order-2 element cannot extend
    three = next(x for x in range(6) if g.element_orders()[x] == 3)
    two = next(x for x in range(6) if g.element_orders()[x] == 2)
    assert extend_generator_map(g, g, {three: two}) is None


def test_extend_generator_map_needs_generators():
    # an order-3 element of S3 mapped to itself closes consistently over
    # its own subgroup, which is not all of S3
    g = make_symmetric(3)
    three = next(x for x in range(6) if g.element_orders()[x] == 3)
    assert sorted(partial_map_oracle(g, g, {three: three}).items()) == \
        [(x, x) for x in generated_subgroup(g, [three])]
    assert extend_generator_map(g, g, {three: three}) is None


def closure_cases(g, rnd):
    """Image dicts for maps out of g: the identity on each generating set
    and random images, most of them no homomorphism, of random seeds."""
    n = g.order
    yield {x: x for x in generating_set(g)}
    yield {x: x for x in range(1, n)}
    for _ in range(12):
        seeds = rnd.sample(range(n), rnd.randint(0, min(3, n)))
        yield {s: rnd.randrange(n) for s in seeds}


def test_closure_matches_partial_map_oracle(catalog):
    # the same domain and images, and None on the same inputs, for maps
    # of every catalog table into itself and into a relabelled copy
    rnd = random.Random(27)
    outcomes = set()
    for _entry, g, _report in catalog:
        images = [0, *rnd.sample(range(1, g.order), g.order - 1)]
        for dst in (g, relabelled(g, images)):
            for case in closure_cases(g, rnd):
                expected = partial_map_oracle(g, dst, case)
                found = _closure(g.product, dst.product, list(case.items()))
                if expected is None:
                    assert found is None, (g.name, case)
                else:
                    assert {x: y for x, y in enumerate(found) if y >= 0} \
                        == expected, (g.name, case)
                outcomes.add((expected is None,
                              expected is not None and len(expected) == g.order))
    assert outcomes == {(True, False), (False, True), (False, False)}


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


def test_classes_of_no_tables():
    assert isomorphism_classes([]) == []


# Order-64 extensions (N x C2) : C2, N of order 16 from the catalog, by the
# involutory automorphism of N x C2 with the given generator images.  Each
# pair shares its full profile but is not isomorphic.
PROFILE_TWINS_64 = [
    (("C8xC2", {2: 9, 1: 15, 4: 20}), ("M16", {2: 19, 1: 1, 4: 4})),
    (("C16", {2: 2, 1: 17}), ("C16", {2: 18, 1: 1})),
    (("C4xC4", {2: 12, 4: 18, 1: 1}),
     ("C2xC2xC2xC2", {1: 25, 2: 6, 4: 4, 6: 2, 8: 26})),
    (("Q8xC2", {2: 12, 1: 20, 4: 9, 6: 22}), ("C4:C4", {2: 20, 4: 11, 1: 13})),
]


def extension_by_c2(base, images):
    c2 = make_cyclic(2)
    n = direct_product(base, c2)
    alpha = extend_generator_map(n, n, images)
    return cyclic_extension(n, 2, alpha, 0, f"({base.name}xC2):C2")


def test_classes_match_leaf_oracle_at_order_64(order_64_products):
    order_16 = [table for _entry, table, _report in catalog_tables([16])]
    by_name = {table.name: table for table in order_16}
    twins = [extension_by_c2(by_name[name], images)
             for pair in PROFILE_TWINS_64 for name, images in pair]
    rnd = random.Random(64)

    def shuffled(g):
        return relabelled(g, [0, *rnd.sample(range(1, 64), 63)], g.name)

    # C2^6 is not relabelled: it already comes twice, as C2xC2xC2xC2 x
    # C2xC2, and the leaf search takes about 1.5 s on such a pair
    c2xc2 = direct_product(make_cyclic(2), make_cyclic(2))
    tables = (order_64_products
              + [shuffled(g) for g in order_64_products[:2]]
              + [direct_product(h, make_cyclic(4)) for h in order_16]
              + [direct_product(h, c2xc2) for h in order_16]
              + twins + [shuffled(g) for g in twins[::2]])
    assert len(tables) == 3 + 2 + 14 + 14 + 8 + 4
    for a, b in zip(twins[::2], twins[1::2]):
        assert _profile(a) == _profile(b)
    assert isomorphism_classes(twins) == list(range(8))
    keys = assert_classes_match_oracle(tables, leaf_search_oracle)
    # the relabelled copies, and C2xC2xC2xC2 x C2xC2 = C2^6, (C4xC2xC2) x
    # C4 = C4xC4 x C2xC2 and C2xC2xC2xC2 x C4 = (C4xC2xC2) x C2xC2
    assert len(set(keys)) == len(tables) - 2 - 3 - 4


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
    groupcensus.verify._built.cache_clear()
    calls = []
    plain = isomorphism._cheap_key

    def counted(g):
        calls.append((g, g._cheap is None))
        return plain(g)

    monkeypatch.setattr(isomorphism, "_cheap_key", counted)
    assert verify_all().passed
    computed = [g for g, fresh in calls if fresh]
    assert len(computed) == len({id(g) for g, _fresh in calls}) == 103
    assert len(calls) > len(computed)

