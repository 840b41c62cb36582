"""Census invariants, totient machinery and solution counting.

``census`` reads n_d off the element-order histogram: the number of cyclic
subgroups of order d is (#elements of order d) / phi(d).  Its counts are
cross-checked against an independent oracle, the set-based
``cyclic_subgroups`` below, which builds every <x> and deduplicates by
members.
"""

import io
import json
import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupcensus import (CensusReport, census, cli, count_solutions,
                         direct_product, euler_phi, make_cyclic, make_dicyclic,
                         make_dihedral, make_symmetric, parse_group,
                         theorem_claims)


def phi_oracle(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def signature_delta(sig):
    """The delta a signature forces by the totient identity."""
    return sum(euler_phi(d) - 1 for d in sig)


def cyclic_subgroups(g):
    """The set {<x> : x in G}, each as its sorted member tuple."""
    found = set()
    for x in range(g.order):
        members = [0]
        acc = x
        while acc != 0:
            members.append(acc)
            acc = g.product[acc][x]
        found.add(tuple(sorted(members)))
    return found


def census_oracle(g):
    """n_d from the set of cyclic subgroups, never from element orders."""
    return dict(Counter(len(s) for s in cyclic_subgroups(g)))


# ---------------------------------------------------------------------------
# totients


def test_euler_phi_against_gcd_count():
    for n in range(1, 300):
        assert euler_phi(n) == phi_oracle(n)


def test_euler_phi_known_values():
    assert euler_phi(1) == 1
    assert euler_phi(6) == 2
    assert euler_phi(18) == 6
    with pytest.raises(ValueError):
        euler_phi(0)


@given(st.integers(min_value=1, max_value=400))
def test_totient_divisor_sum(n):
    assert sum(euler_phi(d) for d in range(1, n + 1) if n % d == 0) == n


def totient_sieve(limit):
    """phi(d) for every d <= limit, by sieving out each prime factor."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # untouched so far, so p is prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


# ---------------------------------------------------------------------------
# cyclic subgroups and census


def test_cyclic_subgroup_counts():
    klein = direct_product(make_cyclic(2), make_cyclic(2))
    assert len(cyclic_subgroups(klein)) == 4
    q8_subs = cyclic_subgroups(make_dicyclic(8))
    assert len(q8_subs) == 5
    assert sorted(len(s) for s in q8_subs) == [1, 2, 4, 4, 4]
    assert len(cyclic_subgroups(make_dihedral(12))) == 10


def test_cyclic_subgroups_contain_trivial_and_are_closed():
    g = make_symmetric(4)
    subs = cyclic_subgroups(g)
    assert (0,) in subs
    for s in subs:
        members = set(s)
        assert all(g.product[a][b] in members for a in members for b in members)


def test_census_known_reports():
    c3 = census(make_cyclic(3))
    assert c3.delta == 1 and c3.signature == (3,)
    for n in range(1, 6):
        g = make_cyclic(2)
        for _ in range(n - 1):
            g = direct_product(g, make_cyclic(2))
        assert census(g).delta == 0
    s4 = census(make_symmetric(4))
    assert s4.signature == (3, 3, 3, 3, 4, 4, 4)
    assert s4.delta == 7 and s4.total_cyclic == 17


# names, built inside the test: a table built at import would turn a
# constructor defect into a collection error of every module importing this
@pytest.mark.parametrize("name", ["C24", "D20", "Q16", "S4", "D8xC2", "C64",
                                  "D64", "Q64", "SD64"])
def test_census_matches_histogram_oracle(name):
    g = parse_group(name)
    report = census(g)
    assert dict(report.n_d) == census_oracle(g)


def test_census_identities_on_catalog(catalog):
    for entry, table, report in catalog:
        assert sum(c * euler_phi(d) for d, c in report.n_d) == entry.order
        assert sum(c * (euler_phi(d) - 1) for d, c in report.n_d) == report.delta
        assert report.delta == entry.order - report.total_cyclic
        sigma = [d for d, c in report.n_d for _ in range(c) if d > 2]
        assert tuple(sigma) == report.signature


def test_census_doubling_small_catalog(catalog):
    # delta doubles when a C2 factor is glued on; safe up to order 16 here
    for entry, table, report in catalog:
        if entry.order > 16:
            continue
        doubled = census(direct_product(table, make_cyclic(2)))
        assert doubled.delta == 2 * report.delta, entry.label


def test_single_and_double_entry_families():
    # sigma = (a) gives delta(C_a) = delta(D_2a) = phi(a) - 1, which is
    # a - 2 for odd primes but 1 for a = 4; sigma = (a, 2a) gives
    # delta(C_2a) = delta(D_4a) = 2a - 4 for a = 4 and odd primes alike
    for a in (3, 4, 5, 7, 11, 13, 17, 19, 23):
        expected = a - 2 if a != 4 else 1
        assert census(make_cyclic(a)).delta == expected
        assert census(make_dihedral(2 * a)).delta == expected
        if 4 * a <= 64:
            assert census(make_cyclic(2 * a)).delta == 2 * a - 4
            assert census(make_dihedral(4 * a)).delta == 2 * a - 4


def test_census_json_keys():
    # the JSON of a census is built by the CLI; Q8 is make_dicyclic(8)
    out = io.StringIO()
    assert cli.run(["analyze", "Q8", "--format", "json"], out=out) == 0
    payload = json.loads(out.getvalue())
    assert payload["census"] == {
        "order": 8,
        "n_d": {"1": 1, "2": 1, "4": 3},
        "cyclic_count": 5,
        "delta": 3,
        "sigma": [4, 4, 4],
    }


# ---------------------------------------------------------------------------
# signatures


def is_signature(sig):
    """A plain tuple of ints above 2, sorted."""
    return (type(sig) is tuple and list(sig) == sorted(sig)
            and all(type(d) is int and d > 2 for d in sig))


def test_signature_validation(catalog):
    # a signature is a plain tuple, sorted, entries above 2, wherever the
    # program makes one: census and the claim recipes here, the candidate
    # search in test_candidates_equal_checked_signatures
    assert not is_signature((2, 3)) and not is_signature((4, 3))
    assert not is_signature([3, 4])
    assert is_signature((3, 4, 6)) and is_signature(())
    assert signature_delta((3, 4, 6)) == 3
    for _entry, _table, report in catalog:
        assert is_signature(report.signature), report
    for claim in theorem_claims():
        for recipe in claim.groups:
            assert is_signature(recipe.expected_sigma), recipe.label


def test_signature_delta_matches_census(catalog):
    for _entry, _table, report in catalog:
        assert signature_delta(report.signature) == report.delta


# ---------------------------------------------------------------------------
# solution counting


def test_count_solutions_examples():
    for g in (make_cyclic(12), make_dicyclic(8), make_symmetric(4)):
        assert count_solutions(g, 1) == 1
    assert count_solutions(make_dicyclic(8), 4) == 8
    assert count_solutions(make_dihedral(8), 2) == 6
    with pytest.raises(ValueError):
        count_solutions(make_cyclic(4), 0)


def test_count_solutions_matches_histogram():
    for g in (make_cyclic(24), make_dihedral(16), make_symmetric(4)):
        hist = Counter(g.element_orders())
        for n in range(1, g.order + 1):
            expected = sum(c for d, c in hist.items() if n % d == 0)
            assert count_solutions(g, n) == expected


def count_solutions_oracle(g, n):
    """count_solutions before it read element_orders(): the power loop."""
    if n < 1:
        raise ValueError(f"exponent must be positive, got {n}")
    solutions = 0
    for x in range(g.order):
        acc = 0
        for _ in range(n):
            acc = g.product[x][acc]
        solutions += acc == 0
    return solutions


def test_count_solutions_matches_power_loop(catalog, claim_tables,
                                            order_64_products):
    tables = ([table for _entry, table, _report in catalog] + claim_tables
              + order_64_products)
    for g in tables:
        for n in range(1, g.order + 1):
            assert count_solutions(g, n) == count_solutions_oracle(g, n), \
                (g.name, n)


def test_frobenius_divisibility_on_catalog(catalog):
    for entry, table, _report in catalog:
        for n in range(1, entry.order + 1):
            if entry.order % n == 0:
                assert count_solutions(table, n) % n == 0, (entry.label, n)
