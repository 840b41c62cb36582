"""Signature enumeration against the hand-tabulated candidate lists."""

import json
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupcensus import (Candidate, CandidateRow, enumerate_candidates,
                         euler_phi, integer_partitions)
from test_census import (is_signature, phi_oracle, signature_delta,
                         totient_sieve)

# enumerate_candidates and explore for delta = 6..16, captured from the
# trial-division phi_inverse before its replacement
PINNED = json.loads(
    (pathlib.Path(__file__).parent / "data" / "explore_6_16.json").read_text())

# Complete candidate tables for delta = 1..5, transcribed by hand.
TABLE_1 = {(3,), (4,), (6,)}

TABLE_2 = {(3, 3), (4, 4), (6, 6), (3, 4), (3, 6), (4, 6)}

TABLE_3 = {
    (3, 3, 3), (4, 4, 4), (6, 6, 6),
    (5,), (8,), (10,), (12,),
    (3, 3, 4), (3, 3, 6), (3, 4, 4), (4, 4, 6), (3, 6, 6), (4, 6, 6),
    (3, 4, 6),
}

TABLE_4 = {
    (3, 3, 3, 3), (4, 4, 4, 4), (6, 6, 6, 6),
    (3, 3, 3, 4), (3, 3, 3, 6), (3, 4, 4, 4),
    (4, 4, 4, 6), (3, 6, 6, 6), (4, 6, 6, 6),
    (3, 5), (4, 5), (5, 6), (3, 8), (4, 8), (6, 8),
    (3, 10), (4, 10), (6, 10), (3, 12), (4, 12), (6, 12),
    (3, 3, 4, 4), (3, 3, 6, 6), (4, 4, 6, 6),
    (3, 3, 4, 6), (3, 4, 4, 6), (3, 4, 6, 6),
}

TABLE_5 = {
    (7,), (9,), (14,), (18,),
    (3, 3, 3, 3, 3), (4, 4, 4, 4, 4), (6, 6, 6, 6, 6),
    (3, 3, 3, 3, 4), (3, 3, 3, 3, 6), (3, 4, 4, 4, 4),
    (3, 6, 6, 6, 6), (4, 4, 4, 4, 6), (4, 6, 6, 6, 6),
    (3, 3, 3, 4, 4), (3, 3, 3, 6, 6), (3, 3, 4, 4, 4),
    (4, 4, 4, 6, 6), (3, 3, 6, 6, 6), (4, 4, 6, 6, 6),
    (3, 3, 5), (4, 4, 5), (5, 6, 6), (3, 3, 8),
    (4, 4, 8), (6, 6, 8), (3, 3, 10), (4, 4, 10),
    (6, 6, 10), (3, 3, 12), (4, 4, 12), (6, 6, 12),
    (3, 3, 3, 4, 6), (3, 4, 4, 4, 6), (3, 4, 6, 6, 6),
    (3, 4, 5), (3, 5, 6), (4, 5, 6), (3, 4, 8),
    (3, 6, 8), (4, 6, 8), (3, 4, 10), (3, 6, 10),
    (4, 6, 10), (3, 4, 12), (3, 6, 12), (4, 6, 12),
    (3, 3, 4, 4, 6), (3, 3, 4, 6, 6), (3, 4, 4, 6, 6),
}

TABLES = {1: TABLE_1, 2: TABLE_2, 3: TABLE_3, 4: TABLE_4, 5: TABLE_5}


# ---------------------------------------------------------------------------
# partitions


def test_partitions_of_four_in_order():
    assert integer_partitions(4) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partition_counts():
    # p(n) for n = 1..12 via the classical recurrence, independent of the
    # generator under test
    table = {0: 1}

    def p(n):
        if n < 0:
            return 0
        if n not in table:
            total, k = 0, 1
            while True:
                g1 = k * (3 * k - 1) // 2
                g2 = k * (3 * k + 1) // 2
                if g1 > n and g2 > n:
                    break
                sign = -1 if k % 2 == 0 else 1
                total += sign * (p(n - g1) + p(n - g2))
                k += 1
            table[n] = total
        return table[n]

    for n in range(1, 13):
        assert len(integer_partitions(n)) == p(n)


def test_partitions_shape():
    for n in range(1, 10):
        parts = integer_partitions(n)
        assert len(set(parts)) == len(parts)
        for part in parts:
            assert sum(part) == n
            assert all(a >= b for a, b in zip(part, part[1:]))
    with pytest.raises(ValueError):
        integer_partitions(0)


# ---------------------------------------------------------------------------
# part expansion: the partition-backtracking enumerator, kept as the oracle
# for the direct enumeration


# phi(d) >= sqrt(d/2), so the sieve holds every d with phi(d) <= 21: the
# preimages, ascending, of each totient m + 1 a part of at most 20 can use
PHI = totient_sieve(2 * 21 ** 2)
PREIMAGES = {m: [d for d, phi in enumerate(PHI) if phi == m]
             for m in range(2, 22)}


def expand_part(p):
    """All (count, order) readings of one part p <= 20 of a partition.

    For every odd divisor m of p and every order d with phi(d) = m + 1 the
    part can stand for p/m cyclic subgroups of order d.
    """
    options = []
    for m in range(1, p + 1, 2):
        if p % m:
            continue
        for d in PREIMAGES[m + 1]:
            options.append((p // m, d))
    return options


def row_signature(row):
    """The sorted signature a partition row spells out, count by count."""
    return tuple(sorted(d for count, d in row.choices for _ in range(count)))


def enumerate_by_partitions(delta):
    """(signature, rows) pairs sorted by signature, every partition of delta
    expanded part by part with pairwise distinct orders."""
    by_signature = {}
    for partition in integer_partitions(delta):
        options = [expand_part(p) for p in partition]

        def assign(i, chosen, used):
            if i == len(partition):
                row = CandidateRow(partition, tuple(chosen))
                by_signature.setdefault(row_signature(row), []).append(row)
                return
            for count, d in options[i]:
                if d in used:
                    continue
                # equal parts share an option list; force ascending order on
                # their chosen d so each assignment is produced exactly once
                if i > 0 and partition[i] == partition[i - 1] and d < chosen[-1][1]:
                    continue
                chosen.append((count, d))
                used.add(d)
                assign(i + 1, chosen, used)
                chosen.pop()
                used.remove(d)

        assign(0, [], set())
    return [(sig, tuple(rows)) for sig, rows in sorted(by_signature.items())]


def test_expand_part_examples():
    assert expand_part(1) == [(1, 3), (1, 4), (1, 6)]
    assert expand_part(2) == [(2, 3), (2, 4), (2, 6)]
    assert expand_part(3) == [(3, 3), (3, 4), (3, 6),
                              (1, 5), (1, 8), (1, 10), (1, 12)]


@given(st.integers(min_value=1, max_value=20))
def test_expand_part_consistency(p):
    for count, d in expand_part(p):
        m = euler_phi(d) - 1
        assert m % 2 == 1
        assert count * m == p


# ---------------------------------------------------------------------------
# candidate enumeration


@pytest.mark.parametrize("delta,expected_count",
                         [(1, 3), (2, 6), (3, 14), (4, 27), (5, 49)])
def test_candidate_counts(delta, expected_count):
    assert len(enumerate_candidates(delta)) == expected_count


def test_candidate_counts_pinned_up_to_16():
    counts = {int(d): n for d, n in PINNED["candidate_counts"].items()}
    assert [counts[d] for d in range(6, 17, 2)] == [
        90, 260, 686, 1681, 3877, 8525]
    for delta in range(6, 17):
        assert len(enumerate_candidates(delta)) == counts[delta], delta


@pytest.mark.parametrize("delta", [1, 2, 3, 4, 5])
def test_candidate_tables_exact(delta):
    got = {c.signature for c in enumerate_candidates(delta)}
    assert got == TABLES[delta]


@pytest.mark.parametrize("delta", [1, 2, 3, 4, 5, 6, 7, 8])
def test_candidates_satisfy_totient_identity(delta):
    for cand in enumerate_candidates(delta):
        assert signature_delta(cand.signature) == delta
        for row in cand.rows:
            assert sum(n * m for n, m in row.factorization) == delta


def test_small_part_partitions_emit_nothing():
    # partitions with more than three parts equal to 1 (or a 2 plus three
    # 1s) need four distinct orders with phi(d) = 2, but only 3, 4, 6 exist
    for cand in enumerate_candidates(4):
        assert all(row.partition != (1, 1, 1, 1) for row in cand.rows)
    for cand in enumerate_candidates(5):
        for row in cand.rows:
            assert row.partition not in ((2, 1, 1, 1), (1, 1, 1, 1, 1))


def test_enumeration_is_deterministic():
    first = enumerate_candidates(6)
    second = enumerate_candidates(6)
    assert first == second
    assert [c.signature for c in first] == sorted(c.signature for c in first)


def test_candidates_are_sound_for_catalog(catalog):
    # every real group with small delta appears among its candidates
    for entry, _table, report in catalog:
        if 1 <= report.delta <= 8:
            sigs = {c.signature for c in enumerate_candidates(report.delta)}
            assert report.signature in sigs, entry.label


def test_one_row_per_signature():
    # each distinct order takes one part, so a signature has a single row
    for delta in range(1, 7):
        for cand in enumerate_candidates(delta):
            (row,) = cand.rows
            assert row_signature(row) == cand.signature


@pytest.mark.parametrize("delta", range(1, 17))
def test_direct_enumeration_matches_partition_oracle(delta):
    got = enumerate_candidates(delta)
    expected = enumerate_by_partitions(delta)
    assert [c.signature for c in got] == [sig for sig, _rows in expected]
    for cand, (_sig, rows) in zip(got, expected):
        assert cand.rows == rows  # partition and choices, field by field
        assert [r.factorization for r in cand.rows] == \
            [r.factorization for r in rows]


@pytest.mark.parametrize("delta", range(1, 17))
def test_candidates_equal_checked_signatures(delta):
    # the search checks its orders once, not each signature; every
    # candidate must still be a plain sorted tuple above 2, each once
    cands = enumerate_candidates(delta)
    for cand in cands:
        assert type(cand) is Candidate
        assert is_signature(cand.signature), cand
    assert len({c.signature for c in cands}) == len(cands)


def test_totient_square_bounds_orders_past_6():
    # the cut-off of enumerate_candidates' order scan: d <= phi(d)^2
    phi = totient_sieve(10 ** 5)
    assert phi[:301] == [0] + [phi_oracle(n) for n in range(1, 301)]
    assert [n for n in range(1, 7) if phi[n] ** 2 < n] == [2, 6]
    assert all(phi[n] ** 2 >= n for n in range(7, 10 ** 5 + 1))


@pytest.mark.parametrize("delta", range(1, 17))
def test_candidate_orders_match_sieve(delta):
    # phi(d) >= sqrt(d/2), so 2 (delta + 1)^2 bounds every order of weight
    # phi(d) - 1 <= delta; each one occurs beside delta - weight threes
    limit = 2 * (delta + 1) ** 2
    phi = totient_sieve(limit)
    orders = {d for d in range(3, limit + 1) if phi[d] - 1 <= delta}
    signatures = {c.signature for c in enumerate_candidates(delta)}
    assert {d for sig in signatures for d in sig} == orders
    for d in orders:
        assert tuple(sorted((d,) + (3,) * (delta - phi[d] + 1))) in signatures


def test_delta_out_of_range():
    with pytest.raises(ValueError):
        enumerate_candidates(0)
    with pytest.raises(ValueError):
        enumerate_candidates(17)
    # one bound for partitions and candidates
    with pytest.raises(ValueError):
        integer_partitions(17)
