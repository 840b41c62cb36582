"""Acceptance gate: the shipping criteria, each timed and reported.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  Every tolerance here is exact (set equality / integer
equality); the time limits are single-threaded wall-clock bounds.
"""

import functools
import time

from test_candidates import TABLES
from test_census import cyclic_subgroups, is_signature, signature_delta

from groupcensus import (RECORDED_JUSTIFICATIONS, apply_rules,
                         catalog_tables, catalog_validate, census,
                         count_solutions, direct_product,
                         enumerate_candidates, euler_phi, explore,
                         is_isomorphic, make_cyclic, parse_group,
                         property_suite, revised_table, theorem_claims)

REVISED_TABLES = {
    1: {(3,), (4,)},
    2: {(4, 4), (3, 6)},
    3: {(4, 4, 4), (5,)},
    4: {(3, 3, 3, 3), (4, 4, 4, 4), (3, 6, 6, 6), (4, 8)},
    5: {(7,), (3, 4, 4, 4, 6)},
}

EXCLUSION_COUNTS = {1: 1, 2: 4, 3: 12, 4: 23, 5: 47}
CANDIDATE_COUNTS = {1: 3, 2: 6, 3: 14, 4: 27, 5: 49}


def criterion(number, name, limit_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"criterion {number} ({name}): FAIL [{elapsed:.2f}s]")
                raise
            elapsed = time.perf_counter() - start
            in_time = elapsed < limit_seconds
            status = "PASS" if in_time else "FAIL (over time)"
            print(f"criterion {number} ({name}): {status} [{elapsed:.2f}s]")
            assert in_time, (f"criterion {number} took {elapsed:.2f}s,"
                             f" limit {limit_seconds}s")
        return wrapper
    return decorate


@criterion(1, "candidate-table reproduction", 1.0)
def test_acceptance_1_table_reproduction():
    for delta in range(1, 6):
        cands = enumerate_candidates(delta)
        assert len(cands) == CANDIDATE_COUNTS[delta]
        assert {c.signature for c in cands} == TABLES[delta]


@criterion(2, "exclusion reproduction", 1.0)
def test_acceptance_2_exclusion_reproduction():
    recorded_by_delta = {}
    for entries, _rule in RECORDED_JUSTIFICATIONS.items():
        delta = signature_delta(entries)
        recorded_by_delta.setdefault(delta, set()).add(entries)
    for delta in range(1, 6):
        excluded = {c.signature for c in enumerate_candidates(delta)
                    if apply_rules(c.signature).excluded}
        assert len(excluded) == EXCLUSION_COUNTS[delta]
        assert excluded == recorded_by_delta[delta]
        survivors = set(revised_table(delta))
        assert survivors == REVISED_TABLES[delta]


@criterion(3, "theorem-group verification", 5.0)
def test_acceptance_3_theorem_groups():
    spot = {"Q8": (3, (4, 4, 4)), "A4": (4, (3, 3, 3, 3)),
            "C3:C4": (5, (3, 4, 4, 4, 6))}
    total = 0
    for claim in theorem_claims():
        for recipe in claim.groups:
            report = census(recipe.build())
            assert report.delta == claim.delta, recipe.label
            assert report.signature == recipe.expected_sigma, recipe.label
            assert report.signature in REVISED_TABLES[claim.delta]
            if recipe.label in spot:
                assert (report.delta, report.signature) == \
                    spot[recipe.label]
            total += 1
    assert total == 25


@criterion(4, "exhaustive catalog sweep", 30.0)
def test_acceptance_4_exhaustive_sweep():
    validation = catalog_validate()
    assert validation.passed, validation.failures()
    expected = []
    g = make_cyclic(1)
    for _ in range(5):  # the elementary abelian 2-groups of order <= 16
        expected.append(("delta0", g))
        g = direct_product(g, make_cyclic(2))
    for claim in theorem_claims():
        for recipe in claim.groups:
            table = recipe.build()
            if table.order <= 24:
                expected.append((recipe.label, table))
    hits = [(entry, table, report) for entry, table, report in catalog_tables()
            if report.delta <= 5]
    assert len(hits) == len(expected) == 29
    remaining = list(expected)
    for entry, table, _report in hits:
        match = next((pair for pair in remaining
                      if pair[1].order == table.order
                      and is_isomorphic(pair[1], table)), None)
        assert match is not None, f"unclaimed catalog group {entry.label}"
        remaining.remove(match)
    assert not remaining


@criterion(5, "census identities and Frobenius counts", 30.0)
def test_acceptance_5_identity_suite():
    for entry, table, report in catalog_tables():
        assert sum(c * euler_phi(d) for d, c in report.n_d) == entry.order
        assert sum(c * (euler_phi(d) - 1) for d, c in report.n_d) == \
            report.delta
        for n in range(1, entry.order + 1):
            if entry.order % n == 0:
                assert count_solutions(table, n) % n == 0, (entry.label, n)


@criterion(6, "structural property suite", 30.0)
def test_acceptance_6_property_suite():
    report = property_suite()
    assert report.passed, report.failures()
    assert {c.name for c in report.properties} == {
        "doubling", "odd_4_count_2groups", "sigma_generators_index",
        "frobenius_divisibility", "order4_conjugation_squares"}


@criterion(7, "exclusion soundness on real groups", 10.0)
def test_acceptance_7_soundness_regression():
    for entry, _table, report in catalog_tables():
        verdict = apply_rules(report.signature)
        assert not verdict.excluded, (entry.label, verdict.fired_rules)


@criterion(8, "exploration smoke test", 30.0)
def test_acceptance_8_exploration_smoke():
    survivors = {s.signature: s for s in explore(6)}
    assert (4, 4, 4, 4, 4, 4) in survivors
    assert (5, 10) in survivors
    witnesses = {entry.label: report.delta
                 for s in survivors.values()
                 for entry, report in s.witnesses}
    for label in ("Q8xC2", "C10", "D20"):
        assert witnesses.get(label) == 6, label


@criterion(8, "exploration lists (3,3,3,3,6,6,6) at delta 7, not at 6", 30.0)
def test_acceptance_8_stated_signature_at_delta_6():
    # The requirement as first stated, "(3,3,3,3,6,6,6) is a delta-6
    # survivor", cannot be met: each entry d of a signature contributes
    # phi(d) - 1 to delta, and phi(3) - 1 = phi(6) - 1 = 1, so the seven
    # entries force delta = 7.  The test now checks what can be proved:
    # exploration lists the signature at delta 7, witnessed by C3xS3, and
    # neither enumeration nor exploration lists it at delta 6.
    sig = (3, 3, 3, 3, 6, 6, 6)
    assert signature_delta(sig) == 7

    # Pinned through the set-based oracle rather than census(): C3 x S3 has
    # 11 cyclic subgroups (1 trivial, 3 of order 2, 4 of order 3, 3 of
    # order 6) in 18 elements.
    g = parse_group("C3 x S3")
    assert g.order == 18
    cyclic = len(cyclic_subgroups(g))
    assert cyclic == 11
    assert g.order - cyclic == 7

    at_7 = {s.signature: s for s in explore(signature_delta(sig))}
    assert sig in at_7
    assert any(e.label == "C3xS3" and r.delta == 7
               for e, r in at_7[sig].witnesses)

    at_6 = explore(6)
    assert sig not in {c.signature for c in enumerate_candidates(6)}
    assert sig not in {s.signature for s in at_6}
    for s in at_6:
        assert is_signature(s.signature), s.signature
        assert signature_delta(s.signature) == 6, s.signature
