"""Exclusion rules against the hand-tabulated exclusion and revised tables."""

import math
from collections import Counter
from functools import cache
from typing import Callable

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupcensus import (RECORDED_JUSTIFICATIONS, RULES, Candidate,
                         apply_rules, census, enumerate_candidates,
                         parse_group, revised_table, theorem_claims)
from groupcensus import exclusion
from groupcensus.exclusion import admissible_orders
from groupcensus.census import euler_phi
from test_census import signature_delta

RULE_IDS = [
    "missing_divisor", "sylow_count", "coprime_product", "unique_3_with_4",
    "two_4s_with_3", "unique_3_two_6s", "unique_4_with_3", "odd_4s",
    "unique_6_repeated_3", "pattern_36666", "pattern_445", "pattern_448",
    "pattern_34466",
]

REVISED = {
    1: {(3,), (4,)},
    2: {(4, 4), (3, 6)},
    3: {(4, 4, 4), (5,)},
    4: {(3, 3, 3, 3), (4, 4, 4, 4), (3, 6, 6, 6), (4, 8)},
    5: {(7,), (3, 4, 4, 4, 6)},
}

EXCLUSION_COUNTS = {1: 1, 2: 4, 3: 12, 4: 23, 5: 47}


def recorded_by_delta(delta):
    return {entries: rule for entries, rule in RECORDED_JUSTIFICATIONS.items()
            if signature_delta(entries) == delta}


def test_registry_ids_and_order():
    assert type(RULES) is tuple
    assert [rule.id for rule in RULES] == RULE_IDS
    for rule in RULES:
        assert rule.description


def test_spot_verdicts():
    v = apply_rules((6,))
    assert v.excluded and "missing_divisor" in v.fired_rules
    v = apply_rules((3, 3))
    assert "sylow_count" in v.fired_rules
    v = apply_rules((3, 4))
    assert "coprime_product" in v.fired_rules
    assert not apply_rules((7,)).excluded
    assert not apply_rules((4, 4, 4, 4)).excluded
    assert not apply_rules((3, 4, 4, 4, 6)).excluded


def test_verdict_shape():
    v = apply_rules((3, 4, 4, 6, 6))
    assert v.excluded == bool(v.fired_rules)
    assert v.recorded_rule == "pattern_34466"
    survivor = apply_rules((4, 4))
    assert survivor.fired_rules == () and not survivor.excluded
    assert survivor.recorded_rule is None


def test_general_rules_subsume_bespoke_patterns():
    # the two-4s rule also covers (3,4,4,6,6); the unique-4 rule also
    # covers (3,4); both verdicts must still carry the recorded rule
    v = apply_rules((3, 4, 4, 6, 6))
    assert "two_4s_with_3" in v.fired_rules
    assert "pattern_34466" in v.fired_rules
    v = apply_rules((3, 4))
    assert "unique_4_with_3" in v.fired_rules
    assert "coprime_product" in v.fired_rules


@pytest.mark.parametrize("delta", [1, 2, 3, 4, 5])
def test_exclusion_tables_exact(delta):
    recorded = recorded_by_delta(delta)
    assert len(recorded) == EXCLUSION_COUNTS[delta]
    excluded = {}
    for cand in enumerate_candidates(delta):
        verdict = apply_rules(cand.signature)
        if verdict.excluded:
            excluded[cand.signature] = verdict
    assert set(excluded) == set(recorded)
    for entries, verdict in excluded.items():
        assert recorded[entries] in verdict.fired_rules, entries
        assert verdict.recorded_rule == recorded[entries]


@pytest.mark.parametrize("delta", [1, 2, 3, 4, 5])
def test_revised_tables_exact(delta):
    assert set(revised_table(delta)) == REVISED[delta]


def test_revised_table_sorted_and_deterministic():
    first = revised_table(6)
    assert first == revised_table(6)
    assert first == sorted(first)


# ---------------------------------------------------------------------------
# oracle: revised_table skips the runs of candidates below a settled prefix;
# judging every candidate must give the same survivors in the same order


def judged_by_revised_table(monkeypatch, delta):
    """revised_table(delta) and the signatures it handed to apply_rules."""
    judged = []

    def recording(sig):
        judged.append(sig)
        return apply_rules(sig)

    monkeypatch.setattr(exclusion, "apply_rules", recording)
    survivors = revised_table(delta)
    monkeypatch.undo()
    return survivors, judged


@pytest.mark.parametrize("delta", range(1, 17))
def test_revised_table_matches_judging_every_candidate(delta):
    assert revised_table(delta) == [
        c.signature for c in enumerate_candidates(delta)
        if not apply_rules(c.signature).excluded]


@pytest.mark.parametrize("delta", range(1, 17))
def test_prune_cuts_only_what_its_two_rules_exclude(monkeypatch, delta):
    _, judged = judged_by_revised_table(monkeypatch, delta)
    candidates = [c.signature for c in enumerate_candidates(delta)]
    kept = set(judged)
    assert judged == [sig for sig in candidates if sig in kept]
    for sig in candidates:
        if sig not in kept:
            fired = apply_rules(sig).fired_rules
            assert {"missing_divisor", "sylow_count"} & set(fired), sig


def test_prune_is_in_effect(monkeypatch):
    # 763 of the 8,525 candidates for delta 16 reach apply_rules
    survivors, judged = judged_by_revised_table(monkeypatch, 16)
    assert (len(judged), len(survivors)) == (763, 202)


def test_revised_table_lists_every_candidate_once(monkeypatch):
    # a traced run counts the candidates of the one enumerate_candidates
    # call and their rows, so revised_table must still list all of them
    calls = []

    def recording(delta):
        calls.append(enumerate_candidates(delta))
        return calls[-1]

    monkeypatch.setattr(exclusion, "enumerate_candidates", recording)
    revised_table(16)
    (listed,) = calls
    assert len(listed) == 8525
    assert all(type(c) is Candidate and len(c.rows) == 1 for c in listed)


def settled_prefix_oracle(entries):
    """The prefix test as first written: for each order that opens, one
    lookup of its divisors and one of its odd prime divisors."""
    seen = set()
    p = run = 0
    for i, d in enumerate(entries):
        if d == p:
            run += 1
            continue
        if run and _odd_prime_divisors(p) == (p,) and run % p != 1:
            return i + 1
        seen.add(d)
        if not seen.issuperset(_divisors_over_2(d)):
            return i + 1
        p, run = d, 1
    return 0


@pytest.mark.parametrize("delta", range(1, 17))
def test_settled_prefix_matches_oracle_on_candidates(delta):
    for cand in enumerate_candidates(delta):
        entries = cand.signature
        assert exclusion._settled_prefix(entries) == \
            settled_prefix_oracle(entries), entries


@given(st.lists(st.integers(3, 60), max_size=12).map(sorted))
def test_settled_prefix_matches_oracle_on_random_signatures(entries):
    entries = tuple(entries)
    assert exclusion._settled_prefix(entries) == \
        settled_prefix_oracle(entries)


def test_no_rule_fires_on_real_groups(catalog):
    # every rule encodes a nonexistence proof, so firing on the signature
    # of an actual group would falsify the rule or the census
    for entry, _table, report in catalog:
        verdict = apply_rules(report.signature)
        assert not verdict.excluded, (entry.label, verdict.fired_rules)


# ---------------------------------------------------------------------------
# oracle: the rules as they were written before the single-pass evaluation,
# one tuple method call per question; apply_rules must agree exactly


@cache
def _divisors_over_2(m: int) -> tuple[int, ...]:
    return tuple(k for k in range(3, m + 1) if m % k == 0)


@cache
def _odd_prime_divisors(m: int) -> tuple[int, ...]:
    return tuple(p for p in _divisors_over_2(m) if euler_phi(p) == p - 1)


def _missing_divisor(sig: tuple[int, ...]) -> bool:
    # a cyclic subgroup of order m contains one of order k for every k | m
    present = set(sig)
    return any(k not in present
               for m in present for k in _divisors_over_2(m))


def _sylow_count(sig: tuple[int, ...]) -> bool:
    # an odd prime p dividing an entry divides |G|, and then the number of
    # subgroups of order p is 1 mod p (Frobenius' refinement of Sylow)
    primes = {p for m in set(sig) for p in _odd_prime_divisors(m)}
    return any(sig.count(p) % p != 1 for p in primes)


def _coprime_product(sig: tuple[int, ...]) -> bool:
    # unique cyclic subgroups of coprime orders a, b are normal and commute
    # elementwise, so an element of order ab exists
    unique = [d for d in sorted(set(sig)) if sig.count(d) == 1]
    present = set(sig)
    return any(math.gcd(a, b) == 1 and a * b not in present
               for i, a in enumerate(unique) for b in unique[i + 1:])


def _unique_3_with_4(sig: tuple[int, ...]) -> bool:
    # a unique (hence normal) C3 is centralized by the square of any
    # order-4 element, producing an element of order 6
    return (sig.count(3) == 1 and sig.count(4) >= 1
            and 6 not in sig)


def _two_4s_with_3(sig: tuple[int, ...]) -> bool:
    # with exactly two C4's, any order-3 element acts trivially on the pair
    # and its square centralizes either, giving an element of order 12
    return (sig.count(4) == 2 and 3 in sig and 12 not in sig)


def _unique_3_two_6s(sig: tuple[int, ...]) -> bool:
    # two C6's over a unique C3 share their squares, and the product of
    # their generators spans a third C6
    return sig.count(3) == 1 and sig.count(6) == 2


def _unique_4_with_3(sig: tuple[int, ...]) -> bool:
    # a unique (hence normal) C4 admits no nontrivial C3-action, so a
    # subgroup C4 x C3 = C12 exists
    return sig.count(4) == 1 and 3 in sig and 12 not in sig


def _odd_4s(sig: tuple[int, ...]) -> bool:
    # a 2-group with an odd count of C4's is cyclic, dihedral, generalized
    # quaternion or quasidihedral; only C4, D8 (one C4) and Q8 (three) have
    # no cyclic subgroup of any other order > 2
    return (bool(sig) and all(e == 4 for e in sig)
            and len(sig) % 2 == 1 and len(sig) not in (1, 3))


def _unique_6_repeated_3(sig: tuple[int, ...]) -> bool:
    # a unique (hence normal) C6 next to a disjoint C3 forces C6 x C3,
    # which already contains four C6's
    return sig.count(6) == 1 and sig.count(3) >= 2


def _exact(*entries: int) -> Callable[[tuple[int, ...]], bool]:
    pattern = tuple(sorted(entries))
    return lambda sig: sig == pattern


ORACLE_RULES = (
    ("missing_divisor", _missing_divisor),
    ("sylow_count", _sylow_count),
    ("coprime_product", _coprime_product),
    ("unique_3_with_4", _unique_3_with_4),
    ("two_4s_with_3", _two_4s_with_3),
    ("unique_3_two_6s", _unique_3_two_6s),
    ("unique_4_with_3", _unique_4_with_3),
    ("odd_4s", _odd_4s),
    ("unique_6_repeated_3", _unique_6_repeated_3),
    ("pattern_36666", _exact(3, 6, 6, 6, 6)),
    ("pattern_445", _exact(4, 4, 5)),
    ("pattern_448", _exact(4, 4, 8)),
    ("pattern_34466", _exact(3, 4, 4, 6, 6)),
)


def oracle_fired(sig: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(rule_id for rule_id, predicate in ORACLE_RULES
                 if predicate(sig))


def test_oracle_covers_the_registry():
    assert [rule_id for rule_id, _ in ORACLE_RULES] == RULE_IDS


@pytest.mark.parametrize("delta", range(1, 17))
def test_fired_rules_match_oracle_on_candidates(delta):
    for cand in enumerate_candidates(delta):
        verdict = apply_rules(cand.signature)
        assert verdict.fired_rules == oracle_fired(cand.signature), cand
        assert verdict.excluded == bool(verdict.fired_rules)


@given(st.lists(st.integers(3, 60), max_size=12).map(sorted))
def test_fired_rules_match_oracle_on_random_signatures(entries):
    sig = tuple(entries)
    assert apply_rules(sig).fired_rules == oracle_fired(sig)


# ---------------------------------------------------------------------------
# order windows: admissible_orders against its five conditions, checked
# literally for every n in 1..4N, and against the orders of real groups

NO_BOUND = 10 ** 9  # admissible_orders' own bound 4N is then the binding one


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % k for k in range(2, p))


def window_oracle(sig: tuple[int, ...]) -> list[int]:
    """Every n in 1..4N (the fifth condition) meeting the other four, each
    as stated."""
    big = sum(euler_phi(d) for d in sig)
    window = []
    for n in range(1, 4 * big + 1):
        involutions = n - big - 1
        if (all(n % d == 0 for d in sig)  # Lagrange
                and all(p in sig for p in range(3, n + 1)
                        if n % p == 0 and _is_prime(p))  # Cauchy
                and (involutions == 0 if n % 2 else involutions >= 1)  # parity
                and all((1 + (involutions if m % 2 == 0 else 0)
                         + sum(euler_phi(d) for d in sig if m % d == 0))
                        % m == 0
                        for m in range(1, n + 1) if n % m == 0)):  # Frobenius
            window.append(n)
    return window


@pytest.mark.parametrize("delta", range(1, 13))
def test_windows_match_oracle_on_candidates(delta):
    for cand in enumerate_candidates(delta):
        assert admissible_orders(cand.signature, NO_BOUND) == \
            window_oracle(cand.signature), cand.signature


@pytest.mark.parametrize("delta", range(1, 17))
def test_windows_match_oracle_on_survivors(delta):
    for sig in revised_table(delta):
        assert admissible_orders(sig, NO_BOUND) == window_oracle(sig), sig


@given(st.lists(st.integers(3, 30), min_size=1, max_size=5).map(sorted),
       st.integers(1, 150))
def test_windows_match_oracle_on_random_signatures(entries, max_order):
    sig = tuple(entries)
    assert admissible_orders(sig, max_order) == [
        n for n in window_oracle(sig) if n <= max_order]


def test_empty_signature_window_is_the_powers_of_2():
    assert admissible_orders((), 64) == [1, 2, 4, 8, 16, 32, 64]
    assert admissible_orders((), 24) == [1, 2, 4, 8, 16]


@pytest.mark.parametrize("max_order", [5, 12, 24, 64])
def test_windows_stay_under_max_order(max_order):
    # the window's upper end is max_order itself, never one step past it
    for delta in range(1, 17):
        for cand in enumerate_candidates(delta):
            orders = admissible_orders(cand.signature, max_order)
            assert all(n <= max_order for n in orders), cand.signature


def test_entry_past_max_order_empties_the_window(monkeypatch):
    # Lagrange puts such a signature past every order <= max_order, so the
    # window is empty before any totient: trial division of 10**14 + 31
    # alone took most of a second
    def no_totient(d):
        raise AssertionError(f"totient of {d} computed")

    monkeypatch.setattr(exclusion, "_phi", no_totient)
    assert admissible_orders((10**14 + 31,), 24) == []
    assert admissible_orders((3, 25), 24) == []
    assert admissible_orders((3, 10**26 - 1), 64) == []


# the windows of the delta <= 5 survivors, from the five conditions
PINNED_WINDOWS = {
    (3,): [3, 6], (4,): [4, 8],
    (3, 6): [6, 12], (4, 4): [8, 16],
    (4, 4, 4): [8, 16], (5,): [5, 10],
    (3, 3, 3, 3): [9, 12, 18, 24], (3, 6, 6, 6): [12, 24],
    (4, 4, 4, 4): [16, 32], (4, 8): [8, 16],
    (3, 4, 4, 4, 6): [12], (7,): [7, 14],
}


def test_pinned_windows_delta_1_to_5():
    assert set(PINNED_WINDOWS) == set().union(*REVISED.values())
    for sig, window in PINNED_WINDOWS.items():
        assert admissible_orders(sig, NO_BOUND) == window, sig


def test_windows_are_cut_at_max_order():
    assert admissible_orders((4, 4, 4, 4), 24) == [16]
    assert admissible_orders((3, 3, 3, 3), 12) == [9, 12]
    assert admissible_orders((3, 3, 3, 3), 8) == []


# survivors of delta 6..16 whose window is empty: no group has them
EMPTY_WINDOWS = dict(zip(range(6, 17),
                         [3, 7, 8, 18, 23, 35, 54, 76, 100, 139, 182]))


def test_pinned_empty_window_counts():
    counts = {delta: sum(not admissible_orders(sig, NO_BOUND)
                         for sig in revised_table(delta))
              for delta in range(6, 17)}
    assert counts == EMPTY_WINDOWS
    assert sum(counts.values()) == 645
    assert sum(len(revised_table(delta)) for delta in range(1, 17)) == 766


# tables of order 25..64 beyond the catalog, all with delta >= 1
LARGE_GROUPS = [
    "C25", "C5 x C5", "D26", "C27", "C9 x C3", "C3 x C3 x C3", "D28", "Q28",
    "C30", "D30", "C32", "D32", "Q32", "SD32", "D8 x C4", "Q8 x C4",
    "C4 x C4 x C2", "Q8 x C2 x C2", "D16 x C2", "A4 x C3", "S3 x S3",
    "sd(C3 x C3 x C3, C2, inv)", "sd(C5 x C5, C2, inv)", "C7 x C7",
    "S4 x C2", "A4 x C4", "Q12 x C4", "D12 x C4", "C5 x A4", "S3 x D10",
    "C8 x C8", "D8 x D8", "Q64", "SD64", "D64",
]


def assert_in_window(label: str, order: int, sig: tuple[int, ...]) -> None:
    assert order in admissible_orders(sig, order), (label, order, sig)


def test_catalog_orders_lie_in_their_windows(catalog):
    # delta 0 included: the empty signature's window is the powers of 2
    for entry, _table, report in catalog:
        assert_in_window(entry.label, entry.order, report.signature)


def test_claim_orders_lie_in_their_windows(claim_tables):
    assert len(claim_tables) == len(
        [r for c in theorem_claims() for r in c.groups]) == 25
    for table in claim_tables:
        assert_in_window(table.name, table.order, census(table).signature)


def test_larger_orders_lie_in_their_windows(order_64_products):
    tables = order_64_products + [parse_group(expr) for expr in LARGE_GROUPS]
    assert all(25 <= table.order <= 64 for table in tables)
    for table in tables:
        assert_in_window(table.name, table.order, census(table).signature)


# what the rules add beyond the windows: on delta <= 16, how often each rule
# fires on a rule-excluded candidate whose full window (up to 4N) is not
# empty; the other eight rules fire only where the window is empty
RULES_BEYOND_WINDOWS = {"missing_divisor": 38, "unique_6_repeated_3": 7,
                        "odd_4s": 6, "unique_3_two_6s": 1, "pattern_448": 1}


def test_rules_beyond_the_windows():
    candidates = [sig for delta in range(1, 17)
                  for (sig,) in enumerate_candidates(delta)]
    assert len(candidates) == 25237
    beyond = [verdict for verdict in map(apply_rules, candidates)
              if verdict.excluded
              and admissible_orders(verdict.signature, NO_BOUND)]
    assert len(beyond) == 52
    fired = Counter(rule for verdict in beyond
                    for rule in verdict.fired_rules)
    assert fired == RULES_BEYOND_WINDOWS
