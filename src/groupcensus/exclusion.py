"""Exclusion rules over signatures, and the revised tables they produce.

Each rule encodes a nonexistence argument: if it fires on a signature, no
finite group realizes that signature.  Rules are evaluated exhaustively
(never first-match) so the verdict can be compared against the recorded
justification for the classically tabulated cases delta <= 5.

``apply_rules`` counts the entries once into the multiplicity map
{d: n_d} and checks all thirteen rules in one pass over the sorted entries
and that map, in registry order, each next to the argument behind it.  The
registry itself holds each rule's id and description.

``revised_table`` does not judge every candidate.  The candidates arrive in
lexicographic order, the leaf order of the depth-first candidate search,
so the signatures that begin with a given prefix form one contiguous run.
Two rules are settled on a prefix that ends where a new order d opens:

- missing_divisor: every entry after the prefix is at least d.  A divisor
  k of d with 2 < k < d that is not an entry of the prefix is therefore
  missing from every signature on the run.
- sylow_count: opening d closes the run of the previous order p, so no
  later entry adds to n_p.  If p is an odd prime with n_p % p != 1, the
  rule fires on the entry p itself in every signature on the run.

``revised_table`` skips such a run as a whole, as the search would cut the
branch.  Each signature skipped is thus excluded by a rule, and each one
left still goes through ``apply_rules``, so the survivors are those of
judging every candidate, in the same order.

``admissible_orders`` is the order window of a signature: the orders a
group with that signature can have, by Lagrange, Cauchy, the parity of
the involution count, Frobenius (1895) and the bound n <= 4N.  It does not
exclude signatures; ``explore`` uses it to build only the catalog orders
that can hold a witness.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache

from .candidates import enumerate_candidates
from .census import euler_phi


class ExclusionRule(namedtuple("ExclusionRule", "id description")):
    __slots__ = ()


class Verdict(namedtuple("Verdict",
                         "signature excluded fired_rules recorded_rule")):
    __slots__ = ()  # recorded_rule: curated justification, delta <= 5 only


# per-order facts, computed once per order rather than per signature and rule
@cache
def _divisors_over_2(m: int) -> frozenset[int]:
    return frozenset(k for k in range(3, m + 1) if m % k == 0)


@cache
def _odd_prime_divisors(m: int) -> tuple[int, ...]:
    return tuple(sorted(p for p in _divisors_over_2(m)
                        if euler_phi(p) == p - 1))


_phi = cache(euler_phi)


RULES = (
    ExclusionRule(
        "missing_divisor",
        "an entry has a divisor greater than 2 that is not itself an entry"),
    ExclusionRule(
        "sylow_count",
        "an odd prime p divides an entry but occurs as an entry a number of"
        " times that is not 1 mod p"),
    ExclusionRule(
        "coprime_product",
        "two entries of multiplicity one are coprime but their product is"
        " not an entry"),
    ExclusionRule(
        "unique_3_with_4",
        "a unique 3 alongside a 4 forces an element of order 6, but 6 is"
        " not an entry"),
    ExclusionRule(
        "two_4s_with_3",
        "exactly two 4s alongside a 3 force an element of order 12, but 12"
        " is not an entry"),
    ExclusionRule(
        "unique_3_two_6s",
        "exactly two 6s over a unique 3 force a third cyclic subgroup of"
        " order 6"),
    ExclusionRule(
        "unique_4_with_3",
        "a unique 4 alongside a 3 forces an element of order 12, but 12 is"
        " not an entry"),
    ExclusionRule(
        "odd_4s",
        "a signature of 4s alone with odd multiplicity is realized only"
        " with one 4 (C4, D8) or three (Q8)"),
    ExclusionRule(
        "unique_6_repeated_3",
        "a unique 6 next to a second 3 forces a subgroup C6 x C3 and hence"
        " more cyclic subgroups of order 6"),
    ExclusionRule(
        "pattern_36666",
        "no group has exactly four cyclic subgroups of order 6 over a"
        " unique one of order 3 and nothing else"),
    ExclusionRule(
        "pattern_445",
        "two 4s and a unique 5 force a subgroup C20 and hence an element"
        " of order 20"),
    ExclusionRule(
        "pattern_448",
        "two 4s under a unique 8 force a second element family of order 8"),
    ExclusionRule(
        "pattern_34466",
        "a 3 with exactly two 4s and two 6s is impossible: the order-4"
        " action on the normal C3 yields a third 4 or an element of"
        " order 12"),
)


def apply_rules(entries: tuple[int, ...]) -> Verdict:
    """Evaluate every rule on a signature and report all that fire.

    The signature is a sorted tuple of entries above 2.  The rules are
    checked in registry order over n = {d: n_d}, keys ascending, and each
    that fires appends its id.
    """
    n: dict[int, int] = {}
    for d in entries:
        n[d] = n.get(d, 0) + 1
    n3, n4, n6 = n.get(3), n.get(4), n.get(6)
    fired = []
    # delta <= 16: also strikes 38 candidates with a non-empty window
    # missing_divisor: a cyclic subgroup of order m contains one of order k
    # for every k | m
    for m in n:
        if not n.keys() >= _divisors_over_2(m):
            fired.append("missing_divisor")
            break
    # delta <= 16: fires only where the order window is already empty
    # sylow_count: an odd prime p dividing an entry divides |G|, and then
    # the number of subgroups of order p is 1 mod p (Frobenius' refinement
    # of Sylow)
    for m in n:
        for p in _odd_prime_divisors(m):
            if n.get(p, 0) % p != 1:
                break
        else:
            continue
        fired.append("sylow_count")
        break
    # delta <= 16: fires only where the order window is already empty
    # coprime_product: unique cyclic subgroups of coprime orders a, b are
    # normal and commute elementwise, so an element of order ab exists
    unique: list[int] = []
    for b, count in n.items():
        if count == 1:
            for a in unique:
                if math.gcd(a, b) == 1 and a * b not in n:
                    break
            else:
                unique.append(b)
                continue
            fired.append("coprime_product")
            break
    # delta <= 16: fires only where the order window is already empty
    # unique_3_with_4: a unique (hence normal) C3 is centralized by the
    # square of any order-4 element, producing an element of order 6
    if n3 == 1 and n4 and not n6:
        fired.append("unique_3_with_4")
    # delta <= 16: fires only where the order window is already empty
    # two_4s_with_3: with exactly two C4's, any order-3 element acts
    # trivially on the pair and its square centralizes either, giving an
    # element of order 12
    if n4 == 2 and n3 and 12 not in n:
        fired.append("two_4s_with_3")
    # delta <= 16: also strikes 1 candidate with a non-empty window
    # unique_3_two_6s: two C6's over a unique C3 share their squares, and
    # the product of their generators spans a third C6
    if n3 == 1 and n6 == 2:
        fired.append("unique_3_two_6s")
    # delta <= 16: fires only where the order window is already empty
    # unique_4_with_3: a unique (hence normal) C4 admits no nontrivial
    # C3-action, so a subgroup C4 x C3 = C12 exists
    if n4 == 1 and n3 and 12 not in n:
        fired.append("unique_4_with_3")
    # delta <= 16: also strikes 6 candidates with a non-empty window
    # odd_4s: a 2-group with an odd count of C4's is cyclic, dihedral,
    # generalized quaternion or quasidihedral; only C4, D8 (one C4) and Q8
    # (three) have no cyclic subgroup of any other order > 2
    if n4 and len(n) == 1 and n4 % 2 == 1 and n4 not in (1, 3):
        fired.append("odd_4s")
    # delta <= 16: also strikes 7 candidates with a non-empty window
    # unique_6_repeated_3: a unique (hence normal) C6 next to a disjoint C3
    # forces C6 x C3, which already contains four C6's
    if n6 == 1 and n3 and n3 >= 2:
        fired.append("unique_6_repeated_3")
    # delta <= 16: fires only where the order window is already empty
    # pattern_36666: no group has four C6's over a unique C3 and nothing else
    if entries == (3, 6, 6, 6, 6):
        fired.append("pattern_36666")
    # delta <= 16: fires only where the order window is already empty
    # pattern_445: two C4's and a unique (hence normal) C5 give C20
    if entries == (4, 4, 5):
        fired.append("pattern_445")
    # delta <= 16: also strikes 1 candidate with a non-empty window
    # pattern_448: two C4's under a unique C8 force a second family of 8s
    if entries == (4, 4, 8):
        fired.append("pattern_448")
    # delta <= 16: fires only where the order window is already empty
    # pattern_34466: an order-4 action on the normal C3 yields a third C4
    # or an element of order 12
    if entries == (3, 4, 4, 6, 6):
        fired.append("pattern_34466")
    return Verdict(entries, bool(fired), tuple(fired),
                   RECORDED_JUSTIFICATIONS.get(entries))


@cache
def _opening_facts(d: int) -> tuple[frozenset[int], bool]:
    """What opening an order d settles on a prefix: its divisors above 2
    other than d, and whether d is an odd prime."""
    return _divisors_over_2(d) - {d}, _odd_prime_divisors(d) == (d,)


def _settled_prefix(entries: tuple[int, ...]) -> int:
    """Length of the shortest prefix, ending where an order opens, on which
    missing_divisor or sylow_count already fires; 0 if there is none.  The
    module docstring has the proof."""
    seen: set[int] = set()
    p = run = 0  # the order of the open run, and its length so far
    odd_prime = False  # whether p is an odd prime
    for i, d in enumerate(entries):
        if d == p:
            run += 1
            continue
        if odd_prime and run % p != 1:
            return i + 1
        divisors, odd_prime = _opening_facts(d)
        if not seen >= divisors:
            return i + 1
        seen.add(d)
        p, run = d, 1
    return 0


def admissible_orders(entries: tuple[int, ...], max_order: int) -> list[int]:
    """The orders n <= max_order that a group with this signature can have.

    Let N be the sum of phi(d) over the entries: each element of order
    d > 2 generates one cyclic subgroup, of which it is one of the phi(d)
    generators, so N counts the elements of order above 2 and n - N - 1
    those of order 2.  An order n is admissible only if:

    - Lagrange: lcm(entries) divides n, each entry being an element order.
    - Cauchy: every odd prime p dividing n is an entry, since G then has an
      element of order p, whose cyclic subgroup has order p > 2.
    - parity: an odd n has no element of order 2, so n = N + 1; an even n
      has one by Cauchy, so n >= N + 2.
    - Frobenius (1895): for every m dividing n, the number of solutions of
      x^m = 1 is divisible by m.  The solutions are the elements whose
      order divides m: the identity, the n - N - 1 elements of order 2 if
      m is even, and phi(d) generators for each entry d dividing m.
    - n <= 4N, for a nonempty signature.  Let I = {x : x^2 = 1} and
      suppose n > 4N, so |I| = n - N > 3n/4.  For x in I, |I & xI| > n/2,
      and every z with z and xz in I commutes with x, as
      xz = (xz)^-1 = zx.  So the centralizer of x has more than n/2
      elements, hence is G, and I lies in the centre.  I generates G, as
      |I| > n/2, so G is abelian, I is a subgroup of index below 4/3 and
      G = I: an elementary abelian 2-group, whose signature is empty.
      The bound is tight: D8 x C2^k has order 2^(k+3) and N = 2^(k+1).

    For n >= N + 1, Frobenius alone implies the first three.  At m = n
    the count is between 1 and n, hence n, which needs every entry to
    divide n and an odd n to be N + 1.  At m = 2 an even n has an odd
    number of elements of order 2.  At an odd prime m = p the count is
    1 + (p - 1) n_p, so n_p = 1 mod p and p is an entry.
    They are checked first because they are cheaper, and only multiples of
    lcm(entries) from N + 1 up are visited.  The empty signature has no
    bound 4N; the other conditions leave the powers of 2 up to max_order,
    the orders of the elementary abelian 2-groups.  The orders come sorted.
    """
    if entries and max(entries) > max_order:
        return []  # Lagrange, before trial division on a huge entry
    big = sum(map(_phi, entries))  # N
    top = min(4 * big, max_order) if entries else max_order
    if big >= top:
        return []  # every order is at least N + 1
    step = math.lcm(*entries)
    orders = []
    for order in range(-(-(big + 1) // step) * step, top + 1, step):
        involutions = order - big - 1
        if bool(involutions) != (order % 2 == 0):
            continue  # parity
        if any(p not in entries for p in _odd_prime_divisors(order)):
            continue  # Cauchy
        for m in range(2, order + 1):
            if order % m:
                continue
            solutions = 1 + sum(_phi(d) for d in entries if m % d == 0)
            if m % 2 == 0:
                solutions += involutions
            if solutions % m:
                break  # Frobenius
        else:
            orders.append(order)
    return orders


def revised_table(delta: int) -> list[tuple[int, ...]]:
    """Signatures for this delta that survive every exclusion rule, sorted.

    A run of candidates below a prefix that ``_settled_prefix`` finds is
    skipped; every other candidate is judged by ``apply_rules``.
    """
    survivors = []
    cut, length = (), 0  # the last settled prefix and its length
    for (entries,) in enumerate_candidates(delta):
        if length and entries[:length] == cut:
            continue
        length = _settled_prefix(entries)
        if length:
            cut = entries[:length]
        elif not apply_rules(entries).excluded:
            survivors.append(entries)
    return survivors


# Curated justification for each excluded signature with delta <= 5, as
# classically tabulated.  apply_rules must always fire at least the recorded
# rule; the test suite pins that down.
RECORDED_JUSTIFICATIONS: dict[tuple[int, ...], str] = {
    # delta = 1
    (6,): "missing_divisor",
    # delta = 2
    (3, 3): "sylow_count",
    (6, 6): "missing_divisor",
    (3, 4): "coprime_product",
    (4, 6): "missing_divisor",
    # delta = 3
    (3, 3, 3): "sylow_count",
    (6, 6, 6): "missing_divisor",
    (8,): "missing_divisor",
    (10,): "missing_divisor",
    (12,): "missing_divisor",
    (3, 3, 4): "sylow_count",
    (3, 3, 6): "sylow_count",
    (3, 4, 4): "unique_3_with_4",
    (4, 4, 6): "missing_divisor",
    (3, 6, 6): "unique_3_two_6s",
    (4, 6, 6): "missing_divisor",
    (3, 4, 6): "coprime_product",
    # delta = 4
    (6, 6, 6, 6): "missing_divisor",
    (3, 3, 3, 4): "sylow_count",
    (3, 3, 3, 6): "sylow_count",
    (3, 4, 4, 4): "unique_3_with_4",
    (4, 4, 4, 6): "missing_divisor",
    (4, 6, 6, 6): "missing_divisor",
    (3, 5): "coprime_product",
    (4, 5): "coprime_product",
    (5, 6): "missing_divisor",
    (3, 8): "missing_divisor",
    (6, 8): "missing_divisor",
    (3, 10): "missing_divisor",
    (4, 10): "missing_divisor",
    (6, 10): "missing_divisor",
    (3, 12): "missing_divisor",
    (4, 12): "missing_divisor",
    (6, 12): "missing_divisor",
    (3, 3, 4, 4): "sylow_count",
    (3, 3, 6, 6): "sylow_count",
    (4, 4, 6, 6): "missing_divisor",
    (3, 3, 4, 6): "sylow_count",
    (3, 4, 4, 6): "two_4s_with_3",
    (3, 4, 6, 6): "coprime_product",
    # delta = 5
    (9,): "missing_divisor",
    (14,): "missing_divisor",
    (18,): "missing_divisor",
    (3, 3, 3, 3, 3): "sylow_count",
    (4, 4, 4, 4, 4): "odd_4s",
    (6, 6, 6, 6, 6): "missing_divisor",
    (3, 3, 3, 3, 4): "unique_4_with_3",
    (3, 3, 3, 3, 6): "unique_6_repeated_3",
    (3, 4, 4, 4, 4): "unique_3_with_4",
    (4, 4, 4, 4, 6): "missing_divisor",
    (3, 6, 6, 6, 6): "pattern_36666",
    (4, 6, 6, 6, 6): "missing_divisor",
    (3, 3, 3, 4, 4): "sylow_count",
    (3, 3, 3, 6, 6): "sylow_count",
    (3, 3, 4, 4, 4): "sylow_count",
    (4, 4, 4, 6, 6): "missing_divisor",
    (3, 3, 6, 6, 6): "sylow_count",
    (4, 4, 6, 6, 6): "missing_divisor",
    (3, 3, 5): "sylow_count",
    (4, 4, 5): "pattern_445",
    (5, 6, 6): "missing_divisor",
    (3, 3, 8): "missing_divisor",
    (4, 4, 8): "pattern_448",
    (6, 6, 8): "missing_divisor",
    (3, 3, 10): "missing_divisor",
    (4, 4, 10): "missing_divisor",
    (6, 6, 10): "missing_divisor",
    (3, 3, 12): "missing_divisor",
    (4, 4, 12): "missing_divisor",
    (6, 6, 12): "missing_divisor",
    (3, 3, 3, 4, 6): "sylow_count",
    (3, 4, 6, 6, 6): "coprime_product",
    (3, 4, 5): "coprime_product",
    (3, 5, 6): "coprime_product",
    (4, 5, 6): "missing_divisor",
    (3, 4, 8): "coprime_product",
    (3, 6, 8): "coprime_product",
    (4, 6, 8): "missing_divisor",
    (3, 4, 10): "missing_divisor",
    (3, 6, 10): "missing_divisor",
    (4, 6, 10): "missing_divisor",
    (3, 4, 12): "missing_divisor",
    (3, 6, 12): "missing_divisor",
    (4, 6, 12): "missing_divisor",
    (3, 3, 4, 4, 6): "sylow_count",
    (3, 3, 4, 6, 6): "sylow_count",
    (3, 4, 4, 6, 6): "pattern_34466",
}
