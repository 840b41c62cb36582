"""Cyclic-subgroup census: the counts n_d, delta, and the signature sigma.

For a finite group G, delta(G) is |G| minus the number of cyclic subgroups.
The signature sigma(G) records the orders (> 2) of the cyclic subgroups as a
sorted multiset, held as an ascending tuple of ints; orders 1 and 2 are
omitted because a cyclic group of order d has phi(d) generators and
phi(d) = 1 exactly for d in {1, 2}, so those subgroups never contribute to
delta.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .groups import GroupTable


def euler_phi(d: int) -> int:
    """Euler totient: the number of generators of a cyclic group of order d."""
    if d < 1:
        raise ValueError(f"totient argument must be positive, got {d}")
    result = d
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


class CensusReport(namedtuple("CensusReport", "group_order n_d total_cyclic"
                              " delta signature")):
    """Per-order cyclic subgroup counts and the derived invariants."""

    # n_d: (order d, count) pairs, d ascending; signature: the entries
    # d > 2, ascending
    __slots__ = ()

    def count(self, d: int) -> int:
        return dict(self.n_d).get(d, 0)


def census(g: GroupTable) -> CensusReport:
    """Full cyclic-subgroup census of a group table.

    A cyclic subgroup of order d has exactly phi(d) generators, so n_d is
    the number of elements of order d divided by phi(d), exactly, since
    every GroupTable is a group.
    """
    counts = Counter(g.element_orders())
    n_d = [(d, counts[d] // euler_phi(d)) for d in sorted(counts)]
    total = sum(count for _d, count in n_d)
    # n_d ascends in d, so the signature comes out sorted
    sigma = tuple(d for d, count in n_d if d > 2 for _ in range(count))
    return CensusReport(g.order, tuple(n_d), total, g.order - total, sigma)


def count_solutions(g: GroupTable, n: int) -> int:
    """Number of x in G with x^n = identity.

    By Frobenius' theorem this is a multiple of n whenever n divides |G|,
    which makes it a sharp cross-check on constructed tables.  x^n is the
    identity exactly when the order of x divides n.
    """
    if n < 1:
        raise ValueError(f"exponent must be positive, got {n}")
    return sum(1 for order in g.element_orders() if n % order == 0)
