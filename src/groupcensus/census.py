"""Cyclic-subgroup census: the counts n_d, delta, and the signature sigma.

For a finite group G, delta(G) is |G| minus the number of cyclic subgroups.
The signature sigma(G) records the orders (> 2) of the cyclic subgroups as a
sorted multiset; orders 1 and 2 are omitted because a cyclic group of order
d has phi(d) generators and phi(d) = 1 exactly for d in {1, 2}, so those
subgroups never contribute to delta.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Iterator, NamedTuple

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


def phi_inverse(m: int) -> list[int]:
    """All d with phi(d) = m, ascending.

    phi(p^k) = p^(k-1) (p-1) and phi is multiplicative, so every prime p
    dividing such a d has (p-1) | m.  The recursion picks those primes in
    increasing order, each with its exponent, until the remaining totient
    is 1 (Alekseyev, J. Integer Sequences 19, 2016).  Empty for odd m > 1
    since the totient is even past d = 2.
    """
    if m < 1:
        raise ValueError(f"totient value must be positive, got {m}")
    divisors = [k for k in range(1, math.isqrt(m) + 1) if m % k == 0]
    divisors += [m // k for k in reversed(divisors) if k * k != m]
    primes = [k + 1 for k in divisors if euler_phi(k + 1) == k]

    def solutions(rest: int, start: int) -> list[int]:
        # every d with phi(d) = rest whose prime factors are in primes[start:]
        out = [1] if rest == 1 else []
        for i in range(start, len(primes)):
            p = primes[i]
            if rest % (p - 1):
                continue
            rest_p, p_power = rest // (p - 1), p
            while True:
                out += [p_power * d for d in solutions(rest_p, i + 1)]
                if rest_p % p:
                    break
                rest_p //= p
                p_power *= p
        return out

    return sorted(solutions(m, 0))


class Signature:
    """Sorted multiset of cyclic-subgroup orders greater than 2.

    Compared, hashed and ordered by its entries; treated as immutable.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        if entries and min(entries) <= 2:
            raise ValueError(f"signature entries must exceed 2: {entries}")
        if list(entries) != sorted(entries):
            raise ValueError(f"signature entries must be sorted: {entries}")
        self.entries = entries

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __lt__(self, other: "Signature") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries < other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Signature(entries={self.entries!r})"

    @classmethod
    def _of_sorted(cls, entries: tuple[int, ...]) -> "Signature":
        """A signature of entries the caller has already proved sorted and
        above 2, without the per-signature checks; ``enumerate_candidates``
        checks its orders once per search instead."""
        sig = object.__new__(cls)
        sig.entries = entries
        return sig

    @classmethod
    def of(cls, *entries: int) -> "Signature":
        return cls(tuple(sorted(entries)))

    @classmethod
    def from_iterable(cls, entries: Iterable[int]) -> "Signature":
        return cls(tuple(sorted(entries)))

    def multiplicity(self, d: int) -> int:
        return self.entries.count(d)

    @property
    def delta(self) -> int:
        """The delta forced by the totient identity: sum of phi(d) - 1."""
        return sum(euler_phi(d) - 1 for d in self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, d: int) -> bool:
        return d in self.entries

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


class CensusReport(NamedTuple):
    """Per-order cyclic subgroup counts and the derived invariants."""

    group_order: int
    n_d: tuple[tuple[int, int], ...]  # (order d, count) pairs, d ascending
    total_cyclic: int
    delta: int
    signature: Signature

    def count(self, d: int) -> int:
        return dict(self.n_d).get(d, 0)

    def to_json_dict(self) -> dict:
        return {
            "order": self.group_order,
            "n_d": {str(d): count for d, count in self.n_d},
            "cyclic_count": self.total_cyclic,
            "delta": self.delta,
            "sigma": list(self.signature.entries),
        }


def census(g: GroupTable) -> CensusReport:
    """Full cyclic-subgroup census of a group table.

    A cyclic subgroup of order d has exactly phi(d) generators, so n_d is
    the number of elements of order d divided by phi(d), exactly, since
    every GroupTable is a group.
    """
    counts = Counter(g.element_orders())
    n_d = [(d, counts[d] // euler_phi(d)) for d in sorted(counts)]
    total = sum(count for _d, count in n_d)
    sigma = Signature.from_iterable(
        d for d, count in n_d for _ in range(count) if d > 2)
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
