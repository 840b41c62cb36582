"""Enumeration of all a-priori possible signatures for a given delta.

Each cyclic-subgroup order d > 2 contributes n_d * (phi(d) - 1) to delta,
and phi(d) - 1 is odd for d > 2.  So the possible signatures for a given
delta are the multisets {d: n_d} with sum n_d * (phi(d) - 1) = delta.
They are enumerated as sorted entry tuples, already in lexicographic order,
by a depth-first search over the orders d with phi(d) - 1 <= delta (all at
most (delta + 1)^2, as phi(d) >= sqrt(d) for every d but 2 and 6) that a
table of reachable totals prunes to the branches that end in a signature.

The classical tables group the signatures by an integer partition of
delta: each order d stands for one part n_d * (phi(d) - 1).  Distinct orders
are distinct parts, so every signature has exactly one partition row, which
is derived from the signature on demand.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import groupby

from .census import euler_phi

MAX_DELTA = 16


@lru_cache(maxsize=None)
def _weight(d: int) -> int:
    """phi(d) - 1, what one cyclic subgroup of order d adds to delta."""
    return euler_phi(d) - 1


def _check_delta(delta: int) -> None:
    if not 1 <= delta <= MAX_DELTA:
        raise ValueError(f"delta must be in 1..{MAX_DELTA}, got {delta}")


def integer_partitions(delta: int) -> list[tuple[int, ...]]:
    """All partitions of delta, parts non-increasing, reverse-lexicographic."""
    _check_delta(delta)

    def rec(n: int, max_part: int) -> list[tuple[int, ...]]:
        if n == 0:
            return [()]
        out = []
        for k in range(min(n, max_part), 0, -1):
            out.extend((k,) + rest for rest in rec(n - k, k))
        return out

    return rec(delta, delta)


class CandidateRow(namedtuple("CandidateRow", "partition choices")):
    """How a partition realizes a signature: a (count, order) per part."""

    __slots__ = ()  # choices: (count, order) pairs aligned with partition

    @property
    def factorization(self) -> tuple[tuple[int, int], ...]:
        """Per part the pair (count, phi(order) - 1)."""
        return tuple((count, _weight(d)) for count, d in self.choices)


class Candidate(namedtuple("Candidate", "signature")):
    """A possible signature; its partition row is derived on demand."""

    __slots__ = ()  # signature: sorted, entries > 2

    @property
    def rows(self) -> tuple[CandidateRow, ...]:
        # the one partition row: a part n_d * (phi(d) - 1) per run of n_d
        # equal entries d, non-increasing, equal parts in ascending order d
        choices = sorted(((len(tuple(run)), d) for d, run
                          in groupby(self.signature)),
                         key=lambda nd: (-nd[0] * _weight(nd[1]), nd[1]))
        return (CandidateRow(tuple(n * _weight(d) for n, d in choices),
                             tuple(choices)),)


def enumerate_candidates(delta: int) -> list[Candidate]:
    """Every signature consistent with the totient identity for this delta.

    A depth-first search emits the sorted entry tuples in lexicographic
    order (Knuth, TAOCP 4A, 7.2.1.4): orders are taken in ascending d, each
    entry at least the one before it.  ``reach[i]`` holds the totals that
    orders[i:] can make with repetition, so the search enters only branches
    that end in a signature, each signature once, and nothing is sorted.
    """
    _check_delta(delta)
    # phi(d)/sqrt(d) is the product over p^k || d of p^(k/2 - 1) (p - 1):
    # 1/sqrt(2) for 2, 2/sqrt(3) for 3, at least 1 for 4 | d and 4/sqrt(5) >
    # sqrt(2) for any other odd p^k, so d <= phi(d)^2 <= (delta + 1)^2 but at
    # d = 2 and 6.  Each entry below is orders[j], j at least the index of
    # the one before, so the ascending scan emits sorted signatures, each once.
    orders = [d for d in range(3, max(7, (delta + 1) ** 2 + 1))
              if _weight(d) <= delta]
    weights = [_weight(d) for d in orders]
    # an unbounded knapsack over the suffixes of orders, from the last one
    reach = [frozenset((0,))]
    for w in reversed(weights):
        made = set(reach[-1])
        for total in range(w, delta + 1):
            if total - w in made:
                made.add(total)
        reach.append(frozenset(made))
    reach.reverse()
    # the live branches (j, d, rest after d) at each (i, rest), found once
    moves: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    found: list[tuple[int, ...]] = []

    def extend(i: int, rest: int, entries: tuple[int, ...]) -> None:
        live = moves.get((i, rest))
        if live is None:
            live = moves[i, rest] = [
                (j, orders[j], rest - weights[j])
                for j in range(i, len(orders))
                if rest - weights[j] in reach[j]]
        for j, d, left in live:
            if left:
                extend(j, left, entries + (d,))
            else:
                found.append(entries + (d,))

    extend(0, delta, ())
    # tuple.__new__ skips the namedtuple constructor's Python frame
    new = tuple.__new__
    return [new(Candidate, (entries,)) for entries in found]
