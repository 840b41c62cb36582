"""Isomorphism testing for small group tables.

Cheap invariants (order, commutativity, element-order histogram, centre and
derived-subgroup sizes, conjugacy class sizes) settle almost every pair; the
rest fall to a backtracking search that maps a generating set of one group
into the other, pruned by per-element invariants.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .groups import GroupTable, generated_subgroup

ISOMORPHISM_ORDER_BOUND = 32


class UnsupportedOrderError(ValueError):
    """Isomorphism testing was asked about a group beyond the supported bound."""


def center(g: GroupTable) -> tuple[int, ...]:
    """Elements commuting with everything."""
    return tuple(x for x in range(g.order)
                 if all(g.product[x][y] == g.product[y][x] for y in range(g.order)))


def derived_subgroup(g: GroupTable) -> tuple[int, ...]:
    """Subgroup generated by all commutators."""
    commutators = set()
    for x in range(g.order):
        for y in range(g.order):
            xy = g.product[x][y]
            yx = g.product[y][x]
            commutators.add(g.product[xy][g.inverse[yx]])
    return generated_subgroup(g, commutators)


def conjugacy_classes(g: GroupTable) -> list[tuple[int, ...]]:
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


def generating_set(g: GroupTable) -> list[int]:
    """A small generating set, chosen greedily by closure growth."""
    gens: list[int] = []
    closed: frozenset[int] = frozenset({0})
    while len(closed) < g.order:
        best, best_closure = -1, closed
        for x in range(g.order):
            if x in closed:
                continue
            closure = frozenset(generated_subgroup(g, gens + [x]))
            if len(closure) > len(best_closure):
                best, best_closure = x, closure
                if len(best_closure) == g.order:
                    break
        gens.append(best)
        closed = best_closure
    return gens


def extend_generator_map(src: GroupTable, dst: GroupTable,
                         images: dict[int, int]) -> list[int] | None:
    """Extend generator images to a full homomorphism src -> dst.

    Returns the image of every element of src, or None when the images do
    not extend consistently or the given elements do not generate src.
    The extension is injective-checked, so a non-None result of a map
    between groups of equal order is a full isomorphism.
    """
    mapping: dict[int, int] = {0: 0}
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
    if len(mapping) != src.order:
        return None
    return [mapping[x] for x in range(src.order)]


def _profile(g: GroupTable) -> tuple:
    """Isomorphism invariants of g, computed once and cached on the table."""
    if g._profile is None:
        hist = tuple(sorted(Counter(g.element_orders()).items()))
        class_sizes = tuple(sorted(len(c) for c in conjugacy_classes(g)))
        g._profile = (g.order, g.is_abelian, hist, len(center(g)),
                      len(derived_subgroup(g)), class_sizes)
    return g._profile


def _element_keys(g: GroupTable) -> list[tuple[int, int]]:
    """Per-element (order, centralizer size) used to prune image candidates."""
    orders = g.element_orders()
    keys = []
    for x in range(g.order):
        centralizer = sum(1 for y in range(g.order)
                          if g.product[x][y] == g.product[y][x])
        keys.append((orders[x], centralizer))
    return keys


def is_isomorphic(a: GroupTable, b: GroupTable) -> bool:
    """Whether two group tables are isomorphic.

    Exact for orders up to 32; larger groups raise UnsupportedOrderError
    rather than risk a wrong answer.
    """
    if a.order > ISOMORPHISM_ORDER_BOUND or b.order > ISOMORPHISM_ORDER_BOUND:
        raise UnsupportedOrderError(
            f"isomorphism testing supports orders up to"
            f" {ISOMORPHISM_ORDER_BOUND}, got {a.order} and {b.order}")
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

    def search(depth: int, images: dict[int, int]) -> bool:
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


def isomorphism_classes(tables: Sequence[GroupTable]) -> list[int]:
    """The isomorphism class of every table, numbered by first appearance.

    ``keys[i] == keys[j]`` exactly when tables i and j are isomorphic.
    Tables are bucketed by their cached invariants; only inside a bucket
    is a table searched against each class representative, once.  Orders
    beyond the supported bound raise UnsupportedOrderError, as in
    ``is_isomorphic``.
    """
    for table in tables:
        if table.order > ISOMORPHISM_ORDER_BOUND:
            raise UnsupportedOrderError(
                f"isomorphism testing supports orders up to"
                f" {ISOMORPHISM_ORDER_BOUND}, got {table.order}")
    buckets: dict[tuple, list[int]] = {}  # profile -> class representatives
    keys: list[int] = []
    classes = 0
    for i, table in enumerate(tables):
        reps = buckets.setdefault(_profile(table), [])
        key = next((keys[r] for r in reps if is_isomorphic(tables[r], table)),
                   None)
        if key is None:
            key = classes
            classes += 1
            reps.append(i)
        keys.append(key)
    return keys
