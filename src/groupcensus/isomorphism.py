"""Isomorphism testing for small group tables.

Invariants settle every pair of distinct catalog groups; the pairs they
cannot separate fall to a backtracking search that maps a generating set
of one group into the other, pruned by per-element invariants and by
closing each partial map through ``groups._closure``, the routine that
also closes ``generated_subgroup``.  The generating set is the one the
table kept from its validation (``groups._light_generators``): at most
log2 n elements, found at no extra cost.  The invariants come in two
tiers: a cheap key (order, element-order histogram, square-root
histogram) and the full profile, which adds the sizes of the centre, the
derived subgroup and the conjugacy classes.  ``isomorphism_classes``
computes a full profile only for a table whose cheap key another table
shares.

The invariants are read off byte vectors, so their scans run in C:
column y of the table is ``b"".join(rows)[y::n]``, the squares x*x are
the diagonal ``b"".join(rows)[::n + 1]``, conjugation by t is row t mapped
through column t^-1 with ``bytes.translate``, and a conjugacy class is one
byte position across those n vectors.  The centre is the union of the
classes of size 1, the derived subgroup is generated by the commutators
x*c for c in the class of x^-1, and a centralizer's size is |G| divided by
the size of the class.  The classes are computed once per table and kept
on it with the invariants.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from .groups import GroupTable, _closure, generated_subgroup

def derived_subgroup(g: GroupTable) -> tuple[int, ...]:
    """Subgroup generated by all commutators."""
    # [x, y] = x (y x^-1 y^-1), and y x^-1 y^-1 runs over the class of x^-1
    class_of: dict[int, tuple[int, ...]] = {}
    for cls in conjugacy_classes(g):
        for y in cls:
            class_of[y] = cls
    commutators = set()
    for x, row in enumerate(g.product):
        commutators.update(row[c] for c in class_of[g.inverse[x]])
    return generated_subgroup(g, commutators)


def conjugacy_classes(g: GroupTable) -> list[tuple[int, ...]]:
    """Conjugacy classes, each sorted, ordered by least element.

    Conjugation by t, x -> (t x) t^-1, is row t mapped through column
    t^-1, the slice ``flat[t^-1::n]`` of the joined rows; the conjugates
    of x are then byte x of every such vector.  The classes are computed
    once per table and kept on it; each call returns a new list.
    """
    if g._classes is None:
        n = g.order
        flat = b"".join(g.product)
        pad = bytes(256 - n)
        conj = b"".join(row.translate(flat[t_inv::n] + pad)
                        for row, t_inv in zip(g.product, g.inverse))
        seen = bytearray(n)
        classes = []
        for x in range(n):
            if seen[x]:
                continue
            cls = tuple(sorted(set(conj[x::n])))
            for y in cls:
                seen[y] = 1
            classes.append(cls)
        g._classes = classes
    return list(g._classes)


def generating_set(g: GroupTable) -> list[int]:
    """A generating set of at most log2 |g| elements, empty for the trivial
    group: the one Light's test grew while it validated the table, each
    element the least one outside the subgroup of those before it."""
    return list(g._generators)


def extend_generator_map(src: GroupTable, dst: GroupTable,
                         images: dict[int, int]) -> list[int] | None:
    """Extend generator images to a full homomorphism src -> dst.

    Returns the image of every element of src, or None when the images do
    not extend consistently or the given elements do not generate src.
    The extension is injective-checked, so a non-None result of a map
    between groups of equal order is a full isomorphism.
    """
    image = _closure(src.product, dst.product, list(images.items()))
    if image is None or -1 in image:
        return None
    return image


def _cheap_key(g: GroupTable) -> tuple:
    """The order, element-order histogram and square-root histogram of g.

    These need no conjugacy classes, and census has already cached the
    element orders; ``_profile`` holds the same three invariants.  The key
    is computed once per table and kept on it.
    """
    if g._cheap is None:
        hist = tuple(sorted(Counter(g.element_orders()).items()))
        roots = Counter(b"".join(g.product)[::g.order + 1])
        g._cheap = (g.order, hist,
                    tuple(sorted(Counter(roots.values()).items())))
    return g._cheap


def _profile(g: GroupTable) -> tuple:
    """Isomorphism invariants of g, computed once and cached on the table.

    The last one is the square-root histogram: the sorted pairs (k, m)
    where m elements y have exactly k square roots x, x*x = y, with k > 0.
    It is an invariant because an isomorphism phi has phi(x)*phi(x) =
    phi(x*x), so x -> phi(x) maps the square roots of y one-to-one onto
    those of phi(y), and y and phi(y) have equally many.  It separates
    the catalog's two pairs of order-16 groups that agree on every other
    invariant: Q8xC2 ((4,1),(12,1)) from C4:C4 ((4,2),(8,1)), and
    (C2xC2):C4 ((4,2),(8,1)) from Q8:C2 ((8,2),).
    """
    if g._profile is None:
        order, hist, roots = _cheap_key(g)
        class_sizes = tuple(sorted(len(c) for c in conjugacy_classes(g)))
        # the centre is the union of the classes of size 1 (all, if abelian)
        g._profile = (order, hist, class_sizes.count(1),
                      len(derived_subgroup(g)), class_sizes, roots)
    return g._profile


def _element_keys(g: GroupTable) -> list[tuple[int, int]]:
    """Per-element (order, centralizer size) used to prune image candidates.

    The centralizer of x has index |class of x| in g.
    """
    centralizer = [0] * g.order
    for cls in conjugacy_classes(g):
        for x in cls:
            centralizer[x] = g.order // len(cls)
    return list(zip(g.element_orders(), centralizer))


def is_isomorphic(a: GroupTable, b: GroupTable) -> bool:
    """Whether two group tables are isomorphic.

    After the invariants, the search maps the generating set a kept from
    its validation into b one generator at a time, each onto an element
    with its per-element keys.  It closes each partial map over the
    subgroup the assigned generators span with ``groups._closure`` and
    backtracks on the first clash, so a map that reaches the last
    generator is an isomorphism.
    """
    if a.order != b.order:
        return False
    if _profile(a) != _profile(b):
        return False
    gens = a._generators
    a_keys = _element_keys(a)
    b_keys = _element_keys(b)
    candidates = [[y for y in range(b.order) if b_keys[y] == a_keys[gen]]
                  for gen in gens]

    def search(depth: int, pairs: list[tuple[int, int]]) -> bool:
        if depth == len(gens):
            return True
        for y in candidates[depth]:
            pairs.append((gens[depth], y))
            if (_closure(a.product, b.product, pairs) is not None
                    and search(depth + 1, pairs)):
                return True
            pairs.pop()
        return False

    return search(0, [])


def isomorphism_classes(tables: Sequence[GroupTable]) -> list[int]:
    """The isomorphism class of every table, numbered by first appearance.

    ``keys[i] == keys[j]`` exactly when tables i and j are isomorphic.
    Tables are bucketed by ``_cheap_key``; a table alone in its bucket is
    a class of its own.  The others are bucketed again by their full
    cached ``_profile``, and only inside such a bucket is a table searched
    against each class representative, once.
    """
    cheap = [_cheap_key(table) for table in tables]
    shared = {key for key, count in Counter(cheap).items() if count > 1}
    buckets: dict[tuple, list[int]] = {}  # profile -> class representatives
    keys: list[int] = []
    classes = 0
    for i, table in enumerate(tables):
        reps = (buckets.setdefault(_profile(table), [])
                if cheap[i] in shared else [])
        key = next((keys[r] for r in reps if is_isomorphic(tables[r], table)),
                   None)
        if key is None:
            key = classes
            classes += 1
            reps.append(i)
        keys.append(key)
    return keys
