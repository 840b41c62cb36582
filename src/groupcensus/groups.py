"""Explicit finite groups as dense multiplication tables.

A group of order n lives on the element indices 0..n-1, with 0 always the
identity.  Rows of the table are stored as ``bytes`` (indices fit in 8 bits
since the supported order is capped at 64).  Every table is checked against
the group axioms at construction, the one validity check for every built
table, cyclic extensions included: byte scans for entries in range, the
identity and a 0 in every row, then Light's test for associativity; a
monoid in which every element has a right inverse is a group, so rows and
columns follow.  Cheap at these sizes, and construction bugs fail at once.
Light's test grows a generating set of at most log2 n elements on its way;
the table keeps it, and the isomorphism search maps it.

The dihedral, dicyclic and quasidihedral families extend the rows of C_n
by ``cyclic_extension``'s row code without building a C_n table first:
the extension's own check covers that block.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from operator import itemgetter

MAX_ORDER = 64
MAX_MOVED_POINTS = 4096  # the points a perm[...] text may move
_DOUBLED = bytes(range(256)) * 2  # _shifted's windows; [:n] is 0..n-1
_ZEROS = bytes(MAX_ORDER)  # the 0 that _validate_table finds in each row


class GroupConstructionError(ValueError):
    """A proposed multiplication table violates the group axioms."""


class InvalidActionError(ValueError):
    """A proposed extension automorphism, or t^p, gives no group."""


# ---------------------------------------------------------------------------
# permutations, stored as image tuples: p maps point i to p[i]


_CYCLE = re.compile(r"\(([0-9 ]*)\)\s*")


def parse_generators(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse ``;``-separated cycle strings like ``(0 1 2)(3 4)`` into image
    tuples.

    Only the points that some generator moves are kept, numbered 0..k-1
    in ascending order, so the cost follows the length of the text and
    not the largest point; fixed points and renumbering change neither
    the group nor the table ``from_permutations`` builds.  Empty chunks
    are skipped, so a blank text gives no generators.  Each point is
    checked as it is read, and the first to take the generators past
    ``MAX_MOVED_POINTS`` moved points raises ValueError, with no later
    point read.
    """
    gens = []
    moved: set[int] = set()
    for chunk in filter(None, map(str.strip, text.split(";"))):
        stripped = chunk.replace(",", " ").strip()
        cycles: list[list[int]] = []
        seen: set[int] = set()  # the points this generator's cycles move
        pos = 0
        while pos == 0 or pos < len(stripped):  # one or more cycles
            match = _CYCLE.match(stripped, pos)
            if match is None:
                raise ValueError(f"malformed cycle notation: {chunk!r}")
            pos = match.end()
            tokens = match[1].split()
            cycle = []
            for p in map(int, tokens):
                if p in seen:  # moved by this cycle or an earlier one
                    if p in cycle:
                        raise ValueError("repeated point in cycle"
                                         f" {list(map(int, tokens))}")
                    raise ValueError(f"point {p} appears in two cycles")
                cycle.append(p)
                if len(tokens) > 1:
                    seen.add(p)
                    moved.add(p)
                    if len(moved) > MAX_MOVED_POINTS:
                        raise ValueError(f"generators move {len(moved)}"
                                         f" points, more than"
                                         f" {MAX_MOVED_POINTS}")
            if len(cycle) > 1:
                cycles.append(cycle)
        gens.append(cycles)
    label = {p: i for i, p in enumerate(sorted(moved))}
    out = []
    for cycles in gens:
        images = list(range(max(len(moved), 1)))
        for cycle in cycles:
            for i, p in enumerate(cycle):
                images[label[p]] = label[cycle[(i + 1) % len(cycle)]]
        out.append(tuple(images))
    return tuple(out)


# ---------------------------------------------------------------------------
# group tables


class GroupTable:
    """An immutable finite group of order at most 64 given by its table.

    ``product[a][b]`` is the index of a*b, element 0 is the identity and
    ``inverse[x]`` is the unique y with x*y = 0.  ``_generators`` is the
    generating set that Light's test grew while it validated the table.
    """

    __slots__ = ("order", "product", "inverse", "name", "_generators",
                 "_orders", "_abelian", "_cheap", "_profile", "_classes")

    def __init__(self, product: Sequence[Sequence[int]], name: str = "G"):
        try:
            rows = tuple(map(bytes, product))
        except (TypeError, ValueError):  # an entry that is no int in 0..255
            rows = None
        n = len(product if rows is None else rows)
        if not 1 <= n <= MAX_ORDER:
            raise GroupConstructionError(
                f"group order must be in 1..{MAX_ORDER}, got {n}")
        # bytes(k) of an int k (anything with __index__) is k zero bytes,
        # not a row's entries; that passes the checks only as the one row of
        # the trivial group, since at n >= 2 a zero row is no permutation
        if rows is None or n == 1 and hasattr(product[0], "__index__"):
            raise _first_defect(product, n)
        self.inverse, self._generators = _validate_table(rows, n, product)
        self.order = n
        self.product = rows
        self.name = name
        self._orders: tuple[int, ...] | None = None
        self._abelian: bool | None = None
        # isomorphism invariants and conjugacy classes, filled in by
        # isomorphism._cheap_key, isomorphism._profile and
        # isomorphism.conjugacy_classes
        self._cheap: tuple | None = None
        self._profile: tuple | None = None
        self._classes: list[tuple[int, ...]] | None = None

    @property
    def is_abelian(self) -> bool:
        """Whether every row equals its column: y*b = b*y for all b."""
        if self._abelian is None:
            rows, n = self.product, self.order
            flat = b"".join(rows)
            self._abelian = all(rows[y] == flat[y::n] for y in range(n))
        return self._abelian

    def element_orders(self) -> tuple[int, ...]:
        """Order of every element, indexed by element: the least k >= 1
        with x^k = 0, which divides the group order."""
        if self._orders is None:
            product = self.product
            orders = [1]
            for x in range(1, self.order):
                acc, k = x, 1
                while acc:
                    acc = product[acc][x]
                    k += 1
                orders.append(k)
            self._orders = tuple(orders)
        return self._orders

    def __repr__(self) -> str:
        return f"GroupTable({self.name!r}, order={self.order})"


def _validate_table(rows: tuple[bytes, ...], n: int,
                    product: Sequence[Sequence[int]] | None = None,
                    ) -> tuple[bytes, tuple[int, ...]]:
    """Check the group axioms on a table of n rows; return the inverses and
    the generating set that Light's test grew.

    A table is accepted when every row has length n and entries below n,
    row 0 and column 0 are 0..n-1, every row holds 0, and Light's test
    (``_light_pair`` over ``_light_generators``) proves the product
    associative.  All but Light's test are C-level scans over the rows and
    their join; no row is sorted.

    These checks accept exactly the groups.  A group passes each of them.
    Conversely, a table that passes is a monoid with identity 0, and every
    a in it has a right inverse: ab = 0 where row a holds 0.  If also
    bc = 0, then ba = ba(bc) = b(ab)c = bc = 0, so b is a two-sided
    inverse of a and the table is a group.  So its rows and columns are
    permutations, though no check asked for that: Light's argument never
    uses it.

    A rejected table goes to ``_first_defect``, which names the defect
    from ``product``, the caller's rows before ``bytes()`` (default rows).
    """
    flat = b"".join(rows)
    ident = _DOUBLED[:n]
    try:  # bytes() refuses the -1 of a row without 0
        inverse = bytes(map(bytes.find, rows, _ZEROS))
    except ValueError:
        inverse = b""
    if (len(inverse) == n and set(map(len, rows)) == {n} and max(flat) < n
            and rows[0] == ident == flat[::n]):
        gens = _light_generators(rows, n)
        if _light_pair(rows, gens) is None:
            return inverse, gens
    raise _first_defect(rows if product is None else product, n)


def _first_defect(product: Sequence[Sequence[int]],
                  n: int) -> GroupConstructionError:
    """The error for a table that is no group, naming its first defect in
    the order rows (length, then permutation of 0..n-1), identity,
    associativity; a row that is an int, or whose entries are not all ints
    in 0..255, is no permutation."""
    ident = _DOUBLED[:n]
    rows = []
    for x, row in enumerate(product):
        try:
            if hasattr(row, "__index__"):  # bytes(k) is k zero bytes
                raise TypeError
            row = bytes(row)
        except (TypeError, ValueError):
            return GroupConstructionError(
                f"row {x} is not a permutation of 0..{n - 1}")
        rows.append(row)
        if len(row) != n:
            return GroupConstructionError(
                f"row {x} has length {len(row)}, expected {n}")
        if bytes(sorted(row)) != ident:
            return GroupConstructionError(
                f"row {x} is not a permutation of 0..{n - 1}")
    if rows[0] != ident or any(rows[x][0] != x for x in range(n)):
        return GroupConstructionError("element 0 is not a two-sided identity")
    # a table that passes all of this is a group
    a, b = _light_pair(rows, _light_generators(rows, n))
    return GroupConstructionError(f"associativity fails at ({a}, {b})")


def _light_generators(rows: tuple[bytes, ...], n: int) -> tuple[int, ...]:
    """The set S of Light's test (``_light_pair``), grown greedily: add the
    least element not yet reached, then close the reached set under right
    multiplication by S.  The rows have length n and entries below n, and
    0 is a two-sided identity; nothing here needs the rows to be
    permutations.

    In a group the reached set is the subgroup S generates, so S generates
    the group, and each new element at least doubles the subgroup, so
    |S| <= log2 n.

    It runs on every table build, so it keeps one mark per element rather
    than call ``_closure``, which would carry the identity map's images.
    """
    gens: list[int] = []
    reached = bytearray(n)
    reached[0] = 1
    for s in range(1, n):
        if reached[s]:
            continue
        gens.append(s)
        stack = [x for x in range(n) if reached[x]]
        while stack:
            row = rows[stack.pop()]
            for t in gens:
                y = row[t]
                if not reached[y]:
                    reached[y] = 1
                    stack.append(y)
    return tuple(gens)


def _light_pair(rows: tuple[bytes, ...],
                gens: Sequence[int]) -> tuple[int, int] | None:
    """A pair (a, b) with b in gens at which Light's test fails, or None
    when the product is associative.  gens is ``_light_generators``' set,
    from which right multiplication reaches every element.

    Light's test (Clifford and Preston, The Algebraic Theory of Semigroups
    I, 1961, section 1.2).  Let T be the set of b with a(by) = (ab)y for
    all a, y.  T holds 0, and it is closed under the product: for b, c in
    T, a((bc)y) = a(b(cy)) = (ab)(cy) = ((ab)c)y = (a(bc))y.  So once T
    contains a set S from which right multiplication reaches every
    element, T is everything and the table is associative.

    With |S| <= log2 n in a group, that is at most 384 checks at order
    64, not 4,096.  For each a and each b in S, the map y -> a(by), row b
    composed with row a through ``bytes.translate``, must equal row a*b.
    """
    pad = bytes(256 - len(rows))
    for a, ra in enumerate(rows):
        ta = ra + pad
        for b in gens:
            if rows[b].translate(ta) != rows[ra[b]]:
                return a, b
    return None


# ---------------------------------------------------------------------------
# element-level operations


def generated_subgroup(g: GroupTable, seed: Iterable[int]) -> tuple[int, ...]:
    """The members of the smallest subgroup of g containing the seeds, sorted."""
    seeds = sorted(set(seed))
    for x in seeds:
        if not 0 <= x < g.order:
            raise ValueError(f"element index {x} out of range for order {g.order}")
    image = _closure(g.product, g.product, [(s, s) for s in seeds])
    return tuple(x for x, y in enumerate(image) if y >= 0)


def _closure(src_rows: Sequence[bytes], dst_rows: Sequence[bytes],
             pairs: Sequence[tuple[int, int]]) -> list[int] | None:
    """The images of the map sending 0 to 0 and each s to t, (s, t) in
    pairs, closed under image(x s) = image(x) t, with -1 outside the
    subgroup the s generate; None when two words for one element get
    different images, or two elements one image.  Right multiplication by
    the s reaches that whole subgroup, since in a finite group every
    inverse is a power: s^-1 = s^(k-1) for s of order k.
    """
    image = [-1] * len(src_rows)
    image[0] = 0
    used = bytearray(len(dst_rows))
    used[0] = 1
    domain = [0]
    for x in domain:  # grows while it is walked
        row, image_row = src_rows[x], dst_rows[image[x]]
        for s, t in pairs:
            y, fy = row[s], image_row[t]
            known = image[y]
            if known < 0:
                if used[fy]:
                    return None
                image[y] = fy
                used[fy] = 1
                domain.append(y)
            elif known != fy:
                return None
    return image


# ---------------------------------------------------------------------------
# constructors


def make_cyclic(n: int) -> GroupTable:
    """Cyclic group C_n with i*j = (i+j) mod n."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"cyclic order must be in 1..{MAX_ORDER}, got {n}")
    return GroupTable(_cyclic_rows(n), name=f"C{n}")


def _cyclic_rows(n: int) -> list[bytes]:
    return [bytes([(i + j) % n for j in range(n)]) for i in range(n)]


def make_dihedral(two_n: int) -> GroupTable:
    """Dihedral group of order two_n: <r, s | r^n = s^2 = 1, s r s = r^-1>.

    The subscript is the group order, so ``make_dihedral(8)`` is the
    symmetry group of the square.
    """
    if two_n % 2 != 0 or not 2 <= two_n <= MAX_ORDER:
        raise ValueError(f"dihedral order must be even and in 2..{MAX_ORDER},"
                         f" got {two_n}")
    n = two_n // 2
    return _cyclic_by_c2(n, [-x % n for x in range(n)], 0, f"D{two_n}")


def make_dicyclic(four_n: int) -> GroupTable:
    """Dicyclic group of order 4m: <a, b | a^(2m) = 1, b^2 = a^m, b a b^-1 = a^-1>.

    Order 8 is the quaternion group Q8; order 12 is C3:C4; 2-power orders
    give the generalized quaternion groups.
    """
    if four_n % 4 != 0 or not 8 <= four_n <= MAX_ORDER:
        raise ValueError(f"dicyclic order must be a multiple of 4 in"
                         f" 8..{MAX_ORDER}, got {four_n}")
    n = four_n // 2
    return _cyclic_by_c2(n, [-x % n for x in range(n)], n // 2, f"Q{four_n}")


def make_quasidihedral(two_k: int) -> GroupTable:
    """Quasidihedral (semidihedral) group of 2-power order >= 16.

    Presentation <r, s | r^(n/2) = s^2 = 1, s r s = r^(n/4 - 1)> for order n.
    """
    if two_k < 16 or two_k > MAX_ORDER or two_k & (two_k - 1):
        raise ValueError(f"quasidihedral order must be a power of 2 in"
                         f" 16..{MAX_ORDER}, got {two_k}")
    n = two_k // 2  # s r s = r^(n/2 - 1) on C_n
    beta = [(n // 2 - 1) * x % n for x in range(n)]
    return _cyclic_by_c2(n, beta, 0, f"SD{two_k}")


def _cyclic_by_c2(n: int, beta: list[int], h0: int, name: str) -> GroupTable:
    """``cyclic_extension(make_cyclic(n), 2, beta, h0, name)``, its table
    row for row, with no C_n table built or checked.

    The extension's own check covers C_n: rows and columns 0..n-1 of the
    extension are C_n's rows (block 0, beta^0, no wrap), those n elements
    are closed under the product, and so an accepted extension holds C_n's
    table as that of a subgroup.  The families' beta and h0 meet the
    conditions of ``cyclic_extension``, so the check accepts.
    """
    return GroupTable(_extension_rows(_cyclic_rows(n), 2, beta, h0), name)


def make_symmetric(n: int) -> GroupTable:
    """Symmetric group S_n for n <= 4, built by permutation closure."""
    if not 1 <= n <= 4:
        raise ValueError(f"symmetric group supported for degree 1..4, got {n}")
    if n == 1:
        return GroupTable((b"\x00",), name="S1")
    # the n-cycle (0 1 ... n-1) and the transposition (0 1)
    return from_permutations([(*range(1, n), 0), (1, 0, *range(2, n))],
                             name=f"S{n}")


def make_alternating(n: int) -> GroupTable:
    """Alternating group A_n for n <= 4, built by permutation closure."""
    if not 1 <= n <= 4:
        raise ValueError(f"alternating group supported for degree 1..4, got {n}")
    if n <= 2:
        return GroupTable((b"\x00",), name=f"A{n}")
    if n == 3:
        return from_permutations([(1, 2, 0)], name="A3")
    # (0 1 2) and (1 2 3)
    return from_permutations([(1, 2, 0, 3), (0, 2, 3, 1)], name="A4")


def direct_product(a: GroupTable, b: GroupTable) -> GroupTable:
    """Componentwise product on pairs, (x, y) at index x*|b| + y.

    Row (x1, y1) is |a| blocks, block x2 being row y1 of b shifted by
    (x1*x2)*|b|.  ``_shifted`` makes each shifted row once, and row x1 of
    a names the blocks of row (x1, y1) in order, so a row is one join.
    ``direct_rows_oracle`` in the tests keeps the per-cell loop.
    """
    nb = b.order
    _check_order(a.order * nb)
    blocks = [[_shifted(brow, v * nb) for v in range(a.order)]
              for brow in b.product]
    return GroupTable([b"".join(map(shifted.__getitem__, arow))
                       for arow in a.product for shifted in blocks],
                      name=f"{a.name}x{b.name}")


def from_permutations(gens: Sequence[Sequence[int]],
                      name: str = "G") -> GroupTable:
    """Close a generating set of permutations and extract the Cayley table.

    Each generator is an image tuple, ``p[i]`` the image of point i.
    Elements are indexed in breadth-first discovery order with the identity
    first, so the result is deterministic in the generator order.
    """
    degree = len(gens[0]) if gens else 0
    points = list(range(degree))
    for p in gens:
        if len(p) != degree:
            raise ValueError("all generators must share a degree")
        if sorted(p) != points:
            raise ValueError(f"images {tuple(p)} are not a bijection of"
                             f" 0..{degree - 1}")
    if degree <= 1:  # no generators, or one point: itemgetter(0) is no tuple
        return GroupTable((b"\x00",), name=name)
    # close over raw image tuples; compose[k](e) = (e[p[0]], e[p[1]], ...)
    # is e after p = gens[k], taken in C by one itemgetter per generator.
    # The closure is the right Cayley graph: right[k][e] is the index of
    # e.g_k, and every element b > 0 was first reached as parent[b].g_via[b].
    compose = [itemgetter(*p) for p in gens]
    ident = tuple(points)
    elements = [ident]
    index = {ident: 0}
    right: list[list[int]] = [[] for _ in gens]
    parent, via = [0], [0]
    for cursor, e in enumerate(elements):  # grows while it is walked
        for k, after in enumerate(compose):
            q = after(e)
            j = index.get(q)
            if j is None:
                j = len(elements)
                if j >= MAX_ORDER:
                    raise ValueError(
                        f"closure exceeds {MAX_ORDER} elements"
                        f" (at least {j + 1} found)")
                index[q] = j
                elements.append(q)
                parent.append(cursor)
                via.append(k)
            right[k].append(j)
    # a.b = (a.parent[b]).g_via[b], so column b of the table is column
    # parent[b] mapped through right[via[b]]; parents precede children.
    # Row a is then byte a of every column, the slice flat[a::n].
    n = len(elements)
    pad = bytes(256 - n)
    maps = [bytes(r) + pad for r in right]
    columns = [bytes(range(n))]
    for b in range(1, n):
        columns.append(columns[parent[b]].translate(maps[via[b]]))
    flat = b"".join(columns)
    return GroupTable([flat[a::n] for a in range(n)], name=name)


# ---------------------------------------------------------------------------
# cyclic extensions
#
# Every extension is of H by one element t acting through an automorphism
# beta of H, given as its image tuple.  A split extension, a semidirect
# product H:C_p, is the case t^p = 1.


def cyclic_extension(h: GroupTable, p: int, beta: Sequence[int], h0: int,
                     name: str = "G") -> GroupTable:
    """The extension of H by t with x t = t beta(x) and t^p = h0.

    ``beta`` is the image tuple of a bijection of H.  Element t^k x, k < p,
    is at index k*|h| + x, and x t^j = t^j beta^j(x) gives
    (t^i x)(t^j y) = t^((i+j) mod p) [h0 if i+j >= p] beta^j(x) y: row
    (i, x) joins p rows of H shifted by cosets, as in ``direct_product``.
    With h0 = 0 this is the semidirect product H:C_p in which the
    generator of C_p acts by beta, and with beta the identity as well it
    is ``direct_product(make_cyclic(p), h)``, row for row.

    For p >= 2 the table check accepts exactly when beta is an
    automorphism, beta(h0) = h0 and beta^p(x) = h0^-1 x h0 for every x.
    Necessary, as t^k is at k*|h|: t beta(xy) = xyt = t beta(x) beta(y),
    t beta(h0) = h0 t = t^(p+1) = t h0 and h0 beta^p(x) = x t^p = x h0.
    Sufficient: in H x| Z with tau^-1 x tau = beta(x), z = tau^p h0^-1 is
    central and <z> meets H trivially, so H x| Z / <z> is this table
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
    2005).  For p = 1 the table is that of H.
    """
    nh = h.order
    if p < 1:
        raise ValueError(f"extension index p = {p} is not positive")
    _check_order(p * nh)
    if sorted(beta) != list(range(nh)):
        raise InvalidActionError(f"beta is not a bijection of 0..{nh - 1}")
    if not 0 <= h0 < nh:
        raise InvalidActionError(f"h0 = {h0} is not an element of {h.name}")
    try:
        return GroupTable(_extension_rows(h.product, p, beta, h0), name=name)
    except GroupConstructionError as err:
        raise InvalidActionError(f"beta and h0 = {h0} do not give an"
                                 f" extension of {h.name}: {err}") from None


def _extension_rows(h_rows: Sequence[bytes], p: int, beta: Sequence[int],
                    h0: int) -> list[bytes]:
    """The rows of ``cyclic_extension`` from H's rows, unchecked."""
    nh = len(h_rows)
    powers = [bytes(range(nh))]  # beta^j for j < p
    for _ in range(1, p):
        powers.append(bytes(beta[x] for x in powers[-1]))
    wrap = h_rows[h0] + bytes(256 - nh)
    blocks = [[_shifted(row, k * nh) for row in h_rows] for k in range(p)]
    rows = []
    for i in range(p):
        parts = [(blocks[(i + j) % p], bj.translate(wrap) if i + j >= p
                  else bj) for j, bj in enumerate(powers)]
        rows += [b"".join([shifted[c[x]] for shifted, c in parts])
                 for x in range(nh)]
    return rows


def _check_order(order: int) -> None:
    """The over-order error that both product builders raise."""
    if order > MAX_ORDER:
        raise ValueError(f"product order {order} exceeds {MAX_ORDER}")


def _shifted(row: bytes, offset: int) -> bytes:
    """Row with offset added to every entry, all sums below 256: one
    translate through the window at offset of a doubled identity."""
    return row.translate(_DOUBLED[offset:offset + 256])
