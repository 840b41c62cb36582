"""Explicit finite groups as dense multiplication tables.

A group of order n lives on the element indices 0..n-1, with 0 always the
identity.  Rows of the table are stored as ``bytes`` (indices fit in 8 bits
since the supported order is capped at 64), and every table is checked
against the full group axioms at construction: cheap at these sizes and it
turns subtle construction bugs into immediate errors.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

MAX_ORDER = 64


class GroupConstructionError(ValueError):
    """A proposed multiplication table violates the group axioms."""


class InvalidActionError(ValueError):
    """A proposed automorphism action fails one of its invariants."""


# ---------------------------------------------------------------------------
# permutations


class Permutation:
    """A bijection of 0..degree-1, used for generators and automorphisms.

    Compared and hashed by its images; treated as immutable.
    """

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        n = len(images)
        if n == 0:
            raise ValueError("permutation degree must be positive")
        if sorted(images) != list(range(n)):
            raise ValueError(f"images {images} are not a bijection of 0..{n - 1}")
        self.images = images

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation(images={self.images!r})"

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse cycle notation like ``(0 1 2)(3 4)`` with 0-based points.

        The degree defaults to the largest point mentioned plus one; ``()``
        denotes the identity.
        """
        cycles = _parse_cycle_text(text)
        top = max((p for cycle in cycles for p in cycle), default=0)
        if degree is None:
            degree = top + 1
        elif top >= degree:
            raise ValueError(f"point {top} exceeds degree {degree}")
        return cls(_cycle_images(_moving_cycles(cycles), degree))

    @classmethod
    def from_generator_text(cls, text: str) -> tuple["Permutation", ...]:
        """Parse ``;``-separated cycle strings into permutations.

        Only the points that some generator moves are kept, numbered 0..k-1
        in ascending order, so the cost follows the length of the text and
        not the largest point; fixed points and renumbering change neither
        the group nor the table ``from_permutations`` builds.  Empty chunks
        are skipped, so a blank text gives no generators.
        """
        chunks = [c.strip() for c in text.split(";")]
        gens = [_moving_cycles(_parse_cycle_text(c)) for c in chunks if c]
        moved = sorted({p for cycles in gens for cycle in cycles
                        for p in cycle})
        label = {p: i for i, p in enumerate(moved)}
        degree = max(len(moved), 1)
        return tuple(
            cls(_cycle_images([[label[p] for p in cycle] for cycle in cycles],
                              degree))
            for cycles in gens)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: ``(self . other)(x) = self(other(x))``."""
        if other.degree != self.degree:
            raise ValueError("cannot compose permutations of different degree")
        return Permutation(tuple(self.images[i] for i in other.images))

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for i, j in enumerate(self.images):
            images[j] = i
        return Permutation(tuple(images))

    def cycle_string(self) -> str:
        cycles = []
        seen = [False] * self.degree
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cycle = [start]
            seen[start] = True
            p = self.images[start]
            while p != start:
                cycle.append(p)
                seen[p] = True
                p = self.images[p]
            cycles.append("(" + " ".join(str(q) for q in cycle) + ")")
        return "".join(cycles) if cycles else "()"


def _moving_cycles(cycles: list[list[int]]) -> list[list[int]]:
    """The cycles of length > 1, after checking that no cycle repeats a
    point and no point lies in a cycle after one that moves it."""
    moving = []
    moved: set[int] = set()
    for cycle in cycles:
        if len(set(cycle)) != len(cycle):
            raise ValueError(f"repeated point in cycle {cycle}")
        for p in cycle:
            if p in moved:
                raise ValueError(f"point {p} appears in two cycles")
        if len(cycle) > 1:
            moved.update(cycle)
            moving.append(cycle)
    return moving


def _cycle_images(cycles: list[list[int]], degree: int) -> tuple[int, ...]:
    images = list(range(degree))
    for cycle in cycles:
        for i, p in enumerate(cycle):
            images[p] = cycle[(i + 1) % len(cycle)]
    return tuple(images)


def _parse_cycle_text(text: str) -> list[list[int]]:
    stripped = text.replace(",", " ").strip()
    if not re.fullmatch(r"(\s*\([0-9 ]*\)\s*)+", stripped):
        raise ValueError(f"malformed cycle notation: {text!r}")
    cycles = []
    for body in re.findall(r"\(([0-9 ]*)\)", stripped):
        points = [int(tok) for tok in body.split()]
        if points:
            cycles.append(points)
    return cycles


# ---------------------------------------------------------------------------
# group tables


class GroupTable:
    """An immutable finite group of order at most 64 given by its table.

    ``product[a][b]`` is the index of a*b, element 0 is the identity and
    ``inverse[x]`` is the unique y with x*y = 0.
    """

    __slots__ = ("order", "product", "inverse", "name", "_orders", "_abelian",
                 "_profile")

    def __init__(self, product: Sequence[Sequence[int]], name: str = "G",
                 validate: bool = True):
        rows = tuple(bytes(row) for row in product)
        n = len(rows)
        if not 1 <= n <= MAX_ORDER:
            raise GroupConstructionError(
                f"group order must be in 1..{MAX_ORDER}, got {n}")
        if validate:
            _validate_table(rows, n)
        self.order = n
        self.product = rows
        self.inverse = bytes(row.index(0) for row in rows)
        self.name = name
        self._orders: tuple[int, ...] | None = None
        self._abelian: bool | None = None
        # isomorphism invariants, filled in by isomorphism._profile
        self._profile: tuple | None = None

    def power(self, x: int, k: int) -> int:
        if k < 0:
            x, k = self.inverse[x], -k
        acc = 0
        row = self.product[x]
        for _ in range(k):
            acc = row[acc]
        return acc

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = all(
                self.product[a][b] == self.product[b][a]
                for a in range(self.order) for b in range(a + 1, self.order))
        return self._abelian

    def element_orders(self) -> tuple[int, ...]:
        """Order of every element, indexed by element.

        Raises GroupConstructionError when some element's powers do not
        reach 0 within ``order`` steps, which only an unvalidated table that
        is not a group can do.
        """
        if self._orders is None:
            product = self.product
            steps = range(2, self.order + 1)
            orders = [1]
            for x in range(1, self.order):
                acc = x
                for k in steps:
                    acc = product[acc][x]
                    if acc == 0:
                        orders.append(k)
                        break
                else:
                    raise GroupConstructionError(
                        f"{self.name} is not a group: the powers of element"
                        f" {x} do not reach 0 within {self.order} steps")
            self._orders = tuple(orders)
        return self._orders

    def renamed(self, name: str) -> "GroupTable":
        clone = GroupTable.__new__(GroupTable)
        clone.order = self.order
        clone.product = self.product
        clone.inverse = self.inverse
        clone.name = name
        clone._orders = self._orders
        clone._abelian = self._abelian
        clone._profile = self._profile
        return clone

    def __repr__(self) -> str:
        return f"GroupTable({self.name!r}, order={self.order})"


def _validate_table(rows: tuple[bytes, ...], n: int) -> None:
    sorted_ident = bytes(range(n))
    for x, row in enumerate(rows):
        if len(row) != n:
            raise GroupConstructionError(f"row {x} has length {len(row)}, expected {n}")
        if bytes(sorted(row)) != sorted_ident:
            raise GroupConstructionError(f"row {x} is not a permutation of 0..{n - 1}")
    for y, col in enumerate(zip(*rows)):
        if bytes(sorted(col)) != sorted_ident:
            raise GroupConstructionError(f"column {y} is not a permutation of 0..{n - 1}")
    if rows[0] != sorted_ident or any(rows[x][0] != x for x in range(n)):
        raise GroupConstructionError("element 0 is not a two-sided identity")
    # row_a . row_b as maps equals row_{a*b}; checked with bytes.translate
    pad = bytes(256 - n)
    tables = [row + pad for row in rows]
    for a in range(n):
        ta, ra = tables[a], rows[a]
        for b in range(n):
            if rows[b].translate(ta) != rows[ra[b]]:
                raise GroupConstructionError(
                    f"associativity fails at ({a}, {b})")


class SubgroupSet:
    """A subset of a group's element indices closed under its product.

    Compared and hashed by its members alone, not by the parent group.
    """

    __slots__ = ("parent", "members")

    def __init__(self, parent: GroupTable, members: tuple[int, ...]) -> None:
        self.parent = parent
        self.members = members

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members


# ---------------------------------------------------------------------------
# element-level operations


def element_order(g: GroupTable, x: int) -> int:
    """Least k >= 1 with x^k = identity; always divides the group order."""
    if not 0 <= x < g.order:
        raise ValueError(f"element index {x} out of range for order {g.order}")
    return g.element_orders()[x]


def generated_subgroup(g: GroupTable, seed: Iterable[int]) -> SubgroupSet:
    """Smallest subgroup of g containing the seed elements."""
    seeds = sorted(set(seed))
    for x in seeds:
        if not 0 <= x < g.order:
            raise ValueError(f"element index {x} out of range for order {g.order}")
    members = {0}
    frontier = [0]
    while frontier:
        e = frontier.pop()
        row = g.product[e]
        for s in seeds:
            t = row[s]
            if t not in members:
                members.add(t)
                frontier.append(t)
    return SubgroupSet(g, tuple(sorted(members)))


# ---------------------------------------------------------------------------
# constructors


def make_cyclic(n: int) -> GroupTable:
    """Cyclic group C_n with i*j = (i+j) mod n."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"cyclic order must be in 1..{MAX_ORDER}, got {n}")
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    return GroupTable(rows, name=f"C{n}")


def make_dihedral(two_n: int) -> GroupTable:
    """Dihedral group of order two_n: <r, s | r^n = s^2 = 1, s r s = r^-1>.

    The subscript is the group order, so ``make_dihedral(8)`` is the
    symmetry group of the square.
    """
    if two_n % 2 != 0 or not 2 <= two_n <= MAX_ORDER:
        raise ValueError(f"dihedral order must be even and in 2..{MAX_ORDER},"
                         f" got {two_n}")
    n = two_n // 2
    # indices: r^i -> i, s r^i -> n + i
    rows = [[0] * two_n for _ in range(two_n)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = (i + j) % n
            rows[i][n + j] = n + (j - i) % n
            rows[n + i][j] = n + (i + j) % n
            rows[n + i][n + j] = (j - i) % n
    return GroupTable(rows, name=f"D{two_n}")


def make_dicyclic(four_n: int) -> GroupTable:
    """Dicyclic group of order 4m: <a, b | a^(2m) = 1, b^2 = a^m, b a b^-1 = a^-1>.

    Order 8 is the quaternion group Q8; order 12 is C3:C4; 2-power orders
    give the generalized quaternion groups.
    """
    if four_n % 4 != 0 or not 8 <= four_n <= MAX_ORDER:
        raise ValueError(f"dicyclic order must be a multiple of 4 in"
                         f" 8..{MAX_ORDER}, got {four_n}")
    m = four_n // 4
    two_m = 2 * m
    # indices: a^i -> i, b a^i -> 2m + i
    rows = [[0] * four_n for _ in range(four_n)]
    for i in range(two_m):
        for j in range(two_m):
            rows[i][j] = (i + j) % two_m
            rows[i][two_m + j] = two_m + (j - i) % two_m
            rows[two_m + i][j] = two_m + (i + j) % two_m
            rows[two_m + i][two_m + j] = (m + j - i) % two_m
    return GroupTable(rows, name=f"Q{four_n}")


def make_quasidihedral(two_k: int) -> GroupTable:
    """Quasidihedral (semidihedral) group of 2-power order >= 16.

    Presentation <r, s | r^(n/2) = s^2 = 1, s r s = r^(n/4 - 1)> for order n.
    """
    if two_k < 16 or two_k > MAX_ORDER or two_k & (two_k - 1):
        raise ValueError(f"quasidihedral order must be a power of 2 in"
                         f" 16..{MAX_ORDER}, got {two_k}")
    n = two_k // 2
    t = two_k // 4 - 1
    # indices: r^i -> i, s r^i -> n + i; r^i s = s r^(t*i)
    rows = [[0] * two_k for _ in range(two_k)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = (i + j) % n
            rows[i][n + j] = n + (t * i + j) % n
            rows[n + i][j] = n + (i + j) % n
            rows[n + i][n + j] = (t * i + j) % n
    return GroupTable(rows, name=f"SD{two_k}")


def make_symmetric(n: int) -> GroupTable:
    """Symmetric group S_n for n <= 4, built by permutation closure."""
    if not 1 <= n <= 4:
        raise ValueError(f"symmetric group supported for degree 1..4, got {n}")
    if n == 1:
        return make_cyclic(1).renamed("S1")
    gens = [Permutation.from_cycles("(" + " ".join(map(str, range(n))) + ")"),
            Permutation.from_cycles("(0 1)", degree=n)]
    return from_permutations(gens, name=f"S{n}")


def make_alternating(n: int) -> GroupTable:
    """Alternating group A_n for n <= 4, built by permutation closure."""
    if not 1 <= n <= 4:
        raise ValueError(f"alternating group supported for degree 1..4, got {n}")
    if n <= 2:
        return make_cyclic(1).renamed(f"A{n}")
    if n == 3:
        return from_permutations([Permutation.from_cycles("(0 1 2)")], name="A3")
    gens = [Permutation.from_cycles("(0 1 2)", degree=4),
            Permutation.from_cycles("(1 2 3)", degree=4)]
    return from_permutations(gens, name="A4")


def direct_product(a: GroupTable, b: GroupTable) -> GroupTable:
    """Componentwise product on pairs, encoded as index(x, y) = x*|b| + y."""
    order = a.order * b.order
    if order > MAX_ORDER:
        raise ValueError(f"product order {order} exceeds {MAX_ORDER}")
    nb = b.order
    rows = [[0] * order for _ in range(order)]
    for x1 in range(a.order):
        for y1 in range(nb):
            row = rows[x1 * nb + y1]
            arow, brow = a.product[x1], b.product[y1]
            for x2 in range(a.order):
                base = arow[x2] * nb
                for y2 in range(nb):
                    row[x2 * nb + y2] = base + brow[y2]
    return GroupTable(rows, name=f"{a.name}x{b.name}")


def from_permutations(gens: Sequence[Permutation], name: str = "G") -> GroupTable:
    """Close a generating set of permutations and extract the Cayley table.

    Elements are indexed in breadth-first discovery order with the identity
    first, so the result is deterministic in the generator order.
    """
    if not gens:
        return make_cyclic(1).renamed(name)
    degree = gens[0].degree
    if any(p.degree != degree for p in gens):
        raise ValueError("all generators must share a degree")
    # close over raw image tuples; q = tuple(e[i] for i in p) is e.compose(p).
    # The closure is the right Cayley graph: right[k][e] is the index of
    # e.g_k, and every element b > 0 was first reached as parent[b].g_via[b].
    images = [p.images for p in gens]
    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    right: list[list[int]] = [[] for _ in images]
    parent, via = [0], [0]
    for cursor, e in enumerate(elements):  # grows while it is walked
        for k, p in enumerate(images):
            q = tuple(e[i] for i in p)
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
    # parent[b] mapped through right[via[b]]; parents precede children
    n = len(elements)
    pad = bytes(256 - n)
    maps = [bytes(r) + pad for r in right]
    columns = [bytes(range(n))]
    for b in range(1, n):
        columns.append(columns[parent[b]].translate(maps[via[b]]))
    return GroupTable(list(zip(*columns)), name=name)


# ---------------------------------------------------------------------------
# automorphism actions and semidirect products


class AutomorphismAction:
    """An action of one group on another by automorphisms.

    ``maps[h]`` is the permutation of the target's elements by which element
    h of the acting group acts.  Every map must be an automorphism and the
    assignment h -> maps[h] a homomorphism; both are checked at construction.
    """

    __slots__ = ("acting", "target", "maps")

    def __init__(self, acting: GroupTable, target: GroupTable,
                 maps: tuple[Permutation, ...]) -> None:
        h, n = acting, target
        if len(maps) != h.order:
            raise InvalidActionError(
                f"expected {h.order} maps, got {len(maps)}")
        for k, p in enumerate(maps):
            if p.degree != n.order:
                raise InvalidActionError(
                    f"map for element {k} has degree {p.degree},"
                    f" expected {n.order}")
            if p(0) != 0:
                raise InvalidActionError(
                    f"map for element {k} moves the identity")
            img = p.images
            for x in range(n.order):
                row = n.product[x]
                irow = n.product[img[x]]
                for y in range(n.order):
                    if img[row[y]] != irow[img[y]]:
                        raise InvalidActionError(
                            f"map for element {k} does not preserve products"
                            f" at ({x}, {y})")
        for k1 in range(h.order):
            for k2 in range(h.order):
                composed = maps[k1].compose(maps[k2])
                if composed != maps[h.product[k1][k2]]:
                    raise InvalidActionError(
                        f"maps do not define a homomorphism:"
                        f" map[{k1}*{k2}] != map[{k1}] o map[{k2}]")
        self.acting = acting
        self.target = target
        self.maps = maps


def inversion_action(a: GroupTable) -> AutomorphismAction:
    """The C2-action on an abelian group sending every element to its inverse."""
    if not a.is_abelian:
        raise InvalidActionError(
            f"inversion is not an automorphism of the nonabelian group {a.name}")
    inv = Permutation(tuple(a.inverse))
    return AutomorphismAction(make_cyclic(2), a,
                              (Permutation.identity(a.order), inv))


def action_from_generator_images(acting: GroupTable, target: GroupTable,
                                 images: dict[int, Permutation]) -> AutomorphismAction:
    """Extend automorphism images of generators of the acting group.

    ``images`` assigns a permutation of the target to each generator; the
    rest of the action is forced by the homomorphism property.  Raises if
    the given elements do not generate the acting group or the assignment
    is inconsistent.
    """
    degree = target.order
    maps: dict[int, Permutation] = {0: Permutation.identity(degree)}
    for k, p in images.items():
        if p.degree != degree:
            raise InvalidActionError(
                f"image for generator {k} has degree {p.degree}, expected {degree}")
    frontier = [0]
    while frontier:
        h = frontier.pop()
        for k, p in images.items():
            hk = acting.product[h][k]
            composed = maps[h].compose(p)
            if hk in maps:
                if maps[hk] != composed:
                    raise InvalidActionError(
                        f"generator images are inconsistent at element {hk}")
            else:
                maps[hk] = composed
                frontier.append(hk)
    if len(maps) != acting.order:
        raise InvalidActionError(
            f"given generators only reach {len(maps)} of"
            f" {acting.order} acting elements")
    return AutomorphismAction(acting, target,
                              tuple(maps[h] for h in range(acting.order)))


def semidirect_product(n: GroupTable, h: GroupTable,
                       action: AutomorphismAction) -> GroupTable:
    """Semidirect product N x| H with (x1,k1)(x2,k2) = (x1*k1(x2), k1*k2).

    Pairs are encoded as index(x, k) = x*|h| + k, so a trivial action
    reproduces ``direct_product(n, h)`` exactly.
    """
    if action.target.product != n.product:
        raise InvalidActionError("action target does not match the normal factor")
    if action.acting.product != h.product:
        raise InvalidActionError("action source does not match the acting factor")
    order = n.order * h.order
    if order > MAX_ORDER:
        raise ValueError(f"product order {order} exceeds {MAX_ORDER}")
    nh = h.order
    rows = [[0] * order for _ in range(order)]
    for x1 in range(n.order):
        for k1 in range(nh):
            row = rows[x1 * nh + k1]
            act = action.maps[k1].images
            nrow = n.product[x1]
            hrow = h.product[k1]
            for x2 in range(n.order):
                base = nrow[act[x2]] * nh
                for k2 in range(nh):
                    row[x2 * nh + k2] = base + hrow[k2]
    return GroupTable(rows, name=f"({n.name}):{h.name}")
