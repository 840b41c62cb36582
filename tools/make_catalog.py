#!/usr/bin/env python3
"""Regenerate src/groupcensus/data/groups_le24.txt.

Builds one representative of every isomorphism type of group of order at
most 24 from the library's constructors, finds a small generating set for
each, closes the generators' rows (each the permutation of the group's own
elements by left multiplication) with ``from_permutations``, and writes the
Cayley table of the result, one hex token of two digits per element for
each row.  It imports the package from the ``src/`` beside it, not from an
installed copy.  Output is deterministic; run from the repo root:

    python tools/make_catalog.py
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from groupcensus import (GroupTable, InvalidActionError,  # noqa: E402
                         cyclic_extension, direct_product,
                         extend_generator_map, from_permutations,
                         generated_subgroup, make_alternating, make_cyclic,
                         make_dicyclic, make_dihedral, make_quasidihedral,
                         make_symmetric)
from groupcensus.verify import (_c3c3_by_inversion, _klein_by_c4,  # noqa: E402
                                _q8_by_c2)

OUT = ROOT / "src/groupcensus/data/groups_le24.txt"


def cyclic_by_power(m: int, p: int, k: int) -> GroupTable:
    """C_m : C_p, the generator of C_p acting on ``make_cyclic(m)``, whose
    element x is r^x, by x -> x^k, that is x -> k*x mod m."""
    beta = [k * x % m for x in range(m)]
    return cyclic_extension(make_cyclic(m), p, beta, 0)


def generating_set(g: GroupTable) -> list[int]:
    """A small generating set, chosen greedily by closure growth.

    The stored tables are closed from the rows at these generators, so the
    file pins this choice; the library's ``generating_set``, the set the
    table kept from its validation, would relabel them.
    """
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


def abelian(*orders: int) -> GroupTable:
    table = make_cyclic(orders[0])
    for n in orders[1:]:
        table = direct_product(table, make_cyclic(n))
    return table


def automorphism(g: GroupTable, images: dict[int, int], text: str):
    """The automorphism of g with the given generator images, as an image
    tuple; ``text`` names it if the images do not extend."""
    beta = extend_generator_map(g, g, images)
    if beta is None:
        raise InvalidActionError(f"{text} does not extend to an automorphism"
                                 f" of {g.name}")
    return beta


def sl23() -> GroupTable:
    # SL(2,3) = Q8 : C3, the acting 3-cycle permuting i, j, k
    q8 = make_dicyclic(8)
    # q8 indices: a = 1, b = 4, ab = 5; the automorphism a -> b -> ab -> a
    return cyclic_extension(q8, 3, automorphism(q8, {1: 4, 4: 5},
                                                "a -> b, b -> ab"), 0)


def c3_by_d8() -> GroupTable:
    # C3 : D8 = (C3 : C4) : C2, the acting involution fixing a and
    # inverting b in Q12 = <a, b | a^6 = 1, b^2 = a^3, b a b^-1 = a^-1>
    q12 = make_dicyclic(12)
    # q12 indices: a = 1, b = 6
    return cyclic_extension(q12, 2, automorphism(
        q12, {1: 1, 6: q12.inverse[6]}, "a -> a, b -> b^-1"), 0)


GROUPS: list[tuple[int, str, object]] = [
    (1, "C1", lambda: make_cyclic(1)),
    (2, "C2", lambda: make_cyclic(2)),
    (3, "C3", lambda: make_cyclic(3)),
    (4, "C4", lambda: make_cyclic(4)),
    (4, "C2xC2", lambda: abelian(2, 2)),
    (5, "C5", lambda: make_cyclic(5)),
    (6, "C6", lambda: make_cyclic(6)),
    (6, "S3", lambda: make_symmetric(3)),
    (7, "C7", lambda: make_cyclic(7)),
    (8, "C8", lambda: make_cyclic(8)),
    (8, "C4xC2", lambda: abelian(4, 2)),
    (8, "C2xC2xC2", lambda: abelian(2, 2, 2)),
    (8, "D8", lambda: make_dihedral(8)),
    (8, "Q8", lambda: make_dicyclic(8)),
    (9, "C9", lambda: make_cyclic(9)),
    (9, "C3xC3", lambda: abelian(3, 3)),
    (10, "C10", lambda: make_cyclic(10)),
    (10, "D10", lambda: make_dihedral(10)),
    (11, "C11", lambda: make_cyclic(11)),
    (12, "C12", lambda: make_cyclic(12)),
    (12, "C6xC2", lambda: abelian(6, 2)),
    (12, "D12", lambda: make_dihedral(12)),
    (12, "A4", lambda: make_alternating(4)),
    (12, "C3:C4", lambda: make_dicyclic(12)),
    (13, "C13", lambda: make_cyclic(13)),
    (14, "C14", lambda: make_cyclic(14)),
    (14, "D14", lambda: make_dihedral(14)),
    (15, "C15", lambda: make_cyclic(15)),
    (16, "C16", lambda: make_cyclic(16)),
    (16, "C8xC2", lambda: abelian(8, 2)),
    (16, "C4xC4", lambda: abelian(4, 4)),
    (16, "C4xC2xC2", lambda: abelian(4, 2, 2)),
    (16, "C2xC2xC2xC2", lambda: abelian(2, 2, 2, 2)),
    (16, "D16", lambda: make_dihedral(16)),
    (16, "SD16", lambda: make_quasidihedral(16)),
    (16, "Q16", lambda: make_dicyclic(16)),
    (16, "M16", lambda: cyclic_by_power(8, 2, 5)),
    (16, "D8xC2", lambda: direct_product(make_dihedral(8), make_cyclic(2))),
    (16, "Q8xC2", lambda: direct_product(make_dicyclic(8), make_cyclic(2))),
    (16, "(C2xC2):C4", _klein_by_c4),
    (16, "C4:C4", lambda: cyclic_by_power(4, 4, 3)),
    (16, "Q8:C2", _q8_by_c2),
    (17, "C17", lambda: make_cyclic(17)),
    (18, "C18", lambda: make_cyclic(18)),
    (18, "C3xC6", lambda: abelian(3, 6)),
    (18, "D18", lambda: make_dihedral(18)),
    (18, "C3xS3", lambda: direct_product(make_cyclic(3), make_symmetric(3))),
    (18, "(C3xC3):C2", _c3c3_by_inversion),
    (19, "C19", lambda: make_cyclic(19)),
    (20, "C20", lambda: make_cyclic(20)),
    (20, "C10xC2", lambda: abelian(10, 2)),
    (20, "D20", lambda: make_dihedral(20)),
    (20, "Q20", lambda: make_dicyclic(20)),
    (20, "C5:C4", lambda: cyclic_by_power(5, 4, 2)),
    (21, "C21", lambda: make_cyclic(21)),
    (21, "C7:C3", lambda: cyclic_by_power(7, 3, 2)),
    (22, "C22", lambda: make_cyclic(22)),
    (22, "D22", lambda: make_dihedral(22)),
    (23, "C23", lambda: make_cyclic(23)),
    (24, "C24", lambda: make_cyclic(24)),
    (24, "C12xC2", lambda: abelian(12, 2)),
    (24, "C6xC2xC2", lambda: abelian(6, 2, 2)),
    (24, "D24", lambda: make_dihedral(24)),
    (24, "Q24", lambda: make_dicyclic(24)),
    (24, "S4", lambda: make_symmetric(4)),
    (24, "A4xC2", lambda: direct_product(make_alternating(4), make_cyclic(2))),
    (24, "SL(2,3)", sl23),
    (24, "C3:C8", lambda: cyclic_by_power(3, 8, 2)),
    (24, "C3xD8", lambda: direct_product(make_cyclic(3), make_dihedral(8))),
    (24, "C3xQ8", lambda: direct_product(make_cyclic(3), make_dicyclic(8))),
    (24, "C4xS3", lambda: direct_product(make_cyclic(4), make_symmetric(3))),
    (24, "C2xC2xS3",
     lambda: direct_product(abelian(2, 2), make_symmetric(3))),
    (24, "C2x(C3:C4)",
     lambda: direct_product(make_cyclic(2), make_dicyclic(12))),
    (24, "C3:D8", c3_by_d8),
]


def render() -> str:
    """The text of the catalog data file."""
    lines = ["# Every isomorphism type of group of order <= 24.",
             "# Format: order index label rows=row row ...",
             "# Row a of the Cayley table is one hex token, two digits per"
             " element:",
             "# its b-th byte is the index of a*b, and element 0 is the"
             " identity;",
             "# regenerate with tools/make_catalog.py."]
    index: dict[int, int] = {}
    for order, label, build in GROUPS:
        table = build()
        if table.order != order:
            raise SystemExit(f"{label}: built order {table.order}, wanted {order}")
        gens = generating_set(table) or [0]
        closed = from_permutations([table.product[g] for g in gens])
        idx = index.get(order, 0)
        index[order] = idx + 1
        lines.append(f"{order} {idx} {label} rows="
                     + " ".join(row.hex() for row in closed.product))
    return "\n".join(lines) + "\n"


def main() -> int:
    OUT.write_text(render())
    print(f"wrote {len(GROUPS)} entries to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
