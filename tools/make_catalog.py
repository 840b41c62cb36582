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
                         action_from_generator_images, direct_product,
                         extend_generator_map, from_permutations,
                         generating_set,
                         inversion_action, make_alternating, make_cyclic,
                         make_dicyclic, make_dihedral, make_quasidihedral,
                         make_symmetric, semidirect_product)
from groupcensus.verify import _klein_by_c4, _q8_by_c2  # noqa: E402

OUT = ROOT / "src/groupcensus/data/groups_le24.txt"


def cyclic_power_action(normal: GroupTable, acting: GroupTable,
                        image_of_generator: int):
    """Action of a cyclic group whose generator (index 1) maps x -> x^k on
    ``make_cyclic(m)``, whose element x is r^x, so x^k is k*x mod m."""
    perm = tuple(image_of_generator * x % normal.order
                 for x in range(normal.order))
    return action_from_generator_images(acting, normal, {1: perm})


def abelian(*orders: int) -> GroupTable:
    table = make_cyclic(orders[0])
    for n in orders[1:]:
        table = direct_product(table, make_cyclic(n))
    return table


def sd_inv(normal: GroupTable, acting: GroupTable) -> GroupTable:
    return semidirect_product(normal, acting, inversion_action(normal))


def c3xc3_by_inv() -> GroupTable:
    return sd_inv(abelian(3, 3), make_cyclic(2))


def m16() -> GroupTable:
    # modular group of order 16: C8 : C2 with r -> r^5
    c8 = make_cyclic(8)
    return semidirect_product(c8, make_cyclic(2),
                              cyclic_power_action(c8, make_cyclic(2), 5))


def c4_by_c4() -> GroupTable:
    # C4 : C4, the generator of the acting C4 inverting the normal C4
    c4 = make_cyclic(4)
    return semidirect_product(c4, make_cyclic(4),
                              cyclic_power_action(c4, make_cyclic(4), 3))


def f20() -> GroupTable:
    # Frobenius group C5 : C4 via the faithful action a -> a^2
    c5 = make_cyclic(5)
    return semidirect_product(c5, make_cyclic(4),
                              cyclic_power_action(c5, make_cyclic(4), 2))


def c7_by_c3() -> GroupTable:
    c7 = make_cyclic(7)
    return semidirect_product(c7, make_cyclic(3),
                              cyclic_power_action(c7, make_cyclic(3), 2))


def c3_by_c8() -> GroupTable:
    c3 = make_cyclic(3)
    return semidirect_product(c3, make_cyclic(8),
                              cyclic_power_action(c3, make_cyclic(8), 2))


def sl23() -> GroupTable:
    # SL(2,3) = Q8 : C3, the acting 3-cycle permuting i, j, k
    q8 = make_dicyclic(8)
    # q8 indices: a = 1, b = 4, ab = 5; the automorphism a -> b -> ab -> a
    images = extend_generator_map(q8, q8, {1: 4, 4: 5})
    if images is None:
        raise InvalidActionError(
            "a -> b, b -> ab does not extend to an automorphism of Q8")
    action = action_from_generator_images(
        make_cyclic(3), q8, {1: images})
    return semidirect_product(q8, make_cyclic(3), action)


def c3_by_d8() -> GroupTable:
    # C3 : D8 where the rotation inverts and the reflection fixes C3
    c3 = make_cyclic(3)
    d8 = make_dihedral(8)
    # d8 indices: r = 1, s = 4
    action = action_from_generator_images(
        d8, c3, {1: tuple(c3.inverse), 4: (0, 1, 2)})
    return semidirect_product(c3, d8, action)


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
    (16, "M16", m16),
    (16, "D8xC2", lambda: direct_product(make_dihedral(8), make_cyclic(2))),
    (16, "Q8xC2", lambda: direct_product(make_dicyclic(8), make_cyclic(2))),
    (16, "(C2xC2):C4", _klein_by_c4),
    (16, "C4:C4", c4_by_c4),
    (16, "Q8:C2", _q8_by_c2),
    (17, "C17", lambda: make_cyclic(17)),
    (18, "C18", lambda: make_cyclic(18)),
    (18, "C3xC6", lambda: abelian(3, 6)),
    (18, "D18", lambda: make_dihedral(18)),
    (18, "C3xS3", lambda: direct_product(make_cyclic(3), make_symmetric(3))),
    (18, "(C3xC3):C2", c3xc3_by_inv),
    (19, "C19", lambda: make_cyclic(19)),
    (20, "C20", lambda: make_cyclic(20)),
    (20, "C10xC2", lambda: abelian(10, 2)),
    (20, "D20", lambda: make_dihedral(20)),
    (20, "Q20", lambda: make_dicyclic(20)),
    (20, "C5:C4", f20),
    (21, "C21", lambda: make_cyclic(21)),
    (21, "C7:C3", c7_by_c3),
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
    (24, "C3:C8", c3_by_c8),
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
