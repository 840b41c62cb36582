"""Bundled catalog of every isomorphism type of group of order at most 24.

Entries are stored as Cayley tables, one hex token per row, in a
plain-text data file and validated at load: each table must be a group of
its stated order, entries of equal order must be pairwise non-isomorphic,
and the per-order counts must match the known enumeration of small
groups.  Together those checks make the catalog provably complete through
order 24.

Tables are built and censused order by order, each order once per process,
and only for the orders a caller asks for: ``catalog_tables()`` builds
every order, ``explore`` the orders in its survivors' order windows, and
``catalog_search`` the orders up to its bound, or with a signature only
those of its window.  Every table that is built passes the group-axiom
check before its census is read.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Iterable
from functools import cache, lru_cache
from itertools import combinations

from .census import CensusReport, census
from .exclusion import admissible_orders
from .groups import GroupTable
from .isomorphism import isomorphism_classes
from .report import CheckResult, VerificationReport

MAX_CATALOG_ORDER = 24

# Known number of isomorphism types for each order 1..24.
EXPECTED_GROUP_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 11: 1,
    12: 5, 13: 1, 14: 2, 15: 1, 16: 14, 17: 1, 18: 5, 19: 1, 20: 5,
    21: 2, 22: 2, 23: 1, 24: 15,
}

DATA_FILE = "groups_le24.txt"


class CatalogError(ValueError):
    """The catalog data file is malformed or fails validation."""


class CatalogEntry(namedtuple("CatalogEntry", "order index label rows")):
    """One catalog group: its order, stable index, label and table rows."""

    __slots__ = ()  # rows: bytes, row a holds a*b at position b

    def build(self) -> GroupTable:
        """The entry's group table, checked against the group axioms."""
        if len(self.rows) != self.order:
            raise CatalogError(
                f"catalog entry {self.label}: {len(self.rows)} rows,"
                f" stated order {self.order}")
        try:
            return GroupTable(self.rows, name=self.label)
        except ValueError as err:
            raise CatalogError(f"catalog entry {self.label}: {err}") from None


def _parse_line(line: str, lineno: int) -> CatalogEntry:
    parts = line.split(maxsplit=3)
    if len(parts) != 4 or not parts[3].startswith("rows="):
        raise CatalogError(f"line {lineno}: expected"
                           f" 'order index label rows=...', got {line!r}")
    try:
        order = int(parts[0])
        index = int(parts[1])
    except ValueError as err:
        raise CatalogError(f"line {lineno}: bad order/index: {err}") from None
    # each row is a hex token, two digits per element; CatalogEntry.build
    # checks the row count, GroupTable the row lengths and the axioms
    rows = []
    for token in parts[3][len("rows="):].split():
        try:
            rows.append(bytes.fromhex(token))
        except ValueError:
            raise CatalogError(
                f"line {lineno}: row {len(rows)} is not hex: {token!r}"
                ) from None
    return CatalogEntry(order, index, parts[2], tuple(rows))


@lru_cache(maxsize=1)
def load_catalog() -> tuple[CatalogEntry, ...]:
    """Parse the bundled data file; ordered by (order, index).

    The file is opened next to this module rather than through
    ``importlib.resources``, whose import alone pulls in zipfile, tempfile
    and the compression modules.
    """
    path = os.path.join(os.path.dirname(__file__), "data", DATA_FILE)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entries.append(_parse_line(line, lineno))
    ordered = sorted(entries, key=lambda e: (e.order, e.index))
    if [(e.order, e.index) for e in ordered] != [(e.order, e.index) for e in entries]:
        raise CatalogError("catalog entries out of (order, index) order")
    return tuple(entries)


BuiltEntry = tuple[CatalogEntry, GroupTable, CensusReport]


@cache
def _built_order(order: int) -> tuple[BuiltEntry, ...]:
    """The entries of one order, each built and censused, in index order."""
    built = []
    for entry in load_catalog():
        if entry.order == order:
            table = entry.build()
            built.append((entry, table, census(table)))
    return tuple(built)


def catalog_tables(orders: Iterable[int] | None = None,
                   ) -> tuple[BuiltEntry, ...]:
    """Catalog entries with their built tables and censuses, by (order, index).

    Only the entries of ``orders`` are built, every order of the data file
    by default; each order is built once per process and cached.
    """
    if orders is None:
        orders = {entry.order for entry in load_catalog()}
    return tuple(built for order in sorted(orders)
                 for built in _built_order(order))


def catalog_search(max_order: int, delta: int | None = None,
                   sigma: tuple[int, ...] | None = None,
                   ) -> list[tuple[CatalogEntry, CensusReport]]:
    """Catalog entries up to max_order matching the optional filters.

    ``sigma`` is a sorted signature tuple.  Only the orders up to
    max_order are built, and with ``sigma`` only those of its order window,
    which holds the order of every group with that signature.  Raises
    ValueError for a max_order outside 1..24 or a negative delta.
    """
    if max_order > MAX_CATALOG_ORDER:
        raise ValueError(
            f"catalog covers orders up to {MAX_CATALOG_ORDER}, got {max_order}")
    if max_order < 1:
        raise ValueError(f"max order must be at least 1, got {max_order}")
    if delta is not None and delta < 0:
        raise ValueError(f"delta must be at least 0, got {delta}")
    if sigma is None:
        orders = range(1, max_order + 1)
    else:
        orders = admissible_orders(sigma, max_order)
    hits = []
    for entry, _table, report in catalog_tables(orders):
        if delta is not None and report.delta != delta:
            continue
        if sigma is not None and report.signature != sigma:
            continue
        hits.append((entry, report))
    return hits


def catalog_validate() -> VerificationReport:
    """Check that each table is a group of its stated order, the per-order
    counts and pairwise non-isomorphism.

    With the counts pinned to the known enumeration of groups of order
    <= 24, pairwise non-isomorphism within each order proves the catalog
    hits every isomorphism type exactly once.
    """
    checks: list[CheckResult] = []
    try:
        built = catalog_tables()
    except (CatalogError, ValueError) as err:
        checks.append(CheckResult("catalog_load", False, str(err)))
        return VerificationReport(sweep=checks)

    checks.append(CheckResult(
        "catalog_load", True, f"{len(built)} entries built and censused"))

    by_order: dict[int, list[tuple[CatalogEntry, GroupTable]]] = {}
    for entry, table, _report in built:
        by_order.setdefault(entry.order, []).append((entry, table))

    counts_ok = True
    for order, expected in EXPECTED_GROUP_COUNTS.items():
        actual = len(by_order.get(order, []))
        if actual != expected:
            counts_ok = False
            checks.append(CheckResult(
                f"count_order_{order}", False,
                f"expected {expected} groups of order {order}, found {actual}"))
    checks.append(CheckResult(
        "per_order_counts", counts_ok,
        "counts match the known enumeration for orders 1..24" if counts_ok
        else "per-order count mismatch"))

    distinct_ok = True
    for order, members in sorted(by_order.items()):
        keys = isomorphism_classes([table for _entry, table in members])
        for i, j in combinations(range(len(members)), 2):
            if keys[i] == keys[j]:
                distinct_ok = False
                checks.append(CheckResult(
                    f"duplicate_order_{order}", False,
                    f"{members[i][0].label} and {members[j][0].label}"
                    f" are isomorphic"))
    checks.append(CheckResult(
        "pairwise_distinct", distinct_ok,
        "entries of equal order are pairwise non-isomorphic" if distinct_ok
        else "duplicate isomorphism type found"))

    return VerificationReport(sweep=checks)
