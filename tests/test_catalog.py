"""The bundled catalog: loading, validation and search."""

import hashlib
import importlib.util
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest
from test_isomorphism import relabelled

import groupcensus.catalog
from groupcensus import (EXPECTED_GROUP_COUNTS, CatalogError, GroupTable,
                         catalog_search, catalog_validate, census,
                         load_catalog)


def test_load_shape():
    entries = load_catalog()
    assert len(entries) == 74
    labels = [e.label for e in entries]
    assert len(set(labels)) == 74
    keys = [(e.order, e.index) for e in entries]
    assert keys == sorted(keys)
    assert all(1 <= e.order <= 24 for e in entries)


def test_load_imports_no_archive_modules():
    # importlib.resources would pull these in; a plain interpreter (-S, no
    # site hooks) shows what loading the catalog itself imports
    heavy = ("zipfile", "tempfile", "shutil", "random", "bz2", "lzma")
    code = ("import sys\n"
            "from groupcensus.catalog import load_catalog\n"
            "assert len(load_catalog()) == 74\n"
            f"print([m for m in {heavy!r} if m in sys.modules])\n")
    src = os.path.dirname(os.path.dirname(groupcensus.catalog.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


def test_generator_reproduces_bundled_file():
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "make_catalog", root / "tools" / "make_catalog.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    bundled = pathlib.Path(groupcensus.catalog.__file__).parent / "data" / (
        groupcensus.catalog.DATA_FILE)
    assert tool.render() == bundled.read_text(encoding="utf-8")


def test_built_tables_pinned(catalog):
    # the 74 stored tables, byte for byte as they were closed from the
    # generator image lists and cycle strings the catalog file held before,
    # but C4:C4, Q8:C2, C5:C4, C7:C3 and SL(2,3), closed from the
    # cyclic_extension recipes of tools/make_catalog.py
    digest = hashlib.sha256()
    for _entry, table, _report in catalog:
        digest.update(b"".join(table.product))
    assert digest.hexdigest() == (
        "b25acb3cc3e2a638b11b351055cdd04505554132ea56e43b040301e054f3f3ae")


def test_generator_runs_from_a_plain_checkout(tmp_path):
    # the documented command, with no installed package and no PYTHONPATH:
    # the tool must import the src/ beside it
    root = pathlib.Path(__file__).resolve().parent.parent
    for part in ("src", "tools"):
        shutil.copytree(root / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    data = tmp_path / "src" / "groupcensus" / "data" / (
        groupcensus.catalog.DATA_FILE)
    before = data.read_bytes()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run([sys.executable, "tools/make_catalog.py"],
                           cwd=tmp_path, env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert data.read_bytes() == before


@pytest.mark.parametrize("text,message", [
    ("3 0 C3 rows=000102 01zz00 020001", "line 7: row 1 is not hex: '01zz00'"),
    ("3 0 C3 rows=000102 01020 020001", "line 7: row 1 is not hex: '01020'"),
    ("3 0 C3 gens=1 2 0", "line 7: expected 'order index label rows=...',"
     " got '3 0 C3 gens=1 2 0'"),
], ids=["non-hex", "odd-length", "old-format"])
def test_malformed_rows_name_the_line(text, message):
    with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
        groupcensus.catalog._parse_line(text, 7)


def load_report_of(monkeypatch, entry):
    """catalog_validate's checks for a catalog holding only this entry."""
    monkeypatch.setattr(groupcensus.catalog, "load_catalog", lambda: (entry,))
    monkeypatch.setattr(groupcensus.catalog, "_built_order",
                        groupcensus.catalog._built_order.__wrapped__)
    return [(c.name, c.passed, c.detail) for c in catalog_validate().sweep]


# the 5-element loop of test_validation_rejects_broken_tables: a Latin
# square with identity 0 that is not associative
LOOP_ROWS = "0001020304 0100030402 0203040001 0304010200 0402000103"


@pytest.mark.parametrize("text,message", [
    ("3 0 C3 rows=", "catalog entry C3: 0 rows, stated order 3"),
    ("3 0 C3 rows=000102 010200", "catalog entry C3: 2 rows, stated order 3"),
    ("3 0 C3 rows=000102 0102 020001",
     "catalog entry C3: row 1 has length 2, expected 3"),
    ("3 0 C3 rows=000102 010100 020001",
     "catalog entry C3: row 1 is not a permutation of 0..2"),
    (f"5 0 L5 rows={LOOP_ROWS}",
     "catalog entry L5: associativity fails at (1, 1)"),
], ids=["no-rows", "row-count", "short-row", "not-a-permutation", "loop"])
def test_bad_tables_fail_catalog_load(monkeypatch, text, message):
    entry = groupcensus.catalog._parse_line(text, 7)
    with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
        entry.build()
    assert load_report_of(monkeypatch, entry) == [
        ("catalog_load", False, message)]


def test_validate_profiles_only_cheap_key_collisions(catalog, monkeypatch):
    # fresh tables carry no cached profile or classes; only the two pairs
    # of order-16 groups that share order, element-order and square-root
    # histograms need the full profile
    fresh = [(entry, GroupTable(table.product, name=table.name), report)
             for entry, table, report in catalog]
    monkeypatch.setattr(groupcensus.catalog, "catalog_tables", lambda: fresh)
    assert catalog_validate().passed
    assert [table.name for _entry, table, _report in fresh
            if table._profile is not None] == [
        "C8xC2", "C4xC2xC2", "M16", "Q8:C2"]


def test_expected_counts_table():
    assert [EXPECTED_GROUP_COUNTS[n] for n in range(1, 25)] == [
        1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5,
        1, 2, 1, 14, 1, 5, 1, 5, 2, 2, 1, 15]
    assert sum(EXPECTED_GROUP_COUNTS.values()) == 74


def test_entries_close_to_stated_order():
    for entry in load_catalog():
        assert entry.build().order == entry.order


def test_catalog_validate_passes():
    report = catalog_validate()
    assert report.passed, report.failures()
    names = {c.name for c in report.sweep}
    assert {"catalog_load", "per_order_counts", "pairwise_distinct"} <= names


def test_catalog_validate_reports_a_duplicate_twin(catalog, monkeypatch):
    # C4:C4 replaced by a relabelled Q8xC2: same invariants as before, so
    # only the search inside the bucket can expose the duplicate
    by_label = {entry.label: i for i, (entry, _t, _r) in enumerate(catalog)}
    q8xc2 = catalog[by_label["Q8xC2"]][1]
    images = [0] + list(range(15, 0, -1))
    entry, _table, census_report = catalog[by_label["C4:C4"]]
    tampered = list(catalog)
    tampered[by_label["C4:C4"]] = (entry, relabelled(q8xc2, images),
                                   census_report)
    monkeypatch.setattr(groupcensus.catalog, "catalog_tables",
                        lambda: tampered)
    report = catalog_validate()
    assert not report.passed
    failed = [(c.name, c.detail) for c in report.sweep if not c.passed]
    assert failed == [
        ("duplicate_order_16", "Q8xC2 and C4:C4 are isomorphic"),
        ("pairwise_distinct", "duplicate isomorphism type found")]


def test_search_elementary_abelian():
    hits = catalog_search(24, delta=0)
    assert [e.label for e, _ in hits] == [
        "C1", "C2", "C2xC2", "C2xC2xC2", "C2xC2xC2xC2"]


def test_search_delta_two():
    labels = {e.label for e, _ in catalog_search(24, delta=2)}
    assert labels == {"C4xC2", "D8xC2", "C6", "D12"}


def test_search_sigma_4444():
    hits = catalog_search(16, sigma=(4, 4, 4, 4))
    assert {e.label for e, _ in hits} == {"C4xC2xC2", "(C2xC2):C4", "Q8:C2"}


def test_search_bounds():
    with pytest.raises(ValueError):
        catalog_search(25)
    with pytest.raises(ValueError, match="at least 1"):
        catalog_search(0)
    with pytest.raises(ValueError, match="at least 0"):
        catalog_search(24, delta=-1)
    assert catalog_search(1)[0][0].label == "C1"


def test_search_reports_are_censuses(catalog):
    for entry, report in catalog_search(24):
        rebuilt = census(entry.build())
        assert rebuilt == report


def orders_built_by(monkeypatch, *args, **kwargs):
    """The catalog orders that one catalog_search call asks to build."""
    built = []
    real = groupcensus.catalog._built_order

    def recording(order):
        built.append(order)
        return real(order)

    monkeypatch.setattr(groupcensus.catalog, "_built_order", recording)
    catalog_search(*args, **kwargs)
    monkeypatch.undo()
    return built


def test_search_builds_only_the_orders_it_filters(monkeypatch):
    assert orders_built_by(monkeypatch, 6) == [1, 2, 3, 4, 5, 6]
    assert orders_built_by(monkeypatch, 24, delta=2) == list(range(1, 25))
    # with a signature, only the orders of its window
    assert orders_built_by(monkeypatch, 24, sigma=(4, 4, 4, 4)) == [16]
    assert orders_built_by(monkeypatch, 24, sigma=(3, 3, 3, 3)) == [
        9, 12, 18, 24]
    assert orders_built_by(monkeypatch, 12, sigma=(3, 3, 3, 3)) == [9, 12]
    assert orders_built_by(monkeypatch, 24, sigma=()) == [1, 2, 4, 8, 16]
    assert orders_built_by(monkeypatch, 24, sigma=(5, 5)) == []
