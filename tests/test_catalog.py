"""The bundled catalog: loading, validation and search."""

import hashlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest
from test_isomorphism import relabelled

import groupcensus.catalog
from groupcensus import (EXPECTED_GROUP_COUNTS, CatalogError, catalog_search,
                         catalog_validate, census, load_catalog)


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
    # the 74 tables closed from the image lists, byte for byte as they were
    # closed from the cycle strings the catalog file held before
    digest = hashlib.sha256()
    for _entry, table, _report in catalog:
        digest.update(b"".join(table.product))
    assert digest.hexdigest() == (
        "99cce82516509e90f712be3dbce7cced90028ecf86125e43db860ea2a40e9edb")


@pytest.mark.parametrize("gens,message", [
    ("1 2 x", "line 7: bad image"),
    ("1 2 0;", "line 7: empty generator"),
    ("", "line 7: empty generator"),
    ("1 2 0;;2 0 1", "line 7: empty generator"),
])
def test_malformed_generators_name_the_line(gens, message):
    with pytest.raises(CatalogError, match=message):
        groupcensus.catalog._parse_line(f"3 0 C3 gens={gens}", 7)


def load_report_of(monkeypatch, entry):
    """catalog_validate's checks for a catalog holding only this entry."""
    monkeypatch.setattr(groupcensus.catalog, "load_catalog", lambda: (entry,))
    monkeypatch.setattr(groupcensus.catalog, "catalog_tables",
                        groupcensus.catalog._built_catalog.__wrapped__)
    return [(c.name, c.passed, c.detail) for c in catalog_validate().sweep]


def test_unequal_degrees_fail_catalog_load(monkeypatch):
    entry = groupcensus.catalog._parse_line("3 0 C3 gens=1 2 0;1 0", 7)
    assert entry.generators == ((1, 2, 0), (1, 0))
    assert load_report_of(monkeypatch, entry) == [
        ("catalog_load", False,
         "catalog entry C3: all generators must share a degree")]


def test_non_bijection_fails_catalog_load(monkeypatch):
    entry = groupcensus.catalog._parse_line("3 0 C3 gens=1 1 0", 7)
    assert entry.generators == ((1, 1, 0),)
    with pytest.raises(CatalogError, match="^catalog entry C3: images"):
        entry.build()
    assert load_report_of(monkeypatch, entry) == [
        ("catalog_load", False,
         "catalog entry C3: images (1, 1, 0) are not a bijection of 0..2")]


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
