"""perfbench's per-layer traces of verify and explore runs, taken in-process.

The tracer finds the layers it times by name; a rename in groupcensus
would leave a layer silently at zero, which these tests catch.
"""

import importlib.util
import pathlib

import groupcensus.catalog
import groupcensus.verify
from groupcensus import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_traced_verify_reports_every_layer(capsys):
    groupcensus.catalog.load_catalog.cache_clear()
    groupcensus.catalog._built_order.cache_clear()
    groupcensus.verify._built.cache_clear()
    tracer = load_tracer()
    tracer.install()
    try:
        assert cli.run(["verify", "--all"]) == 0
    finally:
        tracer.enable(False)
    capsys.readouterr()
    sums, maxima = tracer.sums, tracer.maxima
    assert maxima["catalog.entries"] == 74
    # the 74 catalog tables, 31 named constructions built once each and
    # the doubling check's 24 products; the dihedral, dicyclic and
    # quasidihedral builds make no cyclic base table
    assert sums["groups.tables"] == 129
    assert sums["isomorphism.calls"] == sums["isomorphism.iso_pairs"] == 32
    for layer in ("groups.build_s", "catalog.load_s", "catalog.validate_s"):
        assert sums[layer] > 0, layer


def traced_explore(delta, capsys):
    """The tracer's sums and maxima over one explore run, caches cold."""
    groupcensus.catalog.load_catalog.cache_clear()
    groupcensus.catalog._built_order.cache_clear()
    tracer = load_tracer()
    tracer.install()
    try:
        assert cli.run(["explore", "--delta", str(delta)]) == 0
    finally:
        tracer.enable(False)
    capsys.readouterr()
    return tracer.sums, tracer.maxima


def test_traced_explore_builds_only_windowed_orders(capsys):
    # the 8525 candidates are listed although most are skipped in runs;
    # the whole file is parsed, but only the 15 entries of order 24, the
    # one catalog order in a delta-16 survivor's window, are built
    sums, maxima = traced_explore(16, capsys)
    assert maxima["candidates.count.d16"] == 8525
    assert maxima["catalog.entries"] == 74
    assert sums["groups.tables"] == 15
    # no delta-13 survivor has a catalog order in its window
    sums, _maxima = traced_explore(13, capsys)
    assert sums.get("groups.tables", 0) == 0
