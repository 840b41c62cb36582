"""perfbench's per-layer trace of a verify run, taken in-process.

The tracer finds the layers it times by name; a rename in groupcensus
would leave a layer silently at zero, which this test catches.
"""

import importlib.util
import pathlib

import groupcensus.catalog
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
    groupcensus.catalog._built_catalog.cache_clear()
    tracer = load_tracer()
    tracer.install()
    try:
        assert cli.run(["verify", "--all"]) == 0
    finally:
        tracer.enable(False)
    capsys.readouterr()
    sums, maxima = tracer.sums, tracer.maxima
    assert maxima["catalog.entries"] == 74
    assert sums["groups.tables"] == 165
    assert sums["isomorphism.calls"] == sums["isomorphism.iso_pairs"] == 32
    for layer in ("groups.build_s", "catalog.load_s", "catalog.validate_s"):
        assert sums[layer] > 0, layer
