"""The package's public names."""

import groupcensus


def test_every_exported_name_resolves_once():
    # a name deleted from a module but left in __all__ would fail here,
    # and so would one listed twice
    names = groupcensus.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(groupcensus, name, None) is not None, name
