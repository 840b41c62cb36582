"""The classification claims, the exhaustive sweeps and the property suite."""

import pytest
from test_candidates import PINNED

import groupcensus.catalog
import groupcensus.verify
from groupcensus import (CatalogError, SurvivorReport, catalog_tables,
                         catalog_validate, census, explore, is_isomorphic,
                         known_groups_for, parse_group, property_suite,
                         revised_table, theorem_claims, verify_all,
                         verify_theorem)
from groupcensus.groups import generated_subgroup, make_cyclic, make_dihedral


def test_only_verify_shares_tables():
    assert verify_all().passed
    # verify builds each named construction once per process ...
    recipes = {r.label: r for c in theorem_claims() for r in c.groups}
    for label in ("D8", "C2xC2xD8", "Q8"):
        assert recipes[label].build() is recipes[label].build(), label
    # ... but no library caller, and so no census operation, reads one
    assert parse_group("D8") is not parse_group("D8")
    assert make_cyclic(4) is not make_cyclic(4)
    assert make_dihedral(8) is not make_dihedral(8)
    for text in ("D8", "C4 x C2", "C2 x C2 x D8"):
        assert parse_group(text)._orders is None, text


def test_claim_lists():
    claims = theorem_claims()
    assert [c.delta for c in claims] == [1, 2, 3, 4, 5]
    assert [len(c.groups) for c in claims] == [4, 4, 3, 11, 3]
    assert sum(len(c.groups) for c in claims) == 25
    assert {r.label for r in claims[2].groups} == {"Q8", "C5", "D10"}
    c3c4 = next(r for r in claims[4].groups if r.label == "C3:C4")
    assert c3c4.expected_sigma == (3, 4, 4, 4, 6)


def test_claims_census_and_construction():
    for claim in theorem_claims():
        for recipe in claim.groups:
            table = recipe.build()
            report = census(table)
            assert report.delta == claim.delta, recipe.label
            assert report.signature == recipe.expected_sigma, recipe.label


def test_all_25_groups_pairwise_distinct():
    built = [(claim.delta, recipe.label, recipe.build())
             for claim in theorem_claims() for recipe in claim.groups]
    for i in range(len(built)):
        for j in range(i + 1, len(built)):
            a, b = built[i][2], built[j][2]
            if a.order != b.order:
                continue
            assert not is_isomorphic(a, b), (built[i][1], built[j][1])


@pytest.mark.parametrize("delta", [1, 2, 3, 4, 5])
def test_verify_theorem_passes(delta):
    report = verify_theorem(delta)
    assert report.passed, report.failures()
    assert len(report.claims) == [4, 4, 3, 11, 3][delta - 1]


def test_signature_check_details():
    (check,) = [c for c in verify_theorem(1).sweep
                if c.name == "delta1_signatures_match_revised_table"]
    assert check.detail == "claimed ['(3)', '(4)'] vs revised ['(3)', '(4)']"


def test_failed_claim_detail_names_both_signatures(monkeypatch):
    claims = theorem_claims()
    c3, *rest = claims[0].groups
    assert (c3.label, c3.expected_sigma) == ("C3", (3,))
    wrong = claims[0]._replace(groups=(c3._replace(expected_sigma=(4,)),
                                       *rest))
    monkeypatch.setattr(groupcensus.verify, "theorem_claims",
                        lambda: [wrong, *claims[1:]])
    report = verify_theorem(1)
    assert not report.passed
    (claim,) = [c for c in report.claims if not c.passed]
    assert claim.label == "C3"
    assert claim.detail == "expected delta 1 sigma (4), got delta 1 sigma (3)"


def test_isomorphic_claims_fail_distinctness(monkeypatch):
    claims = theorem_claims()
    *rest, d12 = claims[1].groups
    assert d12.label == "D12"
    twin = claims[1]._replace(groups=(*rest, d12._replace(
        build=lambda: make_cyclic(6))))
    monkeypatch.setattr(groupcensus.verify, "theorem_claims",
                        lambda: [claims[0], twin, *claims[2:]])
    report = verify_theorem(2)
    assert not report.passed
    (check,) = [c for c in report.sweep if c.name == "delta2_claims_distinct"]
    assert not check.passed
    assert check.detail == "C6 is isomorphic to D12"


def test_missing_claim_fails_catalog_sweep(monkeypatch):
    claims = theorem_claims()
    *rest, d16 = claims[3].groups
    assert d16.label == "D16"
    short = claims[3]._replace(groups=tuple(rest))
    monkeypatch.setattr(groupcensus.verify, "theorem_claims",
                        lambda: [*claims[:3], short, claims[4]])
    report = verify_theorem(4)
    assert not report.passed
    (check,) = [c for c in report.sweep if c.name == "delta4_catalog_sweep"]
    assert not check.passed
    assert check.detail == ("catalog has 10 groups with delta 4, claims of"
                            " order <= 24: 9")


def test_verify_theorem_rejects_bad_delta():
    with pytest.raises(ValueError):
        verify_theorem(6)


def test_verify_all():
    report = verify_all()
    assert report.passed, report.failures()
    assert len(report.claims) == 25
    payload = report.to_json_dict()
    assert set(payload) == {"claims", "sweep", "properties", "pass"}
    assert payload["pass"] is True


def test_property_suite():
    report = property_suite()
    assert report.passed, report.failures()
    assert [c.name for c in report.properties] == [
        "doubling", "odd_4_count_2groups", "sigma_generators_index",
        "frobenius_divisibility", "order4_conjugation_squares"]


def least_generators_by_subgroup(table):
    """The least generator of each cyclic subgroup of order > 2, as the
    sigma_generators_index check took them before it passed every element
    of order > 2 to one closure."""
    reps = {}
    orders = table.element_orders()
    for x in range(table.order):
        if orders[x] <= 2:
            continue
        members = generated_subgroup(table, [x])
        reps.setdefault(members, x)
    return sorted(reps.values())


def test_sigma_generator_subgroup_of_d12():
    # sigma(D12) = (3, 6); its representatives generate the rotation C6
    d12 = make_dihedral(12)
    gens = least_generators_by_subgroup(d12)
    sub = generated_subgroup(d12, gens)
    assert len(sub) == 6
    assert d12.order // len(sub) == 2


def test_sigma_generators_span_what_all_elements_of_order_above_2_span(
        catalog):
    # each element of order > 2 is a power of its cyclic subgroup's least
    # generator, so the check's one closure over all of them gives the
    # subgroup of the representatives
    checked = 0
    for _entry, table, rep in catalog:
        if not 1 <= rep.delta <= 5:
            continue
        orders = table.element_orders()
        above_2 = [x for x in range(table.order) if orders[x] > 2]
        assert generated_subgroup(table, above_2) == generated_subgroup(
            table, least_generators_by_subgroup(table)), table.name
        checked += 1
    assert checked == 24


# ---------------------------------------------------------------------------
# known groups per signature


def test_known_groups_families():
    labels = lambda sig: [r.label for r in known_groups_for(sig)]
    assert labels((4, 8)) == ["C8", "D16"]
    assert labels((5,)) == ["C5", "D10"]
    assert labels((3, 6)) == ["C6", "D12"]
    assert labels((11, 22)) == ["C22", "D44"]
    assert labels((4, 4, 4)) == ["Q8"]
    assert len(known_groups_for((4, 4, 4, 4))) == 4
    assert len(known_groups_for((3, 3, 3, 3))) == 3
    assert known_groups_for((3, 9)) is None
    assert known_groups_for((6,)) is None


def test_known_groups_for_returns_a_fresh_list():
    sig = (4, 4, 4, 4)
    first = known_groups_for(sig)
    first.clear()
    assert [r.label for r in known_groups_for(sig)] == [
        "C4xC2xC2", "C2xC2xD8", "(C2xC2):C4", "Q8:C2"]


def test_known_groups_realize_their_signature():
    for sig in ((11, 22), (4, 4), (7,)):
        for recipe in known_groups_for(sig):
            report = census(recipe.build())
            assert report.signature == sig, recipe.label


# ---------------------------------------------------------------------------
# exploration mode


def test_explore_delta_6(catalog):
    survivors = explore(6)
    by_sig = {s.signature: s for s in survivors}
    assert (4, 4, 4, 4, 4, 4) in by_sig
    assert (5, 10) in by_sig
    q8c2 = by_sig[(4, 4, 4, 4, 4, 4)]
    assert any(e.label == "Q8xC2" and r.delta == 6 for e, r in q8c2.witnesses)
    a_2a = by_sig[(5, 10)]
    assert {e.label for e, _ in a_2a.witnesses} == {"C10", "D20"}
    assert a_2a.known == ("C10", "D20")
    # survivors without a completeness proof stay undecided
    assert by_sig[(4, 4, 4, 4, 4, 4)].known is None
    # every catalog group with delta 6 carries a surviving signature
    for entry, _table, report in catalog:
        if report.delta == 6:
            assert report.signature in by_sig, entry.label


@pytest.mark.parametrize("delta", range(6, 17))
def test_explore_survivors_pinned(delta):
    got = [[list(s.signature),
            list(s.known) if s.known is not None else None,
            [entry.label for entry, _report in s.witnesses]]
           for s in explore(delta)]
    assert got == PINNED["survivors"][str(delta)]


def test_explore_classified_range():
    survivors = explore(3)
    by_sig = {s.signature: s for s in survivors}
    assert set(by_sig) == {(4, 4, 4), (5,)}
    assert by_sig[(4, 4, 4)].known == ("Q8",)
    assert by_sig[(5,)].known == ("C5", "D10")


def explore_from_whole_catalog(delta):
    """explore as it was before order windows: witnesses from every
    catalog table."""
    witnesses_by_sigma = {}
    for entry, _table, rep in catalog_tables():
        witnesses_by_sigma.setdefault(rep.signature, []).append((entry, rep))
    out = []
    for sig in revised_table(delta):
        known = known_groups_for(sig)
        labels = tuple(r.label for r in known) if known is not None else None
        out.append(SurvivorReport(sig, tuple(witnesses_by_sigma.get(sig, ())),
                                  labels))
    return out


# catalog tables explore builds per delta 1..16: the entries of the orders
# in some survivor's window, against all 74 without the windows
TABLES_BUILT = [10, 26, 22, 46, 8, 48, 34, 39, 42, 36, 36, 27, 0, 20, 16, 15]


@pytest.mark.parametrize("delta", range(1, 17))
def test_explore_matches_witnesses_from_whole_catalog(delta, monkeypatch):
    built = []

    def recording(orders=None):
        tables = catalog_tables(orders)
        built.extend(tables)
        return tables

    monkeypatch.setattr(groupcensus.verify, "catalog_tables", recording)
    got = explore(delta)
    monkeypatch.undo()
    assert got == explore_from_whole_catalog(delta)
    assert len(built) == TABLES_BUILT[delta - 1]


def test_corrupt_entry_stops_explore_only_inside_a_window(monkeypatch):
    # C5 with a row missing: explore(16) never builds order 5, explore(3)
    # does, for the window [5, 10] of its survivor (5,); validation of the
    # whole catalog reports it either way
    expected = explore(16)
    tampered = tuple(entry._replace(rows=entry.rows[:4])
                     if entry.label == "C5" else entry
                     for entry in groupcensus.catalog.load_catalog())
    monkeypatch.setattr(groupcensus.catalog, "load_catalog", lambda: tampered)
    monkeypatch.setattr(groupcensus.catalog, "_built_order",
                        groupcensus.catalog._built_order.__wrapped__)
    assert explore(16) == expected
    with pytest.raises(CatalogError, match="^catalog entry C5: 4 rows"):
        explore(3)
    (load,) = [c for c in catalog_validate().sweep if c.name == "catalog_load"]
    assert not load.passed
    assert load.detail == "catalog entry C5: 4 rows, stated order 5"
