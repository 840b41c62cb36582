"""Construction and exhaustive verification of the classification.

For each delta in 1..5 the classification names every group with
|G| - delta cyclic subgroups.  This module builds each named group from
first-principles constructors (never from the catalog), checks its census,
and sweeps the bundled catalog of all groups of order <= 24 to confirm
nothing else attains those deltas.  A separate property suite re-checks the
structural facts the classification arguments lean on.

Each named construction (a family member, a product of them) is built once
per process by ``_built`` and shared by the recipes, the property suite's
shapes and its doubling factor, with the census and invariants cached on
it.  Only this module shares tables: ``parse_group`` and the library's
constructors build every table afresh.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import cache, lru_cache, partial
from itertools import combinations

from .catalog import MAX_CATALOG_ORDER, catalog_tables, catalog_validate
from .census import census, count_solutions, euler_phi
from .exclusion import admissible_orders, revised_table
from .groups import (GroupTable, InvalidActionError, cyclic_extension,
                     direct_product, generated_subgroup, make_alternating,
                     make_cyclic, make_dicyclic, make_dihedral,
                     make_quasidihedral, make_symmetric)
from .isomorphism import extend_generator_map, isomorphism_classes
from .report import CheckResult, ClaimResult, VerificationReport


class GroupRecipe(namedtuple("GroupRecipe", "label build expected_sigma")):
    """A named construction together with the signature it must realize."""

    # build: () -> GroupTable; expected_sigma: sorted, entries > 2
    __slots__ = ()


class TheoremClaim(namedtuple("TheoremClaim", "delta groups")):
    """The complete list of groups claimed for one value of delta."""

    __slots__ = ()


@cache
def _built(make: Callable[..., GroupTable], *args: object) -> GroupTable:
    """make(*args), built once per process and then shared.

    Tables hash by identity, so ``_built(direct_product, a, b)`` of two
    shared tables is shared as well.
    """
    return make(*args)


_cyclic = partial(_built, make_cyclic)
_dihedral = partial(_built, make_dihedral)
_dicyclic = partial(_built, make_dicyclic)


def _product(*factors: GroupTable) -> GroupTable:
    """The left-nested direct product, AxBxC = (AxB)xC, of shared tables."""
    table = factors[0]
    for factor in factors[1:]:
        table = _built(direct_product, table, factor)
    return table


def _klein_by_c4() -> GroupTable:
    # <a, b, c | a^2 = b^2 = c^4 = 1, ab = ba, ca = ac, c b c^-1 = ab>
    klein = _product(_cyclic(2), _cyclic(2))
    # klein indices: 1 = b, 2 = a, 3 = ab; c fixes a, b -> ab
    return cyclic_extension(klein, 4, (0, 3, 2, 1), 0, "(C2xC2):C4")


def _q8_by_c2() -> GroupTable:
    # <a, b, c | a^4 = c^2 = 1, a^2 = b^2, b a b^-1 = a^-1, ca = ac,
    #  c b c^-1 = a^2 b>
    q8 = _dicyclic(8)
    # q8 indices: a^i = i, b a^i = 4 + i; so a = 1, b = 4, a^2 b = 6
    images = extend_generator_map(q8, q8, {1: 1, 4: 6})
    if images is None:
        raise InvalidActionError(
            "a -> a, b -> a^2 b does not extend to an automorphism of Q8")
    return cyclic_extension(q8, 2, images, 0, "Q8:C2")


def _c3c3_by_inversion() -> GroupTable:
    c3c3 = _product(_cyclic(3), _cyclic(3))
    return cyclic_extension(c3c3, 2, c3c3.inverse, 0, "(C3xC3):C2")


def _recipe(label: str, build: Callable[[], GroupTable],
            *sigma: int) -> GroupRecipe:
    return GroupRecipe(label, build, sigma)


def _sigma_text(sigma: tuple[int, ...]) -> str:
    # "(3)" rather than str(tuple)'s "(3,)", for the check details
    return "(" + ", ".join(map(str, sigma)) + ")"


def theorem_claims() -> list[TheoremClaim]:
    """The 4 + 4 + 3 + 11 + 3 = 25 claimed groups for delta = 1..5."""
    return [
        TheoremClaim(1, (
            _recipe("C3", lambda: _cyclic(3), 3),
            _recipe("C4", lambda: _cyclic(4), 4),
            _recipe("S3", lambda: _built(make_symmetric, 3), 3),
            _recipe("D8", lambda: _dihedral(8), 4),
        )),
        TheoremClaim(2, (
            _recipe("C4xC2", lambda: _product(_cyclic(4), _cyclic(2)), 4, 4),
            _recipe("D8xC2", lambda: _product(_dihedral(8), _cyclic(2)),
                    4, 4),
            _recipe("C6", lambda: _cyclic(6), 3, 6),
            _recipe("D12", lambda: _dihedral(12), 3, 6),
        )),
        TheoremClaim(3, (
            _recipe("Q8", lambda: _dicyclic(8), 4, 4, 4),
            _recipe("C5", lambda: _cyclic(5), 5),
            _recipe("D10", lambda: _dihedral(10), 5),
        )),
        TheoremClaim(4, (
            _recipe("C4xC2xC2",
                    lambda: _product(_cyclic(4), _cyclic(2), _cyclic(2)),
                    4, 4, 4, 4),
            _recipe("C2xC2xD8",
                    lambda: _product(_cyclic(2), _cyclic(2), _dihedral(8)),
                    4, 4, 4, 4),
            _recipe("(C2xC2):C4", _klein_by_c4, 4, 4, 4, 4),
            _recipe("Q8:C2", _q8_by_c2, 4, 4, 4, 4),
            _recipe("C3xC3", lambda: _product(_cyclic(3), _cyclic(3)),
                    3, 3, 3, 3),
            _recipe("(C3xC3):C2", _c3c3_by_inversion, 3, 3, 3, 3),
            _recipe("A4", lambda: _built(make_alternating, 4), 3, 3, 3, 3),
            _recipe("C6xC2", lambda: _product(_cyclic(6), _cyclic(2)),
                    3, 6, 6, 6),
            _recipe("C2xC2xS3",
                    lambda: _product(_cyclic(2), _cyclic(2),
                                     _built(make_symmetric, 3)),
                    3, 6, 6, 6),
            _recipe("C8", lambda: _cyclic(8), 4, 8),
            _recipe("D16", lambda: _dihedral(16), 4, 8),
        )),
        TheoremClaim(5, (
            _recipe("C7", lambda: _cyclic(7), 7),
            _recipe("D14", lambda: _dihedral(14), 7),
            _recipe("C3:C4", lambda: _dicyclic(12), 3, 4, 4, 4, 6),
        )),
    ]


def known_groups_for(entries: tuple[int, ...]) -> list[GroupRecipe] | None:
    """Every isomorphism type proven to realize a signature, or None.

    Covers the classified signatures of the delta <= 5 tables and the two
    one-parameter families: sigma = (a) gives C_a and D_2a, and
    sigma = (a, 2a) gives C_2a and D_4a, for a = 4 or an odd prime.
    None means the signature carries no completeness proof here.
    """
    if len(entries) in (1, 2) and entries[-1] == len(entries) * entries[0]:
        # entries exceed 2, so phi(a) = a - 1 means a is an odd prime
        a, m = entries[0], entries[-1]
        if a == 4 or euler_phi(a) == a - 1:
            return [
                _recipe(f"C{m}", lambda: _cyclic(m), *entries),
                _recipe(f"D{2 * m}", lambda: _dihedral(2 * m), *entries),
            ]
        return None
    known = _claims_by_sigma().get(entries)
    return list(known) if known is not None else None


@lru_cache(maxsize=1)
def _claims_by_sigma() -> dict[tuple[int, ...], tuple[GroupRecipe, ...]]:
    by_sigma: dict[tuple[int, ...], list[GroupRecipe]] = {}
    for claim in theorem_claims():
        for recipe in claim.groups:
            by_sigma.setdefault(recipe.expected_sigma, []).append(recipe)
    return {sigma: tuple(recipes) for sigma, recipes in by_sigma.items()}


def verify_theorem(delta: int) -> VerificationReport:
    """Construct and check every group claimed for one delta.

    Asserts each group's census, the equality of claimed signatures with
    the revised table, pairwise non-isomorphism of the claims, and that the
    catalog groups of order <= 24 attaining this delta are exactly the
    claimed groups of those orders.
    """
    if not 1 <= delta <= 5:
        raise ValueError(f"classified deltas are 1..5, got {delta}")
    claim = theorem_claims()[delta - 1]
    report = VerificationReport()
    built: list[tuple[GroupRecipe, GroupTable]] = []
    for recipe in claim.groups:
        try:
            table = recipe.build()
        except Exception as err:  # construction itself is part of the claim
            report.claims.append(ClaimResult(
                delta, recipe.label, 0, -1, (), False,
                f"construction failed: {err}"))
            continue
        result = census(table)
        ok = (result.delta == delta
              and result.signature == recipe.expected_sigma)
        detail = "" if ok else (
            f"expected delta {delta}"
            f" sigma {_sigma_text(recipe.expected_sigma)},"
            f" got delta {result.delta} sigma {_sigma_text(result.signature)}")
        report.claims.append(ClaimResult(
            delta, recipe.label, table.order, result.delta,
            result.signature, ok, detail))
        built.append((recipe, table))

    claimed_sigmas = {recipe.expected_sigma for recipe in claim.groups}
    revised = set(revised_table(delta))
    report.sweep.append(CheckResult(
        f"delta{delta}_signatures_match_revised_table",
        claimed_sigmas == revised,
        f"claimed {sorted(map(_sigma_text, claimed_sigmas))}"
        f" vs revised {sorted(map(_sigma_text, revised))}"))

    # one classification serves claim distinctness and the catalog sweep
    hits = [(entry, table) for entry, table, rep in catalog_tables()
            if rep.delta == delta]
    keys = isomorphism_classes([table for _recipe, table in built]
                               + [table for _entry, table in hits])
    claim_keys, hit_keys = keys[:len(built)], keys[len(built):]

    distinct = True
    for i, j in combinations(range(len(built)), 2):
        if claim_keys[i] == claim_keys[j]:
            distinct = False
            report.sweep.append(CheckResult(
                f"delta{delta}_claims_distinct", False,
                f"{built[i][0].label} is isomorphic to {built[j][0].label}"))
    if distinct:
        report.sweep.append(CheckResult(
            f"delta{delta}_claims_distinct", True,
            f"{len(built)} claimed groups pairwise non-isomorphic"))

    # each catalog hit uses up one claim of its isomorphism class
    unused = [key for (_recipe, table), key in zip(built, claim_keys)
              if table.order <= MAX_CATALOG_ORDER]
    matched = True
    detail = ""
    if len(hits) != len(unused):
        matched = False
        detail = (f"catalog has {len(hits)} groups with delta {delta},"
                  f" claims of order <= {MAX_CATALOG_ORDER}: {len(unused)}")
    else:
        for (entry, _table), key in zip(hits, hit_keys):
            if key not in unused:
                matched = False
                detail = f"catalog group {entry.label} matches no claimed group"
                break
            unused.remove(key)
    report.sweep.append(CheckResult(
        f"delta{delta}_catalog_sweep", matched,
        detail or f"{len(hits)} catalog groups matched 1-1 to the claims"))
    return report


def verify_all() -> VerificationReport:
    """All five theorems, catalog validation, and the property suite."""
    report = VerificationReport()
    report.merge(catalog_validate())
    for delta in range(1, 6):
        report.merge(verify_theorem(delta))
    report.merge(property_suite())
    return report


# ---------------------------------------------------------------------------
# property suite


def _check_doubling() -> CheckResult:
    # delta(G x C2) = 2 delta(G); checked for every catalog group that
    # stays censusable after doubling
    checked = 0
    for entry, table, rep in catalog_tables():
        if entry.order > 12:
            continue
        doubled = census(direct_product(table, _cyclic(2)))
        if doubled.delta != 2 * rep.delta:
            return CheckResult(
                "doubling", False,
                f"{entry.label}: delta {rep.delta} doubles to {doubled.delta}")
        checked += 1
    return CheckResult("doubling", True,
                       f"delta(G x C2) = 2 delta(G) for {checked} groups")


def _2_group_shapes(order: int) -> list[GroupTable]:
    shapes = [_cyclic(order)]
    if order >= 4:
        shapes.append(_dihedral(order))
    if order >= 8:
        shapes.append(_dicyclic(order))
    if order >= 16:
        shapes.append(_built(make_quasidihedral, order))
    return shapes


def _check_odd_4_count() -> CheckResult:
    # a 2-group with an odd number of cyclic subgroups of order 4 must be
    # cyclic, dihedral, generalized quaternion or quasidihedral
    witnesses = []
    for entry, table, rep in catalog_tables():
        if entry.order & (entry.order - 1) or entry.order > 16:
            continue
        if rep.count(4) % 2 == 0:
            continue
        keys = isomorphism_classes([table, *_2_group_shapes(entry.order)])
        if keys[0] not in keys[1:]:
            return CheckResult(
                "odd_4_count_2groups", False,
                f"{entry.label} has {rep.count(4)} cyclic subgroups of"
                f" order 4 but none of the four shapes")
        witnesses.append(entry.label)
    return CheckResult("odd_4_count_2groups", True,
                       f"witnesses: {', '.join(witnesses)}")


def _check_sigma_generators_index() -> CheckResult:
    # the subgroup generated by one representative of each cyclic subgroup
    # of order > 2 has index 1 or 2 (for nonempty sigma, i.e. delta >= 1);
    # every element of order > 2 is a power of its cyclic subgroup's
    # representative, so all of them generate the same subgroup
    checked = 0
    for entry, table, rep in catalog_tables():
        if not 1 <= rep.delta <= 5:
            continue
        orders = table.element_orders()
        sub = generated_subgroup(
            table, [x for x in range(table.order) if orders[x] > 2])
        index = table.order // len(sub)
        if index not in (1, 2):
            return CheckResult(
                "sigma_generators_index", False,
                f"{entry.label}: index {index}")
        checked += 1
    return CheckResult(
        "sigma_generators_index", True,
        f"index 1 or 2 for all {checked} catalog groups with delta in 1..5")


def _check_frobenius() -> CheckResult:
    # the number of solutions of x^n = 1 is a multiple of n for n | |G|
    checked = 0
    for entry, table, _rep in catalog_tables():
        for n in range(1, entry.order + 1):
            if entry.order % n:
                continue
            solutions = count_solutions(table, n)
            if solutions % n:
                return CheckResult(
                    "frobenius_divisibility", False,
                    f"{entry.label}: {solutions} solutions of x^{n} = 1")
            checked += 1
    return CheckResult("frobenius_divisibility", True,
                       f"{checked} (group, divisor) pairs")


def _check_order4_squares() -> CheckResult:
    # in a group with fewer than 6 cyclic subgroups of order 4, order-4
    # elements s, t with t s t^-1 in <s> satisfy s^2 = t^2
    checked = 0
    for entry, table, rep in catalog_tables():
        if rep.count(4) >= 6:
            continue
        orders = table.element_orders()
        fours = [x for x in range(table.order) if orders[x] == 4]
        for s in fours:
            s2 = table.product[s][s]
            cyc = {0, s, s2, table.product[s][s2]}  # <s>, s of order 4
            for t in fours:
                if t == s:
                    continue
                conj = table.product[table.product[t][s]][table.inverse[t]]
                if conj in cyc and table.product[t][t] != s2:
                    return CheckResult(
                        "order4_conjugation_squares", False,
                        f"{entry.label}: elements {s}, {t}")
                checked += 1
    return CheckResult("order4_conjugation_squares", True,
                       f"{checked} ordered pairs checked")


def property_suite() -> VerificationReport:
    """Structural facts the classification rests on, over the whole catalog."""
    report = VerificationReport()
    report.properties.append(_check_doubling())
    report.properties.append(_check_odd_4_count())
    report.properties.append(_check_sigma_generators_index())
    report.properties.append(_check_frobenius())
    report.properties.append(_check_order4_squares())
    return report


# ---------------------------------------------------------------------------
# exploration


class SurvivorReport(namedtuple("SurvivorReport",
                                "signature witnesses known")):
    """One surviving signature with catalog witnesses and any known list."""

    # witnesses: (CatalogEntry, CensusReport) pairs; known: labels of a
    # proven-complete list, or None
    __slots__ = ()


def explore(delta: int) -> list[SurvivorReport]:
    """Surviving signatures for a delta, with catalog witnesses.

    Beyond delta = 5 the rule set is sound but not complete, so survivors
    without a known list are undecided rather than realizable.  A catalog
    group witnesses a survivor only if its order lies in the survivor's
    order window, so only the catalog orders in some survivor's window are
    built and censused.
    """
    survivors = revised_table(delta)
    orders: set[int] = set()
    for sig in survivors:
        orders.update(admissible_orders(sig, MAX_CATALOG_ORDER))
    witnesses_by_sigma: dict[tuple[int, ...], list] = {}
    for entry, _table, rep in catalog_tables(orders):
        witnesses_by_sigma.setdefault(rep.signature, []).append((entry, rep))
    out = []
    for sig in survivors:
        witnesses = tuple(witnesses_by_sigma.get(sig, ()))
        known = known_groups_for(sig)
        labels = tuple(r.label for r in known) if known is not None else None
        out.append(SurvivorReport(sig, witnesses, labels))
    return out
