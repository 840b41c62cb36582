"""Cyclic-subgroup census of small finite groups.

Builds explicit finite groups of order up to 64 as multiplication tables,
computes the cyclic-subgroup census (the counts n_d, the difference delta =
|G| - #cyclic subgroups, and the signature sigma of subgroup orders > 2),
enumerates all candidate signatures for a given delta, applies exclusion
rules, and exhaustively verifies the resulting classification for delta <= 5
against a bundled catalog of all groups of order <= 24.
"""

from .candidates import (Candidate, CandidateRow, enumerate_candidates,
                         integer_partitions)
from .catalog import (CatalogEntry, CatalogError, EXPECTED_GROUP_COUNTS,
                      MAX_CATALOG_ORDER, catalog_search, catalog_tables,
                      catalog_validate, load_catalog)
from .census import CensusReport, census, count_solutions, euler_phi
from .exclusion import (ExclusionRule, RECORDED_JUSTIFICATIONS, RULES,
                        Verdict, apply_rules, revised_table)
from .groups import (GroupConstructionError, GroupTable, InvalidActionError,
                     MAX_ORDER, cyclic_extension, direct_product,
                     from_permutations, generated_subgroup, make_alternating,
                     make_cyclic, make_dicyclic, make_dihedral,
                     make_quasidihedral, make_symmetric, parse_generators)
from .isomorphism import (conjugacy_classes, derived_subgroup,
                          extend_generator_map, generating_set,
                          is_isomorphic, isomorphism_classes)
from .report import CheckResult, ClaimResult, VerificationReport
from .verify import (GroupRecipe, SurvivorReport, TheoremClaim, explore,
                     known_groups_for, property_suite, theorem_claims,
                     verify_all, verify_theorem)

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: the expression parser loads on first use, so a process that
    # never parses an expression (verify, explore) never imports it
    if name in ("GroupExpressionError", "parse_group"):
        from . import expressions
        return getattr(expressions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Candidate", "CandidateRow", "CatalogEntry", "CatalogError",
    "CensusReport", "CheckResult", "ClaimResult", "EXPECTED_GROUP_COUNTS",
    "ExclusionRule", "GroupConstructionError", "GroupExpressionError",
    "GroupRecipe", "GroupTable", "InvalidActionError", "MAX_CATALOG_ORDER",
    "MAX_ORDER", "RECORDED_JUSTIFICATIONS", "RULES", "SurvivorReport",
    "TheoremClaim", "VerificationReport", "Verdict", "apply_rules",
    "catalog_search", "catalog_tables", "catalog_validate", "census",
    "conjugacy_classes", "count_solutions", "cyclic_extension",
    "derived_subgroup", "direct_product", "enumerate_candidates",
    "euler_phi", "explore", "extend_generator_map", "from_permutations",
    "generated_subgroup", "generating_set", "integer_partitions",
    "is_isomorphic", "isomorphism_classes", "known_groups_for",
    "load_catalog", "make_alternating", "make_cyclic", "make_dicyclic",
    "make_dihedral", "make_quasidihedral", "make_symmetric",
    "parse_generators", "parse_group", "property_suite", "revised_table",
    "theorem_claims", "verify_all", "verify_theorem",
]
