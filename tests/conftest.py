from functools import reduce

import pytest

from groupcensus import (catalog_tables, direct_product, make_cyclic,
                         make_dicyclic, make_dihedral, theorem_claims)


@pytest.fixture(scope="session")
def catalog():
    """Every catalog entry with its built table and census report."""
    return catalog_tables()


@pytest.fixture(scope="session")
def claim_tables():
    """The 25 groups claimed for delta 1..5, built from their recipes."""
    return [recipe.build() for claim in theorem_claims()
            for recipe in claim.groups]


@pytest.fixture(scope="session")
def order_64_products():
    """D32 x C2, Q32 x C2 and C2^6: order-64 tables with many involutions."""
    c2 = make_cyclic(2)
    return [direct_product(make_dihedral(32), c2),
            direct_product(make_dicyclic(32), c2),
            reduce(direct_product, [c2] * 6)]
