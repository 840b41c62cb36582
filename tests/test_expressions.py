"""The group-expression language behind `analyze`."""

import pytest

from groupcensus import (GroupExpressionError, census, is_isomorphic,
                         make_dicyclic, make_dihedral, make_quasidihedral,
                         make_symmetric, parse_group)


def test_name_forms():
    assert parse_group("C6").order == 6
    assert parse_group("D8").order == 8  # subscript is the group order
    assert is_isomorphic(parse_group("Q8"), make_dicyclic(8))
    assert is_isomorphic(parse_group("SD16"), make_quasidihedral(16))
    assert is_isomorphic(parse_group("S4"), make_symmetric(4))
    assert parse_group("A4").order == 12


def test_products_are_left_associative():
    g = parse_group("D8 x C2")
    assert g.order == 16 and census(g).delta == 2
    assert parse_group("C2 x C2 x C2").order == 8
    assert parse_group("C4xC2").order == 8


def test_semidirect_form():
    g = parse_group("sd(C3 x C3, C2, inv)")
    assert census(g).delta == 4
    assert is_isomorphic(parse_group("sd(C3, C2, inv)"), make_dihedral(6))


def test_semidirect_requires_abelian_base():
    with pytest.raises(GroupExpressionError, match="abelian"):
        parse_group("sd(Q8, C2, inv)")
    with pytest.raises(GroupExpressionError):
        parse_group("sd(C3, C4, inv)")


def test_perm_form():
    g = parse_group("perm[(0 1 2); (0 1)]")
    assert g.order == 6
    assert is_isomorphic(g, make_symmetric(3))
    assert parse_group("perm[()]").order == 1


def test_parse_errors_carry_position():
    with pytest.raises(GroupExpressionError) as err:
        parse_group("C4 x ")
    assert err.value.position == 5
    with pytest.raises(GroupExpressionError):
        parse_group("C4 )")
    with pytest.raises(GroupExpressionError):
        parse_group("perm[(0 1")
    with pytest.raises(GroupExpressionError):
        parse_group("")
    # a size too long for int() and a product above order 64 are reported
    # by the parser, not by the interpreter or the table builder
    for text, position, message in [
            ("C" + "9" * 5000, 5001, "a 5000-digit size exceeds 64"),
            ("C4xC4xC4xC4", 11, "product order 256 exceeds 64"),
            ("sd(C4xC4xC4, C2, inv)", 21, "product order 128 exceeds 64")]:
        with pytest.raises(GroupExpressionError, match=message) as err:
            parse_group(text)
        assert err.value.position == position


def test_nesting_depth_is_bounded():
    # 400 nested sd( used to exhaust the interpreter stack with RecursionError
    with pytest.raises(GroupExpressionError, match="nested deeper than 32") \
            as err:
        parse_group("sd(" * 400)
    assert err.value.position == 3 * 32
    # nesting within the limit still reaches the ordinary checks
    with pytest.raises(GroupExpressionError, match="abelian base"):
        parse_group("sd(" * 32 + "C3, C2, inv)" + ", C2, inv)" * 31)


def test_order_overflow():
    with pytest.raises(GroupExpressionError):
        parse_group("C100")
    with pytest.raises(ValueError):
        parse_group("C8 x C8 x C2")


def test_roundtrip_on_claimed_groups():
    expected = {
        "C3": (1, (3,)), "C4": (1, (4,)), "S3": (1, (3,)), "D8": (1, (4,)),
        "C4 x C2": (2, (4, 4)), "D8 x C2": (2, (4, 4)),
        "C6": (2, (3, 6)), "D12": (2, (3, 6)),
        "Q8": (3, (4, 4, 4)), "C5": (3, (5,)), "D10": (3, (5,)),
        "C4 x C2 x C2": (4, (4, 4, 4, 4)),
        "C2 x C2 x D8": (4, (4, 4, 4, 4)),
        "C3 x C3": (4, (3, 3, 3, 3)),
        "sd(C3 x C3, C2, inv)": (4, (3, 3, 3, 3)),
        "A4": (4, (3, 3, 3, 3)),
        "C6 x C2": (4, (3, 6, 6, 6)),
        "C2 x C2 x S3": (4, (3, 6, 6, 6)),
        "C8": (4, (4, 8)), "D16": (4, (4, 8)),
        "C7": (5, (7,)), "D14": (5, (7,)), "Q12": (5, (3, 4, 4, 4, 6)),
        # the two order-16 groups whose defining action is not inversion
        # are reachable through explicit permutation generators
        "perm[(0 1 2 3)(4 13 6 15)(5 14 7 12)(8 9 10 11);"
        " (0 4)(1 5)(2 6)(3 7)(8 12)(9 13)(10 14)(11 15)]":
            (4, (4, 4, 4, 4)),
        "perm[(0 2 4 6)(1 3 5 7)(8 14 12 10)(9 15 13 11);"
        " (0 1)(2 3)(4 5)(6 7)(8 13)(9 12)(10 15)(11 14);"
        " (0 8 4 12)(1 9 5 13)(2 10 6 14)(3 11 7 15)]":
            (4, (4, 4, 4, 4)),
    }
    for expr, (delta, sigma) in expected.items():
        report = census(parse_group(expr))
        assert (report.delta, report.signature) == (delta, sigma), expr
