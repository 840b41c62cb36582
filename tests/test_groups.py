"""Group-table constructors and element-level operations."""

import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_census import cyclic_subgroups

from groupcensus import groups
from groupcensus import (MAX_ORDER, GroupConstructionError, GroupTable,
                         InvalidActionError, census, cyclic_extension,
                         direct_product, from_permutations, generated_subgroup,
                         generating_set, is_isomorphic, make_alternating,
                         make_cyclic, make_dicyclic, make_dihedral,
                         make_quasidihedral, make_symmetric, parse_generators,
                         parse_group)


def order_histogram(g):
    return dict(Counter(g.element_orders()))


# built per test by the fixture below, not at import, so a constructor
# defect fails the tests that use it rather than the whole module
SAMPLE_NAMES = ["C1", "C12", "D8", "D2", "Q8", "Q12", "SD16", "S4", "A4",
                "C4xC2"]


@pytest.fixture(params=SAMPLE_NAMES)
def sample(request):
    return parse_group(request.param)


# ---------------------------------------------------------------------------
# table validation


def test_constructor_outputs_revalidate(sample):
    # re-running the full axiom check on the produced table must succeed
    GroupTable(sample.product, name=sample.name)


def test_validation_rejects_broken_tables():
    with pytest.raises(GroupConstructionError):
        GroupTable([[0, 1], [1, 1]])  # row 1 is not a permutation
    with pytest.raises(GroupConstructionError):
        GroupTable([[1, 0], [0, 1]])  # 0 is not the identity
    # rows and columns permutations with identity 0, not associative: swap
    # two entries in each of two rows of C5
    c5 = [list(row) for row in make_cyclic(5).product]
    c5[1][1], c5[1][2] = c5[1][2], c5[1][1]
    c5[2][1], c5[2][2] = c5[2][2], c5[2][1]
    with pytest.raises(GroupConstructionError):
        GroupTable(c5)
    with pytest.raises(GroupConstructionError):
        GroupTable([])
    # a loop: rows and columns permutations, identity 0, not associative
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]
    with pytest.raises(GroupConstructionError,
                       match=r"^associativity fails at \(1, 1\)$"):
        GroupTable(loop)
    # 1*1 = 2*1 = 2: without the row check the powers of 1 never reach 0
    with pytest.raises(GroupConstructionError,
                       match=r"^row 2 is not a permutation of 0\.\.2$"):
        GroupTable([[0, 1, 2], [1, 2, 0], [2, 2, 0]])


def all_pairs_associative(rows):
    """The associativity check GroupTable ran before Light's test: row b
    after row a equals row a*b, for every pair (a, b)."""
    n = len(rows)
    pad = bytes(256 - n)
    tables = [row + pad for row in rows]
    for a in range(n):
        ta, ra = tables[a], rows[a]
        for b in range(n):
            if rows[b].translate(ta) != rows[ra[b]]:
                return False
    return True


def accepts(rows):
    try:
        GroupTable(rows)
    except GroupConstructionError:
        return False
    return True


def axioms_oracle(rows):
    """Whether the rows form a group by the checks GroupTable ran before
    its column scan was dropped: every row and every column a permutation
    of 0..n-1, element 0 a two-sided identity, and all-pairs
    associativity."""
    n = len(rows)
    ident = bytes(range(n))
    if any(len(row) != n or bytes(sorted(row)) != ident for row in rows):
        return False
    if any(bytes(sorted(col)) != ident for col in zip(*rows)):
        return False
    if rows[0] != ident or any(rows[x][0] != x for x in range(n)):
        return False
    return all_pairs_associative(rows)


def row_normalized_tables(n):
    """Every table of order n whose rows are permutations of 0..n-1 and
    whose row 0 and column 0 are the identity."""
    tails = [[p for p in itertools.permutations(range(n)) if p[0] == x]
             for x in range(1, n)]
    for rows in itertools.product(*tails):
        yield [bytes(range(n))] + [bytes(row) for row in rows]


def test_validator_matches_axioms_oracle_on_every_small_table():
    # 1 + 1 + 2 * 2 + 6 ** 3 tables; the groups among them are C1, C2, C3,
    # the 3 labellings of C4 and the one of C2xC2
    tables = [rows for n in range(1, 5) for rows in row_normalized_tables(n)]
    assert len(tables) == 222
    verdicts = [accepts(rows) for rows in tables]
    assert verdicts == [axioms_oracle(rows) for rows in tables]
    assert sum(verdicts) == 7


def test_validator_matches_axioms_oracle_on_random_tables():
    # per order 5..64: a random row-normalized table, and a relabelled
    # group with 0, 1 or 2 entries swapped within rows, away from row 0
    # and column 0, so the rows stay permutations and the identity holds
    rnd = random.Random(20)
    accepted = 0
    for n in range(5, MAX_ORDER + 1):
        rest = list(range(1, n))
        tables = [[bytes(range(n))] + [
            bytes([x] + rnd.sample([y for y in range(n) if y != x], n - 1))
            for x in rest]]
        for swaps in range(3):
            build = rnd.choice([make_cyclic] + [make_dihedral] * (n % 2 == 0))
            rows = relabelled_rows(build(n), rnd)
            for _ in range(swaps):
                x = rnd.choice(rest)
                y, y2 = rnd.sample(rest, 2)
                rows[x][y], rows[x][y2] = rows[x][y2], rows[x][y]
            tables.append([bytes(row) for row in rows])
        for rows in tables:
            verdict = accepts(rows)
            assert verdict == axioms_oracle(rows), n
            accepted += verdict
    assert accepted == MAX_ORDER - 4  # the unswapped groups


@st.composite
def normalized_latin_squares(draw):
    """A Latin square of order 2..8 with row 0 and column 0 the identity,
    filled cell by cell in a random order seeded by the draw, backtracking
    when a cell has no symbol left."""
    n = draw(st.sampled_from(range(2, 9)))
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = [list(range(n))] + [[r] + [-1] * (n - 1) for r in range(1, n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        r, c = cells[k]
        used = set(rows[r]) | {rows[i][c] for i in range(n)}
        free = [s for s in range(n) if s not in used]
        rnd.shuffle(free)
        for s in free:
            rows[r][c] = s
            if fill(k + 1):
                return True
        rows[r][c] = -1
        return False

    fill(0)
    return [bytes(row) for row in rows]


@settings(max_examples=1000, deadline=None)
@given(normalized_latin_squares())
def test_validator_matches_all_pairs_oracle_on_latin_squares(rows):
    assert accepts(rows) == all_pairs_associative(rows)


def test_validator_accepts_catalog_and_claims(catalog, claim_tables):
    tables = [table for _entry, table, _report in catalog] + claim_tables
    assert len(tables) == 74 + 25
    for g in tables:
        assert all_pairs_associative(g.product), g.name
        assert accepts(g.product), g.name


def all_pairs_commute(rows):
    """The is_abelian oracle: a*b == b*a for every pair, one by one."""
    n = len(rows)
    return all(rows[a][b] == rows[b][a]
               for a in range(n) for b in range(a + 1, n))


def test_is_abelian_matches_all_pairs_oracle(catalog, claim_tables,
                                             order_64_products):
    tables = ([table for _entry, table, _report in catalog] + claim_tables
              + order_64_products)
    verdicts = [GroupTable(g.product, g.name).is_abelian for g in tables]
    assert verdicts == [all_pairs_commute(g.product) for g in tables]
    assert 0 < sum(verdicts) < len(tables)


def swapped_intercalate(g, t, a, c):
    """g's table with the 2x2 Latin subsquare on rows a, a*t and columns
    c, t*c swapped; t is an involution and a, c lie outside {0, t}, so
    the identity row and column are untouched and the square stays Latin."""
    rows = [bytearray(row) for row in g.product]
    at, tc = g.product[a][t], g.product[t][c]
    for x in (a, at):
        rows[x][c], rows[x][tc] = rows[x][tc], rows[x][c]
    return [bytes(row) for row in rows]


def test_validator_rejects_swapped_intercalates(order_64_products):
    rnd = random.Random(8)
    for g in order_64_products:  # 14 swaps each, 42 tables
        involutions = [x for x, o in enumerate(g.element_orders()) if o == 2]
        for _ in range(14):
            t = rnd.choice(involutions)
            a, c = rnd.sample([x for x in range(g.order) if x not in (0, t)],
                              2)
            rows = swapped_intercalate(g, t, a, c)
            assert not all_pairs_associative(rows)
            with pytest.raises(GroupConstructionError, match="associativity"):
                GroupTable(rows)


def relabelled_rows(g, rnd):
    """g's table with its elements renamed by a random permutation fixing 0."""
    images = [0] + rnd.sample(range(1, g.order), g.order - 1)
    back = [0] * g.order
    for x, y in enumerate(images):
        back[y] = x
    return [bytearray(images[g.product[back[a]][back[b]]]
                      for b in range(g.order)) for a in range(g.order)]


ASSOCIATIVITY = r"associativity fails at \((\d+), (\d+)\)"


def damaged_tables(seed, count):
    """Seeded tables of order 1..64: relabelled groups, intact or with one
    defect, each with a pattern of the error GroupTable must raise for it
    (None for an intact group)."""
    rnd = random.Random(seed)
    for _ in range(count):
        n = rnd.randint(1, MAX_ORDER)
        builds = [make_cyclic]
        if n % 2 == 0:
            builds.append(make_dihedral)
        if n % 4 == 0 and n >= 8:
            builds.append(make_dicyclic)
        rows = relabelled_rows(rnd.choice(builds)(n), rnd)
        x, y = rnd.randrange(n), rnd.randrange(n)
        defect = rnd.choice(["none", "row", "column", "value", "identity",
                             "length"] if n > 1 else ["none", "value"])
        error = None
        if defect == "row":  # row x repeats a value; so does column y
            rows[x][y] = rows[x][(y + rnd.randrange(1, n)) % n]
            error = f"row {x} is not a permutation of 0..{n - 1}"
        elif defect == "column":  # rows stay permutations, column y repeats
            y2 = (y + rnd.randrange(1, n)) % n
            rows[x][y], rows[x][y2] = rows[x][y2], rows[x][y]
            # no group has such a column, so with the identity intact
            # associativity fails
            error = ("element 0 is not a two-sided identity" if 0 in (x, y, y2)
                     else ASSOCIATIVITY)
        elif defect == "value":
            rows[x][y] = rnd.randrange(n, 256)
            error = f"row {x} is not a permutation of 0..{n - 1}"
        elif defect == "identity":  # rows and columns stay permutations
            rows[0], rows[x or 1] = rows[x or 1], rows[0]
            error = "element 0 is not a two-sided identity"
        elif defect == "length":
            del rows[x][y]
            error = f"row {x} has length {n - 1}, expected {n}"
        if error not in (None, ASSOCIATIVITY):
            error = re.escape(error)
        yield defect, [bytes(row) for row in rows], error


def test_validator_names_the_first_defect():
    # every check of the row, identity and associativity axioms, with the
    # row or pair it names, on tables up to the largest supported order; a
    # named pair (a, b) must be a witness: a(by) != (ab)y for some y.  The
    # axioms oracle rejects exactly the damaged tables.
    seen = Counter()
    column_errors = Counter()
    for defect, rows, error in damaged_tables(seed=10, count=400):
        assert axioms_oracle(rows) == (error is None), defect
        if error is None:
            GroupTable(rows)
        else:
            with pytest.raises(GroupConstructionError) as raised:
                GroupTable(rows)
            found = re.fullmatch(error, str(raised.value))
            assert found, (defect, str(raised.value))
            if found.groups():
                a, b = map(int, found.groups())
                assert any(rows[a][rows[b][y]] != rows[rows[a][b]][y]
                           for y in range(len(rows))), (defect, a, b)
            if defect == "column":
                column_errors[error] += 1
        seen[defect] += 1
    assert len(seen) == 6
    assert len(column_errors) == 2


def sorted_rows_validator(rows, n):
    """The validator GroupTable ran before its flat scans: each row sorted
    and compared with 0..n-1, then the identity, then Light's test."""
    sorted_ident = bytes(range(n))
    for x, row in enumerate(rows):
        if len(row) != n:
            raise GroupConstructionError(f"row {x} has length {len(row)}, expected {n}")
        if bytes(sorted(row)) != sorted_ident:
            raise GroupConstructionError(f"row {x} is not a permutation of 0..{n - 1}")
    if rows[0] != sorted_ident or any(rows[x][0] != x for x in range(n)):
        raise GroupConstructionError("element 0 is not a two-sided identity")
    gens: list[int] = []
    reached = bytearray(n)
    reached[0] = 1
    for s in range(1, n):
        if reached[s]:
            continue
        gens.append(s)
        stack = [x for x in range(n) if reached[x]]
        while stack:
            row = rows[stack.pop()]
            for t in gens:
                y = row[t]
                if not reached[y]:
                    reached[y] = 1
                    stack.append(y)
    pad = bytes(256 - n)
    for a, ra in enumerate(rows):
        ta = ra + pad
        for b in gens:
            if rows[b].translate(ta) != rows[ra[b]]:
                raise GroupConstructionError(
                    f"associativity fails at ({a}, {b})")


def verdict(validate, rows):
    """None if validate accepts the rows, else its error message."""
    try:
        validate(rows, len(rows))
    except GroupConstructionError as err:
        return str(err)
    return None


def repeated_entry_tables(n, count, rnd):
    """Relabelled groups of order n with one entry of a row x >= 1 copied
    over a nonzero entry of that row, away from column 0: every row still
    holds 0, every entry is below n and the identity is intact, so only the
    row scan names the defect."""
    for _ in range(count):
        rows = relabelled_rows(make_cyclic(n), rnd)
        x = rnd.randrange(1, n)
        y = rnd.choice([c for c in range(1, n) if rows[x][c]])
        y2 = rnd.choice([c for c in range(1, n) if c != y])
        rows[x][y] = rows[x][y2]
        yield x, tuple(bytes(row) for row in rows)


def moved_boundary_tables(n, rnd):
    """Groups of order n with the last entry of row x moved to the front of
    row x + 1, for every x in 1..n-2: the joined rows are the group's, so
    only the row lengths are wrong."""
    rows = [bytes(row) for row in relabelled_rows(make_cyclic(n), rnd)]
    for x in range(1, n - 1):
        moved = list(rows)
        moved[x], moved[x + 1] = rows[x][:-1], rows[x][-1:] + rows[x + 1]
        yield x, tuple(moved)


def test_validator_matches_sorted_rows_oracle():
    # verdict and message, on every table of order 3 over {0, 1, 2}, every
    # row-normalized table of order <= 4 and the seeded damaged tables, then
    # on tables that pass every scan of the joined rows, which only the
    # per-row scans can name
    order_3 = [tuple(bytes(cells[i:i + 3]) for i in (0, 3, 6))
               for cells in itertools.product(range(3), repeat=9)]
    assert len(order_3) == 3 ** 9
    tables = order_3 + [tuple(rows) for n in range(1, 5)
                        for rows in row_normalized_tables(n)]
    tables += [tuple(rows) for seed in (10, 11)
               for _defect, rows, _error in damaged_tables(seed, 400)]
    accepted = 0
    for rows in tables:
        expected = verdict(sorted_rows_validator, rows)
        assert verdict(groups._validate_table, rows) == expected, rows
        accepted += expected is None
    # C3 among the order-3 tables, the 7 small groups (C3 again) and the
    # intact damaged tables
    assert accepted == 1 + 7 + 127
    rnd = random.Random(25)
    for n in (3, 16, 64):
        for x, rows in repeated_entry_tables(n, 20, rnd):
            message = f"row {x} is not a permutation of 0..{n - 1}"
            assert verdict(sorted_rows_validator, rows) == message
            assert verdict(groups._validate_table, rows) == message
        for x, rows in moved_boundary_tables(n, rnd):
            message = f"row {x} has length {n - 1}, expected {n}"
            assert verdict(sorted_rows_validator, rows) == message
            assert verdict(groups._validate_table, rows) == message


def test_validator_accepts_and_returns_inverses(sample):
    n = sample.order
    inverse, gens = groups._validate_table(sample.product, n)
    assert inverse == sample.inverse
    assert all(sample.product[x][inverse[x]] == 0 for x in range(n))
    assert gens == sample._generators
    assert len(generated_subgroup(sample, gens)) == n


@pytest.mark.parametrize("rows", [
    [[0, 300], [300, 0]],  # an entry above 255
    [[0, -1], [1, 0]],  # a negative entry
    [[0, 1.0], [1, 0]],  # a float
    ["ab", "ba"],  # strings
    [[0, 1], [1, 256]],  # the first bad row is row 1
])
def test_entries_no_byte_holds_name_the_row(rows):
    x = next(x for x, row in enumerate(rows)
             if not all(isinstance(v, int) and 0 <= v < 256 for v in row))
    with pytest.raises(GroupConstructionError,
                       match=rf"^row {x} is not a permutation of 0\.\.1$"):
        GroupTable(rows)


@pytest.mark.parametrize("rows, n", [
    ([1], 1),  # bytes(1) is one zero byte, the trivial group's one row
    ([0], 1),  # bytes(0) is b"", a row of length 0
    ([True], 1),
    ([[0, 1], 2], 2),  # two zero bytes
    ([[0, 1], 5], 2),  # five zero bytes, no row of length 5
])
def test_int_row_is_no_permutation(rows, n):
    message = f"row {n - 1} is not a permutation of 0..{n - 1}"
    with pytest.raises(GroupConstructionError) as err:
        GroupTable(rows)
    assert str(err.value) == message
    assert str(groups._first_defect(rows, n)) == message


def test_lagrange(sample):
    for x in range(sample.order):
        assert sample.order % sample.element_orders()[x] == 0


# ---------------------------------------------------------------------------
# named constructors


def test_cyclic_basics():
    assert make_cyclic(1).order == 1
    assert order_histogram(make_cyclic(4)) == {1: 1, 2: 1, 4: 2}
    assert census(make_cyclic(6)).delta == 2
    with pytest.raises(ValueError):
        make_cyclic(0)
    with pytest.raises(ValueError):
        make_cyclic(65)


def test_dihedral_basics():
    d6 = make_dihedral(6)
    assert d6.order == 6 and not d6.is_abelian
    assert is_isomorphic(d6, make_symmetric(3))
    assert order_histogram(make_dihedral(8)) == {1: 1, 2: 5, 4: 2}
    assert is_isomorphic(make_dihedral(2), make_cyclic(2))
    assert make_dihedral(4).is_abelian  # the Klein group
    with pytest.raises(ValueError):
        make_dihedral(7)
    with pytest.raises(ValueError):
        make_dihedral(66)


def test_dicyclic_basics():
    q8 = make_dicyclic(8)
    assert census(q8).count(4) == 3
    assert order_histogram(q8) == {1: 1, 2: 1, 4: 6}
    # generalized quaternion groups have a unique involution
    assert order_histogram(make_dicyclic(16))[2] == 1
    assert census(make_dicyclic(12)).delta == 5
    with pytest.raises(ValueError):
        make_dicyclic(10)
    with pytest.raises(ValueError):
        make_dicyclic(4)


def test_quasidihedral_basics():
    sd16 = make_quasidihedral(16)
    assert order_histogram(sd16) == {1: 1, 2: 5, 4: 6, 8: 4}
    assert census(sd16).count(4) == 3  # an odd number of order-4 subgroups
    with pytest.raises(ValueError):
        make_quasidihedral(12)
    with pytest.raises(ValueError):
        make_quasidihedral(8)


def test_symmetric_and_alternating():
    assert make_symmetric(1).order == 1
    assert is_isomorphic(make_symmetric(2), make_cyclic(2))
    assert make_symmetric(4).order == 24
    a4 = make_alternating(4)
    assert a4.order == 12
    assert census(a4).count(3) == 4
    assert census(make_symmetric(4)).signature == (3, 3, 3, 3, 4, 4, 4)
    with pytest.raises(ValueError):
        make_symmetric(5)
    with pytest.raises(ValueError):
        make_alternating(5)


# ---------------------------------------------------------------------------
# products


def test_direct_product():
    c4xc2 = direct_product(make_cyclic(4), make_cyclic(2))
    assert census(c4xc2).delta == 2
    assert census(direct_product(make_cyclic(2), make_cyclic(2))).delta == 0
    g = make_dihedral(8)
    assert is_isomorphic(direct_product(g, make_cyclic(1)), g)


def test_products_share_the_over_order_message():
    with pytest.raises(ValueError, match="^product order 144 exceeds 64$"):
        direct_product(make_cyclic(12), make_cyclic(12))
    c33 = make_cyclic(33)
    with pytest.raises(ValueError, match="^product order 66 exceeds 64$"):
        cyclic_extension(c33, 2, c33.inverse, 0)


def test_trivial_semidirect_equals_direct():
    # the split extension by the identity is C_p x N, row for row
    n = make_dihedral(8)
    for p in (1, 2, 4):
        semi = cyclic_extension(n, p, tuple(range(n.order)), 0)
        assert semi.product == direct_product(make_cyclic(p), n).product


def test_inversion_semidirects():
    c3 = make_cyclic(3)
    s3 = cyclic_extension(c3, 2, c3.inverse, 0)
    assert is_isomorphic(s3, make_symmetric(3))
    c6xc2 = direct_product(make_cyclic(6), make_cyclic(2))
    g = cyclic_extension(c6xc2, 2, c6xc2.inverse, 0)
    expected = direct_product(direct_product(make_cyclic(2), make_cyclic(2)),
                              make_symmetric(3))
    assert is_isomorphic(g, expected)


def test_inversion_action_rejects_nonabelian():
    # inversion reverses products, so on Q8 it is no automorphism
    q8 = make_dicyclic(8)
    with pytest.raises(InvalidActionError, match="extension of Q8"):
        cyclic_extension(q8, 2, q8.inverse, 0)


def test_invalid_action_reports_failure():
    # x -> x + 1 fixes nothing: not an automorphism
    with pytest.raises(InvalidActionError, match="identity"):
        cyclic_extension(make_cyclic(4), 2, (1, 2, 3, 0), 0)
    # x -> 2x is an automorphism of C5 of order 4, so with t^2 = 1 the
    # element t^2 would act as x -> 4x, not as the identity
    with pytest.raises(InvalidActionError, match="extension of C5"):
        cyclic_extension(make_cyclic(5), 2, (0, 2, 4, 1, 3), 0)


def test_semidirect_rejects_non_bijective_map():
    # x -> 2x preserves products on C4 but is not a bijection
    with pytest.raises(InvalidActionError, match="bijection"):
        cyclic_extension(make_cyclic(4), 2, (0, 2, 0, 2), 0)


def test_semidirect_rejects_mismatched_action():
    # swapping the generators is an automorphism of C2xC2, but on C4 it
    # sends the element 1 of order 4 to the involution 2
    with pytest.raises(InvalidActionError, match="extension of C4"):
        cyclic_extension(make_cyclic(4), 2, (0, 2, 1, 3), 0)


def test_cyclic_extension_rejects_beta_of_wrong_length():
    # the rows read beta only at 0..|H|-1: without the bijection check a
    # longer beta would build a group from its first |H| entries (here S3),
    # and a shorter one would be read past its end
    c3 = make_cyclic(3)
    for beta in ((*c3.inverse, 0), (0, 2)):
        with pytest.raises(InvalidActionError,
                           match=r"beta is not a bijection of 0\.\.2"):
            cyclic_extension(c3, 2, beta, 0)


def direct_rows_oracle(a, b):
    """The rows of (x1,y1)(x2,y2) = (x1*x2, y1*y2), element (x, y) at
    index x*|b| + y, filled one cell at a time."""
    nb = b.order
    return tuple(bytes(a.product[x1][x2] * nb + b.product[y1][y2]
                       for x2 in range(a.order) for y2 in range(nb))
                 for x1 in range(a.order) for y1 in range(nb))


def constructed_groups():
    """Every constructor group of order <= 32."""
    return ([make_cyclic(k) for k in range(1, 33)]
            + [make_dihedral(k) for k in range(2, 33, 2)]
            + [make_dicyclic(k) for k in range(8, 33, 4)]
            + [make_quasidihedral(16), make_quasidihedral(32)]
            + [make_symmetric(k) for k in range(1, 5)]
            + [make_alternating(k) for k in range(1, 5)])


def test_direct_product_matches_oracle_on_small_pairs():
    groups = constructed_groups()
    pairs = 0
    for a in groups:
        for b in groups:
            if a.order * b.order <= MAX_ORDER:
                assert direct_product(a, b).product == \
                    direct_rows_oracle(a, b), (a.name, b.name)
                pairs += 1
    assert pairs == 1201


def test_inversion_extensions_match_rows_oracle():
    # sd(n, C2, inv) for every abelian constructor group n of order <= 32
    extended = 0
    for n in constructed_groups():
        if n.is_abelian:
            assert cyclic_extension(n, 2, n.inverse, 0).product == \
                extension_rows_oracle(n, 2, n.inverse, 0), n.name
            extended += 1
    assert extended == 32 + 2 + 2 + 3  # C_k, D2, D4, S1, S2, A1..A3


def action_oracle(n, h, maps):
    """Every map an automorphism of n, and k -> maps[k] a homomorphism of
    h, each checked on every pair of elements."""
    if len(maps) != h.order:
        raise InvalidActionError(f"expected {h.order} maps, got {len(maps)}")
    points = list(range(n.order))
    for k, img in enumerate(maps):
        if len(img) != n.order:
            raise InvalidActionError(
                f"map for element {k} has degree {len(img)},"
                f" expected {n.order}")
        if sorted(img) != points:
            raise InvalidActionError(
                f"map for element {k} is not a bijection of 0..{n.order - 1}")
        if img[0] != 0:
            raise InvalidActionError(f"map for element {k} moves the identity")
        for x in points:
            row = n.product[x]
            irow = n.product[img[x]]
            for y in points:
                if img[row[y]] != irow[img[y]]:
                    raise InvalidActionError(
                        f"map for element {k} does not preserve products"
                        f" at ({x}, {y})")
    for k1 in range(h.order):
        for k2 in range(h.order):
            if tuple(maps[k1][i] for i in maps[k2]) != maps[h.product[k1][k2]]:
                raise InvalidActionError(
                    f"maps do not define a homomorphism:"
                    f" map[{k1}*{k2}] != map[{k1}] o map[{k2}]")


def semidirect_agrees_with_oracle(n, p, beta):
    """Whether beta generates an action of C_p on n, after asserting that
    cyclic_extension(n, p, beta, 0) raises InvalidActionError exactly when
    the action oracle rejects (beta^0, beta^1, ..., beta^(p-1)), and
    otherwise builds the oracle's rows."""
    maps = [tuple(range(n.order))]
    for _ in range(1, p):
        maps.append(tuple(beta[x] for x in maps[-1]))
    try:
        action_oracle(n, make_cyclic(p), maps)
    except InvalidActionError:
        with pytest.raises(InvalidActionError):
            cyclic_extension(n, p, beta, 0)
        return False
    assert cyclic_extension(n, p, beta, 0).product == \
        extension_rows_oracle(n, p, beta, 0)
    return True


def test_semidirect_matches_oracle_on_every_bijection_tuple():
    # the valid beta are the automorphisms of order dividing p, one per
    # homomorphism C_p -> Aut(N): one each for p = 2 and 3 in the trivial
    # Aut(C2), 2 + 1 in Aut(C3) = Aut(C4) = C2 and 4 + 3 in Aut(C2xC2) = S3
    valid = 0
    for n in [make_cyclic(2), make_cyclic(3), make_cyclic(4),
              direct_product(make_cyclic(2), make_cyclic(2))]:
        for p in (2, 3):
            for beta in itertools.permutations(range(n.order)):
                valid += semidirect_agrees_with_oracle(n, p, beta)
    assert valid == 2 + 3 + 3 + 7


def automorphisms(g):
    return [p for p in itertools.permutations(range(g.order))
            if p[0] == 0 and all(p[g.product[x][y]] == g.product[p[x]][p[y]]
                                 for x in range(g.order)
                                 for y in range(g.order))]


def test_semidirect_matches_oracle_on_random_maps():
    rng = random.Random(1717)
    valid = 0
    for n in [make_symmetric(3), make_dihedral(8), make_dicyclic(8),
              direct_product(make_cyclic(4), make_cyclic(2))]:
        autos = automorphisms(n)
        for p in (2, 3, 4):
            for _ in range(150):
                # a random automorphism, valid when its order divides p;
                # half the time replaced by another automorphism, a
                # bijection or an arbitrary map
                beta = rng.choice(autos)
                if rng.random() < 0.5:
                    points = list(range(n.order))
                    rng.shuffle(points)
                    beta = rng.choice([
                        rng.choice(autos), tuple(points),
                        tuple(rng.choices(range(n.order), k=n.order))])
                valid += semidirect_agrees_with_oracle(n, p, beta)
    assert 100 < valid < 4 * 3 * 150 - 100


# ---------------------------------------------------------------------------
# cyclic extensions


def metacyclic_oracle(n: int, t: int, z: int, name: str) -> GroupTable:
    """<r, s | r^n = 1, s^2 = r^z, s r s^-1 = r^t> of order 2n, where
    t^2 = 1 and t*z = z modulo n.

    Indices: r^i -> i, s r^i -> n + i, so r^i s = s r^(t*i).
    """
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = (i + j) % n
            rows[i][n + j] = n + (t * i + j) % n
            rows[n + i][j] = n + (i + j) % n
            rows[n + i][n + j] = (z + t * i + j) % n
    return GroupTable(rows, name=name)


def test_families_match_metacyclic_oracle():
    tables = ([(make_dihedral(k), metacyclic_oracle(k // 2, -1, 0, f"D{k}"))
               for k in range(2, MAX_ORDER + 1, 2)]
              + [(make_dicyclic(k),
                  metacyclic_oracle(k // 2, -1, k // 4, f"Q{k}"))
                 for k in range(8, MAX_ORDER + 1, 4)]
              + [(make_quasidihedral(k),
                  metacyclic_oracle(k // 2, k // 4 - 1, 0, f"SD{k}"))
                 for k in (16, 32, 64)])
    assert len(tables) == 32 + 15 + 3
    for built, oracle in tables:
        assert built.product == oracle.product, built.name
        assert built.name == oracle.name


def extension_conditions(h, p, beta, h0):
    """beta an automorphism, beta(h0) = h0 and beta^p(x) = h0^-1 x h0,
    each checked on every element or pair."""
    prod = h.product
    points = range(h.order)
    if any(beta[prod[x][y]] != prod[beta[x]][beta[y]]
           for x in points for y in points):
        return False
    if beta[h0] != h0:
        return False
    for x in points:
        image = x
        for _ in range(p):
            image = beta[image]
        if image != prod[prod[h.inverse[h0]][x]][h0]:
            return False
    return True


def extension_rows_oracle(h, p, beta, h0):
    """(t^i x)(t^j y) = t^((i+j) mod p) [h0 if i+j >= p] beta^j(x) y, with
    t^k x at index k*|h| + x, filled one cell at a time."""
    nh = h.order
    rows = []
    for i in range(p):
        for x in range(nh):
            row = []
            for j in range(p):
                c = x
                for _ in range(j):
                    c = beta[c]
                if i + j >= p:
                    c = h.product[h0][c]
                row += [(i + j) % p * nh + h.product[c][y] for y in range(nh)]
            rows.append(bytes(row))
    return tuple(rows)


def test_cyclic_extension_matches_conditions_on_every_tuple():
    # every bijection beta and every h0 of seven small H for p = 2, 3, 4:
    # the builder accepts exactly the tuples that meet the three
    # conditions, and builds the oracle's rows
    bases = [make_cyclic(1), make_cyclic(2), make_cyclic(3), make_cyclic(4),
             direct_product(make_cyclic(2), make_cyclic(2)), make_cyclic(5),
             make_symmetric(3)]
    tuples = valid = 0
    for h in bases:
        bijections = list(itertools.permutations(range(h.order)))
        for p in (2, 3, 4):
            for beta in bijections:
                for h0 in range(h.order):
                    tuples += 1
                    try:
                        g = cyclic_extension(h, p, beta, h0)
                    except InvalidActionError:
                        assert not extension_conditions(h, p, beta, h0), \
                            (h.name, p, beta, h0)
                        continue
                    assert extension_conditions(h, p, beta, h0), \
                        (h.name, p, beta, h0)
                    assert g.product == extension_rows_oracle(h, p, beta, h0)
                    valid += 1
    assert (tuples, valid) == (15405, 99)


def test_cyclic_extension_q8_and_rejections():
    c4 = make_cyclic(4)
    # Q8 is C4 extended by t with t r = r^-1 t and t^2 = r^2
    assert cyclic_extension(c4, 2, c4.inverse, 2).product == \
        make_dicyclic(8).product
    # beta(1) = 3 != 1: inversion does not fix h0 = r
    with pytest.raises(InvalidActionError, match="extension of C4"):
        cyclic_extension(c4, 2, c4.inverse, 1)
    with pytest.raises(InvalidActionError, match="not an element"):
        cyclic_extension(c4, 2, c4.inverse, 4)
    with pytest.raises(ValueError, match="index p = 0 is not positive"):
        cyclic_extension(c4, 0, c4.inverse, 0)


def test_cyclic_extension_of_index_1_is_h():
    s3 = make_symmetric(3)
    g = cyclic_extension(s3, 1, (1, 0, 2, 3, 4, 5), 3, name="S3")
    assert (g.product, g.name) == (s3.product, "S3")


# ---------------------------------------------------------------------------
# permutation closure


def test_from_permutations_s3():
    g = from_permutations([(1, 2, 0), (1, 0, 2)])
    assert g.order == 6
    assert is_isomorphic(g, make_symmetric(3))


def test_from_permutations_empty_is_trivial():
    assert from_permutations([]).order == 1


def test_from_permutations_d8():
    g = from_permutations(parse_generators("(0 1 2 3); (1 3)"))
    assert g.order == 8
    assert is_isomorphic(g, make_dihedral(8))


def test_from_permutations_overflow():
    gens = parse_generators("(0 1 2 3 4); (0 1)")
    with pytest.raises(ValueError, match="closure exceeds"):
        from_permutations(gens)  # S5 has order 120


def test_from_permutations_mixed_degrees():
    with pytest.raises(ValueError, match="degree"):
        from_permutations([(1, 0), (1, 2, 0)])


def test_from_permutations_rejects_non_bijection():
    with pytest.raises(ValueError, match="bijection"):
        from_permutations([(1, 2, 0), (0, 0, 1)])


def closure_oracle(gens):
    """Breadth-first closure composing image tuples; None past MAX_ORDER."""
    def compose(a, b):  # a after b
        return tuple(a[i] for i in b)

    elements = [tuple(range(len(gens[0])))]
    index = {elements[0]: 0}
    for e in elements:  # grows while iterating: breadth-first order
        for p in gens:
            q = compose(e, p)
            if q not in index:
                if len(elements) == MAX_ORDER:
                    return None
                index[q] = len(elements)
                elements.append(q)
    return [bytes(index[compose(a, b)] for b in elements) for a in elements]


def generator_closure(gens):
    """from_permutations as it was before composing with itemgetter.

    The same breadth-first Cayley-graph walk, with every product composed
    by a generator expression; returns the table rows.
    """
    degree = len(gens[0])
    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    right = [[] for _ in gens]
    parent, via = [0], [0]
    for cursor, e in enumerate(elements):
        for k, p in enumerate(gens):
            q = tuple(e[i] for i in p)
            j = index.get(q)
            if j is None:
                j = len(elements)
                index[q] = j
                elements.append(q)
                parent.append(cursor)
                via.append(k)
            right[k].append(j)
    n = len(elements)
    pad = bytes(256 - n)
    maps = [bytes(r) + pad for r in right]
    columns = [bytes(range(n))]
    for b in range(1, n):
        columns.append(columns[parent[b]].translate(maps[via[b]]))
    return tuple(bytes(row) for row in zip(*columns))


def test_closure_matches_generator_closure_on_catalog(catalog):
    # the rows at a small generating set: the kind of image lists the
    # catalog tool closes
    for entry, table, _report in catalog:
        gens = [table.product[g] for g in generating_set(table) or [0]]
        assert from_permutations(gens).product == generator_closure(gens), \
            entry.label


# 150 disjoint transpositions: 300 points, more than a byte can index
TRANSPOSITIONS = "".join(f"({2 * i} {2 * i + 1})" for i in range(150))


@pytest.mark.parametrize("build, gens", [
    (lambda: make_symmetric(3), [(1, 2, 0), (1, 0, 2)]),
    (lambda: make_symmetric(4), [(1, 2, 3, 0), (1, 0, 2, 3)]),
    (lambda: make_alternating(3), [(1, 2, 0)]),
    (lambda: make_alternating(4), [(1, 2, 0, 3), (0, 2, 3, 1)]),
    (lambda: from_permutations([(0,)]), [(0,)]),
    (lambda: parse_group(f"perm[{TRANSPOSITIONS}]"),
     parse_generators(TRANSPOSITIONS)),
], ids=["S3", "S4", "A3", "A4", "degree-1", "300-points"])
def test_closure_matches_generator_closure(build, gens):
    assert build().product == generator_closure(gens)


@st.composite
def block_generators(draw):
    """1..3 permutations, each acting on the blocks 0..a-1 and a..a+b-1.

    They generate subgroups of S_a x S_b, so closures of up to 64 elements
    are common and larger ones (up to 576) also occur.
    """
    a = draw(st.integers(min_value=1, max_value=4))
    b = draw(st.integers(min_value=1, max_value=4))
    block = st.tuples(st.permutations(range(a)),
                      st.permutations(range(a, a + b)))
    pairs = draw(st.lists(block, min_size=1, max_size=3))
    return [tuple(x) + tuple(y) for x, y in pairs]


@settings(max_examples=60, deadline=None)
@given(block_generators())
def test_closure_and_census_match_oracles(gens):
    rows = closure_oracle(gens)
    if rows is None:
        with pytest.raises(ValueError, match="closure exceeds"):
            from_permutations(gens)
        return
    g = from_permutations(gens)
    assert g.product == tuple(rows)
    subgroups = Counter(len(s) for s in cyclic_subgroups(g))
    assert dict(census(g).n_d) == dict(subgroups)


def test_regular_representation_roundtrip(sample):
    # the rows of the table are the left-multiplication permutations
    regular = [tuple(row) for row in sample.product]
    assert is_isomorphic(from_permutations(regular), sample)


# ---------------------------------------------------------------------------
# element operations


def test_element_order():
    assert make_cyclic(6).element_orders()[1] == 6
    assert make_dicyclic(8).element_orders()[4] == 4  # the element b of Q8
    for name in SAMPLE_NAMES:
        assert parse_group(name).element_orders()[0] == 1


def test_generated_subgroup():
    g = make_symmetric(4)
    assert generated_subgroup(g, []) == (0,)
    orders = g.element_orders()
    for x in range(g.order):
        assert len(generated_subgroup(g, [x])) == orders[x]
    # some order-4 and order-2 pair generates all of S4
    fours = [x for x in range(g.order) if orders[x] == 4]
    twos = [x for x in range(g.order) if orders[x] == 2]
    assert any(len(generated_subgroup(g, [a, b])) == 24
               for a in fours for b in twos)


def test_generated_subgroup_is_closed():
    g = make_dicyclic(12)
    members = set(generated_subgroup(g, [2, 6]))
    assert 0 in members
    for a in members:
        assert g.inverse[a] in members
        for b in members:
            assert g.product[a][b] in members


def set_generated_subgroup(g, seed):
    """generated_subgroup as it was: a set of members and a pop-stack."""
    seeds = sorted(set(seed))
    members = {0}
    frontier = [0]
    while frontier:
        row = g.product[frontier.pop()]
        for s in seeds:
            t = row[s]
            if t not in members:
                members.add(t)
                frontier.append(t)
    return tuple(sorted(members))


def test_generated_subgroup_matches_set_oracle(catalog):
    rnd = random.Random(25)
    for _entry, g, _report in catalog:
        seeds = [[x] for x in range(g.order)]
        seeds += [rnd.sample(range(g.order), 2) if g.order > 1 else [0, 0]
                  for _ in range(200)]
        for seed in seeds:
            assert generated_subgroup(g, seed) == set_generated_subgroup(
                g, seed), (g.name, seed)


# ---------------------------------------------------------------------------
# permutations


def test_permutation_parsing():
    assert parse_generators("(0 1 2)(3 4)") == ((1, 2, 0, 4, 3),)
    assert parse_generators("()") == ((0,),)
    assert parse_generators("(0, 1, 2)") == ((1, 2, 0),)
    # only moved points are kept, renumbered in ascending order
    assert parse_generators("(5 9); (9 7)") == ((2, 1, 0), (0, 2, 1))
    assert parse_generators(" ; ") == ()
    with pytest.raises(ValueError):
        parse_generators("0 1 2")
    with pytest.raises(ValueError):
        parse_generators("(0 1)(1 2)")
    with pytest.raises(ValueError):
        parse_generators("(0 0)")


def cycle_string(images):
    """Cycle notation of a permutation, as ``parse_generators`` reads it;
    fixed points are left out and the identity is ``()``."""
    cycles = []
    seen = set()
    for start, p in enumerate(images):
        if p == start or start in seen:
            continue
        cycle = [start]
        while p != start:
            cycle.append(p)
            p = images[p]
        seen.update(cycle)
        cycles.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(cycles) or "()"


@given(st.permutations(range(7)))
def test_permutation_cycle_string_roundtrip(images):
    # writing and re-reading the cycle text drops the fixed points and
    # renumbers the rest, which changes neither the group nor its table
    p = tuple(images)
    assert (from_permutations(parse_generators(cycle_string(p))).product
            == from_permutations([p]).product)
