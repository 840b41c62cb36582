"""Parser for the small group-expression language used by the CLI.

Grammar::

    expr  := term ( 'x' term )*                 left-associative product
    term  := NAME                                C4, D8, Q12, SD16, S4, A4
           | 'sd' '(' expr ',' expr ',' 'inv' ')'
           | 'perm' '[' cycles ( ';' cycles )* ']'

``sd(n, h, inv)`` is the semidirect product in which h, of order 2, acts
by inversion, so its first argument must be abelian; ``perm[...]`` closes a
list of permutations in 0-based cycle notation.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from .groups import (MAX_ORDER, GroupTable, cyclic_extension,
                     direct_product, from_permutations, make_alternating,
                     make_cyclic, make_dicyclic, make_dihedral,
                     make_quasidihedral, make_symmetric, parse_generators)


class GroupExpressionError(ValueError):
    """A group expression failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_NAME = re.compile(r"(SD|C|D|Q|S|A)([0-9]+)")

_CONSTRUCTORS = {
    "C": make_cyclic,
    "D": make_dihedral,
    "Q": make_dicyclic,
    "SD": make_quasidihedral,
    "S": make_symmetric,
    "A": make_alternating,
}


# sd(...) is the only construct that nests; the parser recurses once per
# level, so deeper input would exhaust the interpreter stack.  No valid
# expression comes close: each level at least doubles the order.
MAX_NESTING = 32


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> GroupExpressionError:
        return GroupExpressionError(message, self.pos)

    def build(self, make: Callable, *args, **kwargs):
        """make(*args, **kwargs), its ValueError raised at this position."""
        try:
            return make(*args, **kwargs)
        except ValueError as err:
            raise self.error(str(err)) from None

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, literal: str) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def parse(self) -> GroupTable:
        result = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
        return result

    def parse_expr(self) -> GroupTable:
        result = self.parse_term()
        while True:
            self.skip_ws()
            if self.text.startswith("x", self.pos):
                self.pos += 1
                right = self.parse_term()
                result = self.build(direct_product, result, right)
            else:
                return result

    def parse_term(self) -> GroupTable:
        self.skip_ws()
        if self.text.startswith("sd(", self.pos):
            return self.parse_semidirect()
        if self.text.startswith("perm[", self.pos):
            return self.parse_perm()
        return self.parse_name()

    def parse_semidirect(self) -> GroupTable:
        if self.depth == MAX_NESTING:
            raise self.error(f"sd(...) nested deeper than {MAX_NESTING}")
        self.expect("sd(")
        self.depth += 1
        normal = self.parse_expr()
        self.expect(",")
        acting = self.parse_expr()
        self.expect(",")
        self.expect("inv")
        self.expect(")")
        self.depth -= 1
        if not normal.is_abelian:
            raise self.error(
                f"inversion action needs an abelian base, {normal.name} is not")
        if acting.order != 2:
            raise self.error("the inversion action is an action of C2")
        return self.build(cyclic_extension, normal, 2, normal.inverse, 0,
                          f"({normal.name}):{acting.name}")

    def parse_perm(self) -> GroupTable:
        self.expect("perm[")
        end = self.text.find("]", self.pos)
        if end < 0:
            raise self.error("unterminated perm[...]")
        body = self.text[self.pos:end]
        self.pos = end + 1
        gens = self.build(parse_generators, body)
        return self.build(from_permutations, gens, name="perm")

    def parse_name(self) -> GroupTable:
        match = _NAME.match(self.text, self.pos)
        if match is None:
            raise self.error("expected a group name, sd(...) or perm[...]")
        self.pos = match.end()
        kind, digits = match.groups()
        try:
            size = int(digits)
        except ValueError:  # more digits than the interpreter converts
            raise self.error(
                f"a {len(digits)}-digit size exceeds {MAX_ORDER}") from None
        return self.build(_CONSTRUCTORS[kind], size)


def parse_group(expr: str) -> GroupTable:
    """Parse a group expression and build the group it denotes."""
    return _Parser(expr).parse()
