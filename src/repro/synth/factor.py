"""Algebraic factoring of sum-of-products covers.

Refactoring and the rewriting library both need to turn a flat SOP cover into
a multi-level factored form with few literals.  The implementation follows the
classic *quick factoring* recipe (common-cube extraction followed by division
by the most frequent literal), which is what ABC's ``Dec_Factor`` family uses
as its workhorse.

The result is an expression tree (:class:`Expr`) that is subsequently turned
into an AIG replacement fragment (:mod:`repro.synth.fragment`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.aig.truth import table_mask
from repro.synth.sop import Cover, pair_literal_counts


@dataclass(frozen=True)
class Expr:
    """A node of a factored-form expression tree.

    ``kind`` is one of ``"const0"``, ``"const1"``, ``"lit"``, ``"and"`` or
    ``"or"``.  For ``"lit"`` nodes, ``var``/``negated`` identify the literal;
    for ``"and"``/``"or"`` nodes, ``children`` holds the operands.
    """

    kind: str
    var: int = -1
    negated: bool = False
    children: Tuple["Expr", ...] = field(default_factory=tuple)

    # Constructors ----------------------------------------------------- #
    @staticmethod
    def const0() -> "Expr":
        return Expr("const0")

    @staticmethod
    def const1() -> "Expr":
        return Expr("const1")

    @staticmethod
    def literal(var: int, negated: bool = False) -> "Expr":
        return Expr("lit", var=var, negated=negated)

    @staticmethod
    def and_(children: Sequence["Expr"]) -> "Expr":
        children = tuple(children)
        if not children:
            return Expr.const1()
        if len(children) == 1:
            return children[0]
        return Expr("and", children=children)

    @staticmethod
    def or_(children: Sequence["Expr"]) -> "Expr":
        children = tuple(children)
        if not children:
            return Expr.const0()
        if len(children) == 1:
            return children[0]
        return Expr("or", children=children)

    # Metrics ----------------------------------------------------------- #
    def literal_count(self) -> int:
        """Number of literal occurrences in the expression (factored-form cost)."""
        if self.kind == "lit":
            return 1
        if self.kind in ("const0", "const1"):
            return 0
        return sum(child.literal_count() for child in self.children)

    def depth(self) -> int:
        """Expression-tree depth (constants and literals have depth 0)."""
        if self.kind in ("lit", "const0", "const1"):
            return 0
        return 1 + max(child.depth() for child in self.children)

    def __str__(self) -> str:
        if self.kind == "const0":
            return "0"
        if self.kind == "const1":
            return "1"
        if self.kind == "lit":
            return f"!x{self.var}" if self.negated else f"x{self.var}"
        separator = " & " if self.kind == "and" else " | "
        return "(" + separator.join(str(child) for child in self.children) + ")"


def factor_cover(cover: Cover) -> Expr:
    """Return a factored form of the cover using quick (literal-based) factoring."""
    return factor_pairs([(cube.pos, cube.neg) for cube in cover])


def factor_pairs(cubes: List[Tuple[int, int]]) -> Expr:
    """:func:`factor_cover` of a cover given as ``(pos, neg)`` int pairs."""
    if not cubes:
        return Expr.const0()
    for pos, neg in cubes:
        if not (pos | neg):
            return Expr.const1()
    if len(cubes) == 1:
        return _cube_expr(*cubes[0])

    # 1. Extract the largest common cube shared by every product term.
    common_pos = common_neg = -1
    for pos, neg in cubes:
        common_pos &= pos
        common_neg &= neg
    if common_pos or common_neg:
        reduced = [(pos ^ common_pos, neg ^ common_neg) for pos, neg in cubes]
        return Expr.and_([_cube_expr(common_pos, common_neg), factor_pairs(reduced)])

    # 2. Divide by the most frequent literal (when it appears more than once).
    num_vars = max(pos | neg for pos, neg in cubes).bit_length()
    positive, negative = pair_literal_counts(cubes, num_vars)
    best_var, best_negative, best_count = -1, False, 1
    for var in range(num_vars):
        if positive[var] > best_count:
            best_var, best_negative, best_count = var, False, positive[var]
        if negative[var] > best_count:
            best_var, best_negative, best_count = var, True, negative[var]
    if best_var < 0:
        # No sharing opportunities: emit the flat SOP.
        return Expr.or_([_cube_expr(pos, neg) for pos, neg in cubes])

    bit = 1 << best_var
    quotient: List[Tuple[int, int]] = []
    remainder: List[Tuple[int, int]] = []
    for pos, neg in cubes:
        if (neg if best_negative else pos) & bit:
            quotient.append((pos, neg ^ bit) if best_negative else (pos ^ bit, neg))
        else:
            remainder.append((pos, neg))
    divided = Expr.and_([_literal(best_var, best_negative), factor_pairs(quotient)])
    if not remainder:
        return divided
    return Expr.or_([divided, factor_pairs(remainder)])


_LITERALS: Dict[Tuple[int, bool], Expr] = {}


def _literal(var: int, negated: bool) -> Expr:
    """Shared literal leaves (expressions are immutable, so sharing is safe)."""
    key = (var, negated)
    expr = _LITERALS.get(key)
    if expr is None:
        expr = _LITERALS[key] = Expr.literal(var, negated)
    return expr


def _cube_expr(pos: int, neg: int) -> Expr:
    """The conjunction of a cube's literals, in increasing variable order."""
    literals = []
    support = pos | neg
    while support:
        low = support & -support
        literals.append(_literal(low.bit_length() - 1, bool(neg & low)))
        support ^= low
    return Expr.and_(literals)


def expr_truth_table(expr: Expr, num_vars: int) -> int:
    """Evaluate the expression into a truth table (used by tests)."""
    from repro.aig.truth import cached_table_var

    mask = table_mask(num_vars)
    if expr.kind == "const0":
        return 0
    if expr.kind == "const1":
        return mask
    if expr.kind == "lit":
        table = cached_table_var(expr.var, num_vars)
        return table ^ mask if expr.negated else table
    tables = [expr_truth_table(child, num_vars) for child in expr.children]
    result = mask if expr.kind == "and" else 0
    for table in tables:
        result = (result & table) if expr.kind == "and" else (result | table)
    return result


def factor_truth_table(table: int, num_vars: int) -> Expr:
    """ISOP + quick factoring of a completely specified function."""
    from repro.synth.isop import isop_pairs

    table &= table_mask(num_vars)
    return factor_pairs(isop_pairs(table, table, num_vars))
