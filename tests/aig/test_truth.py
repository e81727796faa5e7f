"""Tests for truth-table computation and manipulation."""

import pytest

from repro.aig.aig import Aig
from repro.aig.literals import lit_var
from repro.aig.truth import (
    cached_table_var,
    cofactor,
    cut_truth_table,
    cut_truth_tables,
    depends_on,
    table_count_ones,
    table_from_minterms,
    table_mask,
    table_not,
    table_support,
    table_to_minterms,
    table_var,
)


def test_table_mask():
    assert table_mask(1) == 0b11
    assert table_mask(2) == 0xF
    assert table_mask(4) == 0xFFFF


def test_table_var_patterns():
    assert table_var(0, 2) == 0b1010
    assert table_var(1, 2) == 0b1100
    assert table_var(0, 3) == 0b10101010
    assert table_var(2, 3) == 0b11110000


def test_table_var_out_of_range():
    with pytest.raises(ValueError):
        table_var(3, 3)


def test_cached_table_var_matches_uncached():
    for num_vars in (2, 3, 4, 6):
        for var in range(num_vars):
            assert cached_table_var(var, num_vars) == table_var(var, num_vars)


def test_table_not_and_count():
    table = table_var(0, 2)
    assert table_not(table, 2) == 0b0101
    assert table_count_ones(table) == 2


def test_minterm_roundtrip():
    table = 0b1001
    minterms = table_to_minterms(table, 2)
    assert minterms == [0, 3]
    assert table_from_minterms(minterms, 2) == table


def test_table_from_minterms_rejects_out_of_range():
    with pytest.raises(ValueError):
        table_from_minterms([4], 2)


def test_cofactor_and_depends_on():
    num_vars = 3
    x0 = cached_table_var(0, num_vars)
    x1 = cached_table_var(1, num_vars)
    table = x0 & x1
    assert cofactor(table, num_vars, 0, 1) == x1
    assert cofactor(table, num_vars, 0, 0) == 0
    assert depends_on(table, num_vars, 0)
    assert not depends_on(table, num_vars, 2)
    assert table_support(table, num_vars) == [0, 1]


def test_shannon_expansion_identity():
    """f = (!x & f_x0) | (x & f_x1) for random functions."""
    import random

    rng = random.Random(3)
    num_vars = 4
    mask = table_mask(num_vars)
    for _ in range(25):
        table = rng.getrandbits(1 << num_vars)
        for var in range(num_vars):
            x = cached_table_var(var, num_vars)
            f0 = cofactor(table, num_vars, var, 0)
            f1 = cofactor(table, num_vars, var, 1)
            rebuilt = ((x ^ mask) & f0) | (x & f1)
            assert rebuilt == (table & mask)


def test_cut_truth_table_of_and_gate():
    aig = Aig()
    x, y = aig.add_pi(), aig.add_pi()
    g = aig.add_and(x, y)
    aig.add_po(g)
    table = cut_truth_table(aig, lit_var(g), [lit_var(x), lit_var(y)])
    assert table == 0b1000  # AND over 2 variables


def test_cut_truth_table_with_inverters():
    aig = Aig()
    x, y = aig.add_pi(), aig.add_pi()
    g = aig.make_nor(x, y)
    aig.add_po(g)
    table = cut_truth_table(aig, lit_var(g), [lit_var(x), lit_var(y)])
    assert table == 0b0001  # NOR is true only when both inputs are 0


def test_cut_truth_table_leaf_root():
    aig = Aig()
    x = aig.add_pi()
    assert cut_truth_table(aig, lit_var(x), [lit_var(x)]) == 0b10


def test_cut_truth_table_requires_covering_cut():
    aig = Aig()
    x, y, z = aig.add_pi(), aig.add_pi(), aig.add_pi()
    g = aig.add_and(aig.add_and(x, y), z)
    with pytest.raises(ValueError):
        cut_truth_table(aig, lit_var(g), [lit_var(x)])


def test_cut_truth_table_rejects_a_pi_root_outside_the_leaves():
    aig = Aig()
    x, y = aig.add_pi(), aig.add_pi()
    aig.add_po(aig.add_and(x, y))
    with pytest.raises(ValueError):
        cut_truth_table(aig, lit_var(x), [lit_var(y)])


def test_cut_truth_tables_multiple_roots():
    aig = Aig()
    x, y = aig.add_pi(), aig.add_pi()
    g_and = aig.add_and(x, y)
    g_or = aig.make_or(x, y)  # complemented literal of a NOR node
    leaves = [lit_var(x), lit_var(y)]
    tables = cut_truth_tables(aig, [lit_var(g_and), lit_var(g_or)], leaves)
    assert tables[lit_var(g_and)] == 0b1000
    # The node behind the OR literal is the NOR gate; its own function is NOR.
    assert tables[lit_var(g_or)] == 0b0001
