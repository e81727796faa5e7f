"""Tests for NPN canonicalization."""

import random

import pytest

from repro.aig.npn import NpnTransform, apply_transform, npn_canonical, npn_class_count
from repro.aig.truth import table_mask, cached_table_var


def test_identity_transform():
    identity = NpnTransform((0, 1), (False, False), False)
    for table in (0b0000, 0b1010, 0b0110, 0b1111):
        assert apply_transform(table, 2, identity) == table


def test_output_negation_transform():
    transform = NpnTransform((0, 1), (False, False), True)
    assert apply_transform(0b1000, 2, transform) == 0b0111


def test_input_negation_transform():
    # Negate variable 0 of AND(x0, x1): result is AND(!x0, x1).
    transform = NpnTransform((0, 1), (True, False), False)
    x0 = cached_table_var(0, 2)
    x1 = cached_table_var(1, 2)
    expected = (x0 ^ table_mask(2)) & x1
    assert apply_transform(x0 & x1, 2, transform) == expected


def test_permutation_transform():
    # Swap the two variables of f = x0 & !x1.
    transform = NpnTransform((1, 0), (False, False), False)
    x0 = cached_table_var(0, 2)
    x1 = cached_table_var(1, 2)
    original = x0 & (x1 ^ table_mask(2))
    expected = x1 & (x0 ^ table_mask(2))
    assert apply_transform(original, 2, transform) == expected


def test_canonical_form_is_invariant_within_class():
    """All functions generated from one seed by NPN operations share a canonical form."""
    rng = random.Random(7)
    for _ in range(10):
        table = rng.getrandbits(16)
        canonical, _ = npn_canonical(table, 4)
        # Apply a few random transforms and re-canonicalize.
        from repro.aig.npn import _transforms

        transforms = _transforms(4)
        for _ in range(5):
            transform = rng.choice(transforms)
            variant = apply_transform(table, 4, transform)
            variant_canonical, _ = npn_canonical(variant, 4)
            assert variant_canonical == canonical


def test_canonical_transform_maps_to_canonical():
    rng = random.Random(11)
    for num_vars in (2, 3, 4):
        for _ in range(10):
            table = rng.getrandbits(1 << num_vars)
            canonical, transform = npn_canonical(table, num_vars)
            assert apply_transform(table, num_vars, transform) == canonical
            assert canonical <= table


def test_canonical_rejects_large_functions():
    with pytest.raises(ValueError):
        npn_canonical(0, 5)


def test_npn_class_counts_match_known_values():
    # Known results: 2 vars -> 4 classes, 3 vars -> 14 classes.
    assert npn_class_count(2) == 4
    assert npn_class_count(3) == 14


def _brute_force_canonical(table, num_vars):
    from repro.aig.npn import _transforms

    return min(apply_transform(table, num_vars, t) for t in _transforms(num_vars))


@pytest.mark.parametrize("num_vars", [2, 3])
def test_canonical_is_brute_force_minimum_for_every_small_table(num_vars):
    for table in range(1 << (1 << num_vars)):
        canonical, transform = npn_canonical(table, num_vars)
        assert canonical == _brute_force_canonical(table, num_vars), hex(table)
        assert apply_transform(table, num_vars, transform) == canonical


def test_canonical_is_brute_force_minimum_for_random_4_input_tables():
    rng = random.Random(2024)
    for _ in range(200):
        table = rng.getrandbits(16)
        canonical, transform = npn_canonical(table, 4)
        assert canonical == _brute_force_canonical(table, 4), hex(table)
        assert apply_transform(table, 4, transform) == canonical


def test_bits_above_the_table_are_ignored():
    rng = random.Random(5)
    for num_vars in (1, 2, 3, 4):
        mask = table_mask(num_vars)
        for _ in range(20):
            table = rng.getrandbits(1 << num_vars)
            assert npn_canonical(table | 1 << 70, num_vars) == npn_canonical(table & mask, num_vars)
