"""NPN canonicalization of small Boolean functions.

Two functions belong to the same NPN class when one can be obtained from the
other by Negating inputs, Permuting inputs and/or Negating the output.  The
4-input rewriting library keys its pre-computed structures by NPN class so
that one synthesized structure serves every member of the class.

For up to four variables the canonical form is found by exhaustively applying
all ``4! * 2^4 * 2 = 768`` transformations, which is fast enough and exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.aig.truth import table_mask


@dataclass(frozen=True)
class NpnTransform:
    """A transformation ``f(x) -> out_neg ^ f(perm(x) ^ input_neg)``.

    ``permutation[i]`` is the original variable that feeds canonical slot ``i``.
    ``input_negations[i]`` applies to the *original* variable ``i``.
    """

    permutation: Tuple[int, ...]
    input_negations: Tuple[bool, ...]
    output_negation: bool


def apply_transform(table: int, num_vars: int, transform: NpnTransform) -> int:
    """Apply an NPN transform to a truth table and return the new table."""
    mask = table_mask(num_vars)
    result = 0
    for minterm in range(1 << num_vars):
        # Build the source minterm that maps to ``minterm`` under the transform.
        source = 0
        for slot in range(num_vars):
            original = transform.permutation[slot]
            bit = (minterm >> slot) & 1
            if transform.input_negations[original]:
                bit ^= 1
            source |= bit << original
        value = (table >> source) & 1
        result |= value << minterm
    if transform.output_negation:
        result ^= mask
    return result


def _all_transforms(num_vars: int) -> List[NpnTransform]:
    transforms = []
    for permutation in itertools.permutations(range(num_vars)):
        for negation_bits in range(1 << num_vars):
            negations = tuple(bool((negation_bits >> i) & 1) for i in range(num_vars))
            for output_negation in (False, True):
                transforms.append(NpnTransform(permutation, negations, output_negation))
    return transforms


_TRANSFORM_CACHE: Dict[int, List[NpnTransform]] = {}
_TRANSFORM_MATRIX_CACHE: Dict[int, tuple] = {}


def _transforms(num_vars: int) -> List[NpnTransform]:
    transforms = _TRANSFORM_CACHE.get(num_vars)
    if transforms is None:
        transforms = _all_transforms(num_vars)
        _TRANSFORM_CACHE[num_vars] = transforms
    return transforms


def _transform_matrices(num_vars: int) -> tuple:
    """Precompute, for every transform, the source minterm of each result minterm.

    Returns ``(source_index_matrix, output_negation_masks, weights, shifts)``
    where ``source_index_matrix[t, m]`` is the minterm of the *input* table
    that transform ``t`` reads to produce result minterm ``m``,
    ``output_negation_masks[t]`` is the table mask when transform ``t``
    negates the output (else 0), ``weights`` is ``1 << arange(2**n)`` and
    ``shifts`` is ``arange(2**n)``, all int64.  With these matrices
    canonicalizing a table reduces to one fancy-indexing operation and one
    int64 matrix-vector product, which is what makes on-the-fly library
    construction affordable.
    """
    import numpy as np

    cached = _TRANSFORM_MATRIX_CACHE.get(num_vars)
    if cached is not None:
        return cached
    transforms = _transforms(num_vars)
    num_minterms = 1 << num_vars
    sources = np.zeros((len(transforms), num_minterms), dtype=np.int64)
    negations = np.zeros(len(transforms), dtype=np.int64)
    for t_index, transform in enumerate(transforms):
        if transform.output_negation:
            negations[t_index] = table_mask(num_vars)
        for minterm in range(num_minterms):
            source = 0
            for slot in range(num_vars):
                original = transform.permutation[slot]
                bit = (minterm >> slot) & 1
                if transform.input_negations[original]:
                    bit ^= 1
                source |= bit << original
            sources[t_index, minterm] = source
    shifts = np.arange(num_minterms, dtype=np.int64)
    cached = (sources, negations, np.left_shift(1, shifts), shifts)
    _TRANSFORM_MATRIX_CACHE[num_vars] = cached
    return cached


def npn_canonical(table: int, num_vars: int) -> Tuple[int, NpnTransform]:
    """Return the canonical representative of ``table`` and the transform to it.

    The canonical representative is the numerically smallest truth table
    reachable by any NPN transformation.  The returned transform maps the
    *input* table to the canonical one (see :func:`apply_transform`).
    """
    if num_vars > 4:
        raise ValueError("exhaustive NPN canonicalization is limited to 4 variables")
    import numpy as np

    sources, negations, weights, shifts = _transform_matrices(num_vars)
    # Bits above the table are ignored; masking first also keeps an
    # oversized Python int from overflowing int64.
    bits = (np.int64(table & table_mask(num_vars)) >> shifts) & 1
    values = bits[sources] @ weights  # (num_transforms,)
    values ^= negations
    best_index = int(np.argmin(values))
    return int(values[best_index]), _transforms(num_vars)[best_index]


def npn_class_count(num_vars: int, sample_limit: int = 1 << 16) -> int:
    """Count NPN classes among all functions of ``num_vars`` variables.

    Exhaustive for ``num_vars <= 4`` (65536 functions); provided mostly as a
    sanity utility for tests (the correct value for 4 variables is 222).
    """
    if (1 << (1 << num_vars)) > sample_limit and num_vars > 4:
        raise ValueError("too many functions to enumerate")
    seen = set()
    for table in range(1 << (1 << num_vars)):
        canonical, _ = npn_canonical(table, num_vars)
        seen.add(canonical)
    return len(seen)
