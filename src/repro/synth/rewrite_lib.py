"""Library of pre-computed replacement structures for small cut functions.

DAG-aware rewriting replaces the cone of a 4-feasible cut with a pre-computed
implementation of the same Boolean function.  ABC ships a hard-coded library
of optimal 4-input structures; here the library is synthesized on demand —
each truth table is converted to an irredundant SOP, algebraically factored
(both polarities, the cheaper one wins), turned into a :class:`Fragment` and
cached.  The synthesis itself is
:func:`~repro.synth.refactor.refactor_fragment`, whose memo refactoring
shares and which synthesizes a miss in one compiled call on the native
backend (the Python chain elsewhere, with the same fragment).  Because at
most ``2^16`` distinct 4-input functions exist (and far fewer occur in
practice), the cache quickly converges to a fixed library.

NPN canonicalization (:mod:`repro.aig.npn`) is used to share cache entries
between functions of the same equivalence class, which keeps the number of
synthesized structures near the 222 NPN classes of 4-variable logic.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.aig.npn import NpnTransform, npn_canonical
from repro.aig.truth import table_mask, table_support
from repro.synth.fragment import Fragment
from repro.synth.refactor import refactor_fragment


class RewriteLibrary:
    """On-demand library mapping truth tables to replacement fragments."""

    def __init__(self, use_npn: bool = True) -> None:
        self.use_npn = use_npn
        self._by_table: Dict[Tuple[int, int], Fragment] = {}
        self._by_class: Dict[Tuple[int, int], Fragment] = {}

    def lookup(self, table: int, num_vars: int) -> Fragment:
        """Return a fragment implementing ``table`` over ``num_vars`` leaves."""
        mask = table_mask(num_vars)
        table &= mask
        key = (table, num_vars)
        cached = self._by_table.get(key)
        if cached is not None:
            return cached
        fragment = self._synthesize(table, num_vars)
        self._by_table[key] = fragment
        return fragment

    def cached(self, table: int, num_vars: int) -> Optional[Fragment]:
        """The fragment :meth:`lookup` would return, if it is already built."""
        return self._by_table.get((table & table_mask(num_vars), num_vars))

    # ------------------------------------------------------------------ #
    def _synthesize(self, table: int, num_vars: int) -> Fragment:
        mask = table_mask(num_vars)
        if table == 0:
            return Fragment.constant(False, num_vars)
        if table == mask:
            return Fragment.constant(True, num_vars)
        support = table_support(table, num_vars)
        if len(support) == 1:
            var = support[0]
            from repro.aig.truth import cached_table_var

            negated = table != cached_table_var(var, num_vars)
            fragment = Fragment.single_leaf(num_vars, var, negated)
            return fragment
        if self.use_npn and num_vars <= 4:
            return self._synthesize_npn(table, num_vars)
        return refactor_fragment(table, num_vars)

    def _synthesize_npn(self, table: int, num_vars: int) -> Fragment:
        canonical, transform = npn_canonical(table, num_vars)
        class_key = (canonical, num_vars)
        canonical_fragment = self._by_class.get(class_key)
        if canonical_fragment is None:
            canonical_fragment = refactor_fragment(canonical, num_vars)
            self._by_class[class_key] = canonical_fragment
        return _map_fragment_through_npn(canonical_fragment, transform, num_vars)

    def __len__(self) -> int:
        return len(self._by_table)


def _map_fragment_through_npn(
    fragment: Fragment, transform: NpnTransform, num_vars: int
) -> Fragment:
    """Re-express a fragment of the canonical function in terms of the original inputs.

    ``transform`` maps the *original* function to the canonical one:
    ``canonical(x) = out_neg ^ original(perm(x) ^ input_neg)``, where
    ``perm[slot]`` names the original variable feeding canonical slot ``slot``.
    Equivalently ``original(y) = out_neg ^ canonical(slot_of(y) with y_i
    complemented per input_neg)``, which is what this mapping implements: leaf
    ``slot`` of the canonical fragment becomes original variable
    ``perm[slot]`` complemented when ``input_neg[perm[slot]]`` is set, and the
    output is complemented when ``out_neg`` is set.
    """
    mapped = Fragment(num_leaves=num_vars)

    def map_literal(literal: int) -> int:
        var = literal >> 1
        compl = literal & 1
        if var == 0:
            return literal
        if var <= num_vars:
            slot = var - 1
            original_var = transform.permutation[slot]
            negate = transform.input_negations[original_var]
            return ((original_var + 1) << 1) | (compl ^ int(negate))
        return literal  # internal node: same index space in the copy

    for lit0, lit1 in fragment.nodes:
        a, b = map_literal(lit0), map_literal(lit1)
        if a > b:
            a, b = b, a
        mapped.nodes.append((a, b))
    mapped.output = map_literal(fragment.output) ^ int(transform.output_negation)
    return mapped


#: Process-wide default library shared by all rewriting calls.
DEFAULT_LIBRARY = RewriteLibrary()
