"""AIG refactoring (``rf``).

Refactoring computes one large reconvergence-driven cut per node, collapses
the cut cone into its Boolean function, re-synthesizes the function as an
algebraically factored form and accepts the new implementation when it uses
fewer AND nodes than the cone it frees (Mishchenko/Brayton, *Scalable logic
synthesis using a simple circuit structure*, IWLS 2006).  Unlike rewriting it
can restructure logic across many levels at once and therefore also reduces
depth in practice.

The factored form of a table is synthesized once per process, behind the
memo of :func:`refactor_fragment`: on a miss, the native backend's compiled
``factored_fragment`` op runs the Minato–Morreale ISOP of the table and of
its complement, quick factoring and the balanced-AND fragment build in one
call.  Without it (the reference backend, no compiled engine, or more than
16 inputs), :func:`_factor_both_polarities` runs the same chain in Python
(:mod:`repro.synth.isop`, :mod:`repro.synth.factor`,
:meth:`~repro.synth.fragment.Fragment.from_expression`); it is the op's
reference, and both return the same fragment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.aig.aig import Aig
from repro.aig.literals import lit, lit_not
from repro.aig.reconv_cut import reconvergence_driven_cut
from repro.aig.truth import cut_truth_table, table_mask
from repro.backend import get_backend
from repro.synth.candidates import TransformCandidate
from repro.synth.factor import factor_pairs
from repro.synth.fragment import Fragment
from repro.synth.isop import isop_pairs
from repro.synth.mffc import mffc_nodes


#: Process-wide memo of factored refactoring fragments, keyed by
#: ``(truth table, num_vars)``: the refactoring analog of the rewriting
#: library, shared by every caller (sweep scoring, sequential passes,
#: transformability analysis, the rewriting library's own synthesis).  Cone
#: functions recur heavily across nodes, passes and sweeps, and the factored
#: form is a pure function of the table.  Fragments are mutated only while
#: they are built, so sharing them is safe.
_REFACTOR_FRAGMENTS: Dict[Tuple[int, int], Fragment] = {}


def refactor_fragment(table: int, num_vars: int) -> Fragment:
    """Factor ``table`` in both polarities and return the cheaper fragment.

    Memoized in :data:`_REFACTOR_FRAGMENTS`; the returned fragment is shared
    and must not be mutated.
    """
    key = (table & table_mask(num_vars), num_vars)
    fragment = _REFACTOR_FRAGMENTS.get(key)
    if fragment is None:
        fragment = _REFACTOR_FRAGMENTS[key] = _synthesize_fragment(*key)
    return fragment


def _synthesize_fragment(table: int, num_vars: int) -> Fragment:
    """A memo miss: the backend's compiled ``factored_fragment``, which
    declines without an engine and outside 1..16 inputs, else the Python
    chain :func:`_factor_both_polarities`, its reference."""
    factored = getattr(get_backend(), "factored_fragment", None)
    fragment = factored(table, num_vars) if factored is not None else None
    return fragment if fragment is not None else _factor_both_polarities(table, num_vars)


def _factor_both_polarities(table: int, num_vars: int) -> Fragment:
    positive = Fragment.from_expression(
        factor_pairs(isop_pairs(table, table, num_vars)), num_vars
    )
    complement = table ^ table_mask(num_vars)
    negative = Fragment.from_expression(
        factor_pairs(isop_pairs(complement, complement, num_vars)), num_vars
    )
    negative.output = lit_not(negative.output)
    return positive if positive.size <= negative.size else negative


@dataclass
class RefactorParams:
    """Tuning knobs of the refactoring transformation."""

    max_leaves: int = 10
    min_gain: int = 1
    use_zero_cost: bool = False
    min_cone_size: int = 2

    def effective_min_gain(self) -> int:
        return 0 if self.use_zero_cost else max(self.min_gain, 1)


def find_refactor_candidate(
    aig: Aig,
    node: int,
    params: Optional[RefactorParams] = None,
) -> Optional[TransformCandidate]:
    """Return a refactoring candidate at ``node`` or ``None`` (non-mutating)."""
    params = params or RefactorParams()
    if not aig.is_and(node):
        return None
    leaves = reconvergence_driven_cut(aig, node, max_leaves=params.max_leaves)
    if len(leaves) < 2 or node in leaves:
        return None
    deref = mffc_nodes(aig, node, leaves)
    if len(deref) < params.min_cone_size:
        return None
    num_vars = len(leaves)
    table = cut_truth_table(aig, node, leaves)

    fragment = refactor_fragment(table, num_vars)

    leaf_literals = [lit(leaf) for leaf in leaves]
    budget = len(deref) - params.effective_min_gain()
    if budget < 0:
        return None
    estimate = fragment.dry_run(aig, leaf_literals, deref, new_node_budget=budget)
    if estimate.new_nodes > budget:
        return None
    saved = len(deref) - estimate.reused_in(deref)
    gain = saved - estimate.new_nodes
    if estimate.output_literal is not None and (estimate.output_literal >> 1) == node:
        return None
    if gain < params.effective_min_gain():
        return None
    from repro.synth.rewrite import rewrite_candidate

    return rewrite_candidate(
        node, leaves, fragment, gain, deref, estimate.reused_nodes,
        params.effective_min_gain(), operation="rf",
    )
