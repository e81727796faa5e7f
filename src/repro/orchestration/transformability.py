"""Per-node, per-operation transformability checks with local gain.

Algorithm 1 asks, at every node, whether the node is *transformable with
respect to the assigned operation*; the static feature embedding additionally
needs the transformability and local gain of **all three** operations at every
node (feature bits 3–8 in Figure 3 of the paper).  Both are answered here by
the non-mutating candidate finders of :mod:`repro.synth`: per node by
:func:`analyze_node`, and for a whole network by :func:`analyze_network`
through the batched scorers of :mod:`repro.synth.sweep`, which return the
finders' candidates.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass
from typing import Dict, Optional

from repro.aig.aig import Aig
from repro.aig.kernels import cached_topological_order
from repro.orchestration.decision import Operation
from repro.synth import sweep
from repro.synth.candidates import TransformCandidate
from repro.synth.refactor import RefactorParams, find_refactor_candidate
from repro.synth.resub import ResubParams, find_resub_candidate
from repro.synth.rewrite import RewriteParams, find_rewrite_candidate
from repro.synth.rewrite_lib import DEFAULT_LIBRARY


@dataclass
class OperationParams:
    """Bundle of tuning parameters for the three orchestrated operations."""

    rewrite: RewriteParams = None
    resub: ResubParams = None
    refactor: RefactorParams = None

    def __post_init__(self) -> None:
        self.rewrite = self.rewrite or RewriteParams()
        self.resub = self.resub or ResubParams()
        self.refactor = self.refactor or RefactorParams()


def params_tag(params: Optional[OperationParams]) -> str:
    """Deterministic textual tag of the operation parameters.

    The shared cache key of every per-design memo derived from the
    candidate finders (transformability analysis, copy candidate tables,
    feature contexts): two parameter bundles with equal tags yield equal
    finder results.
    """
    return repr(dataclasses.asdict(params or OperationParams()))


@dataclass
class NodeTransformability:
    """Transformability and local gain of every operation at one node.

    ``gain`` values follow the paper's convention: the estimated AIG node
    reduction if the operation were applied at this node, or ``-1`` when the
    operation is not applicable.
    """

    node: int
    rewrite_applicable: bool
    rewrite_gain: int
    resub_applicable: bool
    resub_gain: int
    refactor_applicable: bool
    refactor_gain: int

    def applicable(self, operation: Operation) -> bool:
        """Return whether ``operation`` can be applied at this node."""
        return {
            Operation.REWRITE: self.rewrite_applicable,
            Operation.RESUB: self.resub_applicable,
            Operation.REFACTOR: self.refactor_applicable,
        }[operation]

    def gain(self, operation: Operation) -> int:
        """Return the local gain of ``operation`` (``-1`` when not applicable)."""
        return {
            Operation.REWRITE: self.rewrite_gain,
            Operation.RESUB: self.resub_gain,
            Operation.REFACTOR: self.refactor_gain,
        }[operation]

    def best_operation(self) -> Optional[Operation]:
        """Return the applicable operation with the highest gain (ties: rw > rs > rf)."""
        best: Optional[Operation] = None
        best_gain = -1
        for operation in (Operation.REWRITE, Operation.RESUB, Operation.REFACTOR):
            if self.applicable(operation) and self.gain(operation) > best_gain:
                best = operation
                best_gain = self.gain(operation)
        return best


def find_candidate(
    aig: Aig,
    node: int,
    operation: Operation,
    params: Optional[OperationParams] = None,
) -> Optional[TransformCandidate]:
    """Return the candidate of ``operation`` at ``node`` (``None`` when not applicable)."""
    params = params or OperationParams()
    if operation == Operation.REWRITE:
        return find_rewrite_candidate(aig, node, params.rewrite)
    if operation == Operation.RESUB:
        return find_resub_candidate(aig, node, params.resub)
    return find_refactor_candidate(aig, node, params.refactor)


def analyze_node(
    aig: Aig, node: int, params: Optional[OperationParams] = None
) -> NodeTransformability:
    """Check all three operations at ``node`` and report applicability + gain."""
    params = params or OperationParams()
    return _transformability(
        node,
        {operation: find_candidate(aig, node, operation, params) for operation in Operation},
    )


def _transformability(
    node: int, results: Dict[Operation, Optional[TransformCandidate]]
) -> NodeTransformability:
    """``node``'s report from its candidate (or ``None``) per operation."""

    def unpack(operation: Operation):
        candidate = results[operation]
        if candidate is None:
            return False, -1
        return True, candidate.gain

    rw_ok, rw_gain = unpack(Operation.REWRITE)
    rs_ok, rs_gain = unpack(Operation.RESUB)
    rf_ok, rf_gain = unpack(Operation.REFACTOR)
    return NodeTransformability(
        node=node,
        rewrite_applicable=rw_ok,
        rewrite_gain=rw_gain,
        resub_applicable=rs_ok,
        resub_gain=rs_gain,
        refactor_applicable=rf_ok,
        refactor_gain=rf_gain,
    )


#: aig -> ((structure version, params tag), analysis); weak keys so the
#: analysis dies with its design.
_ANALYSIS_CACHE: "weakref.WeakKeyDictionary[Aig, tuple]" = weakref.WeakKeyDictionary()


def analyze_network(
    aig: Aig, params: Optional[OperationParams] = None
) -> Dict[int, NodeTransformability]:
    """:func:`analyze_node` of every AND node (used for static features).

    The analysis never mutates the network, so it scores all nodes at once
    with the batched scorers, which return each node's finder candidate:
    rewriting over every node's local-region cuts (the finder's, not the
    global enumeration of :func:`~repro.synth.sweep.score_rewrites`),
    resubstitution with :func:`~repro.synth.sweep.score_resubs` and
    refactoring with :func:`~repro.synth.sweep.score_refactors`.  The result
    is cached per network and recomputed only after a structural edit (the
    modification counter advances) or under different operation parameters,
    so the sampler and the static features of one design share a single
    analysis.  The returned mapping is shared and MUST NOT be mutated.
    """
    tag = (aig.modification_count, params_tag(params))
    entry = _ANALYSIS_CACHE.get(aig)
    if entry is not None and entry[0] == tag:
        return entry[1]
    params = params or OperationParams()
    nodes = cached_topological_order(aig)
    library = params.rewrite.library if params.rewrite.library is not None else DEFAULT_LIBRARY
    found = {
        Operation.REWRITE: sweep._score_local_rewrites(
            aig, list(nodes), params.rewrite, library, None
        ),
        Operation.RESUB: sweep.score_resubs(aig, None, params.resub),
        Operation.REFACTOR: sweep.score_refactors(aig, None, params.refactor),
    }
    analysis = {
        node: _transformability(
            node, {operation: found[operation].get(node) for operation in Operation}
        )
        for node in nodes
    }
    _ANALYSIS_CACHE[aig] = (tag, analysis)
    return analysis
