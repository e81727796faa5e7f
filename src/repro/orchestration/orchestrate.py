"""Algorithm 1: orchestrated Boolean manipulation in a single AIG traversal.

Given a design ``G(V, E)`` and a per-node decision vector ``D``, the nodes are
visited in topological order; at each node the assigned operation is checked
for transformability and, if applicable, applied — updating the graph and
excluding the node (and any nodes swallowed by the update) from the remainder
of the traversal.  This is a faithful Python rendering of the pseudo-code in
Section III-B of the paper (which is implemented inside ABC by the authors).
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.aig.aig import Aig
from repro.orchestration.decision import DecisionVector, Operation
from repro.orchestration.transformability import OperationParams, find_candidate, params_tag
from repro.synth.sweep import CandidateTable, sweep_decisions


@dataclass
class OrchestrationResult:
    """Outcome of one orchestrated optimization run."""

    design: str
    size_before: int
    size_after: int
    depth_before: int
    depth_after: int
    applied_counts: Dict[Operation, int] = field(default_factory=dict)
    #: Nodes where the assigned operation was actually applied, keyed by the
    #: node id *of the network the decision vector referred to* (i.e. the
    #: original design when ``in_place=False``).  This is what the dynamic
    #: feature embedding of Section III-C consumes.
    applied_nodes: Dict[int, Operation] = field(default_factory=dict)
    skipped: int = 0
    runtime_seconds: float = 0.0

    @property
    def reduction(self) -> int:
        """Absolute AND-node reduction."""
        return self.size_before - self.size_after

    @property
    def size_ratio(self) -> float:
        """Optimized size divided by original size (Table I metric)."""
        if self.size_before == 0:
            return 1.0
        return self.size_after / self.size_before

    @property
    def total_applied(self) -> int:
        """Total number of transformations applied across all operations."""
        return sum(self.applied_counts.values())

    def __str__(self) -> str:
        ops = ", ".join(
            f"{operation.short_name}={count}"
            for operation, count in sorted(self.applied_counts.items())
        )
        return (
            f"orchestrate[{self.design}]: {self.size_before} -> {self.size_after} ANDs "
            f"({ops}, skipped={self.skipped}, {self.runtime_seconds:.2f}s)"
        )

    # JSON interchange (used by the artifact store and run reporting) ------ #
    def to_dict(self) -> Dict:
        """Return a JSON-serializable rendering of the result."""
        return {
            "design": self.design,
            "size_before": self.size_before,
            "size_after": self.size_after,
            "depth_before": self.depth_before,
            "depth_after": self.depth_after,
            "applied_counts": {
                str(int(operation)): count
                for operation, count in sorted(self.applied_counts.items())
            },
            "applied_nodes": {
                str(node): int(operation)
                for node, operation in sorted(self.applied_nodes.items())
            },
            "skipped": self.skipped,
            "runtime_seconds": self.runtime_seconds,
        }

    @staticmethod
    def from_dict(payload: Dict) -> "OrchestrationResult":
        """Rebuild a result previously rendered by :meth:`to_dict`."""
        return OrchestrationResult(
            design=payload["design"],
            size_before=payload["size_before"],
            size_after=payload["size_after"],
            depth_before=payload["depth_before"],
            depth_after=payload["depth_after"],
            applied_counts={
                Operation(int(key)): count
                for key, count in payload.get("applied_counts", {}).items()
            },
            applied_nodes={
                int(node): Operation(operation)
                for node, operation in payload.get("applied_nodes", {}).items()
            },
            skipped=payload.get("skipped", 0),
            runtime_seconds=payload.get("runtime_seconds", 0.0),
        )


#: source aig -> ((structure version, params tag), candidate table of its copies).
_COPY_TABLES: "weakref.WeakKeyDictionary[Aig, tuple]" = weakref.WeakKeyDictionary()


def copy_candidate_table(aig: Aig, params: Optional[OperationParams] = None) -> CandidateTable:
    """The first-sweep candidate table shared by every copy of ``aig``.

    Maps ``(copy node, "rw" | "rs" | "rf")`` to the finder's candidate on an
    unmutated :meth:`~repro.aig.aig.Aig.copy_with_mapping` copy (``None``
    when the node is not transformable); sweep scoring fills it lazily.  It
    is sound because every copy of an unchanged network is built by the same
    deterministic sequence, so copies agree on node ids, fanins and fanout
    iteration order, and because a candidate holds only ints and fragments:
    ``apply`` and ``revalidate`` take the target network as an argument.
    Kept apart from :func:`~repro.orchestration.transformability.analyze_network`
    of the source itself, whose fanout order depends on its own
    construction history.  Rebuilt after a structural edit of ``aig`` or
    under different parameters.  Concurrent fills need no lock: an entry
    is a deterministic function of its key, so a race only repeats a
    finder call.
    """
    tag = (aig.modification_count, params_tag(params))
    entry = _COPY_TABLES.get(aig)
    if entry is None or entry[0] != tag:
        entry = (tag, {})
        _COPY_TABLES[aig] = entry
    return entry[1]


def orchestrate(
    aig: Aig,
    decisions: DecisionVector,
    params: Optional[OperationParams] = None,
    in_place: bool = True,
    strategy: str = "sweep",
) -> OrchestrationResult:
    """Run Algorithm 1 on ``aig`` under the decision vector ``decisions``.

    Parameters
    ----------
    aig:
        The network to optimize.  Modified in place unless ``in_place=False``
        (in which case the caller receives statistics about a copy and the
        original is untouched — convenient for sampling many decisions).
    decisions:
        Per-node operation assignment; nodes without an assignment are skipped.
    params:
        Optional tuning parameters for the underlying operations.  With
        ``in_place=False`` the first sweep reads and fills
        :func:`copy_candidate_table`, so many decision vectors on one
        unchanged design score each (node, operation) once.
    strategy:
        ``"sweep"`` (default) scores every assigned node against one frozen
        kernel snapshot and commits a maximal footprint-disjoint set of
        winners per sweep (:mod:`repro.synth.sweep`); ``"sequential"`` is
        the literal single-traversal rendering of the paper's pseudo-code,
        kept as the behavioural reference.  Both are deterministic and
        function-preserving.

    Returns
    -------
    OrchestrationResult
        Before/after metrics and per-operation application counts.  When
        ``in_place=False`` the optimized copy is available as
        ``result.optimized``.
    """
    if strategy not in ("sweep", "sequential"):
        raise ValueError(
            f"unknown orchestration strategy {strategy!r}; "
            "expected 'sweep' or 'sequential'"
        )
    params = params or OperationParams()
    reverse_map: Optional[Dict[int, int]] = None
    if in_place:
        target = aig
    else:
        # A copy re-numbers nodes, so the decision vector (indexed by the
        # original ids) must be carried across through the copy's node map.
        target, node_map = aig.copy_with_mapping()
        remapped = DecisionVector()
        reverse_map = {}
        for node, operation in decisions.items():
            new_node = node_map.get(node)
            if new_node is not None and target.is_and(new_node):
                remapped[new_node] = operation
                reverse_map.setdefault(new_node, node)
        decisions = remapped
    size_before = target.size
    depth_before = target.depth()
    start = time.perf_counter()
    applied: Dict[Operation, int] = {operation: 0 for operation in Operation}
    applied_nodes: Dict[int, Operation] = {}
    skipped = 0

    if strategy == "sweep":
        # Batched rendering: score the assigned operation of every node
        # against one frozen snapshot, commit footprint-disjoint winners,
        # repeat until no candidate commits.
        table = None if in_place else copy_candidate_table(aig, params)
        report = sweep_decisions(target, decisions, params, table=table)
        for candidate in report.committed:
            operation = decisions.get(candidate.node)
            if operation is None:  # pragma: no cover - defensive
                continue
            applied[operation] += 1
            original_node = (
                candidate.node
                if reverse_map is None
                else reverse_map.get(candidate.node)
            )
            if original_node is not None:
                applied_nodes[original_node] = operation
        skipped = size_before - report.applied
    else:
        # Topological order snapshot: nodes swallowed by earlier updates are
        # detected through the liveness check (line 7 of Algorithm 1
        # "excludes" them from V).
        for node in target.topological_order():
            if not target.has_node(node) or not target.is_and(node):
                continue
            operation = decisions.get(node)
            if operation is None:
                skipped += 1
                continue
            candidate = find_candidate(target, node, operation, params)
            if candidate is None:
                # Line 5: the node is not transformable w.r.t. D[v]; skip it.
                skipped += 1
                continue
            # Lines 3 and 7: apply the operation and update the network.
            candidate.apply(target)
            applied[operation] += 1
            original_node = node if reverse_map is None else reverse_map.get(node)
            if original_node is not None:
                applied_nodes[original_node] = operation
    target.cleanup()
    runtime = time.perf_counter() - start

    result = OrchestrationResult(
        design=target.name,
        size_before=size_before,
        size_after=target.size,
        depth_before=depth_before,
        depth_after=target.depth(),
        applied_counts=applied,
        applied_nodes=applied_nodes,
        skipped=skipped,
        runtime_seconds=runtime,
    )
    if not in_place:
        result.optimized = target  # type: ignore[attr-defined]
    return result


def evaluate_decisions(
    aig: Aig,
    decision_vectors: List[DecisionVector],
    params: Optional[OperationParams] = None,
    strategy: str = "sweep",
) -> List[OrchestrationResult]:
    """Evaluate many decision vectors against (copies of) the same design."""
    return [
        orchestrate(aig, decisions, params=params, in_place=False, strategy=strategy)
        for decisions in decision_vectors
    ]
