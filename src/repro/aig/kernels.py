"""Levelized array-backed kernels over an :class:`~repro.aig.aig.Aig`.

The optimization inner loops — bit-parallel simulation, cut enumeration,
truth-table construction — all walk the network node by node.  On top of the
pointer-ish :class:`Aig` this means one Python dict/set operation per node,
which dominates the runtime of every pass.  This module provides a *levelized
struct-of-arrays* snapshot of a network:

* dense numpy ``int64`` arrays with the fanin variables of every live AND
  node and ``uint64`` complement masks, ordered level-major (within a level by
  node id),
* CSR-style per-level offsets, so a whole level can be processed with a
  handful of vectorized numpy operations instead of a per-node loop,
* the PI / PO interface as arrays (pattern-row map, driver variables, driver
  complement masks),
* the plain DFS topological order (shared with the scalar code paths).

Each network holds the snapshot of its current version, validated against
its structural version counter (:attr:`Aig.modification_count`), so repeated
simulations / enumerations of an unchanged network reuse the arrays while any
structural edit drops them.  The snapshot is left out of the network's
pickle, which keeps the canonical pickle representation (relied on by the
parallel evaluator for byte-identical results) untouched.
"""

from __future__ import annotations

import weakref
from itertools import chain
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.aig.literals import lit_is_compl, lit_var

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.aig.aig import Aig

#: All-ones uint64 word, the complement mask of an inverted edge.
_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)


# --------------------------------------------------------------------------- #
# Cached DFS topological order
# --------------------------------------------------------------------------- #
_TOPO_CACHE: "weakref.WeakKeyDictionary[Aig, Tuple[int, List[int]]]" = (
    weakref.WeakKeyDictionary()
)


def cached_topological_order(aig: "Aig") -> List[int]:
    """Return ``aig.topological_order()``, cached per structural version.

    The returned list is shared between callers and MUST NOT be mutated.  It
    is recomputed automatically whenever the network's
    :attr:`~repro.aig.aig.Aig.modification_count` advances.
    """
    entry = _TOPO_CACHE.get(aig)
    if entry is None or entry[0] != aig.modification_count:
        entry = (aig.modification_count, aig.topological_order())
        _TOPO_CACHE[aig] = entry
    return entry[1]


# --------------------------------------------------------------------------- #
# The levelized struct-of-arrays view
# --------------------------------------------------------------------------- #
class LevelizedAig:
    """Immutable struct-of-arrays snapshot of one :class:`Aig` version.

    Attributes
    ----------
    version:
        ``aig.modification_count`` at build time (cache validity tag).
    num_slots:
        Size of the node id space, including freed slots; row ``i`` of the
        simulation matrix corresponds to node id ``i``.
    topo_order:
        The DFS topological order of live AND nodes, as plain Python ints
        (shared with the scalar code paths; do not mutate).
    and_ids / fanin0_var / fanin1_var / fanin0_mask / fanin1_mask:
        Parallel arrays over live AND nodes in level-major order (within a
        level ordered by node id).  The masks are ``0`` or all-ones ``uint64``
        words encoding the fanin edge complement.
    levels:
        Per-slot logic level (PIs, the constant and freed slots are 0).
    level_offsets:
        CSR offsets into the AND arrays: the nodes of level ``l`` (1-based)
        occupy ``and_ids[level_offsets[l - 1]:level_offsets[l]]``.
    pi_ids:
        PI node ids in creation order (row ``k`` of a pattern matrix feeds
        ``pi_ids[k]``).
    po_vars / po_masks:
        PO driver variables and complement masks, in PO creation order.
    """

    __slots__ = (
        "version",
        "num_slots",
        "num_pis",
        "num_pos",
        "topo_order",
        "and_ids",
        "fanin0_var",
        "fanin1_var",
        "fanin0_mask",
        "fanin1_mask",
        "levels",
        "level_offsets",
        "pi_ids",
        "po_vars",
        "po_masks",
        "_level_ops",
        "_value_ids",
        "_value_ids_array",
        "_first_encounter_order",
        "_fanin0_list",
        "_fanin1_list",
        "_is_and_list",
        "_ref_counts",
        "_fanout_order",
    )

    def __init__(self, aig: "Aig") -> None:
        self.version = aig.modification_count
        self.num_slots = aig.num_nodes()
        self.num_pis = aig.num_pis()
        self.num_pos = aig.num_pos()
        topo = cached_topological_order(aig)
        self.topo_order = topo

        # Logic levels (one scalar pass over the topological order).
        levels = [0] * self.num_slots
        fanin0 = aig._fanin0
        fanin1 = aig._fanin1
        for node in topo:
            l0 = levels[fanin0[node] >> 1]
            l1 = levels[fanin1[node] >> 1]
            levels[node] = (l0 if l0 >= l1 else l1) + 1
        self.levels = np.array(levels, dtype=np.int64)

        # Level-major AND arrays.
        and_ids = np.array(topo, dtype=np.int64) if topo else np.zeros(0, np.int64)
        and_levels = self.levels[and_ids]
        order = np.lexsort((and_ids, and_levels))
        and_ids = and_ids[order]
        and_levels = and_levels[order]
        f0 = np.array(fanin0, dtype=np.int64)[and_ids]
        f1 = np.array(fanin1, dtype=np.int64)[and_ids]
        self.and_ids = and_ids
        self.fanin0_var = f0 >> 1
        self.fanin1_var = f1 >> 1
        self.fanin0_mask = np.where(f0 & 1, _FULL_WORD, np.uint64(0))
        self.fanin1_mask = np.where(f1 & 1, _FULL_WORD, np.uint64(0))

        depth = int(and_levels[-1]) if and_ids.size else 0
        self.level_offsets = np.searchsorted(
            and_levels, np.arange(1, depth + 2, dtype=np.int64)
        )
        # Pre-sliced per-level views so simulation does no slicing per call.
        ops = []
        start = 0
        for stop in self.level_offsets:
            stop = int(stop)
            if stop > start:
                ops.append(
                    (
                        self.and_ids[start:stop],
                        self.fanin0_var[start:stop],
                        self.fanin0_mask[start:stop, None],
                        self.fanin1_var[start:stop],
                        self.fanin1_mask[start:stop, None],
                    )
                )
            start = stop
        self._level_ops = ops

        self.pi_ids = np.array(aig.pis(), dtype=np.int64)
        # Node ids carrying a signature (constant, PIs, live ANDs) — the key
        # set of the signature-dictionary view, in the historical order.
        self._value_ids = [0] + list(aig.pis()) + topo
        self._value_ids_array = np.array(self._value_ids, dtype=np.int64)
        # Lazily built by first_encounter_order(): the DFS sweep order with
        # fanin leaves interleaved at first encounter (cut-result key order).
        self._first_encounter_order: List[int] = []
        # Lazily built by ensure_node_arrays(): plain-list fanin/fanout and
        # reference-count snapshots for the scalar inner loops of the
        # sweep-and-commit scorers (MFFC walks) and the native kernels.
        self._fanin0_list: List[int] = []
        self._fanin1_list: List[int] = []
        self._is_and_list: List[bool] = []
        self._ref_counts: List[int] = []
        # Lazily built by fanout_order().
        self._fanout_order = None
        pos = aig.pos()
        self.po_vars = np.array([lit_var(d) for d in pos], dtype=np.int64)
        self.po_masks = np.array(
            [_FULL_WORD if lit_is_compl(d) else np.uint64(0) for d in pos],
            dtype=np.uint64,
        )

    # ------------------------------------------------------------------ #
    # Vectorized kernels
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Largest AND level (0 for a network without AND nodes)."""
        return len(self._level_ops)

    def simulate(self, pi_patterns: np.ndarray) -> np.ndarray:
        """Propagate ``pi_patterns`` level by level; return the value matrix.

        Parameters
        ----------
        pi_patterns:
            ``(num_pis, num_words)`` uint64 matrix, one row per PI in
            creation order.

        Returns
        -------
        numpy.ndarray
            ``(num_slots, num_words)`` uint64 matrix; row ``i`` is the
            signature of node id ``i`` (freed slots stay all-zero).
        """
        patterns = np.asarray(pi_patterns, dtype=np.uint64)
        num_words = patterns.shape[1] if patterns.ndim == 2 else 1
        values = np.zeros((self.num_slots, num_words), dtype=np.uint64)
        if self.pi_ids.size:
            values[self.pi_ids] = patterns
        # One CSR level at a time: values[ids] = (values[f0v] ^ f0m) & (values[f1v] ^ f1m).
        for ids, f0v, f0m, f1v, f1m in self._level_ops:
            v0 = values[f0v]
            v0 ^= f0m
            v1 = values[f1v]
            v1 ^= f1m
            v0 &= v1
            values[ids] = v0
        return values

    def first_encounter_order(self, aig: "Aig") -> List[int]:
        """DFS-topological sweep order with fanin leaves interleaved.

        This is the key insertion order of bottom-up cut enumeration (each
        fanin leaf appears right before its first user, each AND node after
        its fanins); it only depends on structure, so it is computed once per
        snapshot.  ``aig`` must be the network this view was built from.  The
        returned list is shared — do not mutate.
        """
        if not self._first_encounter_order and self.topo_order:
            fanin0 = aig._fanin0
            fanin1 = aig._fanin1
            order: List[int] = []
            seen = set()
            for node in self.topo_order:
                f0 = fanin0[node] >> 1
                f1 = fanin1[node] >> 1
                if f0 not in seen:
                    seen.add(f0)
                    order.append(f0)
                if f1 not in seen:
                    seen.add(f1)
                    order.append(f1)
                seen.add(node)
                order.append(node)
            self._first_encounter_order = order
        return self._first_encounter_order

    # ------------------------------------------------------------------ #
    # Incremental sweep hooks: fanout / MFFC arrays
    # ------------------------------------------------------------------ #
    def ensure_node_arrays(self, aig: "Aig") -> None:
        """Populate the plain-list structure snapshots (idempotent).

        ``aig`` must be the network this view was built from, still at the
        snapshot version.  The lists mirror the per-node storage of the
        network — fanin literals, AND-liveness and total reference counts
        (fanouts + PO uses) — and give the MFFC walks of the sweep scorers
        and the native backend's kernels plain list indexing instead of
        method calls on the mutable network.
        """
        if self._ref_counts:
            return
        if aig.modification_count != self.version:
            raise RuntimeError(
                "LevelizedAig.ensure_node_arrays: network has been modified "
                "since this snapshot was built"
            )
        from repro.aig.aig import NodeType

        self._fanin0_list = list(aig._fanin0)
        self._fanin1_list = list(aig._fanin1)
        and_type = NodeType.AND
        self._is_and_list = [t == and_type for t in aig._type]
        po_refs = aig._po_refs
        self._ref_counts = [
            len(fanouts) + po_refs[node]
            for node, fanouts in enumerate(aig._fanouts)
        ]

    def fanout_order(self, aig: "Aig") -> Tuple[np.ndarray, np.ndarray]:
        """Every slot's fanouts in the iteration order of its fanout set.

        ``(offsets, ids)`` in CSR form: node ``n``'s fanouts are
        ``ids[offsets[n]:offsets[n + 1]]``, in the order ``Aig.fanouts(n)``
        yields them, which decides the window walk of resubstitution.
        Computed once per snapshot; ``aig`` must be the network this view was
        built from, still at the snapshot version.
        """
        if self._fanout_order is None:
            if aig.modification_count != self.version:
                raise RuntimeError(
                    "LevelizedAig.fanout_order: network has been modified "
                    "since this snapshot was built"
                )
            fanouts = aig._fanouts
            offsets = np.zeros(len(fanouts) + 1, dtype=np.int64)
            np.cumsum([len(nodes) for nodes in fanouts], out=offsets[1:])
            ids = np.fromiter(chain.from_iterable(fanouts), np.int64, int(offsets[-1]))
            self._fanout_order = (offsets, ids)
        return self._fanout_order

    def mffc_nodes(self, root: int, leaves=()) -> set:
        """Array-backed maximum fanout-free cone of ``root`` bounded by ``leaves``.

        Mirrors :func:`repro.synth.mffc.mffc_nodes` exactly (the root is
        always included; recursion stops at PIs, constants and ``leaves``)
        but walks the snapshot lists, so it can be called once per candidate
        cut during batched scoring without touching the mutable network.
        :meth:`ensure_node_arrays` must have been called.
        """
        is_and = self._is_and_list
        if not is_and[root]:
            return set()
        fanin0 = self._fanin0_list
        fanin1 = self._fanin1_list
        refs = self._ref_counts
        leaf_set = set(leaves)
        freed = set()
        remaining: dict = {}
        stack = [root]
        while stack:
            current = stack.pop()
            freed.add(current)
            for fanin in (fanin0[current] >> 1, fanin1[current] >> 1):
                if not is_and[fanin] or fanin in leaf_set or fanin in freed:
                    continue
                count = remaining.get(fanin)
                if count is None:
                    count = refs[fanin]
                remaining[fanin] = count - 1
                if count == 1:
                    stack.append(fanin)
        return freed

    def value_dict(self, values: np.ndarray) -> dict:
        """Present a value matrix as the historical node -> signature dict.

        One vectorized gather plus a C-level ``dict(zip(...))`` — no per-node
        Python indexing.  The dictionary values are rows of one shared matrix.
        """
        return dict(zip(self._value_ids, values[self._value_ids_array]))

    def gather_outputs(self, values: np.ndarray) -> np.ndarray:
        """Extract the ``(num_pos, num_words)`` PO signatures from ``values``."""
        if not self.po_vars.size:
            return np.zeros((0, values.shape[1]), dtype=np.uint64)
        return values[self.po_vars] ^ self.po_masks[:, None]


def expand_region(aig: "Aig", seeds, radius: int, fanout_only: bool = False) -> set:
    """Live nodes within ``radius`` steps of any node in ``seeds``.

    Works on the *current* (possibly just-mutated) network, skipping freed
    seed ids.  The sweep engine uses this after committing a batch of
    transformations: only nodes inside the returned region need to be
    re-scored against the fresh snapshot, everything else keeps its carried
    candidate (or its established non-candidacy).  With ``fanout_only`` the
    expansion follows fanout edges exclusively — the right direction for
    candidate invalidation, since a node's candidate depends on its
    transitive *fanin* cone, i.e. a structural change can only affect the
    candidates of nodes in its fanout cone.
    """
    region = {node for node in seeds if aig.has_node(node)}
    frontier = list(region)
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    fanouts = aig._fanouts
    for _ in range(max(0, radius)):
        if not frontier:
            break
        next_frontier = []
        for node in frontier:
            neighbors = list(fanouts[node])
            if not fanout_only and aig.is_and(node):
                neighbors.append(fanin0[node] >> 1)
                neighbors.append(fanin1[node] >> 1)
            for neighbor in neighbors:
                if neighbor not in region and aig.has_node(neighbor):
                    region.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return region


def levelized(aig: "Aig") -> LevelizedAig:
    """Return the cached :class:`LevelizedAig` snapshot of ``aig``.

    The snapshot is rebuilt whenever the structural version counter advances;
    every mutation — including :meth:`Aig.add_po` — bumps it and drops the
    network's reference to the old snapshot.
    """
    view = aig._view
    if view is None or view.version != aig.modification_count:
        view = aig._view = LevelizedAig(aig)
    return view
