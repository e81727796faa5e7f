"""K-feasible cut enumeration (priority cuts).

A *cut* of node ``v`` is a set of nodes (its *leaves*) such that every path
from a primary input to ``v`` passes through a leaf.  Rewriting enumerates
4-feasible cuts bottom-up by merging the cuts of the two fanins, exactly as in
ABC's cut manager, with a per-node limit on the number of stored cuts
(priority cuts) to keep the enumeration linear in practice.

The merge core works on integer bitmask *leaf signatures*, ABC-style: every
cut carries a 64-bit signature with bit ``leaf % 64`` set for each leaf, so
infeasible merges are rejected with one OR + popcount and domination
(``sig0 & sig1 == sig0`` is necessary for ``leaves0 ⊆ leaves1``) is
pre-filtered before the exact subset check.  Per node the enumeration keeps
three parallel arrays (leaf tuples, signatures, leaf sets) instead of building
a frozen :class:`Cut` object per merge attempt; :class:`Cut` objects are only
materialized for the final result.  The historical object-per-merge
implementation is retained as :meth:`CutEnumerator.enumerate_reference`; both
paths produce identical cut lists in identical order, which the test-suite
asserts (it also keeps an object-per-merge oracle for :func:`local_cuts`).

:func:`local_cuts` has a compiled twin: the native backend's
``local_cut_tables`` op replays it step for step, for a batch of roots at
once, and returns each cut's truth table with it (see
:func:`repro.synth.sweep.score_rewrites`).
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.aig.aig import Aig
from repro.aig.kernels import levelized
from repro.aig.literals import lit_var
from repro.backend import get_backend


@dataclass(frozen=True)
class Cut:
    """An immutable cut: a root node and a sorted tuple of leaf node ids."""

    root: int
    leaves: Tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of leaves of the cut."""
        return len(self.leaves)

    def is_trivial(self) -> bool:
        """A trivial cut contains just the root itself."""
        return self.leaves == (self.root,)

    def dominates(self, other: "Cut") -> bool:
        """Return whether this cut's leaves are a subset of ``other``'s."""
        return set(self.leaves).issubset(other.leaves)


@dataclass
class CutSet:
    """The priority cuts stored for one node."""

    node: int
    cuts: List[Cut] = field(default_factory=list)

    def add(self, cut: Cut, limit: int) -> None:
        """Insert ``cut`` unless dominated; drop cuts it dominates; enforce ``limit``."""
        for existing in self.cuts:
            if existing.dominates(cut):
                return
        self.cuts = [c for c in self.cuts if not cut.dominates(c)]
        self.cuts.append(cut)
        if len(self.cuts) > limit:
            # Keep the smallest cuts (ties broken by leaf ids for determinism).
            self.cuts.sort(key=lambda c: (c.size, c.leaves))
            self.cuts = self.cuts[:limit]


# --------------------------------------------------------------------------- #
# Bitset merge core
# --------------------------------------------------------------------------- #
#: Per-node cut storage: parallel lists of (sorted leaf tuple, 64-bit folded
#: signature, exact leaf frozenset).  The trivial cut is always last.
_CutLists = Tuple[List[Tuple[int, ...]], List[int], List[FrozenSet[int]]]

try:  # Python >= 3.10: C-level popcount of the 64-bit folded signature.
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - exercised only on Python 3.9
    def _popcount(value: int) -> int:
        return bin(value).count("1")


def _leaf_entry(node: int) -> _CutLists:
    """The cut storage of a leaf (PI / constant / region boundary): itself."""
    return [(node,)], [1 << (node & 63)], [frozenset((node,))]


def _insert_cut(
    out_leaves: List[Tuple[int, ...]],
    out_sigs: List[int],
    out_sets: List[FrozenSet[int]],
    out_keys: List[Tuple[int, Tuple[int, ...]]],
    merged: FrozenSet[int],
    sig: int,
    limit: int,
    sorted_len: int,
    leaves: Optional[Tuple[int, ...]] = None,
) -> int:
    """Insert a feasible merged cut, replicating :meth:`CutSet.add` exactly.

    Mutates the four parallel lists in place and returns the updated length of
    their leading sorted run (used to turn the common overflow case — one
    append onto an already sorted list — into a bisect insert instead of a
    full re-sort; a stable sort of ``sorted + [new]`` is exactly a
    ``bisect_right`` insertion of ``new``).

    The stored cuts always form an antichain under leaf-set inclusion, so one
    scan can both look for a dominating existing cut (reject) and collect cuts
    dominated by the merged one (drop): the two conditions can never hold for
    different stored cuts, because that would order two stored cuts by
    inclusion.
    """
    length = len(out_keys)
    if length > limit - 1 and sorted_len == length:
        # The list is at capacity and fully sorted: a candidate whose key is
        # not smaller than the current maximum is a guaranteed no-op.  It
        # cannot drop a stored cut (a dominated cut would have to be of equal
        # size, hence equal, which triggers rejection instead), and a stable
        # sort would park it last, where the truncation removes it again.
        last_key = out_keys[-1]
        size = len(merged)
        if size > last_key[0]:
            return sorted_len
        if size == last_key[0]:
            if leaves is None:
                leaves = tuple(sorted(merged))
            if (size, leaves) >= last_key:
                return sorted_len
    any_drop = False
    for sig_e, set_e in zip(out_sigs, out_sets):
        inter = sig_e & sig
        if inter == sig_e and set_e <= merged:
            return sorted_len  # an existing cut dominates the merged one
        if inter == sig and merged <= set_e:
            any_drop = True  # the merged cut dominates this one
    if any_drop:
        # Rare (a fraction of a percent of inserts): re-scan with indices to
        # delete the dominated cuts.
        for index_e in range(len(out_sigs) - 1, -1, -1):
            sig_e = out_sigs[index_e]
            if sig & sig_e == sig and merged <= out_sets[index_e]:
                del out_leaves[index_e]
                del out_sigs[index_e]
                del out_sets[index_e]
                del out_keys[index_e]
                if index_e < sorted_len:
                    sorted_len -= 1
    if leaves is None:
        leaves = tuple(sorted(merged))
    key = (len(leaves), leaves)
    out_leaves.append(leaves)
    out_sigs.append(sig)
    out_sets.append(merged)
    out_keys.append(key)
    length = len(out_keys)
    if length > limit:
        if sorted_len >= length - 1:
            # Sorted prefix + one appended element: stable-sort-and-truncate
            # reduces to inserting the tail after its equals and dropping the
            # now-largest last element.
            position = bisect_right(out_keys, key, 0, length - 1)
            for out in (out_leaves, out_sigs, out_sets, out_keys):
                out.insert(position, out.pop())
                del out[-1]
        else:
            # Stable sort by (size, leaves) and truncate — all C-level:
            # equal keys fall back to the index, preserving arrival order.
            order = sorted(zip(out_keys, range(length)))[:limit]
            out_leaves[:] = [out_leaves[i] for _, i in order]
            out_sigs[:] = [out_sigs[i] for _, i in order]
            out_sets[:] = [out_sets[i] for _, i in order]
            out_keys[:] = [k_ for k_, _ in order]
        sorted_len = limit
    return sorted_len


def _merge_cut_lists(set0: _CutLists, set1: _CutLists, k: int, limit: int) -> _CutLists:
    """Merge the cut lists of two fanins into a node's (non-trivial) cut list.

    Replicates :meth:`CutSet.add` insertion semantics exactly — domination
    checks, drop-dominated filtering and the sort-and-truncate limit — so the
    resulting cuts match the reference implementation element for element.
    """
    leaves0, sigs0, sets0 = set0
    leaves1, sigs1, sets1 = set1
    out_leaves: List[Tuple[int, ...]] = []
    out_sigs: List[int] = []
    out_sets: List[FrozenSet[int]] = []
    out_keys: List[Tuple[int, Tuple[int, ...]]] = []
    sorted_len = 0
    for index_a in range(len(sigs0)):
        sig_a = sigs0[index_a]
        set_a = sets0[index_a]
        for index_b in range(len(sigs1)):
            sig = sig_a | sigs1[index_b]
            if _popcount(sig) > k:
                # The folded signature's popcount lower-bounds the true leaf
                # count: more than k distinct residues means more than k
                # leaves, no exact union needed.
                continue
            set_b = sets1[index_b]
            merged = set_a | set_b
            size = len(merged)
            if size > k:
                continue
            # merged ⊇ set_a and ⊇ set_b, so a size match means equality:
            # reuse the fanin's sorted leaf tuple instead of re-sorting.
            if size == len(set_a):
                leaves = leaves0[index_a]
            elif size == len(set_b):
                leaves = leaves1[index_b]
            else:
                leaves = None
            sorted_len = _insert_cut(
                out_leaves, out_sigs, out_sets, out_keys, merged, sig, limit,
                sorted_len, leaves,
            )
    return out_leaves, out_sigs, out_sets


#: Padding signature for unused cut slots in the level matrices: popcount 64
#: fails the k-feasibility prefilter for every practical k, so padded slots
#: never reach the Python merge loop.
_PAD_SIG = np.uint64(0xFFFFFFFFFFFFFFFF)


def _append_trivial(node: int, lists: _CutLists) -> _CutLists:
    """Append the trivial cut ``{node}`` (never dominated: the root cannot be
    a leaf of its own non-trivial cuts in an acyclic network)."""
    leaves, sigs, sets = lists
    leaves.append((node,))
    sigs.append(1 << (node & 63))
    sets.append(frozenset((node,)))
    return lists


# Memoized full-network enumerations for node_cuts(), keyed per network by
# (k, cuts_per_node) and validated against the structural version counter.
_NODE_CUTS_CACHE: "weakref.WeakKeyDictionary[Aig, Dict[Tuple[int, int], Tuple[int, Dict[int, List[Cut]]]]]" = (
    weakref.WeakKeyDictionary()
)


class CutEnumerator:
    """Bottom-up K-feasible cut enumeration over an :class:`Aig`.

    Parameters
    ----------
    k:
        Maximum number of leaves per cut (4 for rewriting).
    cuts_per_node:
        Priority-cut limit: at most this many non-trivial cuts are kept per
        node.  Larger values explore more rewriting candidates at the cost of
        run time.
    """

    def __init__(self, k: int = 4, cuts_per_node: int = 8) -> None:
        if k < 2:
            raise ValueError("cut size must be at least 2")
        if k > 63:
            # The 64-bit folded signatures (and the always-infeasible padding
            # of the level matrices, popcount 64) require k < 64.
            raise ValueError("cut size must be below 64")
        self.k = k
        self.cuts_per_node = cuts_per_node

    def enumerate(self, aig: Aig, nodes: Optional[Sequence[int]] = None) -> Dict[int, List[Cut]]:
        """Enumerate cuts for ``nodes`` (default: every AND node) and return them.

        The returned dictionary also contains entries for PIs and constants
        encountered as fanins (their only cut is the trivial one).

        The bottom-up pass runs level by level on the cached
        :class:`~repro.aig.kernels.LevelizedAig` arrays: the per-node cut
        signatures are packed into preallocated ``(nodes_in_level, limit + 1)``
        uint64 matrices (unused slots padded with an always-infeasible
        signature), one vectorized outer-OR + popcount computes the
        k-feasibility of every fanin cut pair of the whole level at once, and
        only the surviving pairs reach the Python merge loop.  Nodes that
        share both fanin *variables* (e.g. the two legs of an XOR) reuse one
        memoized merge — cut structure is independent of edge complements.
        The result is identical, cut for cut and key for key, to
        :meth:`enumerate_reference`.
        """
        backend = get_backend()
        level_merge = getattr(backend, "cut_level_merge", None)
        if level_merge is not None:
            result = self._enumerate_compiled(aig, nodes, level_merge)
            if result is not None:
                return result
        k = self.k
        limit = self.cuts_per_node
        width = limit + 1  # stored cuts per node: <= limit merged + trivial
        view = levelized(aig)
        store: Dict[int, _CutLists] = {}
        sig_arrays: Dict[int, np.ndarray] = {}
        merge_memo: Dict[Tuple[int, int], _CutLists] = {}

        def add_leaf(leaf: int) -> None:
            entry = _leaf_entry(leaf)
            store[leaf] = entry
            sig_arrays[leaf] = np.array(entry[1], dtype=np.uint64)

        for ids, f0_vars, _m0, f1_vars, _m1 in view._level_ops:
            count = len(ids)
            id_list = ids.tolist()
            f0_list = f0_vars.tolist()
            f1_list = f1_vars.tolist()
            sig0 = np.full((count, width), _PAD_SIG, dtype=np.uint64)
            sig1 = np.full((count, width), _PAD_SIG, dtype=np.uint64)
            memo_hits: List[Optional[_CutLists]] = [None] * count
            for row in range(count):
                f0 = f0_list[row]
                f1 = f1_list[row]
                if f0 not in store:
                    add_leaf(f0)
                if f1 not in store:
                    add_leaf(f1)
                hit = merge_memo.get((f0, f1))
                if hit is not None:
                    # Leave the rows padded: no pair survives the prefilter,
                    # and the memoized merge is copied below.
                    memo_hits[row] = hit
                    continue
                arr0 = sig_arrays[f0]
                arr1 = sig_arrays[f1]
                sig0[row, : arr0.size] = arr0
                sig1[row, : arr1.size] = arr1
            row_idx, a_idx, b_idx = backend.cut_merge_filter(sig0, sig1, k)
            # Survivors are in (row, a, b) C-order; slice them per row.
            bounds = np.searchsorted(row_idx, np.arange(count + 1)).tolist()
            a_idx = a_idx.tolist()
            b_idx = b_idx.tolist()
            for row in range(count):
                node = id_list[row]
                hit = memo_hits[row]
                if hit is not None:
                    out_leaves = list(hit[0])
                    out_sigs = list(hit[1])
                    out_sets = list(hit[2])
                else:
                    f0 = f0_list[row]
                    f1 = f1_list[row]
                    leaves0, sigs0, sets0 = store[f0]
                    leaves1, sigs1, sets1 = store[f1]
                    out_leaves, out_sigs, out_sets = [], [], []
                    out_keys: List[Tuple[int, Tuple[int, ...]]] = []
                    sorted_len = 0
                    start = bounds[row]
                    stop = bounds[row + 1]
                    # This loop body mirrors _merge_cut_lists (minus the
                    # scalar popcount prefilter, done vectorized above); any
                    # change to the merge semantics must be applied to both,
                    # or the asserted identity with the references breaks.
                    for a, b in zip(a_idx[start:stop], b_idx[start:stop]):
                        set_a = sets0[a]
                        set_b = sets1[b]
                        merged = set_a | set_b
                        size = len(merged)
                        if size > k:
                            continue
                        # merged ⊇ set_a and ⊇ set_b, so a size match means
                        # equality: reuse the fanin's sorted leaf tuple.
                        if size == len(set_a):
                            leaves = leaves0[a]
                        elif size == len(set_b):
                            leaves = leaves1[b]
                        else:
                            leaves = None
                        sorted_len = _insert_cut(
                            out_leaves,
                            out_sigs,
                            out_sets,
                            out_keys,
                            merged,
                            sigs0[a] | sigs1[b],
                            limit,
                            sorted_len,
                            leaves,
                        )
                    merge_memo[(f0, f1)] = (out_leaves, out_sigs, out_sets)
                    out_leaves = list(out_leaves)
                    out_sigs = list(out_sigs)
                    out_sets = list(out_sets)
                store[node] = _append_trivial(node, (out_leaves, out_sigs, out_sets))
                sig_arrays[node] = np.fromiter(out_sigs, np.uint64, len(out_sigs))

        # Materialize Cut objects in the reference implementation's insertion
        # order (DFS sweep, fanin leaves on first encounter — cached on the
        # snapshot since it is purely structural).
        wanted = set(nodes) if nodes is not None else None
        new_cut = Cut.__new__
        set_attr = object.__setattr__
        result: Dict[int, List[Cut]] = {}
        for key in view.first_encounter_order(aig):
            if wanted is not None and key not in wanted:
                continue
            cuts = []
            for leaves in store[key][0]:
                cut = new_cut(Cut)
                set_attr(cut, "root", key)
                set_attr(cut, "leaves", leaves)
                cuts.append(cut)
            result[key] = cuts
        return result

    def _enumerate_compiled(
        self, aig: Aig, nodes: Optional[Sequence[int]], level_merge
    ) -> Optional[Dict[int, List[Cut]]]:
        """Array-store enumeration over a backend's whole-level merge kernel.

        The cut store holds padded ``(cuts, k)`` leaf matrices plus size and
        signature vectors per node instead of tuple/frozenset lists, the
        per-level Python merge loop collapses into one ``cut_level_merge``
        call, and leaf tuples are materialized only for the cuts that
        survive.  Returns ``None`` when the backend reports the kernel
        unavailable (first call of a level), sending :meth:`enumerate` down
        the ordinary path; otherwise the result is identical, cut for cut
        and key for key, to :meth:`enumerate_reference` — asserted by the
        test-suite across backends.
        """
        k = self.k
        limit = self.cuts_per_node
        width = limit + 1  # stored cuts per node: <= limit merged + trivial
        # Zero-row probe: resolves the engine (and kernel caps) before any
        # gather work, so a degraded backend costs one cheap call per
        # enumeration instead of a wasted first-level pack.
        probe = level_merge(
            np.zeros((0, width, k), np.int64),
            np.zeros((0, width), np.int64),
            np.zeros((0, width), np.uint64),
            np.zeros(0, np.int64),
            np.zeros((0, width, k), np.int64),
            np.zeros((0, width), np.int64),
            np.zeros((0, width), np.uint64),
            np.zeros(0, np.int64),
            np.zeros(0, np.uint8),
            k,
            limit,
        )
        if probe is None:
            return None
        view = levelized(aig)
        #: node -> (leaves (n, k) int64, sizes (n,) int64, sigs (n,) uint64)
        #: holding only the merged (non-trivial) cuts; the trivial cut is
        #: synthesized where needed, keeping leaf/PI entries allocation-free.
        empty = (
            np.zeros((0, k), np.int64),
            np.zeros(0, np.int64),
            np.zeros(0, np.uint64),
        )
        store: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        merge_memo: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for ids, f0_vars, _m0, f1_vars, _m1 in view._level_ops:
            count = len(ids)
            id_list = ids.tolist()
            f0_list = f0_vars.tolist()
            f1_list = f1_vars.tolist()
            in_l0 = np.zeros((count, width, k), np.int64)
            in_s0 = np.zeros((count, width), np.int64)
            in_g0 = np.zeros((count, width), np.uint64)
            in_n0 = np.zeros(count, np.int64)
            in_l1 = np.zeros((count, width, k), np.int64)
            in_s1 = np.zeros((count, width), np.int64)
            in_g1 = np.zeros((count, width), np.uint64)
            in_n1 = np.zeros(count, np.int64)
            skip = np.zeros(count, np.uint8)
            memo_hits: List[Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = (
                [None] * count
            )
            for row in range(count):
                f0 = f0_list[row]
                f1 = f1_list[row]
                hit = merge_memo.get((f0, f1))
                if hit is not None:
                    skip[row] = 1
                    memo_hits[row] = hit
                    if f0 not in store:
                        store[f0] = empty
                    if f1 not in store:
                        store[f1] = empty
                    continue
                for fanin, in_l, in_s, in_g, in_n in (
                    (f0, in_l0, in_s0, in_g0, in_n0),
                    (f1, in_l1, in_s1, in_g1, in_n1),
                ):
                    entry = store.get(fanin)
                    if entry is None:
                        # First encounter: a leaf (PI/constant/boundary).
                        entry = empty
                        store[fanin] = entry
                    stored = entry[1].shape[0]
                    if stored:
                        in_l[row, :stored] = entry[0]
                        in_s[row, :stored] = entry[1]
                        in_g[row, :stored] = entry[2]
                    # The trivial cut rides last, as in the list store.
                    in_l[row, stored, 0] = fanin
                    in_s[row, stored] = 1
                    in_g[row, stored] = 1 << (fanin & 63)
                    in_n[row] = stored + 1
            merged = level_merge(
                in_l0, in_s0, in_g0, in_n0,
                in_l1, in_s1, in_g1, in_n1,
                skip, k, limit,
            )
            if merged is None:
                return None
            out_l, out_s, out_g, out_n = merged
            count_list = out_n.tolist()
            for row in range(count):
                hit = memo_hits[row]
                if hit is None:
                    n = count_list[row]
                    hit = (
                        out_l[row, :n].copy(),
                        out_s[row, :n].copy(),
                        out_g[row, :n].copy(),
                    )
                    merge_memo[(f0_list[row], f1_list[row])] = hit
                store[id_list[row]] = hit

        # Materialize Cut objects in the reference implementation's insertion
        # order; the trivial cut is appended last, exactly like the list store.
        wanted = set(nodes) if nodes is not None else None
        new_cut = Cut.__new__
        set_attr = object.__setattr__
        result: Dict[int, List[Cut]] = {}
        for key in view.first_encounter_order(aig):
            if wanted is not None and key not in wanted:
                continue
            leaf_mat, sizes, _sigs = store[key]
            cuts = []
            for index, size in enumerate(sizes.tolist()):
                cut = new_cut(Cut)
                set_attr(cut, "root", key)
                set_attr(cut, "leaves", tuple(leaf_mat[index, :size].tolist()))
                cuts.append(cut)
            trivial = new_cut(Cut)
            set_attr(trivial, "root", key)
            set_attr(trivial, "leaves", (key,))
            cuts.append(trivial)
            result[key] = cuts
        return result

    def enumerate_reference(
        self, aig: Aig, nodes: Optional[Sequence[int]] = None
    ) -> Dict[int, List[Cut]]:
        """Reference object-per-merge implementation of :meth:`enumerate`.

        Kept for the equivalence test-suite and the hot-path benchmark; must
        produce identical cut lists in identical order to :meth:`enumerate`.
        """
        order = aig.topological_order()
        cut_sets: Dict[int, CutSet] = {}

        def leaf_cutset(node: int) -> CutSet:
            cut_set = cut_sets.get(node)
            if cut_set is None:
                cut_set = CutSet(node, [Cut(node, (node,))])
                cut_sets[node] = cut_set
            return cut_set

        for node in order:
            f0 = lit_var(aig.fanin0(node))
            f1 = lit_var(aig.fanin1(node))
            set0 = cut_sets.get(f0) or leaf_cutset(f0)
            set1 = cut_sets.get(f1) or leaf_cutset(f1)
            merged = CutSet(node)
            for cut0 in set0.cuts:
                for cut1 in set1.cuts:
                    leaves = tuple(sorted(set(cut0.leaves) | set(cut1.leaves)))
                    if len(leaves) > self.k:
                        continue
                    merged.add(Cut(node, leaves), self.cuts_per_node)
            merged.add(Cut(node, (node,)), self.cuts_per_node + 1)
            cut_sets[node] = merged

        wanted = set(nodes) if nodes is not None else None
        result: Dict[int, List[Cut]] = {}
        for node, cut_set in cut_sets.items():
            if wanted is not None and node not in wanted:
                continue
            result[node] = list(cut_set.cuts)
        return result

    def node_cuts(self, aig: Aig, node: int) -> List[Cut]:
        """Return the cuts of a single node, memoizing the full enumeration.

        The bottom-up pass over the whole network is computed once per
        ``(network version, k, cuts_per_node)`` and cached (weakly, so the
        cache dies with the network); repeated per-node queries — the access
        pattern of transformability checks — hit the cache instead of
        re-running the enumeration.  Callers must not mutate the returned
        list.
        """
        per_aig = _NODE_CUTS_CACHE.get(aig)
        if per_aig is None:
            per_aig = {}
            _NODE_CUTS_CACHE[aig] = per_aig
        key = (self.k, self.cuts_per_node)
        entry = per_aig.get(key)
        if entry is None or entry[0] != aig.modification_count:
            entry = (aig.modification_count, self.enumerate(aig))
            per_aig[key] = entry
        return entry[1].get(node, [Cut(node, (node,))])


def _local_region_order(
    aig: Aig, node: int, max_region: int, max_depth: int
) -> List[int]:
    """Bounded reverse-BFS region around ``node``, in topological order."""
    region: set = set()
    frontier = [node]
    depth = 0
    while frontier and depth < max_depth and len(region) < max_region:
        next_frontier = []
        for current in frontier:
            if current in region or not aig.is_and(current):
                continue
            region.add(current)
            if len(region) >= max_region:
                break
            for fanin_lit in aig.fanins(current):
                next_frontier.append(lit_var(fanin_lit))
        frontier = next_frontier
        depth += 1

    # Topological order inside the region (id-independent DFS).
    order: List[int] = []
    visited: set = set()
    stack: List[Tuple[int, bool]] = [(node, False)]
    while stack:
        current, expanded = stack.pop()
        if expanded:
            order.append(current)
            continue
        if current in visited or current not in region:
            continue
        visited.add(current)
        stack.append((current, True))
        stack.append((lit_var(aig.fanin1(current)), False))
        stack.append((lit_var(aig.fanin0(current)), False))
    return order


def local_cuts(
    aig: Aig,
    node: int,
    k: int = 4,
    cuts_per_node: int = 8,
    max_region: int = 40,
    max_depth: int = 6,
) -> List[Cut]:
    """Enumerate K-feasible cuts of ``node`` using only a bounded local region.

    The transitive fanin of ``node`` is explored breadth-first up to
    ``max_depth`` levels and ``max_region`` AND nodes; everything beyond the
    region boundary is treated as a cut leaf.  This trades a small amount of
    completeness (cuts whose cones leave the region are missed) for a per-node
    cost that is independent of the network size, which is what lets the
    orchestrated optimizer check rewriting transformability at every node of a
    large design.  Shares the bitset merge core with
    :meth:`CutEnumerator.enumerate`.
    """
    if not aig.is_and(node):
        return [Cut(node, (node,))]
    store: Dict[int, _CutLists] = {}
    for current in _local_region_order(aig, node, max_region, max_depth):
        f0 = lit_var(aig.fanin0(current))
        f1 = lit_var(aig.fanin1(current))
        set0 = store.get(f0)
        if set0 is None:
            set0 = store[f0] = _leaf_entry(f0)
        set1 = store.get(f1)
        if set1 is None:
            set1 = store[f1] = _leaf_entry(f1)
        store[current] = _append_trivial(
            current, _merge_cut_lists(set0, set1, k, cuts_per_node)
        )
    if node not in store:
        return [Cut(node, (node,))]
    return [Cut(node, leaves) for leaves in store[node][0]]

