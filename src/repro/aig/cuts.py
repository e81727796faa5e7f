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
materialized for the final result.  One scalar bottom-up loop over that core
serves both :func:`local_cuts` and :meth:`CutEnumerator.enumerate` whenever
the backend's compiled whole-snapshot enumeration is unavailable.  The historical
object-per-merge implementation is retained as
:meth:`CutEnumerator.enumerate_reference`; every path produces identical cut
lists in identical order, which the test-suite asserts (it also keeps an
object-per-merge oracle for :func:`local_cuts`).

:func:`local_cuts` has a compiled twin: the native backend's
``local_cut_tables`` op replays it step for step, for a batch of roots at
once, and returns each cut's truth table with it; so does
:meth:`CutEnumerator.enumerate`, whose whole-snapshot twin is the
``snapshot_cut_tables`` op (see :func:`repro.synth.sweep.score_rewrites`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

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


def _merge_bottom_up(
    triples: Iterable[Tuple[int, int, int]], k: int, limit: int
) -> Dict[int, _CutLists]:
    """Cut storage of every ``(node, fanin0 var, fanin1 var)`` triple.

    ``triples`` lists each node after those of its fanins that it lists at
    all; a fanin without an entry is a leaf (PI, constant or region
    boundary) whose only cut is itself.  Nodes that share both fanin
    *variables* (e.g. the two legs of an XOR) reuse one memoized merge — cut
    structure is independent of edge complements.  Every node's cuts end
    with its trivial cut, which is never dominated: the root cannot be a
    leaf of its own non-trivial cuts in an acyclic network.
    """
    store: Dict[int, _CutLists] = {}
    memo: Dict[Tuple[int, int], _CutLists] = {}
    for node, f0, f1 in triples:
        merged = memo.get((f0, f1))
        if merged is None:
            set0 = store.get(f0)
            if set0 is None:
                set0 = store[f0] = _leaf_entry(f0)
            set1 = store.get(f1)
            if set1 is None:
                set1 = store[f1] = _leaf_entry(f1)
            merged = memo[(f0, f1)] = _merge_cut_lists(set0, set1, k, limit)
        leaves, sigs, sets = merged
        store[node] = (
            leaves + [(node,)],
            sigs + [1 << (node & 63)],
            sets + [frozenset((node,))],
        )
    return store


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
            # The popcount prefilter on 64-bit folded leaf signatures needs
            # k < 64 to reject anything.
            raise ValueError("cut size must be below 64")
        self.k = k
        self.cuts_per_node = cuts_per_node

    def enumerate(self, aig: Aig, nodes: Optional[Sequence[int]] = None) -> Dict[int, List[Cut]]:
        """Enumerate cuts for ``nodes`` (default: every AND node) and return them.

        The returned dictionary also contains entries for PIs and constants
        encountered as fanins (their only cut is the trivial one).

        Two paths compute the cut lists.  When the backend offers the
        ``snapshot_cut_tables`` capability op, one compiled call enumerates
        the whole cached :class:`~repro.aig.kernels.LevelizedAig` (with truth
        tables this method drops).  When it is missing or declines (the
        reference backend, native without a compiler, 64 or more cuts per
        node), the scalar bottom-up merge that
        :func:`local_cuts` runs walks the snapshot's AND nodes level by
        level.  Both results are identical, cut for cut and key for key, to
        :meth:`enumerate_reference`, the object-per-merge oracle.
        """
        view = levelized(aig)
        snapshot_cut_tables = getattr(get_backend(), "snapshot_cut_tables", None)
        found = None
        if snapshot_cut_tables is not None:
            found = snapshot_cut_tables(view, self.k, self.cuts_per_node)
        if found is not None:
            leaves, sizes, _tables, counts = found
            leaf_rows, size_rows, count_list = leaves.tolist(), sizes.tolist(), counts.tolist()

            def cut_leaves(node: int) -> List[Tuple[int, ...]]:
                row, size_row = leaf_rows[node], size_rows[node]
                merged = [tuple(row[c][: size_row[c]]) for c in range(count_list[node])]
                return merged + [(node,)]

        else:
            store = _merge_bottom_up(
                zip(view.and_ids.tolist(), view.fanin0_var.tolist(), view.fanin1_var.tolist()),
                self.k,
                self.cuts_per_node,
            )

            def cut_leaves(node: int) -> List[Tuple[int, ...]]:
                return store[node][0]

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
            for leaves in cut_leaves(key):
                cut = new_cut(Cut)
                set_attr(cut, "root", key)
                set_attr(cut, "leaves", leaves)
                cuts.append(cut)
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
    large design.  Shares its bottom-up merge loop with the scalar path of
    :meth:`CutEnumerator.enumerate`.
    """
    if not aig.is_and(node):
        return [Cut(node, (node,))]
    store = _merge_bottom_up(
        (
            (current, lit_var(aig.fanin0(current)), lit_var(aig.fanin1(current)))
            for current in _local_region_order(aig, node, max_region, max_depth)
        ),
        k,
        cuts_per_node,
    )
    if node not in store:
        return [Cut(node, (node,))]
    return [Cut(node, leaves) for leaves in store[node][0]]
