"""The native backend: compiled C loops and workspace GNN ops, reference-identical.

The one fast backend, layered directly on :class:`ReferenceBackend`.  It
offers two groups of ops:

* **Compiled integer loops** — six capability ops.  Five replace a whole
  Python loop of the sweep scorers: the whole-snapshot priority cuts with
  their truth tables and the MFFC-ordered fragment dry-run scan of global
  rewrite scoring (the scan also serves refactoring), the local-region cuts
  (with their truth tables) of small rescore sets, the reconvergence-driven
  cuts with their truth tables of refactoring, and the windowed
  resubstitution scan.  The sixth synthesizes one refactoring fragment (ISOP,
  quick factoring and the balanced-AND build) per fragment-memo miss.  They
  run in :mod:`repro.backend.native_kernels`, a small C source built once
  with the system compiler into a shared library loaded via ctypes.
* **GNN float ops** — the GraphSAGE aggregation ``A @ X`` and its
  transposed backward product go straight to scipy's raw ``csr_matvecs`` on
  cached CSR (and cached transposed-CSR) arrays, and the fused GraphSAGE
  forward and backward write into preallocated buffers with explicit
  ``out=`` targets.  The buffers hang on the sparse operator they serve (one
  set per thread), so a training run reuses them across epochs and batches
  and they die with its operators.  The fusions keep the reference's
  arithmetic operations in the reference's order: an ``out=`` target
  changes where a result lands, never what it is.  Float products go
  through numpy's BLAS only (``np.dot``): a second BLAS library would bring
  a second thread pool to compete with numpy's.

Degradation is **per op**: when scipy's raw kernel is missing or an array
fails the layout checks, a GNN op takes the inherited reference code, and
without the library a capability op returns ``None``, which sends its caller
to the Python loop it replaces.  The compiled kernels are exact integer
arithmetic in the decision order of the code they replay, so byte identity
holds by construction and is enforced by ``tests/backend``.
"""

from __future__ import annotations

import ctypes
import threading
from itertools import chain
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.backend import native_kernels
from repro.backend.reference import ReferenceBackend
from repro.synth.fragment import Fragment

try:  # Optional: raw CSR SpMM kernels (scipy is a repo dependency, but the
    # private _sparsetools module is probed defensively per-op anyway).
    from scipy.sparse import _sparsetools as _scipy_sparsetools

    _csr_matvecs = getattr(_scipy_sparsetools, "csr_matvecs", None)
except Exception:  # pragma: no cover - exercised only without scipy
    _csr_matvecs = None


#: The window ops' limit on ``max_leaves`` (``BG_WINDOW_LEAVES`` in the
#: kernel source).  A reconvergence-driven cut can end two leaves above its
#: limit, so their truth tables span at most 14 variables (256 words).
_WINDOW_LEAVES = 12

#: The fragment kernel's input limit (``BG_FRAGMENT_VARS``): a cube packs
#: its positive and negative literal masks into 32 bits.
_FRAGMENT_VARS = 16

_OP_LABELS = {
    "snapshot_cut_tables": "whole-snapshot-cuts",
    "rewrite_scan": "mffc-ordered-dry-run",
    "local_cut_tables": "local-region-cuts",
    "refactor_cut_tables": "reconvergent-cut-tables",
    "resub_scan": "window-resub-scan",
    "factored_fragment": "isop-factor-fragment",
}


def _node_arrays(view) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The snapshot's fanin literals and AND flags as the kernels' arrays."""
    return (
        np.array(view._fanin0_list, np.int64),
        np.array(view._fanin1_list, np.int64),
        np.array(view._is_and_list, np.uint8),
    )


def _table_words(num_vars: int) -> int:
    """The 64-bit words of a truth table over ``num_vars`` variables."""
    return 1 if num_vars <= 6 else 1 << (num_vars - 6)


def _root_array(roots, slots: int, op: str) -> np.ndarray:
    """``roots`` as int64, or ``ValueError`` unless each is a node id."""
    array = np.array(roots, dtype=np.int64)
    if array.size and (array.min() < 0 or array.max() >= slots):
        raise ValueError(f"{op}: roots must be node ids of the snapshot")
    return array


def _check_scan_inputs(slots, roots, leaves, sizes, counts, fragment_of, num_fragments) -> None:
    """Raise ``ValueError`` unless the rewrite scan's inputs index safely.

    The kernel trusts every index it reads: roots and the leaves of scanned
    cuts must be node ids, each row's count must leave room for its trivial
    cut, cut sizes must fit the leaf rows, and every scanned cut (at least
    two leaves, below its row's count) must name a fragment.
    """
    rows, width = sizes.shape
    roots = np.asarray(roots, dtype=np.int64)
    if (
        leaves.ndim != 3
        or leaves.shape[:2] != (rows, width)
        or fragment_of.shape != (rows, width)
        or counts.shape != (rows,)
        or roots.shape != (rows,)
    ):
        raise ValueError("rewrite_scan: cut arrays disagree in shape")
    if rows == 0:
        return
    scanned = (np.arange(width) < counts[:, None]) & (sizes >= 2)
    picked = leaves[scanned]
    within = np.arange(leaves.shape[2]) < sizes[scanned][:, None]
    if (
        roots.min() < 0
        or roots.max() >= slots
        or counts.min() < 0
        or counts.max() >= width
        or (sizes[scanned] > leaves.shape[2]).any()
        or (picked[within] < 0).any()
        or (picked[within] >= slots).any()
        or (fragment_of[scanned] < 0).any()
        or (fragment_of[scanned] >= num_fragments).any()
    ):
        raise ValueError("rewrite_scan: an index is out of range")


class _Workspaces:
    """Shape-checked, key-addressed scratch buffers."""

    __slots__ = ("_arrays",)

    def __init__(self) -> None:
        self._arrays: Dict[Any, np.ndarray] = {}

    def get(self, key: Any, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        array = self._arrays.get(key)
        if array is None or array.shape != shape or array.dtype != dtype:
            array = np.empty(shape, dtype)
            self._arrays[key] = array
        return array


class NativeBackend(ReferenceBackend):
    """Compiled-kernel and workspace-GNN backend, reference-identical."""

    name = "native"

    def __init__(self) -> None:
        self._engine_lock = threading.Lock()
        self._engine_resolved = False
        self._engine: Optional[Any] = None
        self._engine_reason = ""

    # ------------------------------------------------------------------ #
    # Engine plumbing
    # ------------------------------------------------------------------ #
    def _kernels(self) -> Optional[Any]:
        if not self._engine_resolved:
            with self._engine_lock:
                if not self._engine_resolved:
                    self._engine, self._engine_reason = native_kernels.load_engine()
                    self._engine_resolved = True
        return self._engine

    def engine_name(self) -> Optional[str]:
        """The resolved compiled engine ("cc"), or None when degraded."""
        kernels = self._kernels()
        return kernels.engine if kernels is not None else None

    def prewarm(self) -> Optional[str]:
        """Build/load the engine now so the first job doesn't pay for it.

        Called from the evaluator and service worker initializers.  With the
        on-disk cache (``BOOLGEBRA_NATIVE_CACHE``) the build is paid once per
        machine: a warm cache makes it a single dlopen.  Returns the engine
        name (None when degraded).
        """
        return self.engine_name()

    def op_support(self) -> Dict[str, str]:
        kernels = self._kernels()
        if kernels is None:
            reason = self._engine_reason or "no-compiled-engine"
            support = {op: f"fallback:reference({reason})" for op in _OP_LABELS}
        else:
            support = {op: f"{kernels.engine}:{label}" for op, label in _OP_LABELS.items()}
        spmm = "scipy" if _csr_matvecs is not None else "fallback:no-scipy-sparsetools"
        support.update(
            csr_aggregate=spmm,
            csr_aggregate_t=spmm + "+cached-transpose",
            sage_layer_fused="workspace-fused",
            sage_layer_backward="workspace-fused",
        )
        return support

    # ------------------------------------------------------------------ #
    # Sweep scoring
    # ------------------------------------------------------------------ #
    def local_cut_tables(self, view, roots, k, cuts_per_node, max_region, max_depth):
        """Each root's local-region cuts with their truth tables, or ``None``.

        Capability beyond the portable op vocabulary, feature-detected by the
        small-target branch of :func:`repro.synth.sweep.score_rewrites`: for
        every root of ``roots``, the non-trivial cuts of
        :func:`repro.aig.cuts.local_cuts` in its order, each as ``(leaves,
        table)`` with the table of :func:`repro.aig.truth.cut_truth_table`,
        all from one compiled call on the frozen snapshot ``view`` (with its
        node arrays ensured).  ``None`` — no compiled engine, tables wider than
        64 bits (``k > 6``), more cuts than the kernel's cap, or no snapshot
        — sends the caller to the per-node finder.
        """
        kernels = self._kernels()
        if kernels is None or not 1 <= k <= 6 or not 1 <= cuts_per_node < 64:
            return None
        slots = len(view._fanin0_list)
        if not slots:
            return None
        # A region holds distinct AND nodes (fewer than ``slots``), the BFS
        # runs out of frontier within ``slots`` levels and a bound <= 0 means
        # an empty region, so clamping both bounds to [0, slots + 1] changes
        # nothing but keeps them in int64.
        max_region = max(0, min(max_region, slots + 1))
        max_depth = max(0, min(max_depth, slots + 1))
        root_array = _root_array(roots, slots, "local_cut_tables")
        count = root_array.shape[0]
        node_arrays = _node_arrays(view)
        out_l = np.empty((count, cuts_per_node, k), np.int64)
        out_s = np.empty((count, cuts_per_node), np.int64)
        out_t = np.empty((count, cuts_per_node), np.uint64)
        out_n = np.empty(count, np.int64)
        # The args block's layout is documented in the kernel source.
        args = np.array(
            [array.ctypes.data for array in node_arrays]
            + [slots, root_array.ctypes.data, count, k, cuts_per_node, max_region, max_depth]
            + [array.ctypes.data for array in (out_l, out_s, out_t, out_n)],
            dtype=np.int64,
        )
        if kernels.local_cut_tables(args.ctypes.data):  # pragma: no cover - out of memory
            return None
        leaves, sizes, tables = out_l.tolist(), out_s.tolist(), out_t.tolist()
        return [
            [(tuple(leaves[row][c][: sizes[row][c]]), tables[row][c]) for c in range(n)]
            for row, n in enumerate(out_n.tolist())
        ]

    def snapshot_cut_tables(self, view, k, cuts_per_node):
        """Every AND node's priority cuts with their truth tables, or ``None``.

        Capability beyond the portable op vocabulary, feature-detected by
        :meth:`repro.aig.cuts.CutEnumerator.enumerate` and by the global
        branch of :func:`repro.synth.sweep.score_rewrites`: the cuts of the
        whole snapshot ``view`` from one compiled call, identical to the
        enumerator's scalar merge.  Returns ``(leaves, sizes, tables,
        counts)`` indexed by node id: row ``n`` holds the ``counts[n]``
        non-trivial cuts of node ``n`` (``leaves[n, c, :sizes[n, c]]``, with
        ``tables[n, c]`` the :func:`repro.aig.truth.cut_truth_table` of ``n``
        over them), then its trivial cut; a slot that is not an AND node has
        count 0.  ``tables`` is ``None`` for ``k`` above 6 (tables wider than
        64 bits).  ``None`` — no compiled engine, ``k`` outside 2..63 or
        ``cuts_per_node`` outside 1..63 — sends the caller to the scalar
        merge.
        """
        kernels = self._kernels()
        if kernels is None or not 2 <= k < 64 or not 1 <= cuts_per_node < 64:
            return None
        slots = view.num_slots
        and_ids = np.ascontiguousarray(view.and_ids, dtype=np.int64)
        fanins = np.zeros((2, slots), np.int64)
        for side, (var, mask) in enumerate(
            ((view.fanin0_var, view.fanin0_mask), (view.fanin1_var, view.fanin1_mask))
        ):
            fanins[side, and_ids] = (var << 1) | (mask & np.uint64(1)).astype(np.int64)
        width = cuts_per_node + 1
        leaves = np.zeros((slots, width, k), np.int64)
        sizes = np.zeros((slots, width), np.int64)
        sigs = np.zeros((slots, width), np.uint64)
        counts = np.zeros(slots, np.int64)
        tables = np.zeros((slots, width), np.uint64) if k <= 6 else None
        # The args block's layout is documented in the kernel source.
        args = np.array(
            [fanins[0].ctypes.data, fanins[1].ctypes.data, slots,
             and_ids.ctypes.data, and_ids.shape[0], k, cuts_per_node]
            + [array.ctypes.data for array in (leaves, sizes, sigs, counts)]
            + [0 if tables is None else tables.ctypes.data],
            dtype=np.int64,
        )
        if kernels.snapshot_cut_tables(args.ctypes.data):  # pragma: no cover - out of memory
            return None
        return leaves, sizes, tables, counts

    def rewrite_scan(self, view, strash, roots, leaves, sizes, counts, fragment_of, fragments,
                     min_gain):
        """Each root's best rewriting cut from the MFFC-ordered scan, or ``None``.

        Capability beyond the portable op vocabulary, feature-detected by the
        global branch of :func:`repro.synth.sweep.score_rewrites`, whose
        per-node loop it replays for every root of ``roots`` in one compiled
        call, against the frozen snapshot ``view`` (node arrays ensured) and
        its network's structural hash ``strash`` (``Aig._strash``).  Row
        ``i`` of ``leaves``/``sizes``/``counts`` holds the cuts of
        ``roots[i]`` in :meth:`snapshot_cut_tables` layout, and
        ``fragment_of[i, c]`` indexes the replacement of cut ``c`` in
        ``fragments`` (:class:`~repro.synth.fragment.Fragment` objects;
        ``None`` for one not synthesized yet).  Returns ``(best, pending)``:
        per root ``None`` or ``(cut, gain, mffc nodes, reused nodes)``, and
        the ``(row, cut)`` pairs whose scan stopped at a ``None`` fragment.
        ``None`` — no compiled engine, 64 or more cuts per node, or no node
        arrays — sends the caller to the Python loop.
        """
        kernels = self._kernels()
        width = sizes.shape[1]
        if kernels is None or width > 64 or not getattr(view, "_ref_counts", None):
            return None
        _check_scan_inputs(
            len(view._ref_counts), roots, leaves, sizes, counts, fragment_of, len(fragments)
        )
        size = len(strash)
        keys = np.fromiter(chain.from_iterable(strash), np.int64, 2 * size)
        hashed = np.fromiter(strash.values(), np.int64, size)
        pairs: List[int] = []
        offsets = [0]
        outputs = []
        for fragment in fragments:
            if fragment is None:
                outputs.append(-1)
            else:
                pairs.extend(chain.from_iterable(fragment.nodes))
                outputs.append(fragment.output)
            offsets.append(len(pairs) // 2)
        node_arrays = _node_arrays(view) + (np.array(view._ref_counts, np.int64),)
        cut_arrays = (
            np.array(roots, np.int64),
            np.ascontiguousarray(leaves, np.int64),
            np.ascontiguousarray(sizes, np.int64),
            np.ascontiguousarray(counts, np.int64),
            np.ascontiguousarray(fragment_of, np.int64),
        )
        fragment_arrays = (
            np.array(offsets, np.int64),
            np.array(pairs, np.int64),
            np.array(outputs, np.int64),
        )
        count = cut_arrays[0].shape[0]
        out = np.empty((6, count), np.int64)
        head = (
            [array.ctypes.data for array in node_arrays] + [len(view._ref_counts)]
            + [keys.ctypes.data, hashed.ctypes.data, size]
            + [cut_arrays[0].ctypes.data, count, leaves.shape[2], width]
            + [array.ctypes.data for array in cut_arrays[1:]]
            + [array.ctypes.data for array in fragment_arrays] + [len(outputs), min_gain]
            + [row.ctypes.data for row in out]
        )
        capacity = 16 * count + 64
        while True:
            buffer = np.empty(capacity, np.int64)
            # The args block's layout is documented in the kernel source.
            args = np.array(head + [buffer.ctypes.data, capacity], dtype=np.int64)
            needed = kernels.rewrite_scan(args.ctypes.data)
            if needed < 0:  # pragma: no cover - out of memory
                return None
            if needed <= capacity:
                break
            capacity = needed
        cut, gain, pending, offset, mffc, reused = out.tolist()
        nodes = buffer[:needed].tolist()
        best: List[Optional[Tuple[int, int, List[int], List[int]]]] = [None] * count
        for row in range(count):
            if cut[row] >= 0:
                start = offset[row]
                middle = start + mffc[row]
                best[row] = (cut[row], gain[row], nodes[start:middle],
                             nodes[middle:middle + reused[row]])
        return best, [(row, at) for row, at in enumerate(pending) if at >= 0]

    def refactor_cut_tables(self, view, roots, max_leaves, min_cone_size):
        """Each root's refactoring cut with its truth table, or ``None``.

        Capability beyond the portable op vocabulary, feature-detected by
        :func:`repro.synth.sweep.score_refactors`: for every root of
        ``roots``, the reconvergence-driven cut of
        :func:`repro.synth.refactor.find_refactor_candidate` with the
        :func:`repro.aig.truth.cut_truth_table` of the root over it, from one
        compiled call on the frozen snapshot ``view`` (node arrays ensured).
        Returns ``(leaves, sizes, tables)``: root ``i``'s cut is
        ``leaves[i, :sizes[i]]`` and its table the int ``tables[i]``;
        ``sizes[i]`` is 0 and ``tables[i]`` ``None`` where the finder stops
        before its dry run (a cut of fewer than two leaves, or an MFFC below
        ``min_cone_size``).  ``None`` — no compiled engine, ``max_leaves``
        above 12 or no node arrays — sends the caller to the finder.
        """
        kernels = self._kernels()
        if kernels is None or max_leaves > _WINDOW_LEAVES or not getattr(view, "_ref_counts", None):
            return None
        slots = len(view._ref_counts)
        root_array = _root_array(roots, slots, "refactor_cut_tables")
        count = root_array.shape[0]
        # Below -1 no cut expands and an MFFC holds 1..slots nodes, so the
        # clamps change nothing but keep both bounds in int64.
        max_leaves = max(max_leaves, -1)
        min_cone_size = max(0, min(min_cone_size, slots + 1))
        stride = max(max_leaves, 0) + 2
        out_l = np.empty((count, stride), np.int64)
        out_n = np.empty(count, np.int64)
        out_t = np.empty((count, _table_words(stride)), np.uint64)
        node_arrays = _node_arrays(view) + (np.array(view._ref_counts, np.int64),)
        # The args block's layout is documented in the kernel source.
        args = np.array(
            [array.ctypes.data for array in node_arrays]
            + [slots, root_array.ctypes.data, count, max_leaves, min_cone_size]
            + [array.ctypes.data for array in (out_l, out_n, out_t)],
            dtype=np.int64,
        )
        if kernels.refactor_cut_tables(args.ctypes.data):  # pragma: no cover - out of memory
            return None
        words = out_t.astype("<u8", copy=False)
        tables = [
            int.from_bytes(words[row, : _table_words(size)].tobytes(), "little") if size else None
            for row, size in enumerate(out_n.tolist())
        ]
        return out_l, out_n, tables

    def resub_scan(self, view, fanouts, roots, max_leaves, max_window, max_divisors,
                   max_divisors_two_resub, max_resub_nodes, min_gain, orders=None):
        """Each root's resubstitution, or ``None``.

        Capability beyond the portable op vocabulary, feature-detected by
        :func:`repro.synth.sweep.score_resubs`: for every root of ``roots``,
        :func:`repro.synth.resub.find_resub_candidate` with the given
        :class:`~repro.synth.resub.ResubParams` fields (``min_gain`` the
        effective one), replayed in one compiled call on the frozen snapshot
        ``view`` (node arrays ensured).  ``fanouts`` is the snapshot's
        :meth:`~repro.aig.kernels.LevelizedAig.fanout_order`, the order of
        the window walk.  The finder takes its divisors in the iteration
        order of its window set, which only Python reproduces; ``orders``
        gives, per root, that set's nodes in iteration order.

        Returns ``(found, pending)``.  ``found`` holds per root ``None`` (no
        candidate) or ``(leaves, mffc, divisors, complements,
        output_complement)``, the arguments of
        :func:`repro.synth.resub.resub_candidate`.  Without ``orders``,
        ``pending`` lists ``(row, leaves, window)`` for each root whose
        candidate depends on the divisor order (its ``found`` entry is
        ``None``), the window in insertion order; scan those roots again
        with their orders.  ``None`` — no compiled engine, ``max_leaves``
        above 12, a negative divisor limit or no node arrays — sends the
        caller to the finder.
        """
        kernels = self._kernels()
        if (
            kernels is None
            or max_leaves > _WINDOW_LEAVES
            or min(max_divisors, max_divisors_two_resub) < 0
            or not getattr(view, "_ref_counts", None)
        ):
            return None
        slots = len(view._ref_counts)
        root_array = _root_array(roots, slots, "resub_scan")
        count = root_array.shape[0]
        fanout_offsets, fanout_ids = (np.ascontiguousarray(array, np.int64) for array in fanouts)
        if (
            fanout_offsets.shape != (slots + 1,)
            or fanout_offsets[0] != 0
            or fanout_offsets[-1] != fanout_ids.shape[0]
            or (np.diff(fanout_offsets) < 0).any()
            or (fanout_ids.size and (fanout_ids.min() < 0 or fanout_ids.max() >= slots))
        ):
            raise ValueError("resub_scan: the fanout arrays do not index the snapshot")
        # The clamps change nothing but keep every bound in int64: below -1
        # no cut expands, a window holds at most slots + 1 nodes and as many
        # divisors, N >= 2 allows every resubstitution and an MFFC holds
        # 1..slots nodes.
        bounds = [
            max(max_leaves, -1),
            max(0, min(max_window, slots + 2)),
            min(max_divisors, slots + 1),
            min(max_divisors_two_resub, slots + 1),
            max(-1, min(max_resub_nodes, 2)),
            max(-2, min(min_gain, slots + 1)),
        ]
        order_arrays = [0, 0]
        if orders is not None:
            if len(orders) != count:
                raise ValueError("resub_scan: one order per root")
            offsets = np.zeros(count + 1, np.int64)
            np.cumsum([len(order) for order in orders], out=offsets[1:])
            ids = np.fromiter(chain.from_iterable(orders), np.int64, int(offsets[-1]))
            if ids.size and (ids.min() < 0 or ids.max() >= slots):
                raise ValueError("resub_scan: orders must hold node ids of the snapshot")
            order_arrays = [offsets.ctypes.data, ids.ctypes.data]
        node_arrays = _node_arrays(view) + (np.array(view._ref_counts, np.int64),)
        out = np.empty((8, count), np.int64)
        head = (
            [array.ctypes.data for array in node_arrays] + [slots]
            + [fanout_offsets.ctypes.data, fanout_ids.ctypes.data]
            + [root_array.ctypes.data, count] + bounds + order_arrays + [out.ctypes.data]
        )
        capacity = 64 * count + 1024
        while True:
            buffer = np.empty(capacity, np.int64)
            # The args block's layout is documented in the kernel source.
            args = np.array(head + [buffer.ctypes.data, capacity], dtype=np.int64)
            needed = kernels.resub_scan(args.ctypes.data)
            if needed == -2:
                raise ValueError("resub_scan: an order is not its root's window")
            if needed < 0:  # pragma: no cover - out of memory
                return None
            if needed <= capacity:
                break
            capacity = needed
        kind, first, second, third, compl, leaf_count, node_count, offset = out.tolist()
        nodes = buffer[:needed].tolist()
        found: List[Optional[tuple]] = [None] * count
        pending = []
        for row, added in enumerate(kind):
            if added == -1:
                continue
            start = offset[row]
            middle = start + leaf_count[row]
            leaves, rest = nodes[start:middle], nodes[middle:middle + node_count[row]]
            if added == -2:
                pending.append((row, leaves, rest))
                continue
            bits = compl[row]
            found[row] = (
                leaves,
                rest,
                (first[row], second[row], third[row])[: added + 1],
                tuple(bool(bits >> (index + 1) & 1) for index in range(added + 1)),
                bool(bits & 1),
            )
        return found, pending

    # ------------------------------------------------------------------ #
    # Refactoring synthesis
    # ------------------------------------------------------------------ #
    def factored_fragment(self, table, num_vars):
        """The refactoring fragment of ``table`` over ``num_vars`` inputs, or ``None``.

        Capability beyond the portable op vocabulary, feature-detected by
        :func:`repro.synth.refactor.refactor_fragment` on a memo miss: the
        :class:`~repro.synth.fragment.Fragment` of
        ``repro.synth.refactor._factor_both_polarities`` from one compiled
        call, which runs the Minato–Morreale ISOP of the table and of its
        complement, quick-factors each and builds it into balanced ANDs, and
        keeps the smaller fragment (the positive one on a tie).  ``None`` —
        no compiled engine, or fewer than 1 or more than 16 inputs — sends
        the caller to the Python chain.
        """
        kernels = self._kernels()
        if kernels is None or not 1 <= num_vars <= _FRAGMENT_VARS:
            return None
        table &= (1 << (1 << num_vars)) - 1
        words = table.to_bytes(8 * _table_words(num_vars), "little")
        capacity = 256
        while True:
            # The output literal, then two fanin literals per node.
            out = (ctypes.c_int64 * (2 * capacity + 1))()
            count = kernels.factored_fragment(words, num_vars, out, capacity)
            if count < 0:  # pragma: no cover - out of memory
                return None
            if count <= capacity:
                break
            capacity = count
        values = out[: 2 * count + 1]
        return Fragment(num_vars, list(zip(values[1::2], values[2::2])), values[0])

    # ------------------------------------------------------------------ #
    # GNN training
    # ------------------------------------------------------------------ #
    @staticmethod
    def _operator_ws(matrix) -> _Workspaces:
        """This thread's GNN scratch buffers for one sparse operator.

        They hang on the operator, like its cached transpose: every epoch
        and batch sharing the operator reuses them, and they are freed with
        it when the training run drops its batches.  A per-backend cache
        keyed by shape would keep every batch shape of every run alive.
        """
        local = getattr(matrix, "_boolgebra_workspaces", None)
        if local is None:
            local = threading.local()
            try:
                matrix._boolgebra_workspaces = local
            except AttributeError:  # pragma: no cover - exotic sparse types
                return _Workspaces()
        workspaces = getattr(local, "workspaces", None)
        if workspaces is None:
            workspaces = local.workspaces = _Workspaces()
        return workspaces

    @staticmethod
    def _csr_parts(matrix) -> Optional[Tuple]:
        if getattr(matrix, "format", None) != "csr":
            return None
        return matrix.indptr, matrix.indices, matrix.data

    @staticmethod
    def _transposed_csr(matrix):
        cached = getattr(matrix, "_boolgebra_transposed", None)
        if cached is None:
            cached = matrix.T.tocsr()
            try:
                matrix._boolgebra_transposed = cached
            except AttributeError:  # pragma: no cover - exotic sparse types
                return cached
        return cached

    def _spmm(self, matrix, x, key) -> Optional[np.ndarray]:
        """Raw ``csr_matvecs`` into a zeroed buffer; None -> caller falls back.

        A keyed call writes into the operator's workspace of that key; an
        unkeyed one (``key`` None) into a fresh array, like ``matrix @ x``.
        """
        if _csr_matvecs is None:
            return None
        parts = self._csr_parts(matrix)
        if parts is None:
            return None
        if x.dtype != np.float64 or not x.flags.c_contiguous or x.ndim != 2:
            return None
        if matrix.dtype != np.float64:
            return None
        rows = matrix.shape[0]
        vecs = x.shape[1]
        if key is None:
            out = np.zeros((rows, vecs))
        else:
            out = self._operator_ws(matrix).get(("spmm", key), (rows, vecs))
            out.fill(0.0)  # csr_matvecs accumulates into its output
        indptr, indices, data = parts
        _csr_matvecs(rows, matrix.shape[1], vecs, indptr, indices, data, x.ravel(), out.ravel())
        return out

    def csr_aggregate(self, matrix, x, key=None):
        out = self._spmm(matrix, x, None if key is None else ("fwd", key))
        if out is None:
            return matrix @ x
        return out

    def csr_aggregate_t(self, matrix, grad, key=None):
        if getattr(matrix, "format", None) == "csr":
            # A.T @ G through the transposed CSR accumulates per output row
            # in ascending column order — the same order as the wrapper's
            # CSC path, hence bitwise-identical.
            transposed = self._transposed_csr(matrix)
            out = self._spmm(transposed, grad, None if key is None else ("bwd", key))
            if out is not None:
                return out
            return transposed @ grad
        return matrix.T @ grad

    def sage_layer_fused(self, conv, activation, dropout, x, aggregation, training, key=None):
        ws = self._operator_ws(aggregation)
        neighbours = self.csr_aggregate(aggregation, x, key=("sage_neigh", key))
        conv._cache = (x, neighbours, aggregation)
        shape = (x.shape[0], conv.weight_self.value.shape[1])
        out = ws.get(("sage_out", key), shape)
        # x @ W_self + neighbours @ W_neigh + bias, grouped exactly like the
        # reference's left-to-right evaluation.  The second product borrows
        # the dropout-draws buffer, which holds nothing live until the draw
        # below overwrites it.
        np.dot(x, conv.weight_self.value, out=out)
        draws = ws.get(("drop_draws", key), shape)
        np.dot(neighbours, conv.weight_neigh.value, out=draws)
        np.add(out, draws, out=out)
        np.add(out, conv.bias.value, out=out)
        # ReLU6: mask first (clip overwrites the pre-activation in place).
        mask = ws.get(("relu_mask", key), shape, bool)
        high = ws.get(("relu_high", key), shape, bool)
        np.greater(out, 0.0, out=mask)
        np.less(out, 6.0, out=high)
        np.logical_and(mask, high, out=mask)
        activation._mask = mask
        np.clip(out, 0.0, 6.0, out=out)
        # Inverted dropout, drawing the identical stream from the layer's
        # generator (Generator.random(out=) consumes exactly the draws that
        # Generator.random(shape) would).
        if not training or dropout.rate == 0.0:
            dropout._mask = None
            return out
        keep = 1.0 - dropout.rate
        dropout._rng.random(out=draws)
        kept = ws.get(("drop_kept", key), shape, bool)
        np.less(draws, keep, out=kept)
        scale = ws.get(("drop_scale", key), shape)
        np.divide(kept, keep, out=scale)
        dropout._mask = scale
        np.multiply(out, scale, out=out)
        return out

    def sage_layer_backward(self, conv, activation, dropout, grad, input_grad, key=None):
        assert conv._cache is not None, "forward must be called before backward"
        x, neighbours, aggregation = conv._cache
        ws = self._operator_ws(aggregation)
        rows, width = grad.shape
        masked = ws.get(("sage_grad", key), (rows, width))
        if dropout._mask is not None:
            np.multiply(grad, dropout._mask, out=masked)
            np.multiply(masked, activation._mask, out=masked)
        else:
            np.multiply(grad, activation._mask, out=masked)
        depth = conv.weight_self.value.shape[0]
        weight_grad = ws.get(("sage_wgrad", key), (depth, width))
        np.dot(x.T, masked, out=weight_grad)
        conv.weight_self.grad += weight_grad
        np.dot(neighbours.T, masked, out=weight_grad)
        conv.weight_neigh.grad += weight_grad
        bias_grad = ws.get(("sage_bgrad", key), (width,))
        np.add.reduce(masked, axis=0, out=bias_grad)
        conv.bias.grad += bias_grad
        if not input_grad:
            return None
        mix = ws.get(("sage_gmix", key), (rows, depth))
        np.dot(masked, conv.weight_neigh.value.T, out=mix)
        neighbour_grad = self.csr_aggregate_t(aggregation, mix, key=("sage_aggt", key))
        # grad_input = masked @ W_self.T + neighbour_grad, with the reference's
        # operand order (product first, aggregate second).  The aggregation
        # has consumed ``mix``, so the product reuses its buffer.
        np.dot(masked, conv.weight_self.value.T, out=mix)
        np.add(mix, neighbour_grad, out=mix)
        return mix


__all__ = ["NativeBackend"]
