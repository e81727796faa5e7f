"""The native backend: compiled C loops and workspace GNN ops, reference-identical.

The one fast backend, layered directly on :class:`ReferenceBackend`.  It
overrides two groups of ops:

* **Compiled integer loops** — the fused level-step simulation, the
  cut-merge popcount prefilter, the exact cone-walk truth table, resub
  similarity ranking and the 8-combo one-match scan, and the sweep-commit
  conflict screen: the ops whose remaining cost is Python loop overhead.
  They run in :mod:`repro.backend.native_kernels`, a small C source built
  once with the system compiler into a shared library loaded via ctypes.
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

Degradation is **per op**: when the library (or scipy's raw kernel) is
missing, an input is under a profitability threshold, or an array fails the
layout checks, the op takes the inherited reference code.  The compiled
kernels are exact integer arithmetic in the reference's statement order, so
byte identity holds by construction and is enforced by ``tests/backend``.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import native_kernels
from repro.backend.reference import ReferenceBackend

try:  # Optional: raw CSR SpMM kernels (scipy is a repo dependency, but the
    # private _sparsetools module is probed defensively per-op anyway).
    from scipy.sparse import _sparsetools as _scipy_sparsetools

    _csr_matvecs = getattr(_scipy_sparsetools, "csr_matvecs", None)
except Exception:  # pragma: no cover - exercised only without scipy
    _csr_matvecs = None


_UINT64_MASK = (1 << 64) - 1

#: Below this many divisors the reference wins: its scalar loops early-exit
#: without the table-packing overhead the compiled scan needs.  Parity-gated
#: identical either way.
_NATIVE_RESUB_MIN = 8

#: Pending-stack capacity of the compiled cone walk; a deeper reconvergent
#: cone (never seen on the benchmark set) falls back to the Python walk.
_CONE_STACK = 8192

#: Per-arity ``(leaf_tables, mask)`` for the compiled cone walk: the uint64
#: array of leaf-variable patterns plus the full-table mask.  Process-cached
#: so engine walkers can memoise the array's raw pointer by identity.
_ARITY_META: Dict[int, Tuple[np.ndarray, int]] = {}

_OP_LABELS = {
    "simulate_level_step": "fused-level-loop",
    "cut_merge_filter": "popcount-prefilter",
    "cut_table_exact": "cone-walk",
    "cut_level_merge": "whole-level-merge",
    "resub_rank_divisors": "popcount-similarity",
    "resub_one_match": "8-combo-scan",
    "sweep_commit": "bitmap-conflict-screen",
}


def _arity_meta(num_vars: int) -> Tuple[np.ndarray, int]:
    cached = _ARITY_META.get(num_vars)
    if cached is None:
        from repro.aig.truth import cached_table_var, table_mask

        variables = [cached_table_var(i, num_vars) for i in range(num_vars)]
        cached = (np.array(variables, dtype=np.uint64), table_mask(num_vars))
        _ARITY_META[num_vars] = cached
    return cached


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


class _ConeScratch:
    """Per-snapshot scratch of the compiled cone walk (epoch-stamped).

    Owns every array the walk touches plus the engine-built ``walk``
    closure, which holds raw pointers into those arrays — keeping both on
    one object guarantees the pointers cannot outlive their storage.
    """

    __slots__ = (
        "fanin0",
        "fanin1",
        "tables",
        "stamp",
        "stack",
        "leaves",
        "out",
        "epoch",
        "walk",
    )

    def __init__(self, view: Any, kernels: Any) -> None:
        self.fanin0 = np.array(view._fanin0_list, dtype=np.int64)
        self.fanin1 = np.array(view._fanin1_list, dtype=np.int64)
        slots = self.fanin0.shape[0]
        self.tables = np.zeros(slots, dtype=np.uint64)
        self.stamp = np.zeros(slots, dtype=np.uint32)
        self.stack = np.zeros(_CONE_STACK, dtype=np.int64)
        self.leaves = np.zeros(6, dtype=np.int64)
        self.out = np.zeros(1, dtype=np.uint64)
        self.epoch = 0
        self.walk = kernels.cone_walker(
            self.fanin0,
            self.fanin1,
            self.leaves,
            self.tables,
            self.stamp,
            self.stack,
            self.out,
        )

    def next_epoch(self) -> int:
        self.epoch += 1
        if self.epoch >= 0xFFFFFFFF:
            self.stamp[:] = 0
            self.epoch = 1
        return self.epoch


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
            resub_zero_match="fallback:int-compare",
            csr_aggregate=spmm,
            csr_aggregate_t=spmm + "+cached-transpose",
            sage_layer_fused="workspace-fused",
            sage_layer_backward="workspace-fused",
            adam_step_fused="fallback:already-allocation-free",
        )
        return support

    # ------------------------------------------------------------------ #
    # AIG simulation / cut enumeration
    # ------------------------------------------------------------------ #
    def simulate_level_step(self, values, ids, f0v, f0m, f1v, f1m) -> None:
        kernels = self._kernels()
        if (
            kernels is None
            or values.dtype != np.uint64
            or values.ndim != 2
            or not values.flags.c_contiguous
            or ids.dtype != np.int64
            or f0v.dtype != np.int64
            or f1v.dtype != np.int64
            or f0m.dtype != np.uint64
            or f1m.dtype != np.uint64
            or f0m.size != ids.shape[0]
            or f1m.size != ids.shape[0]
            or not ids.flags.c_contiguous
            or not f0v.flags.c_contiguous
            or not f1v.flags.c_contiguous
            or not f0m.flags.c_contiguous
            or not f1m.flags.c_contiguous
        ):
            super().simulate_level_step(values, ids, f0v, f0m, f1v, f1m)
            return
        kernels.simulate_level_step(
            values, ids, f0v, f0m.reshape(-1), f1v, f1m.reshape(-1)
        )

    def cut_level_merge(self, l0, s0, g0, n0, l1, s1, g1, n1, skip, k, limit):
        """Whole-level priority-cut merge, or ``None`` when unavailable.

        Capability beyond the portable op vocabulary: the cut enumerator
        feature-detects this method and, when it returns arrays, skips its
        per-pair Python merge loop entirely.  Inputs are the padded per-row
        cut-list matrices described in the kernel; a ``None`` return (no
        compiled engine, or shapes beyond the kernel's fixed caps) sends
        the caller down the ordinary reference-identical path.
        """
        kernels = self._kernels()
        if kernels is None or k >= 64 or s0.shape[1] > 64:
            return None
        count, width = s0.shape
        out_l = np.zeros((count, width, k), np.int64)
        out_s = np.zeros((count, width), np.int64)
        out_g = np.zeros((count, width), np.uint64)
        out_n = np.zeros(count, np.int64)
        kernels.cut_level_merge(
            l0, s0, g0, n0, l1, s1, g1, n1, skip, k, limit, out_l, out_s, out_g, out_n
        )
        return out_l, out_s, out_g, out_n

    def cut_merge_filter(self, sig0, sig1, k):
        kernels = self._kernels()
        if (
            kernels is None
            or sig0.dtype != np.uint64
            or sig1.dtype != np.uint64
            or sig0.ndim != 2
            or sig0.shape != sig1.shape
        ):
            return super().cut_merge_filter(sig0, sig1, k)
        return kernels.cut_merge_filter(
            np.ascontiguousarray(sig0), np.ascontiguousarray(sig1), int(k)
        )

    # ------------------------------------------------------------------ #
    # Sweep scoring
    # ------------------------------------------------------------------ #
    def cut_table_exact(self, view, root, leaves) -> int:
        kernels = self._kernels()
        num_vars = len(leaves)
        if kernels is None or num_vars > 6:
            return super().cut_table_exact(view, root, leaves)
        try:
            scratch = view._native_scratch
            fanin_count = len(view._fanin0_list)
        except AttributeError:
            # Not a LevelizedAig snapshot (duck-typed test views): the
            # Python walk handles anything with fanin lists.
            return super().cut_table_exact(view, root, leaves)
        if scratch is None or scratch.fanin0.shape[0] != fanin_count:
            if not fanin_count:
                return super().cut_table_exact(view, root, leaves)
            scratch = _ConeScratch(view, kernels)
            view._native_scratch = scratch
        leaf_tables, mask = _arity_meta(num_vars)
        scratch.leaves[:num_vars] = leaves
        err, value = scratch.walk(
            root, num_vars, leaf_tables, mask, scratch.next_epoch()
        )
        if err:  # pragma: no cover - requires a >8k-deep reconvergent cone
            return super().cut_table_exact(view, root, leaves)
        return value

    # ------------------------------------------------------------------ #
    # Resubstitution matching
    # ------------------------------------------------------------------ #
    @staticmethod
    def _pack_tables(ids: Sequence[int], tables: Dict[int, int], words: int) -> np.ndarray:
        packed = np.empty((len(ids), words), dtype=np.uint64)
        if words == 1:
            for row, divisor in enumerate(ids):
                packed[row, 0] = tables[divisor]
        else:
            for row, divisor in enumerate(ids):
                table = tables[divisor]
                for word in range(words):
                    packed[row, word] = (table >> (64 * word)) & _UINT64_MASK
        return packed

    @staticmethod
    def _pack_scalar(value: int, words: int) -> np.ndarray:
        return np.array(
            [(value >> (64 * word)) & _UINT64_MASK for word in range(words)],
            dtype=np.uint64,
        )

    def resub_rank_divisors(self, divisors, tables, target, mask):
        kernels = self._kernels()
        count = len(divisors)
        if kernels is None or count < _NATIVE_RESUB_MIN or mask <= 0:
            return super().resub_rank_divisors(divisors, tables, target, mask)
        words = (mask.bit_length() + 63) // 64
        similarity = kernels.resub_similarity(
            self._pack_tables(divisors, tables, words),
            self._pack_scalar(target, words),
            self._pack_scalar(mask, words),
        )
        # Stable argsort == the reference's stable sorted(key=similarity).
        order = np.argsort(similarity, kind="stable")
        return [divisors[i] for i in order]

    def resub_one_match(self, ranked, tables, target, mask):
        kernels = self._kernels()
        count = len(ranked)
        if kernels is None or count < _NATIVE_RESUB_MIN or mask <= 0:
            return super().resub_one_match(ranked, tables, target, mask)
        words = (mask.bit_length() + 63) // 64
        found = kernels.resub_one_match(
            self._pack_tables(ranked, tables, words),
            self._pack_scalar(target, words),
            self._pack_scalar(mask, words),
        )
        if found is None:
            return None
        i, j, combo = found
        return (
            ranked[i],
            ranked[j],
            bool(combo & 4),
            bool(combo & 2),
            bool(combo & 1),
        )

    # ------------------------------------------------------------------ #
    # Commit
    # ------------------------------------------------------------------ #
    def sweep_commit(self, aig, candidates):
        kernels = self._kernels()
        if kernels is None:
            return super().sweep_commit(aig, candidates)
        from repro.aig.aig import AigError

        # The reference loop with the dirty set held as a uint8 bitmap over
        # the struct-of-arrays id space: the per-candidate footprint screen
        # and the journal merge run as compiled scans.  Decision sequence,
        # journals and the returned dirty set are identical by construction.
        order = sorted(candidates, key=lambda cand: (-cand.gain, cand.node))
        bitmap = np.zeros(max(aig.num_nodes(), 1), dtype=np.uint8)
        dirty_any = False
        applied: List[Any] = []
        conflicts = 0
        has_node = aig.has_node
        for candidate in order:
            if not has_node(candidate.node) or not aig.is_and(candidate.node):
                continue
            touched = False
            if dirty_any:
                footprint = candidate.footprint()
                ids = np.fromiter(footprint, np.int64, len(footprint))
                touched = kernels.bitmap_any(bitmap, ids)
            if touched:
                fresh_gain = candidate.revalidate(aig)
                if fresh_gain is None or fresh_gain < candidate.min_gain:
                    conflicts += 1
                    continue
            elif not all(has_node(ref) for ref in candidate.refs):
                conflicts += 1
                continue
            journal = aig.journal_begin()
            try:
                candidate.apply(aig)
            except AigError:
                # Same guard as the reference: a replacement racing into a
                # cycle is rejected cleanly and the candidate dropped.
                pass
            finally:
                aig.journal_end()
            if journal:
                ids = np.fromiter(journal, np.int64, len(journal))
                top = int(ids.max())
                if top >= bitmap.shape[0]:
                    grown = np.zeros(max(top + 1, bitmap.shape[0] * 2), np.uint8)
                    grown[: bitmap.shape[0]] = bitmap
                    bitmap = grown
                kernels.bitmap_mark(bitmap, ids)
                dirty_any = True
            if not (aig.has_node(candidate.node) and aig.is_and(candidate.node)):
                applied.append(candidate)
        dirty = set(np.flatnonzero(bitmap).tolist())
        return applied, dirty, conflicts

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
        """Raw ``csr_matvecs`` into a zeroed workspace; None -> caller falls back."""
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
        out = self._operator_ws(matrix).get(("spmm", key), (rows, vecs))
        out.fill(0.0)  # csr_matvecs accumulates into its output
        indptr, indices, data = parts
        _csr_matvecs(rows, matrix.shape[1], vecs, indptr, indices, data, x.ravel(), out.ravel())
        return out

    def csr_aggregate(self, matrix, x, key=None):
        out = self._spmm(matrix, x, ("fwd", key))
        if out is None:
            return matrix @ x
        return out

    def csr_aggregate_t(self, matrix, grad, key=None):
        if getattr(matrix, "format", None) == "csr":
            # A.T @ G through the transposed CSR accumulates per output row
            # in ascending column order — the same order as the wrapper's
            # CSC path, hence bitwise-identical.
            transposed = self._transposed_csr(matrix)
            out = self._spmm(transposed, grad, ("bwd", key))
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
