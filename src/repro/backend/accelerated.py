"""The accelerated backend: workspaces, raw scipy SpMM, optional Numba.

Speed comes from three mechanisms, feature-detected per op at construction
and falling back op-by-op to the inherited reference code:

* **Preallocated workspaces** — every hot op writes into key-addressed
  buffers with explicit ``out=`` targets, so steady-state training steps
  and sweep scoring allocate (almost) nothing.  The GNN buffers hang on the
  sparse operator they serve (one set per thread), so a training run reuses
  them across epochs and batches and they die with its operators.  All the
  fusions below keep the reference's arithmetic operations in the
  reference's order, which is what makes the results bit-identical: an
  ``out=`` target changes where a result lands, never what it is.  Float
  products go through numpy's BLAS only (``np.dot``): a second BLAS library
  would bring a second thread pool to compete with numpy's.
* **scipy raw sparse kernels** — the GraphSAGE aggregation ``A @ X`` and its
  transposed backward product go straight to ``csr_matvecs`` on cached CSR
  (and cached transposed-CSR) arrays, skipping the wrapper's per-call
  allocation and format dispatch.  The transposed product accumulates per
  output row in ascending column order exactly like the wrapper's CSC path,
  so it is bitwise-identical — asserted by the parity suite and the bench.
* **Numba JIT** (optional) — the uint64 simulation inner loop and the cut
  merge prefilter compile to native loops when ``numba`` is importable.
  Only exact integer kernels are JIT-compiled; float math stays in numpy so
  bit-identity never depends on a JIT's floating-point codegen.

Every op is gated byte-identical to :class:`ReferenceBackend` by
``tests/backend`` and by the benchmark harness's ``identical`` assertions.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.reference import ReferenceBackend, popcount_matrix

try:  # Optional: raw CSR SpMM kernels (scipy is a repo dependency, but the
    # private _sparsetools module is probed defensively per-op anyway).
    from scipy.sparse import _sparsetools as _scipy_sparsetools

    _csr_matvecs = getattr(_scipy_sparsetools, "csr_matvecs", None)
except Exception:  # pragma: no cover - exercised only without scipy
    _csr_matvecs = None

try:  # Optional: JIT for the exact-integer inner loops.
    import numba as _numba
except Exception:  # pragma: no cover - numba is optional everywhere
    _numba = None


_UINT64_MASK = (1 << 64) - 1

#: Per-arity (leaf variable patterns, table mask) for the exact cone walk.
#: The underlying lookups are memoized in :mod:`repro.aig.truth` too, but the
#: sweep scorer calls ``cut_table_exact`` tens of thousands of times per
#: pass, so even the per-call function dispatch is worth caching away.
_TABLE_VARS: Dict[int, Tuple[Tuple[int, ...], int]] = {}


def _load_table_vars(num_vars: int) -> Tuple[Tuple[int, ...], int]:
    from repro.aig.truth import cached_table_var, table_mask

    cached = (
        tuple(cached_table_var(i, num_vars) for i in range(num_vars)),
        table_mask(num_vars),
    )
    _TABLE_VARS[num_vars] = cached
    return cached


#: Below this many divisors the reference's scalar loops win: they early-exit
#: on the first match and pay no array-packing overhead, while the vectorized
#: paths always materialize the full pair tensor.  Sweep-time divisor sets
#: are usually far below this, so the vectorized code kicks in only where it
#: actually pays.  Both sides are parity-gated identical, so the threshold
#: changes which implementation runs, never what it returns.
_SMALL_RESUB = 64

if _numba is not None:  # pragma: no cover - exercised only with numba installed

    @_numba.njit(cache=False)
    def _numba_simulate_level(values, ids, f0v, f0m, f1v, f1m):  # noqa: ANN001
        words = values.shape[1]
        for row in range(ids.shape[0]):
            target = ids[row]
            a = f0v[row]
            b = f1v[row]
            m0 = f0m[row, 0]
            m1 = f1m[row, 0]
            for col in range(words):
                values[target, col] = (values[a, col] ^ m0) & (values[b, col] ^ m1)

    @_numba.njit(cache=False)
    def _numba_merge_filter(sig0, sig1, k):  # noqa: ANN001
        rows, width = sig0.shape
        capacity = rows * width * width
        out_row = np.empty(capacity, np.int64)
        out_a = np.empty(capacity, np.int64)
        out_b = np.empty(capacity, np.int64)
        count = 0
        for row in range(rows):
            for a in range(width):
                sa = sig0[row, a]
                for b in range(width):
                    merged = sa | sig1[row, b]
                    # Kernighan popcount with early exit at k bits.
                    bits = 0
                    while merged != 0 and bits <= k:
                        merged &= merged - np.uint64(1)
                        bits += 1
                    if bits <= k:
                        out_row[count] = row
                        out_a[count] = a
                        out_b[count] = b
                        count += 1
        return out_row[:count], out_a[:count], out_b[:count]


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


class AcceleratedBackend(ReferenceBackend):
    """Workspace + scipy + optional-Numba backend, reference-identical."""

    name = "accelerated"

    def __init__(self) -> None:
        self._tls = threading.local()
        self._have_sparsetools = _csr_matvecs is not None
        self._have_numba = _numba is not None

    @staticmethod
    def native_available() -> bool:
        """Whether any native acceleration beyond plain numpy is importable.

        Workspace fusion alone already beats the reference, so the backend is
        usable regardless; this only steers the ``"auto"`` selection, which
        picks the reference backend on a bare-numpy install.
        """
        return _csr_matvecs is not None or _numba is not None

    def op_support(self) -> Dict[str, str]:
        spmm = "scipy" if self._have_sparsetools else "fallback:no-scipy-sparsetools"
        jit = "numba" if self._have_numba else "workspace"
        return {
            "simulate_level_step": jit,
            "cut_merge_filter": jit,
            "cut_truth_tables": "workspace",
            "cut_table_exact": "cached-vars-cone-walk",
            "resub_zero_match": "fallback:int-compare",
            "resub_rank_divisors": "vectorized:large-sets",
            "resub_one_match": "vectorized:large-sets",
            "sweep_commit": "fallback:journalled-python",
            "csr_aggregate": spmm,
            "csr_aggregate_t": spmm + "+cached-transpose",
            "sage_layer_fused": "workspace-fused",
            "sage_layer_backward": "workspace-fused",
            "adam_step_fused": "fallback:already-allocation-free",
        }

    # ------------------------------------------------------------------ #
    def _ws(self) -> _Workspaces:
        workspaces = getattr(self._tls, "workspaces", None)
        if workspaces is None:
            workspaces = self._tls.workspaces = _Workspaces()
        return workspaces

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

    # ------------------------------------------------------------------ #
    # AIG simulation / cut enumeration
    # ------------------------------------------------------------------ #
    def simulate_level_step(self, values, ids, f0v, f0m, f1v, f1m) -> None:
        if self._have_numba:  # pragma: no cover - requires numba
            _numba_simulate_level(values, ids, f0v, f0m, f1v, f1m)
            return
        if ids.shape[0] * values.shape[1] < 4096:
            # Small levels: the reference's plain fancy-indexing beats the
            # take/out choreography; workspaces only pay off once the level
            # temporaries are big enough for allocation to dominate.
            super().simulate_level_step(values, ids, f0v, f0m, f1v, f1m)
            return
        ws = self._ws()
        shape = (ids.shape[0], values.shape[1])
        v0 = ws.get(("sim0", shape), shape, np.uint64)
        v1 = ws.get(("sim1", shape), shape, np.uint64)
        np.take(values, f0v, axis=0, out=v0)
        np.bitwise_xor(v0, f0m, out=v0)
        np.take(values, f1v, axis=0, out=v1)
        np.bitwise_xor(v1, f1m, out=v1)
        np.bitwise_and(v0, v1, out=v0)
        values[ids] = v0

    def cut_merge_filter(self, sig0, sig1, k):
        if self._have_numba:  # pragma: no cover - requires numba
            return _numba_merge_filter(
                np.ascontiguousarray(sig0), np.ascontiguousarray(sig1), k
            )
        ws = self._ws()
        rows, width = sig0.shape
        shape = (rows, width, width)
        merged = ws.get(("cmf", shape), shape, np.uint64)
        np.bitwise_or(sig0[:, :, None], sig1[:, None, :], out=merged)
        counts = popcount_matrix(merged)
        feasible = ws.get(("cmf_ok", shape), shape, bool)
        np.less_equal(counts, k, out=feasible, casting="unsafe")
        return np.nonzero(feasible)

    # ------------------------------------------------------------------ #
    # Sweep scoring
    # ------------------------------------------------------------------ #
    def cut_truth_tables(self, aig, view, work, num_patterns=512, seed=2024, chunk=4096):
        from repro.aig.simulate import random_patterns

        tables: Dict[Tuple[int, Tuple[int, ...]], Optional[int]] = {}
        if not work:
            return tables
        patterns = random_patterns(aig.num_pis(), num_patterns, seed=seed)
        values = view.simulate(patterns, backend=self)

        by_size: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
        for item in work:
            by_size.setdefault(len(item[1]), []).append(item)

        # Unpack bit rows only for nodes some cut actually references; on the
        # sweep workloads that is a fraction of the network's slots.
        used = np.unique(
            np.fromiter(
                (n for root, leaves in work for n in (root, *leaves)), np.int64
            )
        )
        shifts = np.arange(64, dtype=np.uint64)
        sub = values[used]
        bits = ((sub[:, :, None] >> shifts) & np.uint64(1)).astype(np.uint8)
        bits = bits.reshape(used.shape[0], -1)[:, :num_patterns]
        remap = np.zeros(values.shape[0], dtype=np.int64)
        remap[used] = np.arange(used.shape[0], dtype=np.int64)

        for size, items in by_size.items():
            if size > 6:
                # Same soundness bound as the reference: packed tables live
                # in single uint64 words, so size > 6 takes the exact
                # fallback on demand.
                for item in items:
                    tables[item] = None
                continue
            width = 1 << size
            weights = np.left_shift(
                np.uint64(1), np.arange(width, dtype=np.uint64)
            ).astype(np.uint64)
            for start in range(0, len(items), chunk):
                batch = items[start : start + chunk]
                count = len(batch)
                ids = np.fromiter(
                    (n for root, leaves in batch for n in (root, *leaves)),
                    np.int64,
                    count * (size + 1),
                ).reshape(count, size + 1)
                ids = remap[ids]
                index = bits[ids[:, 1]].astype(np.uint16)
                for position in range(1, size):
                    index |= bits[ids[:, 1 + position]].astype(np.uint16) << position
                root_bits = bits[ids[:, 0]]
                rows = np.arange(count, dtype=np.int64)[:, None]
                flat = (rows * width + index).ravel()
                seen = np.zeros(count * width, dtype=bool)
                seen[flat] = True
                entries = np.zeros(count * width, dtype=np.uint8)
                entries[flat] = root_bits.ravel()
                complete = seen.reshape(count, width).all(axis=1)
                packed = (
                    entries.reshape(count, width).astype(np.uint64) * weights
                ).sum(axis=1)
                # C-level dict fill: ~50k cuts per sweep make a per-item
                # Python loop with numpy scalar extraction measurable.
                for item, value, ok in zip(
                    batch, packed.tolist(), complete.tolist()
                ):
                    tables[item] = value if ok else None
        return tables

    def cut_table_exact(self, view, root, leaves) -> int:
        # Same cone walk as the reference, tightened for the lazy-table
        # sweep scorer (tens of thousands of calls per pass): the leaf
        # variable patterns and the table mask are cached per cut arity and
        # the single stack carries pending nodes until both fanin tables
        # exist.  Pure integer arithmetic — identical tables by definition.
        num_vars = len(leaves)
        cached = _TABLE_VARS.get(num_vars)
        if cached is None:
            cached = _load_table_vars(num_vars)
        variables, mask = cached
        tables = dict(zip(leaves, variables))
        tables[0] = 0
        get = tables.get
        known = get(root)
        if known is not None:
            return known
        fanin0 = view._fanin0_list
        fanin1 = view._fanin1_list
        stack = [root]
        push = stack.append
        while stack:
            node = stack[-1]
            f0 = fanin0[node]
            f1 = fanin1[node]
            t0 = get(f0 >> 1)
            t1 = get(f1 >> 1)
            if t0 is not None and t1 is not None:
                if f0 & 1:
                    t0 ^= mask
                if f1 & 1:
                    t1 ^= mask
                tables[node] = t0 & t1
                stack.pop()
            else:
                # A node can be pushed more than once along reconvergent
                # paths; the recompute derives the identical table, and the
                # monotone fill of ``tables`` guarantees termination.
                if t0 is None:
                    push(f0 >> 1)
                if t1 is None:
                    push(f1 >> 1)
        return tables[root]

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
        count = len(divisors)
        if count < _SMALL_RESUB:
            return super().resub_rank_divisors(divisors, tables, target, mask)
        words = (mask.bit_length() + 63) // 64
        packed = self._pack_tables(divisors, tables, words)
        target_words = self._pack_scalar(target, words)
        mask_words = self._pack_scalar(mask, words)
        delta = packed ^ target_words
        direct_counts = popcount_matrix(delta)
        inverted_counts = popcount_matrix(delta ^ mask_words)
        if words == 1:
            agreement = direct_counts[:, 0]
            complemented = inverted_counts[:, 0]
        else:
            agreement = direct_counts.sum(axis=1)
            complemented = inverted_counts.sum(axis=1)
        similarity = np.minimum(agreement, complemented)
        # Stable argsort == the reference's stable sorted(key=similarity).
        order = np.argsort(similarity, kind="stable")
        return [divisors[i] for i in order]

    def resub_one_match(self, ranked, tables, target, mask):
        count = len(ranked)
        if count < _SMALL_RESUB:
            return super().resub_one_match(ranked, tables, target, mask)
        words = (mask.bit_length() + 63) // 64
        packed = self._pack_tables(ranked, tables, words)
        complement = packed ^ self._pack_scalar(mask, words)
        target_words = self._pack_scalar(target, words)
        mask_words = self._pack_scalar(mask, words)
        # All eight (compl_a, compl_b, compl_out) combinations in one
        # broadcast: axes are (a-variant, b-variant, i, j, word), flattened so
        # the combination index runs in the reference's checking order
        # (compl_a outer, compl_b middle, compl_out inner).  Per pair the
        # first matching combination wins, and across pairs the first
        # (i, j > i) in row-major order.
        variants = np.stack((packed, complement))  # (2, count, words)
        conjunction = variants[:, None, :, None, :] & variants[None, :, None, :, :]
        direct = conjunction == target_words
        inverted = (conjunction ^ mask_words) == target_words
        if words == 1:
            direct = direct[..., 0]
            inverted = inverted[..., 0]
        else:
            direct = direct.all(axis=-1)
            inverted = inverted.all(axis=-1)
        match = np.stack((direct, inverted), axis=2).reshape(8, count, count)
        upper = np.triu(match.any(axis=0), k=1)
        if not upper.any():
            return None
        flat = int(np.argmax(upper))  # first True in row-major (i, j) order
        i, j = divmod(flat, count)
        combo = int(np.argmax(match[:, i, j]))
        return (
            ranked[i],
            ranked[j],
            bool(combo & 4),
            bool(combo & 2),
            bool(combo & 1),
        )

    # ------------------------------------------------------------------ #
    # GNN training
    # ------------------------------------------------------------------ #
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
