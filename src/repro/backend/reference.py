"""The canonical numpy backend.

This module holds the *reference* implementation of every op in the backend
protocol — the exact code the optimizer and the learning pipeline ran before
the backend split (PR 2-5).  It is always available, depends only on numpy
(plus whatever sparse matrix type the caller hands in, which it treats
opaquely through ``@``), and defines the bit-exact contract every other
backend is gated against.

Do not "optimize" this file: its value is being the plainly-readable ground
truth.  Speed work goes into :mod:`repro.backend.native`, which must
reproduce these results byte for byte and falls back to this code op by op.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

import numpy as np

from repro.backend.api import OPS, Backend

try:  # Python >= 3.10: C-level popcount for the resub similarity metric.
    _popcount_int = int.bit_count
except AttributeError:  # pragma: no cover - exercised only on Python 3.9
    def _popcount_int(value: int) -> int:
        return bin(value).count("1")


# Vectorized popcount of a uint64 matrix (cut_merge_filter).  numpy >= 2.0
# has a dedicated ufunc; older versions get the classic SWAR bit-twiddle.
if hasattr(np, "bitwise_count"):
    popcount_matrix = np.bitwise_count
else:  # pragma: no cover - exercised only on numpy < 2.0
    _SWAR1 = np.uint64(0x5555555555555555)
    _SWAR2 = np.uint64(0x3333333333333333)
    _SWAR4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    _SWARM = np.uint64(0x0101010101010101)

    def popcount_matrix(words: np.ndarray) -> np.ndarray:
        v = words - ((words >> np.uint64(1)) & _SWAR1)
        v = (v & _SWAR2) + ((v >> np.uint64(2)) & _SWAR2)
        v = (v + (v >> np.uint64(4))) & _SWAR4
        return (v * _SWARM) >> np.uint64(56)


class ReferenceBackend(Backend):
    """Canonical numpy implementations of the whole op vocabulary."""

    name = "reference"

    def op_support(self) -> Dict[str, str]:
        return {op: "numpy" for op in OPS}

    # ------------------------------------------------------------------ #
    # AIG simulation / cut enumeration
    # ------------------------------------------------------------------ #
    def simulate_level_step(self, values, ids, f0v, f0m, f1v, f1m) -> None:
        v0 = values[f0v]
        v0 ^= f0m
        v1 = values[f1v]
        v1 ^= f1m
        v0 &= v1
        values[ids] = v0

    def cut_merge_filter(self, sig0, sig1, k):
        feasible = popcount_matrix(sig0[:, :, None] | sig1[:, None, :]) <= k
        return np.nonzero(feasible)

    # ------------------------------------------------------------------ #
    # Sweep scoring
    # ------------------------------------------------------------------ #
    def cut_table_exact(self, view, root, leaves) -> int:
        from repro.aig.truth import cached_table_var, table_mask

        num_vars = len(leaves)
        mask = table_mask(num_vars)
        tables = {leaf: cached_table_var(i, num_vars) for i, leaf in enumerate(leaves)}
        tables[0] = 0
        if root in tables:
            return tables[root]
        fanin0 = view._fanin0_list
        fanin1 = view._fanin1_list
        # Iterative post-order over the cone bounded by the leaves.
        stack = [(root, False)]
        visited = set(leaves)
        visited.add(0)
        while stack:
            node, expanded = stack.pop()
            if expanded:
                f0 = fanin0[node]
                f1 = fanin1[node]
                t0 = tables[f0 >> 1]
                t1 = tables[f1 >> 1]
                if f0 & 1:
                    t0 ^= mask
                if f1 & 1:
                    t1 ^= mask
                tables[node] = t0 & t1
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            stack.append((fanin1[node] >> 1, False))
            stack.append((fanin0[node] >> 1, False))
        return tables[root]

    # ------------------------------------------------------------------ #
    # Resubstitution matching
    # ------------------------------------------------------------------ #
    def resub_zero_match(self, divisors, tables, target, mask):
        for divisor in divisors:
            table = tables[divisor]
            if table == target:
                return divisor, False
            if table == (target ^ mask):
                return divisor, True
        return None

    def resub_rank_divisors(self, divisors, tables, target, mask):
        def similarity(divisor: int) -> int:
            table = tables[divisor]
            agreement = _popcount_int((table ^ target) & mask)
            return min(agreement, _popcount_int(table ^ target ^ mask))

        return sorted(divisors, key=similarity)

    def resub_one_match(self, ranked, tables, target, mask):
        for index, first in enumerate(ranked):
            table_a = tables[first]
            for second in ranked[index + 1 :]:
                table_b = tables[second]
                for compl_a in (False, True):
                    ta = table_a ^ mask if compl_a else table_a
                    for compl_b in (False, True):
                        tb = table_b ^ mask if compl_b else table_b
                        conjunction = ta & tb
                        if conjunction == target:
                            return first, second, compl_a, compl_b, False
                        if (conjunction ^ mask) == target:
                            return first, second, compl_a, compl_b, True
        return None

    # ------------------------------------------------------------------ #
    # Commit
    # ------------------------------------------------------------------ #
    def sweep_commit(self, aig, candidates):
        from repro.aig.aig import AigError

        order = sorted(candidates, key=lambda cand: (-cand.gain, cand.node))
        dirty: Set[int] = set()
        applied: List[Any] = []
        conflicts = 0
        has_node = aig.has_node
        for candidate in order:
            if not has_node(candidate.node) or not aig.is_and(candidate.node):
                continue
            if not dirty.isdisjoint(candidate.footprint()):
                fresh_gain = candidate.revalidate(aig)
                if fresh_gain is None or fresh_gain < candidate.min_gain:
                    conflicts += 1
                    continue
            elif not all(has_node(ref) for ref in candidate.refs):
                # Referenced nodes (cut leaves, divisors) only need to be
                # alive: commits preserve every surviving node's global
                # function, so a touched-but-live reference still computes
                # what it did when the candidate was scored.
                conflicts += 1
                continue
            journal = aig.journal_begin()
            try:
                candidate.apply(aig)
            except AigError:
                # Resubstitution replacements can race into a cycle when
                # distant commits re-routed the divisor's fanout cone; the
                # replace() guard rejects them cleanly and the candidate is
                # simply dropped.
                pass
            finally:
                aig.journal_end()
            dirty |= journal
            if not (aig.has_node(candidate.node) and aig.is_and(candidate.node)):
                # The root was consumed: the replacement really happened.
                applied.append(candidate)
        return applied, dirty, conflicts

    # ------------------------------------------------------------------ #
    # GNN training
    # ------------------------------------------------------------------ #
    def csr_aggregate(self, matrix, x, key=None):
        return matrix @ x

    def csr_aggregate_t(self, matrix, grad, key=None):
        return matrix.T @ grad

    def sage_layer_fused(self, conv, activation, dropout, x, aggregation, training, key=None):
        x = conv.forward(x, aggregation, training=training, backend=self)
        x = activation.forward(x, training=training)
        return dropout.forward(x, training=training)

    def sage_layer_backward(self, conv, activation, dropout, grad, input_grad, key=None):
        grad = dropout.backward(grad)
        grad = activation.backward(grad)
        return conv.backward(grad, input_grad=input_grad, backend=self)

    def adam_step_fused(self, optimizer) -> None:
        optimizer._step += 1
        bias_correction1 = 1.0 - optimizer.beta1 ** optimizer._step
        bias_correction2 = 1.0 - optimizer.beta2 ** optimizer._step
        for index, parameter in enumerate(optimizer.parameters):
            grad = parameter.grad
            if optimizer.weight_decay:
                grad = grad + optimizer.weight_decay * parameter.value
            first = optimizer._first_moments[index]
            second = optimizer._second_moments[index]
            scratch = optimizer._scratch_a[index]
            denominator = optimizer._scratch_b[index]
            # first = beta1 * first + (1 - beta1) * grad
            first *= optimizer.beta1
            np.multiply(grad, 1.0 - optimizer.beta1, out=scratch)
            first += scratch
            # second = beta2 * second + (1 - beta2) * grad * grad (the factor
            # order matches the textbook expression so rounding is identical)
            second *= optimizer.beta2
            np.multiply(grad, 1.0 - optimizer.beta2, out=scratch)
            scratch *= grad
            second += scratch
            # value -= lr * (first / bc1) / (sqrt(second / bc2) + eps)
            np.divide(second, bias_correction2, out=denominator)
            np.sqrt(denominator, out=denominator)
            denominator += optimizer.eps
            np.divide(first, bias_correction1, out=scratch)
            scratch *= optimizer.lr
            scratch /= denominator
            parameter.value -= scratch
