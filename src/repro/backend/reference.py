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

from repro.backend.api import OPS, Backend

class ReferenceBackend(Backend):
    """Canonical numpy implementations of the whole op vocabulary."""

    name = "reference"

    def op_support(self) -> Dict[str, str]:
        return {op: "numpy" for op in OPS}

    # ------------------------------------------------------------------ #
    # AIG simulation
    # ------------------------------------------------------------------ #
    def simulate_level_step(self, values, ids, f0v, f0m, f1v, f1m) -> None:
        v0 = values[f0v]
        v0 ^= f0m
        v1 = values[f1v]
        v1 ^= f1m
        v0 &= v1
        values[ids] = v0

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
