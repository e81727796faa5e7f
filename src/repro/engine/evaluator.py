"""Pluggable batch evaluation of decision vectors.

Candidate evaluation — running Algorithm 1 once per sampled decision vector,
each time on a fresh copy of the design — dominates the runtime of dataset
generation and of the BoolGebra flow, and it is embarrassingly parallel.
This module makes the backend swappable:

* :class:`SerialEvaluator` — the plain in-process loop (the seed behaviour).
* :class:`ProcessPoolEvaluator` — a :class:`concurrent.futures`
  process pool; the design is shipped to each worker once (pool initializer),
  the vectors are evaluated in chunks, and the results are re-assembled in
  submission order so the output is deterministic and index-aligned with the
  input regardless of worker scheduling.

Both evaluators produce identical :class:`~repro.orchestration.sampling.SampleRecord`
lists for the same inputs (orchestration itself is deterministic); with
``normalize_runtime=True`` the per-record wall times are zeroed so the results
are bit-for-bit reproducible across backends, which the test-suite asserts.
"""

from __future__ import annotations

import abc
import math
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Union

from repro.aig.aig import Aig
from repro.backend import get_backend, prewarm_default_backend, set_default_backend
from repro.obs.trace import TRACER
from repro.orchestration.decision import DecisionVector
from repro.orchestration.orchestrate import orchestrate
from repro.orchestration.sampling import SampleRecord
from repro.orchestration.transformability import OperationParams


class Evaluator(abc.ABC):
    """Strategy interface: evaluate a batch of decision vectors on one design."""

    name: ClassVar[str] = "abstract"

    @abc.abstractmethod
    def evaluate(
        self,
        aig: Aig,
        decision_vectors: Sequence[DecisionVector],
        params: Optional[OperationParams] = None,
    ) -> List[SampleRecord]:
        """Run Algorithm 1 for every vector (on copies of ``aig``), in order."""

    def __call__(
        self,
        aig: Aig,
        decision_vectors: Sequence[DecisionVector],
        params: Optional[OperationParams] = None,
    ) -> List[SampleRecord]:
        return self.evaluate(aig, decision_vectors, params=params)


def _evaluate_serial(
    aig: Aig,
    decision_vectors: Sequence[DecisionVector],
    params: Optional[OperationParams],
) -> List[SampleRecord]:
    return [
        SampleRecord(
            decisions=decisions,
            result=orchestrate(aig, decisions, params=params, in_place=False),
        )
        for decisions in decision_vectors
    ]


def _normalize_runtimes(records: List[SampleRecord]) -> List[SampleRecord]:
    for record in records:
        if record.result is not None:
            record.result.runtime_seconds = 0.0
    return records


class SerialEvaluator(Evaluator):
    """The in-process evaluation loop (reference backend)."""

    name = "serial"

    def __init__(self, normalize_runtime: bool = False) -> None:
        self.normalize_runtime = normalize_runtime

    def evaluate(
        self,
        aig: Aig,
        decision_vectors: Sequence[DecisionVector],
        params: Optional[OperationParams] = None,
    ) -> List[SampleRecord]:
        records = _evaluate_serial(aig, list(decision_vectors), params)
        if self.normalize_runtime:
            _normalize_runtimes(records)
        return records


# --------------------------------------------------------------------------- #
# Process-pool backend
# --------------------------------------------------------------------------- #
# The design and operation parameters are installed once per worker by the
# pool initializer; each task then only carries its chunk of decision vectors.
_WORKER_STATE: Dict[str, Any] = {}


def _init_worker(
    aig_bytes: bytes,
    params: Optional[OperationParams],
    backend_name: Optional[str] = None,
    traceparent: Optional[str] = None,
) -> None:
    from repro.aig.kernels import cached_topological_order

    # Adopt the parent's trace context for the lifetime of this worker, so
    # backend-op spans recorded here land in the caller's trace once shipped.
    TRACER.adopt(traceparent)
    if backend_name is not None:
        # Propagate the parent's compute backend: process-local selections
        # (``use_backend`` / ``FlowConfig.backend``) do not travel with the
        # environment, so the pool passes the effective name explicitly.
        set_default_backend(backend_name)
    # Load (or build) the backend's compiled kernel library once per worker
    # so the first evaluated chunk never pays for it.
    prewarm_default_backend()
    _WORKER_STATE["aig"] = pickle.loads(aig_bytes)
    _WORKER_STATE["params"] = params
    # Warm the per-network kernel caches once per worker: every sample copies
    # the parent design, and the copy walks the parent's (cached) topological
    # order instead of re-running the DFS per decision vector.
    cached_topological_order(_WORKER_STATE["aig"])


def _evaluate_chunk(decision_vectors: List[DecisionVector]) -> List[SampleRecord]:
    return _evaluate_serial(
        _WORKER_STATE["aig"], decision_vectors, _WORKER_STATE["params"]
    )


class ProcessPoolEvaluator(Evaluator):
    """Chunked evaluation across a pool of worker processes.

    Parameters
    ----------
    max_workers:
        Worker process count (default: the machine's CPU count).
    chunk_size:
        Vectors per task; defaults to an even split into roughly four tasks
        per worker, which balances scheduling slack against pickling overhead.
    min_parallel:
        Batches smaller than this run serially — forking costs more than it
        saves on tiny batches.
    normalize_runtime:
        Zero the per-record wall times so results are bit-for-bit identical
        to :class:`SerialEvaluator` output.
    fallback_to_serial:
        If the pool cannot be created (restricted environments without
        working process semaphores), evaluate serially instead of raising.
    """

    name = "process"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        min_parallel: int = 4,
        normalize_runtime: bool = False,
        fallback_to_serial: bool = True,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self.chunk_size = chunk_size
        self.min_parallel = min_parallel
        self.normalize_runtime = normalize_runtime
        self.fallback_to_serial = fallback_to_serial

    def _serial(self) -> SerialEvaluator:
        return SerialEvaluator(normalize_runtime=self.normalize_runtime)

    def evaluate(
        self,
        aig: Aig,
        decision_vectors: Sequence[DecisionVector],
        params: Optional[OperationParams] = None,
    ) -> List[SampleRecord]:
        vectors = list(decision_vectors)
        if self.max_workers == 1 or len(vectors) < max(2, self.min_parallel):
            return self._serial().evaluate(aig, vectors, params=params)
        chunk_size = self.chunk_size or max(
            1, math.ceil(len(vectors) / (self.max_workers * 4))
        )
        chunks = [
            vectors[start : start + chunk_size]
            for start in range(0, len(vectors), chunk_size)
        ]
        workers = min(self.max_workers, len(chunks))
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(
                    pickle.dumps(aig),
                    params,
                    get_backend().name,
                    TRACER.current_traceparent() if TRACER.enabled else None,
                ),
            ) as executor:
                # executor.map preserves submission order: the concatenation
                # below is index-aligned with ``decision_vectors``.
                chunk_results = list(executor.map(_evaluate_chunk, chunks))
        except (OSError, PermissionError, RuntimeError):
            if not self.fallback_to_serial:
                raise
            return self._serial().evaluate(aig, vectors, params=params)
        records = [record for chunk in chunk_results for record in chunk]
        if self.normalize_runtime:
            _normalize_runtimes(records)
        return records


# --------------------------------------------------------------------------- #
# Resolution and result fingerprinting
# --------------------------------------------------------------------------- #
def get_evaluator(spec: Union[None, int, str, Evaluator] = None) -> Evaluator:
    """Resolve an evaluator specification.

    ``None`` and ``"serial"`` yield the serial backend; ``"process"`` (alias
    ``"parallel"``) yields a process pool, optionally sized with a suffix as
    in ``"process:8"``.  An integer is a worker count — ``1`` means serial,
    more means a pool of that size (the canonical spelling of every
    ``--jobs N`` flag).  An :class:`Evaluator` instance passes through.
    """
    if spec is None:
        return SerialEvaluator()
    if isinstance(spec, Evaluator):
        return spec
    if isinstance(spec, int) and not isinstance(spec, bool):
        if spec < 1:
            raise ValueError(f"evaluator worker count must be >= 1, got {spec}")
        return ProcessPoolEvaluator(max_workers=spec) if spec > 1 else SerialEvaluator()
    if not isinstance(spec, str):
        raise ValueError(f"evaluator spec must be None, a string or an Evaluator, got {spec!r}")
    text = spec.strip().lower()
    if text in ("", "serial"):
        return SerialEvaluator()
    name, _, arg = text.partition(":")
    if name in ("process", "parallel", "processpool"):
        if arg:
            try:
                workers = int(arg)
            except ValueError:
                raise ValueError(f"invalid worker count in evaluator spec {spec!r}") from None
            return ProcessPoolEvaluator(max_workers=workers)
        return ProcessPoolEvaluator()
    raise ValueError(f"unknown evaluator spec {spec!r} (expected 'serial' or 'process[:N]')")


def record_signature(record: SampleRecord) -> bytes:
    """Canonical bytes of a sample record, excluding wall time.

    Two records compare equal under this fingerprint exactly when they carry
    the same decisions and the same optimization outcome; the test-suite uses
    it to assert serial/parallel backend equivalence.
    """
    result = record.result
    payload = (
        sorted((int(node), int(op)) for node, op in record.decisions.items()),
        None
        if result is None
        else (
            result.design,
            result.size_before,
            result.size_after,
            result.depth_before,
            result.depth_after,
            sorted((int(op), count) for op, count in result.applied_counts.items()),
            sorted((int(node), int(op)) for node, op in result.applied_nodes.items()),
            result.skipped,
        ),
    )
    return pickle.dumps(payload)
