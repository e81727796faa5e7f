"""Stand-alone optimization passes and compound synthesis scripts.

These drivers implement the SOTA baselines of the paper's Table I.  Each
pass runs in one of two strategies:

* ``"sweep"`` (the default) — the batched sweep-and-commit engine of
  :mod:`repro.synth.sweep`: candidates for all nodes are scored against one
  frozen kernel snapshot, then a maximal footprint-disjoint set of winners
  is committed in a single mutation sweep, repeated until convergence.
* ``"sequential"`` — the historical reference: one topological traversal
  applying every beneficial candidate immediately (the "stand-alone fashion
  with single optimization operation in the single DAG-aware traversal"
  that BoolGebra's orchestration is compared against).  Kept as the
  behavioural reference the sweep engine is tested against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.aig.aig import Aig
from repro.synth.balance import balance
from repro.synth.refactor import RefactorParams, find_refactor_candidate
from repro.synth.resub import ResubParams, find_resub_candidate
from repro.synth.rewrite import RewriteParams, find_rewrite_candidate

#: Default scoring/commit strategy of every pass driver.
DEFAULT_STRATEGY = "sweep"

_STRATEGIES = ("sweep", "sequential")


def _check_strategy(strategy: str) -> str:
    if strategy not in _STRATEGIES:
        raise ValueError(
            f"unknown pass strategy {strategy!r}; expected one of {_STRATEGIES}"
        )
    return strategy


@dataclass
class PassStats:
    """Summary of one optimization pass."""

    name: str
    size_before: int
    size_after: int
    depth_before: int
    depth_after: int
    applied: int
    runtime_seconds: float
    #: Scoring/commit strategy the pass ran under.
    strategy: str = "sequential"
    #: Number of score-and-commit sweeps (0 for sequential traversals).
    sweeps: int = 0
    #: Candidates skipped because an earlier commit touched their footprint.
    conflicts: int = 0

    @property
    def reduction(self) -> int:
        """Absolute AND-node reduction achieved by the pass."""
        return self.size_before - self.size_after

    @property
    def size_ratio(self) -> float:
        """Optimized size over original size (the metric of the paper's Table I)."""
        if self.size_before == 0:
            return 1.0
        return self.size_after / self.size_before

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.size_before} -> {self.size_after} ANDs "
            f"({self.applied} transforms, depth {self.depth_before} -> {self.depth_after}, "
            f"{self.runtime_seconds:.2f}s)"
        )

    # JSON interchange (used by reporting and the synthesis service) -------- #
    def to_dict(self) -> Dict:
        """Return a JSON-serializable rendering of the statistics."""
        return {
            "name": self.name,
            "size_before": self.size_before,
            "size_after": self.size_after,
            "depth_before": self.depth_before,
            "depth_after": self.depth_after,
            "applied": self.applied,
            "runtime_seconds": self.runtime_seconds,
            "strategy": self.strategy,
            "sweeps": self.sweeps,
            "conflicts": self.conflicts,
        }

    @staticmethod
    def from_dict(payload: Dict) -> "PassStats":
        """Rebuild statistics previously rendered by :meth:`to_dict`."""
        return PassStats(
            name=payload["name"],
            size_before=payload["size_before"],
            size_after=payload["size_after"],
            depth_before=payload["depth_before"],
            depth_after=payload["depth_after"],
            applied=payload["applied"],
            runtime_seconds=payload.get("runtime_seconds", 0.0),
            strategy=payload.get("strategy", "sequential"),
            sweeps=payload.get("sweeps", 0),
            conflicts=payload.get("conflicts", 0),
        )


def _single_operation_pass(
    aig: Aig,
    name: str,
    finder: Callable,
    params,
) -> PassStats:
    """Run one operation over every node in topological order (in place)."""
    size_before = aig.size
    depth_before = aig.depth()
    start = time.perf_counter()
    applied = 0
    for node in aig.topological_order():
        if not aig.has_node(node) or not aig.is_and(node):
            continue
        candidate = finder(aig, node, params)
        if candidate is None:
            continue
        candidate.apply(aig)
        applied += 1
    aig.cleanup()
    runtime = time.perf_counter() - start
    return PassStats(
        name=name,
        size_before=size_before,
        size_after=aig.size,
        depth_before=depth_before,
        depth_after=aig.depth(),
        applied=applied,
        runtime_seconds=runtime,
        strategy="sequential",
    )


def _sweep_operation_pass(aig: Aig, name: str, sweep_fn: Callable, params) -> PassStats:
    """Run one operation through the batched sweep-and-commit engine."""
    size_before = aig.size
    depth_before = aig.depth()
    start = time.perf_counter()
    report = sweep_fn(aig, params)
    aig.cleanup()
    runtime = time.perf_counter() - start
    return PassStats(
        name=name,
        size_before=size_before,
        size_after=aig.size,
        depth_before=depth_before,
        depth_after=aig.depth(),
        applied=report.applied,
        runtime_seconds=runtime,
        strategy="sweep",
        sweeps=report.sweeps,
        conflicts=report.conflicts,
    )


def rewrite_pass(
    aig: Aig,
    params: Optional[RewriteParams] = None,
    strategy: str = DEFAULT_STRATEGY,
) -> PassStats:
    """Stand-alone ``rewrite`` over the whole network (modifies ``aig`` in place)."""
    if _check_strategy(strategy) == "sweep":
        from repro.synth.sweep import sweep_rewrites

        return _sweep_operation_pass(aig, "rewrite", sweep_rewrites, params)
    return _single_operation_pass(aig, "rewrite", find_rewrite_candidate, params or RewriteParams())


def resub_pass(
    aig: Aig,
    params: Optional[ResubParams] = None,
    strategy: str = DEFAULT_STRATEGY,
) -> PassStats:
    """Stand-alone ``resub`` over the whole network (modifies ``aig`` in place)."""
    if _check_strategy(strategy) == "sweep":
        from repro.synth.sweep import sweep_resubs

        return _sweep_operation_pass(aig, "resub", sweep_resubs, params)
    return _single_operation_pass(aig, "resub", find_resub_candidate, params or ResubParams())


def refactor_pass(
    aig: Aig,
    params: Optional[RefactorParams] = None,
    strategy: str = DEFAULT_STRATEGY,
) -> PassStats:
    """Stand-alone ``refactor`` over the whole network (modifies ``aig`` in place)."""
    if _check_strategy(strategy) == "sweep":
        from repro.synth.sweep import sweep_refactors

        return _sweep_operation_pass(aig, "refactor", sweep_refactors, params)
    return _single_operation_pass(
        aig, "refactor", find_refactor_candidate, params or RefactorParams()
    )


def balance_pass(aig: Aig, strategy: str = DEFAULT_STRATEGY) -> PassStats:
    """Depth-oriented balancing; returns stats and the balanced network size.

    Balancing is inherently batched — it rebuilds the whole network in one
    topological sweep — so both strategies share the same implementation;
    the parameter exists for API uniformity with the other pass drivers.
    """
    _check_strategy(strategy)
    size_before = aig.size
    depth_before = aig.depth()
    start = time.perf_counter()
    balanced = balance(aig)
    runtime = time.perf_counter() - start
    stats = PassStats(
        name="balance",
        size_before=size_before,
        size_after=balanced.size,
        depth_before=depth_before,
        depth_after=balanced.depth(),
        applied=1,
        runtime_seconds=runtime,
        strategy=strategy,
        sweeps=1 if strategy == "sweep" else 0,
    )
    # Balancing rebuilds the network; splice the result back into the caller's
    # object so that every pass driver has in-place semantics.
    _adopt(aig, balanced)
    return stats


def compress_script(
    aig: Aig, rounds: int = 1, strategy: str = DEFAULT_STRATEGY
) -> List[PassStats]:
    """A small compound script (rw; rs; rf per round), similar to ABC's ``compress``.

    Provided for completeness and used by the ablation benchmarks; the paper's
    baselines are the single stand-alone passes above.
    """
    _check_strategy(strategy)
    stats: List[PassStats] = []
    for _ in range(max(1, rounds)):
        stats.append(rewrite_pass(aig, strategy=strategy))
        stats.append(resub_pass(aig, strategy=strategy))
        stats.append(refactor_pass(aig, strategy=strategy))
    return stats


def _adopt(target: Aig, source: Aig) -> None:
    """Replace the contents of ``target`` with those of ``source`` (same interface).

    The structural version moves past every version ``target`` had: the
    copy's own count (its construction count) can equal the old one, and
    caches keyed on (network, version) would then serve entries computed on
    the replaced network.
    """
    version = target.modification_count
    target.__dict__.update(source.copy(target.name).__dict__)
    target.modification_count = version + 1
