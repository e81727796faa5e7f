"""Call rollups recorded around calls into the program's layers.

The traced mode of the benchmark patches the public functions of each layer
from the outside (nothing under ``src/`` changes) and removes the patches
again afterwards, so untraced and traced passes can alternate in one
process.  No call is kept as a span of its own: every call is rolled up
in memory as count and total per ``(parent, name)``, so hot leaf calls
(backend ops, per-node candidate evaluation) cost a few dictionary updates
and the record stays small whatever the design size.

Self time of a call is its duration minus the part covered by wrapped calls
made inside it.  A layer's busy time counts only its outermost calls, so a
layer calling into itself is not counted twice.

Each thread records into its own state, so the per-call path takes no lock;
the report merges the threads.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


class Stat:
    """Aggregate of every call recorded under one name."""

    __slots__ = ("layer", "count", "busy", "self_s", "failures")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.count = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.failures = 0


class _ThreadState:
    """One thread's call stack, per-layer nesting depth and records."""

    __slots__ = ("stack", "depth", "stats", "layer_busy", "rollups")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.depth: Dict[str, int] = {}
        self.stats: Dict[str, list] = {}
        self.layer_busy: Dict[str, float] = {}
        self.rollups: Dict[Tuple[Optional[str], str], list] = {}


class Recorder:
    """Collects per-name stats, per-layer busy time, rollups and counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._layers: Dict[str, str] = {}
        self.counters: Dict[str, float] = {}
        self._patches: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _state(self) -> _ThreadState:
        state = self._local.state = _ThreadState()
        with self._lock:
            self._threads.append(state)
        return state

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(
        self,
        name: str,
        layer: str,
        fn: Callable,
        observe: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recorded as ``name`` in ``layer``.

        ``observe(recorder, args, kwargs, result)`` runs after a successful
        call (outside the timed interval) to derive counters from it.
        """
        self._layers[name] = layer
        local = self._local
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = self._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [0.0, name]
            stack.append(frame)
            depth = state.depth
            nested = depth.get(layer, 0)
            depth[layer] = nested + 1
            failed = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
            finally:
                duration = clock() - start
                stack.pop()
                depth[layer] = nested
                parent_name = None
                if parent is not None:
                    parent[0] += duration
                    parent_name = parent[1]
                entry = state.stats.get(name)
                if entry is None:
                    entry = state.stats[name] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                entry[3] += failed
                if not nested:
                    state.layer_busy[layer] = state.layer_busy.get(layer, 0.0) + duration
                roll = state.rollups.get((parent_name, name))
                if roll is None:
                    roll = state.rollups[(parent_name, name)] = [0, 0.0]
                roll[0] += 1
                roll[1] += duration
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def span(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one recorded call."""
        return self.wrap(name, layer, fn)(*args, **kwargs)

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def patch(self, owner: object, attr: str, name: str, layer: str, observe=None):
        """Replace ``owner.attr`` with its recorded wrapper until :meth:`unpatch`."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        target = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, layer, target, observe=observe))
        self._patches.append((owner, attr, original, own))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ #
    # Reporting (merged over threads)
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> Dict[str, Stat]:
        merged: Dict[str, Stat] = {}
        for state in list(self._threads):
            for name, (count, busy, self_s, failures) in state.stats.items():
                stat = merged.get(name)
                if stat is None:
                    stat = merged[name] = Stat(self._layers[name])
                stat.count += count
                stat.busy += busy
                stat.self_s += self_s
                stat.failures += failures
        return merged

    def count(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.count if stat else 0

    def layer_rows(self) -> List[Tuple[str, int, float, float, int]]:
        """``(layer, count, busy s, self s, failures)`` per layer."""
        busy: Dict[str, float] = {}
        for state in list(self._threads):
            for layer, seconds in state.layer_busy.items():
                busy[layer] = busy.get(layer, 0.0) + seconds
        rows: Dict[str, list] = {}
        for stat in self.stats.values():
            row = rows.setdefault(stat.layer, [0, 0.0, 0])
            row[0] += stat.count
            row[1] += stat.self_s
            row[2] += stat.failures
        return [
            (layer, row[0], busy.get(layer, 0.0), row[1], row[2])
            for layer, row in sorted(rows.items())
        ]

    def top_rollups(self, limit: int = 16) -> List[Tuple[Optional[str], str, int, float]]:
        """The ``(parent, name, count, total s)`` rollups with the largest totals."""
        merged: Dict[Tuple[Optional[str], str], list] = {}
        for state in list(self._threads):
            for key, (count, total) in state.rollups.items():
                roll = merged.setdefault(key, [0, 0.0])
                roll[0] += count
                roll[1] += total
        rows = [(parent, name, count, total) for (parent, name), (count, total) in merged.items()]
        rows.sort(key=lambda row: -row[3])
        return rows[:limit]
