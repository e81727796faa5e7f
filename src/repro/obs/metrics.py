"""A process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Families are created idempotently by name (``REGISTRY.counter("x")`` twice
returns the same family) and fan out into labeled children::

    _CALLS = REGISTRY.counter("backend_op_calls")
    _CALLS.labels(backend="native", op="csr_aggregate").inc()

Children are plain objects with one shared lock per registry; hot callers
resolve their child once and keep the handle (label lookup is a dict get,
``inc``/``observe`` a locked add).  Snapshots are plain JSON and **merge**:
worker processes ship their registry snapshot back with each result and
the pool sums the latest dump per worker pid into the serving process's
view, so ``/v1/metrics`` covers work done on the far side of a process
boundary.

The module-global :data:`REGISTRY` is the process-wide instance the
engine, backends and store register into; :class:`~repro.service.metrics.
ServiceMetrics` builds a private registry per service so two services in
one process never mix counters.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Default histogram upper bounds, in seconds (engine pass / latency scale).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    float("inf"),
)


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Counter:
    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class _Gauge:
    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class _Histogram:
    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(self, lock: threading.Lock, buckets: Tuple[float, ...]) -> None:
        self._lock = lock
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        if index >= len(self.buckets):
            index = len(self.buckets) - 1
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1


class _Family:
    """One named metric family: type, description, labeled children."""

    def __init__(
        self,
        name: str,
        kind: str,
        lock: threading.Lock,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self._lock = lock
        self._buckets = buckets
        self._children: Dict[Tuple[Tuple[str, str], ...], Any] = {}

    def labels(self, **labels: str):
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if self.kind == "counter":
                        child = _Counter(self._lock)
                    elif self.kind == "gauge":
                        child = _Gauge(self._lock)
                    else:
                        child = _Histogram(self._lock, self._buckets or DEFAULT_TIME_BUCKETS)
                    self._children[key] = child
        return child

    # The label-less convenience surface: family.inc() == family.labels().inc()
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def snapshot(self) -> Dict[str, Any]:
        series: List[Dict[str, Any]] = []
        with self._lock:
            items = list(self._children.items())
        for key, child in items:
            labels = dict(key)
            if self.kind == "histogram":
                series.append(
                    {
                        "labels": labels,
                        "sum": child.sum,
                        "count": child.count,
                        "buckets": [
                            [upper, count]
                            for upper, count in zip(child.buckets, child.counts)
                        ],
                    }
                )
            else:
                series.append({"labels": labels, "value": child.value})
        return {"type": self.kind, "series": series}


class MetricsRegistry:
    """A set of named metric families sharing one lock; snapshots merge."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def _family(self, name: str, kind: str, buckets: Optional[Tuple[float, ...]] = None) -> _Family:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = _Family(name, kind, self._lock, buckets)
                    self._families[name] = family
        if family.kind != kind:
            raise ValueError(f"metric {name!r} already registered as {family.kind}")
        return family

    def counter(self, name: str) -> _Family:
        return self._family(name, "counter")

    def gauge(self, name: str) -> _Family:
        return self._family(name, "gauge")

    def histogram(self, name: str, buckets: Optional[Iterable[float]] = None) -> _Family:
        chosen = tuple(buckets) if buckets is not None else DEFAULT_TIME_BUCKETS
        return self._family(name, "histogram", chosen)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view: ``{name: {"type":..., "series":[...]}}``."""
        with self._lock:
            families = list(self._families.values())
        return {family.name: family.snapshot() for family in families}

    # Cross-process merging ------------------------------------------------ #
    @staticmethod
    def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
        """Sum counters/histograms and last-write gauges across snapshots.

        Input snapshots are what :meth:`snapshot` produces (possibly after a
        JSON round trip); the result has the same shape.  Histograms only
        merge when their bucket bounds agree — mismatches keep the first.
        """
        merged: Dict[str, Any] = {}
        for snap in snapshots:
            if not isinstance(snap, dict):
                continue
            for name, family in snap.items():
                if not isinstance(family, dict) or "series" not in family:
                    continue
                target = merged.setdefault(
                    name, {"type": family.get("type", "counter"), "series": []}
                )
                if target["type"] != family.get("type"):
                    continue
                index = {
                    _label_key(row.get("labels", {})): row for row in target["series"]
                }
                for row in family["series"]:
                    labels = row.get("labels", {})
                    key = _label_key(labels)
                    existing = index.get(key)
                    if existing is None:
                        copied = {"labels": dict(labels)}
                        if "value" in row:
                            copied["value"] = row["value"]
                        else:
                            copied["sum"] = row.get("sum", 0.0)
                            copied["count"] = row.get("count", 0)
                            copied["buckets"] = [list(b) for b in row.get("buckets", [])]
                        target["series"].append(copied)
                        index[key] = copied
                    elif target["type"] == "gauge":
                        existing["value"] = row.get("value", existing.get("value", 0.0))
                    elif target["type"] == "counter":
                        existing["value"] = existing.get("value", 0.0) + row.get("value", 0.0)
                    else:  # histogram
                        theirs = row.get("buckets", [])
                        mine = existing.get("buckets", [])
                        if [b[0] for b in mine] == [b[0] for b in theirs]:
                            for slot, their in zip(mine, theirs):
                                slot[1] += their[1]
                            existing["sum"] = existing.get("sum", 0.0) + row.get("sum", 0.0)
                            existing["count"] = existing.get("count", 0) + row.get("count", 0)
        return merged


#: The process-wide registry engine/backend/store series register into.
REGISTRY = MetricsRegistry()
