"""Thread-safe service metrics: counters, gauges and latency percentiles.

One :class:`ServiceMetrics` instance is shared by the scheduler, the worker
pool and the HTTP front end.  Counters are monotonic (submissions, rejections,
coalesce hits, store hits, completions, failures) and live in a private
:class:`~repro.obs.metrics.MetricsRegistry`, so two services in one process
never mix series while still speaking the same snapshot/merge format as the
process-wide engine/backend/store registry.  Latencies are recorded into
bounded ring buffers (queue wait, execution, end-to-end) from which
:meth:`ServiceMetrics.snapshot` computes p50/p90/p99 on demand, plus lifetime
fixed-bucket histograms so the Prometheus exposition carries real ``_bucket``
series.  The snapshot is what ``/v1/metrics`` serves and what
``boolgebra serve --report`` prints.
"""

from __future__ import annotations

import bisect
import threading
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry

#: Counter names, with their roles; unknown names are rejected so typos in
#: call sites fail loudly instead of silently creating a new series.
COUNTERS = (
    "submitted",        # every submission, including coalesced duplicates
    "accepted",         # submissions that created a new queued job
    "coalesced",        # submissions attached to an in-flight duplicate
    "store_hits",       # submissions served from the warm artifact store
    "memory_hits",      # submissions served from an already-completed job
    "rejected",         # submissions refused due to backpressure (429)
    "completed",        # jobs that reached DONE
    "failed",           # jobs that reached FAILED (errors, timeouts, crashes)
    "cancelled",        # jobs cancelled before completion
    "timeouts",         # failures caused by the per-job timeout
    "worker_crashes",   # failures caused by a dying worker process
)

_QUANTILES = {"p50": 0.50, "p90": 0.90, "p99": 0.99}


def _percentile(sorted_values: list, fraction: float) -> float:
    """Nearest-rank percentile of a pre-sorted, non-empty list."""
    rank = max(0, min(len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1)))))
    return float(sorted_values[rank])


class LatencySeries:
    """A bounded ring of latency observations plus a lifetime histogram.

    The ring buffer backs the windowed mean/percentiles (recent behaviour);
    the fixed-bucket counts and ``sum`` are lifetime accumulators (never
    windowed), which is what Prometheus histogram semantics require of
    ``_bucket`` / ``_sum`` / ``_count``.
    """

    def __init__(
        self,
        maxlen: int = 2048,
        buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        self._values: deque = deque(maxlen=maxlen)
        self.count = 0
        self.sum = 0.0
        self.buckets = tuple(buckets)
        self._bucket_counts = [0] * len(self.buckets)

    def observe(self, seconds: float) -> None:
        value = float(seconds)
        self._values.append(value)
        self.count += 1
        self.sum += value
        index = bisect.bisect_left(self.buckets, value)
        if index >= len(self.buckets):
            index = len(self.buckets) - 1
        self._bucket_counts[index] += 1

    def summary(self) -> Dict[str, object]:
        """Lifetime ``count``/``sum``/``buckets`` plus windowed mean/percentiles.

        ``window`` is the number of recent observations backing ``mean`` and
        the percentiles (at most the ring-buffer size); ``count`` keeps
        counting past it.  ``buckets`` is a list of ``[upper_bound,
        cumulative_count]`` pairs with ``le`` semantics — each entry counts
        every observation ``<=`` its bound, so counts are monotonically
        non-decreasing and the final ``+Inf`` bucket equals ``count``.
        """
        cumulative: List[List[float]] = []
        running = 0
        for upper, bucket_count in zip(self.buckets, self._bucket_counts):
            running += bucket_count
            cumulative.append([upper, running])
        values = sorted(self._values)
        if not values:
            return {
                "count": 0,
                "window": 0,
                "sum": 0.0,
                "mean": 0.0,
                **{name: 0.0 for name in _QUANTILES},
                "buckets": cumulative,
            }
        return {
            "count": self.count,
            "window": len(values),
            "sum": self.sum,
            "mean": sum(values) / len(values),
            **{
                name: _percentile(values, fraction)
                for name, fraction in _QUANTILES.items()
            },
            "buckets": cumulative,
        }


class ServiceMetrics:
    """Counters + latency series behind one lock.

    All mutation goes through :meth:`increment` and :meth:`observe`; readers
    take a consistent :meth:`snapshot`.  Gauges (queue depth, running jobs,
    worker count) are owned by the scheduler / pool and passed into the
    snapshot, since they are views of live state rather than events.

    The counters are families in a **private**
    :class:`~repro.obs.metrics.MetricsRegistry` (``self.registry``) rather
    than the process-wide ``repro.obs.metrics.REGISTRY``: engine, backend and
    store series are process-wide by nature, but service counters belong to
    one service instance, and tests run several per process.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.registry = MetricsRegistry()
        self._counters = {name: self.registry.counter(name).labels() for name in COUNTERS}
        self._latencies: Dict[str, LatencySeries] = {
            "queue_seconds": LatencySeries(),
            "run_seconds": LatencySeries(),
            "total_seconds": LatencySeries(),
        }

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (must be a known counter)."""
        child = self._counters.get(name)
        if child is None:
            raise ValueError(f"unknown counter {name!r} (expected one of {COUNTERS})")
        child.inc(amount)

    def observe(
        self,
        queue_seconds: Optional[float] = None,
        run_seconds: Optional[float] = None,
        total_seconds: Optional[float] = None,
    ) -> None:
        """Record the latency decomposition of one finished job."""
        with self._lock:
            if queue_seconds is not None:
                self._latencies["queue_seconds"].observe(queue_seconds)
            if run_seconds is not None:
                self._latencies["run_seconds"].observe(run_seconds)
            if total_seconds is not None:
                self._latencies["total_seconds"].observe(total_seconds)

    def counter(self, name: str) -> int:
        return int(self._counters[name].value)

    def snapshot(self, gauges: Optional[Dict[str, int]] = None) -> Dict:
        """One consistent JSON-serializable view of every series.

        ``gauges`` carries the live-state values (queue depth, running job
        count, worker count) owned by the scheduler and pool.  The derived
        ``coalesce_rate`` / ``cache_hit_rate`` express how much submitted
        work was deduplicated away, per the coalescing semantics in the
        README's Serving section.
        """
        with self._lock:
            counters = {name: int(child.value) for name, child in self._counters.items()}
            latencies = {
                name: series.summary() for name, series in self._latencies.items()
            }
        submitted = counters["submitted"]
        saved = counters["coalesced"] + counters["store_hits"] + counters["memory_hits"]
        return {
            "counters": counters,
            "gauges": dict(gauges or {}),
            "latency": latencies,
            "coalesce_rate": (counters["coalesced"] / submitted) if submitted else 0.0,
            "cache_hit_rate": (saved / submitted) if submitted else 0.0,
        }

    def prometheus(self, gauges: Optional[Dict[str, int]] = None) -> str:
        """Prometheus text-format rendering of the current snapshot."""
        return render_prometheus([(None, self.snapshot(gauges))])

    def format_report(self, gauges: Optional[Dict[str, int]] = None) -> str:
        """Plain-text rendering of :meth:`snapshot` for the CLI ``--report``."""
        from repro.flow.reporting import format_table

        snapshot = self.snapshot(gauges)
        rows: Iterable = [
            *sorted(snapshot["counters"].items()),
            *sorted(snapshot["gauges"].items()),
            ("coalesce_rate", f"{snapshot['coalesce_rate']:.3f}"),
            ("cache_hit_rate", f"{snapshot['cache_hit_rate']:.3f}"),
        ]
        tables = [format_table(["metric", "value"], rows, title="Service metrics")]
        latency_rows = [
            [name, summary["count"], summary["mean"], summary["p50"], summary["p90"], summary["p99"]]
            for name, summary in snapshot["latency"].items()
        ]
        tables.append(
            format_table(
                ["series", "count", "mean", "p50", "p90", "p99"],
                latency_rows,
                title="Latency (seconds)",
            )
        )
        return "\n\n".join(tables)


def format_series_report(series: Dict, title: str = "Engine/backend/store series") -> str:
    """Plain-text table of a registry snapshot (``{name: {type, series}}``).

    Used by ``boolgebra serve --report`` and ``boolgebra route`` to print the
    engine/backend/store series next to the service counters.  Histogram rows
    compress to ``count`` and mean; counter/gauge rows print the value.
    """
    from repro.flow.reporting import format_table

    rows = []
    for name in sorted(series or {}):
        family = series[name]
        if not isinstance(family, dict):
            continue
        for row in family.get("series", []):
            labels = ",".join(
                f"{key}={value}" for key, value in sorted(row.get("labels", {}).items())
            )
            if "value" in row:
                rendered = f"{row['value']:g}"
            else:
                count = row.get("count", 0)
                mean = (row.get("sum", 0.0) / count) if count else 0.0
                rendered = f"count={count} mean={mean:.4f}s"
            rows.append([name, family.get("type", ""), labels or "-", rendered])
    return format_table(["series", "type", "labels", "value"], rows, title=title)


# --------------------------------------------------------------------------- #
# Prometheus text format (the ``/v1/metrics?format=prometheus`` variant)
# --------------------------------------------------------------------------- #
#: Prefix of every exported metric name.
PROMETHEUS_PREFIX = "boolgebra"


def _escape_label(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def _label_string(labels: Optional[Dict[str, str]]) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + rendered + "}"


def _bucket_le(upper: float) -> str:
    return "+Inf" if upper == float("inf") else f"{upper:g}"


def _histogram_rows(
    metric: str,
    buckets: Iterable,
    total_sum: float,
    total_count: float,
    labels: Optional[Dict[str, str]],
) -> list:
    """The ``_bucket`` / ``_sum`` / ``_count`` samples of one histogram series.

    ``buckets`` must already be cumulative ``(upper, count)`` pairs — the
    Prometheus ``le`` convention — so counts grow monotonically down the list
    and the ``+Inf`` bucket equals ``_count``.
    """
    base = _label_string(labels)
    rows = []
    for upper, count in buckets:
        bucket_labels = dict(labels or {})
        bucket_labels["le"] = _bucket_le(float(upper))
        rows.append(
            (f"{metric}_bucket", "histogram", _label_string(bucket_labels), float(count))
        )
    rows.append((f"{metric}_sum", "histogram", base, float(total_sum)))
    rows.append((f"{metric}_count", "histogram", base, float(total_count)))
    return rows


def _cumulate(buckets: Iterable) -> list:
    """Turn raw per-bucket ``[upper, count]`` pairs into cumulative ones."""
    cumulative = []
    running = 0.0
    for upper, count in buckets:
        running += count
        cumulative.append((upper, running))
    return cumulative


def registry_samples(series: Dict, labels: Optional[Dict[str, str]] = None) -> list:
    """Flatten a registry snapshot (``{name: {type, series}}``) into sample rows.

    This is the Prometheus view of :meth:`repro.obs.metrics.MetricsRegistry.
    snapshot` — the engine/backend/store series the server exposes under the
    snapshot's ``series`` key.  Per-series labels merge with the section
    ``labels`` (the router's ``{"shard": name}``), so one fleet scrape keeps
    engine series apart per shard.  Registry snapshots store raw per-bucket
    counts; they are cumulated here into the ``le`` convention.
    """
    rows = []
    for name in sorted(series or {}):
        family = series[name]
        if not isinstance(family, dict):
            continue
        kind = family.get("type", "counter")
        for row in family.get("series", []):
            merged = dict(labels or {})
            merged.update(row.get("labels", {}))
            if kind == "histogram":
                rows.extend(
                    _histogram_rows(
                        f"{PROMETHEUS_PREFIX}_{name}",
                        _cumulate(row.get("buckets", [])),
                        row.get("sum", 0.0),
                        row.get("count", 0),
                        merged,
                    )
                )
            elif kind == "counter":
                rows.append(
                    (
                        f"{PROMETHEUS_PREFIX}_{name}_total",
                        "counter",
                        _label_string(merged),
                        float(row.get("value", 0.0)),
                    )
                )
            else:
                rows.append(
                    (
                        f"{PROMETHEUS_PREFIX}_{name}",
                        "gauge",
                        _label_string(merged),
                        float(row.get("value", 0.0)),
                    )
                )
    return rows


def prometheus_samples(
    snapshot: Dict, labels: Optional[Dict[str, str]] = None
) -> list:
    """Flatten one metrics snapshot into ``(name, type, label_str, value)`` rows.

    Counters export as ``<prefix>_<name>_total`` (type ``counter``); gauges
    and the derived rates as gauges; every latency series as a Prometheus
    histogram (cumulative ``_bucket`` samples with ``le`` labels plus
    ``_sum`` / ``_count``); the windowed p50/p90/p99 stay in the JSON
    snapshot, since the text format allows ``quantile`` samples only in
    summary families.  A ``series`` key (a registry snapshot of
    engine/backend/store families) is flattened via
    :func:`registry_samples`.  ``labels`` are attached to every
    sample — the cluster router passes ``{"shard": name}`` so one scrape
    distinguishes the fleet members.
    """
    base = _label_string(labels)
    rows = []
    for name, value in snapshot.get("counters", {}).items():
        rows.append((f"{PROMETHEUS_PREFIX}_{name}_total", "counter", base, float(value)))
    for name, value in snapshot.get("gauges", {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            rows.append((f"{PROMETHEUS_PREFIX}_{name}", "gauge", base, float(value)))
    for rate in ("coalesce_rate", "cache_hit_rate"):
        if rate in snapshot:
            rows.append((f"{PROMETHEUS_PREFIX}_{rate}", "gauge", base, float(snapshot[rate])))
    for series, summary in snapshot.get("latency", {}).items():
        rows.extend(
            _histogram_rows(
                f"{PROMETHEUS_PREFIX}_{series}",
                summary.get("buckets", []),
                summary.get("sum", 0.0),
                summary["count"],
                labels,
            )
        )
    rows.extend(registry_samples(snapshot.get("series", {}), labels))
    return rows


_FAMILY_SUFFIXES = ("_bucket", "_sum", "_count")


def _family_of(name: str) -> str:
    for suffix in _FAMILY_SUFFIXES:
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def render_prometheus(sections: Iterable) -> str:
    """Render ``(labels, snapshot)`` sections as one Prometheus text exposition.

    ``# TYPE`` headers are emitted once per metric family even when several
    sections (one per shard) export the same families; histogram sample
    suffixes (``_bucket`` / ``_sum`` / ``_count``) roll up to their family.
    """
    lines = []
    seen_types = set()
    for labels, snapshot in sections:
        for name, metric_type, label_str, value in prometheus_samples(snapshot, labels):
            family = _family_of(name)
            if family not in seen_types:
                seen_types.add(family)
                lines.append(f"# TYPE {family} {metric_type}")
            lines.append(f"{name}{label_str} {value:g}")
    return "\n".join(lines) + "\n"
