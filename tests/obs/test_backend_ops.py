"""Traced backend proxy: every implemented op is visible to ``repro.obs``.

The proxy :func:`repro.backend.get_backend` hands out while tracing wraps the
portable op vocabulary *and* the capability ops a backend lists in
``op_support()`` — ``snapshot_cut_tables`` is called by every native global
rewrite scoring, so a traced rewriting pass must show it as a span and count it,
and ``local_cut_tables`` by every small-target rewrite scoring, which sampled
orchestration makes.
"""

import pytest

from repro import Engine
from repro.backend import create_backend, get_backend, native_kernels, use_backend
from repro.obs import REGISTRY, TRACER


def _calls(op: str) -> float:
    return REGISTRY.counter("backend_op_calls").labels(backend="native", op=op).value


def test_traced_rw_spans_and_counts_snapshot_cut_tables():
    kernels, reason = native_kernels.load_engine()
    if kernels is None:
        pytest.skip(f"no compiled engine on this install ({reason})")
    engine = Engine.load("b08")
    before = _calls("snapshot_cut_tables")
    with use_backend("native"):
        TRACER.enable()
        with TRACER.span("test.root") as root:
            engine.run("rw")
    spans = TRACER.spans_for(root.trace_id)
    merges = [span for span in spans if span["name"] == "backend.snapshot_cut_tables"]
    assert merges, sorted({span["name"] for span in spans})
    assert merges[0]["attrs"]["op"] == "snapshot_cut_tables"
    assert merges[0]["attrs"]["impl"] == f"{kernels.engine}:whole-snapshot-cuts"
    assert _calls("snapshot_cut_tables") - before >= len(merges)


def test_traced_orchestration_spans_and_counts_local_cut_tables():
    kernels, reason = native_kernels.load_engine()
    if kernels is None:
        pytest.skip(f"no compiled engine on this install ({reason})")
    engine = Engine.load("b08")
    before = _calls("local_cut_tables")
    with use_backend("native"):
        TRACER.enable()
        with TRACER.span("test.root") as root:
            engine.run("orch -n 4")
    spans = TRACER.spans_for(root.trace_id)
    scorings = [span for span in spans if span["name"] == "backend.local_cut_tables"]
    assert scorings, sorted({span["name"] for span in spans})
    assert scorings[0]["attrs"]["impl"] == f"{kernels.engine}:local-region-cuts"
    assert _calls("local_cut_tables") - before == len(scorings)


def test_proxy_has_no_capability_op_the_backend_lacks():
    with use_backend("reference"):
        TRACER.enable()
        proxy = get_backend()
    assert proxy is not create_backend("reference")  # the traced proxy
    assert getattr(proxy, "snapshot_cut_tables", None) is None
    assert getattr(proxy, "rewrite_scan", None) is None
    assert getattr(proxy, "local_cut_tables", None) is None
    assert callable(proxy.csr_aggregate)
