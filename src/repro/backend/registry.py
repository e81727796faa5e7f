"""Backend registry and selection.

Selection order for the process-wide default backend:

1. an explicit :func:`set_default_backend` / :func:`use_backend` call
   (``FlowConfig.backend`` and ``Trainer(backend=...)`` route through these),
2. the ``BOOLGEBRA_BACKEND`` environment variable,
3. ``"auto"``, which is the native backend: it needs no probe, because it
   degrades op by op to the reference code wherever its compiled library
   (or scipy's raw sparse kernel) is unavailable.

Backends are instantiated lazily (one cached instance per name), so merely
importing :mod:`repro.backend` stays cheap and free of optional-dependency
probing.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro.backend.api import OPS, Backend
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER

#: Name of the environment variable consulted for the default backend.
ENV_VAR = "BOOLGEBRA_BACKEND"

_FACTORIES: Dict[str, Callable[[], Backend]] = {}
_INSTANCES: Dict[str, Backend] = {}
_LOCK = threading.Lock()
#: The explicitly selected default (None -> fall back to env / auto).
_DEFAULT: Optional[Backend] = None
#: Cached env/auto resolution (invalidated by reset_default_backend()).
_RESOLVED: Optional[Backend] = None


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register a backend factory under ``name`` (idempotent per name)."""
    _FACTORIES[name] = factory


def available_backends() -> List[str]:
    """Registered backend names, reference first, then alphabetically."""
    names = sorted(_FACTORIES)
    if "reference" in names:
        names.remove("reference")
        names.insert(0, "reference")
    return names


def create_backend(name: str) -> Backend:
    """Instantiate (or return the cached instance of) backend ``name``.

    ``"auto"`` is the native backend (see the module docstring).
    """
    if name == "auto":
        name = "native"
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )
    with _LOCK:
        instance = _INSTANCES.get(name)
        if instance is None:
            instance = _FACTORIES[name]()
            _INSTANCES[name] = instance
    return instance


class _TracedBackend:
    """Span-and-counter proxy around a backend, installed only while tracing.

    Every op the backend implements — the :data:`~repro.backend.api.OPS`
    vocabulary plus any capability op it lists in ``op_support()``, such as
    ``snapshot_cut_tables`` — is wrapped once at construction: a call bumps the
    process-wide ``backend_op_calls`` counter
    (and ``backend_op_fallbacks`` when the backend serves the op through a
    degraded path), then runs under a ``backend.<op>`` span carrying the
    resolved backend, engine and per-op implementation as attributes.
    Everything else delegates to the wrapped instance, so the proxy is
    drop-in wherever a :class:`Backend` is expected.  :func:`get_backend`
    only returns the proxy while ``TRACER.enabled`` is set — the disabled
    path pays a single attribute check.
    """

    def __init__(self, inner: Backend) -> None:
        self._inner = inner
        self.name = inner.name
        try:
            support = dict(inner.op_support())
        except Exception:  # pragma: no cover - defensive
            support = {}
        engine = getattr(inner, "engine_name", None)
        self._engine = engine() if callable(engine) else None
        calls = REGISTRY.counter("backend_op_calls")
        fallbacks = REGISTRY.counter("backend_op_fallbacks")
        for op in dict.fromkeys((*OPS, *support)):
            target = getattr(inner, op, None)
            if not callable(target):
                continue
            setattr(self, op, self._wrap(op, target, support.get(op, ""), calls, fallbacks))

    def _wrap(self, op, target, impl, calls, fallbacks):
        call_counter = calls.labels(backend=self.name, op=op)
        fallback_counter = (
            fallbacks.labels(backend=self.name, op=op)
            if impl.startswith("fallback:")
            else None
        )
        attrs = {"backend": self.name, "op": op}
        if impl:
            attrs["impl"] = impl
        if self._engine:
            attrs["engine"] = self._engine
        span_name = f"backend.{op}"

        def traced(*args, **kwargs):
            call_counter.inc()
            if fallback_counter is not None:
                fallback_counter.inc()
            with TRACER.span(span_name, attrs=attrs):
                return target(*args, **kwargs)

        return traced

    def op_support(self) -> Dict[str, str]:
        return self._inner.op_support()

    def __getattr__(self, item):
        return getattr(self._inner, item)


#: Cached proxies, one per wrapped backend instance (keyed by identity).
_TRACED: Dict[int, _TracedBackend] = {}


def _traced(backend: Backend) -> _TracedBackend:
    if isinstance(backend, _TracedBackend):
        return backend
    proxy = _TRACED.get(id(backend))
    if proxy is None:
        with _LOCK:
            proxy = _TRACED.get(id(backend))
            if proxy is None:
                proxy = _TracedBackend(backend)
                _TRACED[id(backend)] = proxy
    return proxy


def get_backend() -> Backend:
    """The process-wide default backend (see module docstring for the order)."""
    if _DEFAULT is not None:
        return _traced(_DEFAULT) if TRACER.enabled else _DEFAULT
    global _RESOLVED
    if _RESOLVED is None:
        _RESOLVED = create_backend(os.environ.get(ENV_VAR) or "auto")
    return _traced(_RESOLVED) if TRACER.enabled else _RESOLVED


def set_default_backend(name: Optional[str]) -> Backend:
    """Pin the process-wide default backend; ``None`` reverts to env/auto."""
    global _DEFAULT
    _DEFAULT = create_backend(name) if name is not None else None
    return get_backend()


def reset_default_backend() -> None:
    """Drop both the pinned default and the cached env/auto resolution.

    Primarily for tests that monkeypatch ``BOOLGEBRA_BACKEND``.
    """
    global _DEFAULT, _RESOLVED
    _DEFAULT = None
    _RESOLVED = None


@contextmanager
def use_backend(name: Optional[str]):
    """Scope the default backend to ``name`` for the duration of the block.

    ``None`` is a no-op scope (the ambient default stays in effect), which
    lets callers thread an optional configuration field without branching.
    """
    if name is None:
        yield get_backend()
        return
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = create_backend(name)
    try:
        yield _DEFAULT
    finally:
        _DEFAULT = previous


def _make_reference() -> Backend:
    from repro.backend.reference import ReferenceBackend

    return ReferenceBackend()


def _make_native() -> Backend:
    from repro.backend.native import NativeBackend

    return NativeBackend()


register_backend("reference", _make_reference)
register_backend("native", _make_native)
