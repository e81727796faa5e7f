"""Pluggable compute backends for the numeric inner loops.

See :mod:`repro.backend.api` for the op vocabulary and
:mod:`repro.backend.registry` for selection (``BOOLGEBRA_BACKEND`` env var,
``FlowConfig.backend``, :func:`set_default_backend` / :func:`use_backend`).
"""

from typing import Optional

from repro.backend.api import OPS, Backend
from repro.backend.registry import (
    ENV_VAR,
    available_backends,
    create_backend,
    get_backend,
    register_backend,
    reset_default_backend,
    set_default_backend,
    use_backend,
)


def prewarm_default_backend() -> Optional[str]:
    """Warm the default backend's compile caches, if it has any.

    Worker initializers (the service pool, the process-pool evaluator) call
    this right after pinning their backend so the first *job* never pays
    shared-library-build latency.  Backends without a
    ``prewarm`` hook are a no-op; returns the warmed engine name, if any.
    """
    backend = get_backend()
    prewarm = getattr(backend, "prewarm", None)
    if prewarm is None:
        return None
    engine = prewarm()
    # Compile-cache observability: one series point per warmed (backend,
    # engine) pair — a cold cc build and a cache hit both count a warm.
    from repro.obs.metrics import REGISTRY

    REGISTRY.counter("backend_prewarms").labels(
        backend=backend.name, engine=engine or "none"
    ).inc()
    return engine


__all__ = [
    "OPS",
    "Backend",
    "ENV_VAR",
    "available_backends",
    "create_backend",
    "get_backend",
    "prewarm_default_backend",
    "register_backend",
    "reset_default_backend",
    "set_default_backend",
    "use_backend",
]
