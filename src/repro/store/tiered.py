"""Two-tier artifact store: local disk L1 in front of a shared HTTP L2.

In a sharded cluster every shard keeps its own :class:`ArtifactStore` on
local disk (L1: fast, private), while the fleet shares one
:class:`StoreServer` (L2: one source of truth for warm artifacts).
:class:`TieredStore` composes the two behind the *unchanged*
``ArtifactStore`` interface, so the scheduler, the learning pipeline and the
CLI use it without knowing tiers exist:

* **Read-through** — an L1 miss consults L2; a hit is materialized into L1
  (atomic temp-file + rename, same discipline as local writes) and then
  served from disk.  Every later read is a pure L1 hit.
* **Write-through** — every artifact write lands in L1 first, then is pushed
  to L2.  An unreachable L2 degrades the store to local-only (counted in
  ``tier_stats``, never raised): the cache must not take the service down.
* **Invalidation** — :meth:`TieredStore.invalidate` removes an entry from
  both tiers (companion sidecar files included), and ``clear`` empties both.

Content-addressing makes this easy to get right: artifacts are immutable
once written (a key changes when its inputs change), so tiers can only ever
disagree by *absence*, never by conflicting contents.

The wire protocol is deliberately dumb — a keyed blob store::

    GET    /v1/blob/{kind}/{filename}   -> 200 bytes | 404
    PUT    /v1/blob/{kind}/{filename}   -> 204
    DELETE /v1/blob/{kind}/{filename}   -> 204 | 404
    GET    /v1/info                     -> per-kind entry/byte counts
    GET    /v1/healthz                  -> {"status": "ok"}
    any other path                      -> 404

served by :class:`StoreServer` straight from an ``ArtifactStore`` directory
using only :mod:`http.server`, with :class:`HttpStoreClient` as the matching
``urllib`` client.  This module depends only on :mod:`repro.store` — the
service layer imports it, never the other way around.
"""

from __future__ import annotations

import json
import os
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Union

from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.store.artifacts import _STORE_BYTES, _STORE_LOOKUPS, KINDS, ArtifactStore

#: Connection-level failures treated as "L2 unavailable" (degrade, don't die).
_REMOTE_ERRORS = (urllib.error.URLError, ConnectionError, TimeoutError, OSError)

#: Process-wide mirror of every ``tier_stats`` increment, labeled by event.
_TIER_EVENTS = REGISTRY.counter("store_tier_events")


class _StoreHTTPServer(ThreadingHTTPServer):
    """Threaded server with an accept backlog sized for a whole fleet.

    Mirrors :class:`repro.service.server.FleetHTTPServer` (the store layer
    must not import the service layer): the socketserver default backlog of
    5 would put concurrently read-through-ing shards into ~1s SYN retries.
    """

    daemon_threads = True
    request_queue_size = 128


class HttpStoreClient:
    """``urllib`` client of a :class:`StoreServer` blob endpoint."""

    def __init__(self, base_url: str, request_timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.request_timeout = request_timeout

    def _url(self, kind: str, filename: str) -> str:
        return f"{self.base_url}/v1/blob/{kind}/{filename}"

    def get(self, kind: str, filename: str) -> Optional[bytes]:
        """The blob's bytes, or ``None`` when absent *or* L2 is unreachable."""
        try:
            with urllib.request.urlopen(
                self._url(kind, filename), timeout=self.request_timeout
            ) as response:
                return response.read()
        except urllib.error.HTTPError as error:
            if error.code == 404:
                return None
            raise ConnectionError(f"store server error {error.code}") from None

    def put(self, kind: str, filename: str, data: bytes) -> None:
        request = urllib.request.Request(
            self._url(kind, filename),
            method="PUT",
            data=data,
            headers={"Content-Type": "application/octet-stream"},
        )
        with urllib.request.urlopen(request, timeout=self.request_timeout):
            pass

    def delete(self, kind: str, filename: str) -> bool:
        """Remove one blob; ``False`` when it was already absent."""
        request = urllib.request.Request(self._url(kind, filename), method="DELETE")
        try:
            with urllib.request.urlopen(request, timeout=self.request_timeout):
                return True
        except urllib.error.HTTPError as error:
            if error.code == 404:
                return False
            raise ConnectionError(f"store server error {error.code}") from None

    def info(self) -> Dict:
        with urllib.request.urlopen(
            f"{self.base_url}/v1/info", timeout=self.request_timeout
        ) as response:
            return json.loads(response.read())

    def healthz(self) -> bool:
        try:
            with urllib.request.urlopen(
                f"{self.base_url}/v1/healthz", timeout=self.request_timeout
            ) as response:
                return response.status == 200
        except _REMOTE_ERRORS:
            return False


class TieredStore(ArtifactStore):
    """An :class:`ArtifactStore` with read-through / write-through to L2.

    ``remote`` is a :class:`HttpStoreClient` or a ``StoreServer`` base URL.
    ``write_through=False`` makes L2 read-only from this node's perspective
    (useful for consumers that should never publish, e.g. an experiment
    replaying against a frozen shared cache).
    """

    def __init__(
        self,
        root: Optional[str],
        remote: Union[str, HttpStoreClient],
        write_through: bool = True,
    ) -> None:
        super().__init__(root)
        self.remote = (
            remote if isinstance(remote, HttpStoreClient) else HttpStoreClient(remote)
        )
        self.write_through = write_through
        self.tier_stats = {
            "l1_hits": 0,
            "l2_hits": 0,
            "misses": 0,
            "l2_writes": 0,
            "l2_unavailable": 0,
        }

    # ------------------------------------------------------------------ #
    # Tier plumbing
    # ------------------------------------------------------------------ #
    def _tier(self, event: str) -> None:
        """Count one tier event, locally and in the process-wide registry."""
        self.tier_stats[event] += 1
        _TIER_EVENTS.labels(event=event).inc()

    def _relative(self, path: str) -> List[str]:
        """``[kind, filename]`` of an absolute artifact path under the root."""
        relative = os.path.relpath(path, self.root)
        parts = relative.split(os.sep)
        if len(parts) != 2 or parts[0] not in KINDS:
            raise ValueError(f"path {path!r} is not an artifact under {self.root!r}")
        return parts

    def _fetch_into(self, path: str) -> bool:
        """Read-through: materialize ``path`` from L2 (atomically) if it has it."""
        kind, filename = self._relative(path)
        if not TRACER.enabled:
            return self._fetch_into_inner(path, kind, filename)
        with TRACER.span("store.l2_fetch", attrs={"kind": kind}) as span:
            fetched = self._fetch_into_inner(path, kind, filename)
            span.set("fetched", fetched)
        return fetched

    def _fetch_into_inner(self, path: str, kind: str, filename: str) -> bool:
        try:
            data = self.remote.get(kind, filename)
        except _REMOTE_ERRORS:
            self._tier("l2_unavailable")
            return False
        if data is None:
            return False
        _STORE_BYTES.labels(kind=kind, direction="l2_read").inc(len(data))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        ArtifactStore._replace_into(path, lambda stream: stream.write(data))
        return True

    def _lookup(self, kind: str, key: str, sidecar: str = "") -> Optional[str]:
        path = self.path(kind, key)
        needed = [path] + ([path + sidecar] if sidecar else [])
        if all(os.path.exists(entry) for entry in needed):
            self.stats.record(self.stats.hits, kind)
            self._tier("l1_hits")
            _STORE_LOOKUPS.labels(kind=kind, outcome="hit").inc()
            return path
        if all(os.path.exists(entry) or self._fetch_into(entry) for entry in needed):
            self.stats.record(self.stats.hits, kind)
            self._tier("l2_hits")
            _STORE_LOOKUPS.labels(kind=kind, outcome="hit").inc()
            return path
        self.stats.record(self.stats.misses, kind)
        self._tier("misses")
        _STORE_LOOKUPS.labels(kind=kind, outcome="miss").inc()
        return None

    def _replace_into(self, path: str, write) -> None:  # type: ignore[override]
        # Shadows the base staticmethod: every ``self._replace_into`` call in
        # the save_* methods (artifacts *and* sidecars) funnels through here,
        # which is the whole write-through mechanism.
        ArtifactStore._replace_into(path, write)
        if not self.write_through:
            return
        kind, filename = self._relative(path)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            self.remote.put(kind, filename, data)
            self._tier("l2_writes")
            _STORE_BYTES.labels(kind=kind, direction="l2_write").inc(len(data))
        except _REMOTE_ERRORS:
            self._tier("l2_unavailable")

    # ------------------------------------------------------------------ #
    # Invalidation
    # ------------------------------------------------------------------ #
    def invalidate(self, kind: str, key: str) -> bool:
        """Remove ``key`` from both tiers; return whether anything existed."""
        path = self.path(kind, key)
        removed = False
        for target in (path, path + ".meta.json"):
            if os.path.exists(target):
                os.unlink(target)
                removed = True
            _, filename = os.path.split(target)
            try:
                removed = self.remote.delete(kind, filename) or removed
            except _REMOTE_ERRORS:
                self._tier("l2_unavailable")
        return removed

    def clear(self, kind: Optional[str] = None) -> int:
        """Clear L1 and (when write-through) the shared L2 as well."""
        removed = super().clear(kind)
        if self.write_through:
            try:
                info = self.remote.info()
                for name in [kind] if kind is not None else list(KINDS):
                    for filename in info.get(name, {}).get("files", []):
                        self.remote.delete(name, filename)
            except _REMOTE_ERRORS:
                self._tier("l2_unavailable")
        return removed


# --------------------------------------------------------------------------- #
# The shared L2 server
# --------------------------------------------------------------------------- #
class _StoreRequestHandler(BaseHTTPRequestHandler):
    server_version = "boolgebra-store/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    @property
    def store_root(self) -> str:
        return self.server.store_root  # type: ignore[attr-defined]

    # Helpers ------------------------------------------------------------ #
    def _send(self, code: int, body: bytes = b"", content_type: str = "application/json") -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _send_json(self, code: int, payload: Dict) -> None:
        self._send(code, json.dumps(payload, sort_keys=True).encode("ascii"))

    def _blob_path(self, parts: List[str]) -> Optional[str]:
        """Validate ``["blob", kind, filename]``; ``None`` sends the error."""
        if len(parts) != 3 or parts[0] != "blob":
            self._send_json(404, {"error": "unknown endpoint"})
            return None
        kind, filename = parts[1], parts[2]
        if kind not in KINDS or "/" in filename or os.sep in filename or ".." in filename:
            self._send_json(400, {"error": f"invalid blob reference {kind}/{filename}"})
            return None
        return os.path.join(self.store_root, kind, filename)

    @staticmethod
    def _split(path: str) -> List[str]:
        """The path's parts after ``/v1``; none, an unknown endpoint, without it."""
        parts = [part for part in path.split("?", 1)[0].split("/") if part]
        return parts[1:] if parts[:1] == ["v1"] else []

    # Routes ------------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parts = self._split(self.path)
        if parts == ["healthz"]:
            self._send_json(200, {"status": "ok"})
            return
        if parts == ["info"]:
            report: Dict[str, Dict] = {}
            for kind in KINDS:
                directory = os.path.join(self.store_root, kind)
                files = sorted(os.listdir(directory)) if os.path.isdir(directory) else []
                report[kind] = {
                    "files": files,
                    "bytes": sum(
                        os.path.getsize(os.path.join(directory, name)) for name in files
                    ),
                }
            self._send_json(200, report)
            return
        path = self._blob_path(parts)
        if path is None:
            return
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self._send_json(404, {"error": "blob not found"})
            return
        self._send(200, data, "application/octet-stream")

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        # The body is read before any answer, an error included, so a
        # keep-alive connection's next request starts after it.
        length = int(self.headers.get("Content-Length", 0))
        data = self.rfile.read(length) if length > 0 else b""
        path = self._blob_path(self._split(self.path))
        if path is None:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        ArtifactStore._replace_into(path, lambda stream: stream.write(data))
        self._send(204)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        path = self._blob_path(self._split(self.path))
        if path is None:
            return
        try:
            os.unlink(path)
        except OSError:
            self._send_json(404, {"error": "blob not found"})
            return
        self._send(204)


class StoreServer:
    """An :class:`ArtifactStore` directory served as the shared L2 tier.

    ``port=0`` binds an ephemeral port (see ``server.url``), the same idiom
    as :class:`~repro.service.server.ServiceServer`.
    """

    def __init__(
        self,
        store: Union[str, ArtifactStore],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        self.httpd = _StoreHTTPServer((host, port), _StoreRequestHandler)
        self.httpd.store_root = self.store.root  # type: ignore[attr-defined]
        self.host = self.httpd.server_address[0]
        self.port = self.httpd.server_address[1]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "StoreServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever, name="boolgebra-store-http", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self.httpd.shutdown()
            self._thread.join(timeout=10.0)
            self._thread = None
        self.httpd.server_close()

    def __enter__(self) -> "StoreServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
