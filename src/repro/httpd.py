"""The HTTP plumbing shared by every front end of the program.

The synthesis service (:class:`~repro.service.server.ServiceServer`), the
cluster router (:class:`~repro.service.cluster.RouterServer`) and the shared
L2 artifact tier (:class:`~repro.store.tiered.StoreServer`) are three front
ends on one stdlib :mod:`http.server` stack, so the same rules hold on all
three:

* :class:`FleetHTTPServer` — one daemon thread per connection and an accept
  backlog of 128.
* :class:`RequestHandler` — HTTP/1.1 keep-alive with Nagle's algorithm
  off, the request body read once before any answer, and dispatch on the
  path with the ``/v1`` prefix stripped.  Each front end answers unknown
  endpoints in its own format.
* :class:`BoundServer` — the listening socket (``url``, ``port``),
  ``start`` on a thread, ``stop``, a blocking ``serve_forever`` that
  Ctrl-C returns from, and the context manager.

This module imports nothing of the program, so the store layer serves HTTP
without importing the service layer.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional
from urllib.parse import parse_qs, urlparse

#: Current API version; every route of every front end lives under it.
API_VERSION = "v1"

#: ``RequestHandler._body`` before the current request's body is read.
_UNREAD: Any = object()


class FleetHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` with an accept backlog sized for bursty traffic.

    The :mod:`socketserver` default backlog of 5 makes concurrent clients —
    the async load generator, a router fanning a burst across its shards,
    shards reading through to the shared store — overflow the listen queue,
    and every dropped SYN costs its connection a ~1s kernel retransmit.
    """

    daemon_threads = True
    request_queue_size = 128


class RequestHandler(BaseHTTPRequestHandler):
    """Keep-alive rules of every front end.

    A subclass gives each HTTP method it serves a ``do_<METHOD>`` that calls
    :meth:`_dispatch` with its route handler, and implements
    :meth:`unknown_endpoint`.  Route handlers take the *version-stripped*
    path parts and the parsed query.
    """

    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes: with Nagle on, a keep-alive
    # client's delayed ACK holds every response after the first (~40 ms).
    disable_nagle_algorithm = True
    #: The current request's body once read (see :meth:`_read_body`).
    _body: Optional[bytes] = _UNREAD

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging is the metrics' job; keep stdio clean

    def _read_body(self) -> Optional[bytes]:
        """The request's ``Content-Length`` bytes, read from the socket once.

        Every answer reads them first, an error answer included, so that on
        a keep-alive connection the next request starts after this one's
        body instead of inside it.  ``None`` when the header is not a
        number: where the body ends is then unknown, so the connection
        closes after the answer.
        """
        if self._body is _UNREAD:
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                self.close_connection = True
                self._body = None
            else:
                self._body = self.rfile.read(length) if length > 0 else b""
        return self._body

    def _send_bytes(self, code: int, body: bytes, content_type: str,
                    headers: Optional[Dict] = None) -> None:
        self._read_body()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: Dict, headers: Optional[Dict] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("ascii")
        self._send_bytes(code, body, "application/json", headers)

    def _dispatch(self, route: Callable[[List[str], Dict], None]) -> None:
        """Run ``route(parts, query)`` on the path's parts after ``/v1``.

        A path without the prefix gets :meth:`unknown_endpoint` instead.
        """
        self._body = _UNREAD
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        if parts[:1] != [API_VERSION]:
            self.unknown_endpoint(parsed.path)
            return
        route(parts[1:], parse_qs(parsed.query))

    def unknown_endpoint(self, path: str) -> None:
        """Answer a request for ``path``, which no route serves."""
        raise NotImplementedError


class BoundServer:
    """A request-handler class bound to a listening socket, serving one object.

    ``port=0`` binds an ephemeral port; the actual port is ``port`` (and in
    ``url``) right after construction, which is how tests and examples avoid
    port collisions.  Handlers reach the served object as
    ``self.server.served``; a subclass starts and stops it in
    :meth:`_start_served` and :meth:`_stop_served`.
    """

    def __init__(self, served: Any, handler: type, host: str, port: int) -> None:
        self.httpd = FleetHTTPServer((host, port), handler)
        self.httpd.served = served  # type: ignore[attr-defined]
        self.host = self.httpd.server_address[0]
        self.port = self.httpd.server_address[1]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _start_served(self) -> None:
        """Start the served object (before the listener serves requests)."""

    def _stop_served(self) -> None:
        """Stop the served object (after the listener closed)."""

    def start(self) -> "BoundServer":
        """Start the served object and the HTTP listener thread."""
        self._start_served()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever, name="boolgebra-http", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop listening, then stop the served object."""
        if self._thread is not None:
            self.httpd.shutdown()
            self._thread.join(timeout=10.0)
            self._thread = None
        self.httpd.server_close()
        self._stop_served()

    def serve_forever(self) -> None:
        """Blocking serve loop for the CLI (Ctrl-C returns cleanly)."""
        self._start_served()
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.httpd.server_close()
            self._stop_served()

    def __enter__(self) -> "BoundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
