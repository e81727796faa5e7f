"""The HTTP plumbing shared by every front end and client of the program.

The synthesis service (:class:`~repro.service.server.ServiceServer`), the
cluster router (:class:`~repro.service.cluster.RouterServer`) and the shared
L2 artifact tier (:class:`~repro.store.tiered.StoreServer`) are three front
ends on one stdlib :mod:`http.server` stack, so the same rules hold on all
three:

* :class:`FleetHTTPServer` — one daemon thread per connection and an accept
  backlog of 128.  Closing it ends the connections still open: a request
  in flight gets its answer, and no request read afterwards gets one.
* :class:`RequestHandler` — HTTP/1.1 keep-alive with Nagle's algorithm
  off, the request body read once before any answer, ``Connection: close``
  on every answer after which the connection closes, and dispatch on the
  path with the ``/v1`` prefix stripped.  Each front end answers unknown
  endpoints, and the protocol errors :mod:`http.server` answers itself
  (unsupported method, malformed request line), in its own JSON format.
* :class:`BoundServer` — the listening socket (``url``, ``port``),
  ``start`` on a thread, ``stop``, a blocking ``serve_forever`` that
  Ctrl-C returns from, and the context manager.

The client side is :class:`ConnectionPool`: persistent ``http.client``
connections to one base URL, shared by threads, behind the blocking service
client (and so the router's hops to its shards) and the L2 store client.

This module imports nothing of the program, so the store layer serves HTTP
without importing the service layer.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse, urlsplit

#: Current API version; every route of every front end lives under it.
API_VERSION = "v1"

#: ``RequestHandler._body`` before the current request's body is read.
_UNREAD: Any = object()

#: Idle connections a :class:`ConnectionPool` keeps; one returned to a full
#: pool is closed.
MAX_IDLE = 8

#: What a pooled request raises when the peer cannot be reached or does not
#: answer in HTTP: refused, reset, timed out, cut short.
TRANSPORT_ERRORS = (http.client.HTTPException, OSError)

#: How a reused connection fails when the peer dropped it before reading the
#: request (``http.client.RemoteDisconnected`` is a ``ConnectionResetError``).
_DROPPED = (ConnectionResetError, BrokenPipeError)


class FleetHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` with an accept backlog sized for bursty traffic.

    The :mod:`socketserver` default backlog of 5 makes concurrent clients —
    the async load generator, a router fanning a burst across its shards,
    shards reading through to the shared store — overflow the listen queue,
    and every dropped SYN costs its connection a ~1s kernel retransmit.  It
    also keeps the set of open connections, which :meth:`server_close`
    ends.
    """

    daemon_threads = True
    request_queue_size = 128
    #: Set by :meth:`server_close`; a request read afterwards gets no answer.
    closing = False

    def __init__(self, *args, **kwargs) -> None:
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listener, then end every connection still open.

        A handler thread serves its connection until the client closes it,
        and a pooled client keeps it open: without this, a stopped front
        end would go on answering on it.  Shutting the read side wakes an
        idle handler with end-of-file, so it closes its connection; a
        request being served still gets its answer, and one read from now
        on gets none (see :meth:`RequestHandler._dispatch`).
        """
        self.closing = True
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for request in connections:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # its handler closed it meanwhile


class RequestHandler(BaseHTTPRequestHandler):
    """Keep-alive rules of every front end.

    A subclass gives each HTTP method it serves a ``do_<METHOD>`` that calls
    :meth:`_dispatch` with its route handler, and implements
    :meth:`unknown_endpoint` and :meth:`error_body`.  Route handlers take
    the *version-stripped* path parts and the parsed query.
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
        if self.close_connection:
            # Tells a keep-alive client not to reuse the connection.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: Dict, headers: Optional[Dict] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("ascii")
        self._send_bytes(code, body, "application/json", headers)

    def _dispatch(self, route: Callable[[List[str], Dict], None]) -> None:
        """Run ``route(parts, query)`` on the path's parts after ``/v1``.

        A path without the prefix gets :meth:`unknown_endpoint` instead.
        On a closing server the connection ends unanswered: the client finds
        the front end gone, as it would on a new connection.
        """
        self._body = _UNREAD
        if self.server.closing:
            self.close_connection = True
            return
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        if parts[:1] != [API_VERSION]:
            self.unknown_endpoint(parsed.path)
            return
        route(parts[1:], parse_qs(parsed.query))

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """Answer a protocol error of :mod:`http.server` in this front end's JSON.

        The stdlib answers what no route sees itself: an unsupported method
        (501), a malformed request line (400), an overlong one (414).  Its
        status line and ``Connection: close`` stay; :meth:`error_body`
        replaces its HTML page, and a HEAD answer still carries no body.
        """
        if message is None:
            message = self.responses.get(code, ("error",))[0]
        body = json.dumps(self.error_body(message), sort_keys=True).encode("ascii")
        self.send_response(code, message)
        self.send_header("Connection", "close")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def unknown_endpoint(self, path: str) -> None:
        """Answer a request for ``path``, which no route serves."""
        raise NotImplementedError

    def error_body(self, message: str) -> Dict:
        """The JSON body of a protocol error (see :meth:`send_error`)."""
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
        """Stop listening and end the open connections, then stop the served object."""
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


class ConnectionPool:
    """Persistent HTTP/1.1 connections to one base URL, shared by threads.

    ``base_url`` is ``http://host[:port]`` with an optional path prefix that
    every request path is appended to.  A request borrows an idle connection
    (or opens one), reads the whole answer, and puts the connection back
    unless the answer closes it; at most :data:`MAX_IDLE` stay open.  A
    reused connection that fails before any status line arrives was dropped
    by the peer (closed while idle, or ended unanswered by a stopping
    server), so the request is sent once more on a fresh connection.  That
    is safe because every route of the program is idempotent: job ids and
    blobs are content-addressed.
    """

    def __init__(self, base_url: str, timeout: float) -> None:
        split = urlsplit(base_url)
        if split.scheme != "http" or split.hostname is None:
            raise ValueError(f"base URL must be http://host[:port][/prefix], got {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.prefix = split.path.rstrip("/")
        self.timeout = timeout
        self._idle: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                headers: Optional[Dict[str, str]] = None) -> Tuple[int, bytes]:
        """``(status, body)`` of one round trip; raises :data:`TRANSPORT_ERRORS`."""
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        try:
            if connection is not None:
                try:
                    response = self._send(connection, method, path, body, headers)
                except _DROPPED:
                    connection.close()
                    connection = None
            if connection is None:
                connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
                response = self._send(connection, method, path, body, headers)
            data = response.read()
        except BaseException:
            if connection is not None:
                connection.close()
            raise
        if not response.will_close:
            with self._lock:
                if len(self._idle) < MAX_IDLE:
                    self._idle.append(connection)
                    return response.status, data
        connection.close()
        return response.status, data

    def _send(self, connection: http.client.HTTPConnection, method: str, path: str,
              body: Optional[bytes], headers: Optional[Dict[str, str]]):
        connection.request(method, self.prefix + path, body=body, headers=headers or {})
        return connection.getresponse()

    def close(self) -> None:
        """Close the idle connections (a later request opens a new one)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()
