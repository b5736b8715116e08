"""The serving tier: the one server (``LineageServer``), the client core
both wires share, and the HTTP wire (``LineageClient``).

Everything before this module answered queries in-process; the serving
tier makes the catalog reachable from other processes with nothing beyond
the stdlib.  Which file owns what:

* :mod:`repro.service.api` — the endpoint table (:data:`~repro.service.
  api.ENDPOINTS`), argument validation, the error taxonomy and the
  :class:`~repro.service.api.ServiceCore` every request runs against;
* this module — the server (:class:`LineageServer`: one core, a listener
  per port — HTTP on ``port``, RPC on ``rpc_port`` — ``start`` /
  ``serve_forever`` / ``close``, hanging up on open connections; each
  listener caps its connections at :data:`MAX_CONNECTIONS` and hangs up on
  a peer idle for :data:`IDLE_TIMEOUT_S`) and what a client is whatever it
  speaks (:class:`_Client`: retry policy and loop, ``connect`` rendezvous,
  request building, one method per endpoint over a wire's ``call``); what
  a request costs in bookkeeping on either wire (:func:`_meter_request`:
  trace on demand, counter, latency histogram, log event — one vocabulary,
  labelled with the ``wire``); then one lean HTTP/1.1
  codec for both ends: a handler thread per connection reading request
  heads line by line, and a client with **persistent keep-alive
  connections**, one per calling thread, that sends each request as one
  buffer;
* :mod:`repro.service.rpc` — the binary codec and sockets: the framed
  connection handler, a pooled client, pipelining.

Serve HTTP for interoperability (curl, browsers, load balancers), RPC
when the round trip itself is the cost that matters, or both at once.

The API
-------
One table, two wires.  *op* is the RPC opcode name (:data:`repro.service.
wire.OPCODES`).  A request of a *traced* row is traced when it asks to be
— a W3C ``traceparent`` HTTP header, or the same value under the
``"traceparent"`` key of an RPC request's JSON payload; the trace takes
the caller's trace id — or when it runs :data:`~repro.obs.tracing.SLOW_S`
(0.1 s) or longer, which leaves a root-only trace.  Any other request
records none.  Every request is booked in one vocabulary on both wires:
``dslog_requests_total{wire, op, status}`` (a numeric status, 200 for an
RPC success too), ``dslog_request_seconds{wire, op}`` and one ``request``
log event; its trace, if any, is named ``request``.

===============  ====  =======================  ======  ==========================================
op               HTTP  route                    traced  request → reply
===============  ====  =======================  ======  ==========================================
``query``        POST  ``/query``               yes     ``{"path": [...], "cells": [[i, j], ...]}``
                                                        or ``{"path": [...], "slices": [[start,
                                                        stop], ...]}`` (+ optional ``"merge"``,
                                                        ``"include_boxes"``, ``"include_cells"``,
                                                        ``"deadline"``) → result boxes, exact cell
                                                        count, per-hop stats, ``"cached"`` flag
``query_batch``  POST  ``/query_batch``         yes     ``{"queries": [<query body>, ...]}`` → one
                                                        ``results`` entry per query (a result or a
                                                        per-item ``{"error": ...}``); each resolved
                                                        path's queries run as one batched θ-join
``impact``       GET   ``/graph/impact``        yes     ``array=NAME`` → downstream closure, hop counts
``dependencies`` GET   ``/graph/dependencies``  yes     ``array=NAME`` → upstream closure, hop counts
``summary``      GET   ``/graph/summary``       yes     whole-catalog summary (roots, leaves, fan-in…)
``healthz``      GET   ``/healthz``             no      liveness + catalog size, durable generation
                                                        vector, cache/executor stats, per-shard
                                                        circuit-breaker states (``"status":
                                                        "degraded"`` while any breaker is open)
``metrics``      GET   ``/metrics``             no      the whole :data:`repro.obs.REGISTRY` in
                                                        Prometheus text exposition format
                                                        (``text/plain; version=0.0.4``) — the only
                                                        non-JSON reply
``traces``       GET   ``/debug/traces``        no      recently finished traces — of requests
                                                        that sent a trace id or ran slow, and of
                                                        ingest tickets — newest first (``limit=N``
                                                        caps the reply); spans carry wall time and
                                                        tags (shard, cache outcome, fault site)
``scrub``        POST  ``/admin/scrub``         yes     ``{"repair": bool}`` (body optional) → full
                                                        scrub report; with ``"repair": true`` the
                                                        catalog is healed in place
                                                        (:mod:`repro.storage.scrub`), for a
                                                        loopback peer only (403 otherwise)
``ping``         —     —                        no      RPC only: an empty frame, echoed
===============  ====  =======================  ======  ==========================================

GET arguments travel in the query string, POST arguments in a JSON body,
RPC arguments in the frame's JSON payload; the checks are the same code.

Every failure returns a *structured* payload — over HTTP ``{"error":
{"type", "message"}}`` with a matching status code (400 malformed request,
403 a repairing scrub from a peer that is not loopback, 404 unknown array
or endpoint, 405 wrong method, 413 a declared body above
:data:`~repro.service.api.MAX_BODY_BYTES`, refused unread, 500 internal;
plus the fault taxonomy: 504 ``deadline-exceeded``, 503 ``shard-unavailable``
/ ``overloaded`` / ``io-error``) — never a hung socket: the handler catches
everything, and the server always finishes the response it started.

Query replies carry a ``"degraded"`` flag: ``true`` means the home shard
was unavailable and a stale cached result was served instead
(:class:`~repro.service.query.QueryExecutor`'s circuit-breaker path).
A query reply, single or batched, is stamped from its result-cache
entry's reply memo: each item's JSON is encoded the first time the entry
goes out and kept; a later reply adds only the item's ``cached`` /
``degraded`` (and, alone, ``elapsed_ms``), and a batch joins its items —
the text ``json.dumps`` gives the dicts.

The head of a request is bounded before it is routed: a request line or a
header line over :data:`MAX_LINE_BYTES` is 414 / 431, more than
:data:`MAX_HEADERS` header lines is 431, any ``Transfer-Encoding`` is 501
(a body is framed by ``Content-Length`` only, so no two parsers can
disagree on where it ends), a version other than HTTP/1.0 or 1.1 is 505,
a method with no route on the path is 405.  Those replies close the connection, and so
does every reply sent without reading a declared body; otherwise HTTP/1.1
keeps the connection open unless ``Connection: close`` is sent, HTTP/1.0
only when ``Connection: keep-alive`` is.  ``Expect: 100-continue`` is
answered before the body is read.  The client applies the same line and
header bounds to a reply, and reads at most
:data:`~repro.service.wire.MAX_FRAME_BYTES` of body.

Construction sugar: ``DSLog.serve(port, rpc_port=None)`` starts a server
on a background thread; ``LineageClient.connect(url)`` polls ``/healthz``
until the server answers.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
import urllib.parse
from email.utils import formatdate
from http import HTTPStatus
from typing import Any, BinaryIO, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..obs import REGISTRY, log_enabled, log_event, tracing
from .api import (
    ENDPOINTS,
    MAX_BODY_BYTES,
    BadJson,
    BodyTooLarge,
    Endpoint,
    ServiceCore,
    error_info,
    result_payload,
    run_endpoint,
)
from .query import DEFAULT_CACHE_ENTRIES, QueryExecutor
from .retry import RetryPolicy
from .wire import MAX_FRAME_BYTES, ShortRead, recv_exact

_REQUESTS = REGISTRY.counter(
    "dslog_requests_total",
    "Requests served, by wire, operation and status code",
    labelnames=("wire", "op", "status"),
)
_REQUEST_SECONDS = REGISTRY.histogram(
    "dslog_request_seconds",
    "Wall time per request, by wire and operation",
    labelnames=("wire", "op"),
)
_CONNECTIONS = REGISTRY.gauge(
    "dslog_connections", "Open client connections, by wire", labelnames=("wire",)
)

__all__ = [
    "LineageServer",
    "LineageClient",
    "LineageServerError",
    "LineageConnectionError",
    "IDLE_TIMEOUT_S",
    "MAX_BODY_BYTES",
    "MAX_CONNECTIONS",
    "MAX_HEADERS",
    "MAX_LINE_BYTES",
    "result_payload",
]

# the bounds on one HTTP message head, on both ends: a request, status or
# header line of at most MAX_LINE_BYTES (its CRLF included), and at most
# MAX_HEADERS header lines
MAX_LINE_BYTES = 64 * 1024
MAX_HEADERS = 100


class LineageServerError(RuntimeError):
    """A structured error returned by the server (the client re-raises it)."""

    def __init__(self, status: int, kind: str, message: str) -> None:
        super().__init__(f"[{status} {kind}] {message}")
        self.status = status
        self.kind = kind
        self.message = message


class LineageConnectionError(ConnectionError):
    """The client exhausted its transport retries without a response."""


# ----------------------------------------------------------------------
# the server: one core, a listener per port
# ----------------------------------------------------------------------
# the bounds on one listener, either wire: at most MAX_CONNECTIONS open
# connections (one more is closed unserved), and a peer that leaves a read
# or a write waiting IDLE_TIMEOUT_S seconds is hung up on
MAX_CONNECTIONS = 256
IDLE_TIMEOUT_S = 120.0


class _Listener(socketserver.ThreadingTCPServer):
    """One wire's listening socket: carries the core its handler threads
    serve from (and the fault plan the RPC handler consults), bounds its
    connections (:data:`MAX_CONNECTIONS`, :data:`IDLE_TIMEOUT_S`) and
    remembers every established one, so that a closing server can hang up
    on idle keep-alive and pooled peers instead of leaving their threads to
    answer from a released core.  The ``dslog_connections`` gauge of its
    handler's wire counts the connections it holds: up when one is
    admitted, down before a socket it held is closed or hung up on."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], handler, core: ServiceCore, fault_plan) -> None:
        self.core = core
        self.fault_plan = fault_plan
        self._open: set = set()
        self._open_lock = threading.Lock()
        self._connections = _CONNECTIONS.labels(handler.wire)
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            admitted = len(self._open) < MAX_CONNECTIONS
            if admitted:
                self._open.add(request)
                self._connections.inc()
        if not admitted:
            log_event(
                "connection_refused", level="warning", component="server",
                client=client_address[0], max_connections=MAX_CONNECTIONS,
            )
            self.shutdown_request(request)  # no thread: the peer reads EOF
            return
        request.settimeout(IDLE_TIMEOUT_S)  # the OSError it raises ends either wire's handler
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            if request in self._open:
                self._open.remove(request)
                self._connections.dec()
        super().shutdown_request(request)

    def hang_up(self) -> None:
        """Shut down every open connection: a handler blocked in a read sees
        EOF and exits, a peer mid-request sees a reset and re-dials."""
        with self._open_lock:
            connections = list(self._open)
            self._open.clear()
            self._connections.dec(len(connections))
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer already went away


class LineageServer:
    """Serve a DSLog catalog: one :class:`~repro.service.api.ServiceCore`
    and a listener for each port that is not ``None`` — the HTTP JSON API
    on *port*, the framed binary protocol (:mod:`repro.service.rpc`) on
    *rpc_port*.  Both wires answer from the one core, so they share its
    executor and result cache (a query cached over HTTP is a hit over RPC
    and vice versa).

    Parameters
    ----------
    log:
        The :class:`~repro.dslog.DSLog` to serve (memory or durable).  The
        server only reads; a colocated writer keeps ingesting through the
        same log object and the result cache invalidates per replaced
        lineage entry.
    host / port / rpc_port:
        The bind address.  ``0`` picks a free port; read it off the server
        (``port`` / ``url``, ``rpc_port`` / ``rpc_address``, each ``None``
        for a wire not served).  At least one port must be given.
    cache_entries:
        Result-cache capacity of the server's executor.
    fault_plan:
        A :class:`~repro.faults.FaultPlan` the RPC reply path consults
        (site ``"rpc.send"``; see :mod:`repro.service.rpc`).
    """

    def __init__(
        self,
        log,
        host: str = "127.0.0.1",
        port: Optional[int] = 0,
        rpc_port: Optional[int] = None,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        fault_plan=None,
    ) -> None:
        if port is None and rpc_port is None:
            raise ValueError("a server needs a port to listen on: port (HTTP), rpc_port (RPC) or both")
        self.core = ServiceCore(log, cache_entries=cache_entries)
        self._listeners: List[_Listener] = []
        self._threads: List[threading.Thread] = []
        self._closed = False
        self.host = host
        self.port = self.url = self.rpc_port = self.rpc_address = None
        try:
            if port is not None:
                self.port = self._listen(port, _Handler, fault_plan)
                self.url = f"http://{self.host}:{self.port}"
            if rpc_port is not None:
                from .rpc import _ConnectionHandler  # rpc imports this module

                self.rpc_port = self._listen(rpc_port, _ConnectionHandler, fault_plan)
                self.rpc_address = f"{self.host}:{self.rpc_port}"
        except OSError:
            self.close()  # a port already taken releases what came before it
            raise

    def _listen(self, port: int, handler, fault_plan) -> int:
        """Bind a listener for *handler*; returns the port it got."""
        listener = _Listener((self.host, port), handler, self.core, fault_plan)
        self._listeners.append(listener)
        return listener.server_address[1]

    @property
    def log(self):
        return self.core.log

    @property
    def executor(self) -> QueryExecutor:
        return self.core.executor

    def start(self):
        """Serve on daemon threads; returns self (``server = log.serve()``)."""
        if not self._threads:
            for listener in self._listeners:
                thread = threading.Thread(
                    target=listener.serve_forever,
                    name="lineage-listener",
                    kwargs={"poll_interval": 0.05},
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return self

    def serve_forever(self) -> None:
        """Serve until :meth:`close` (blocks; for dedicated processes)."""
        for thread in self.start()._threads:
            thread.join()

    def close(self) -> None:
        """Stop accepting, hang up on every open connection, join the
        serving threads, release the core."""
        if self._closed:
            return
        self._closed = True
        for listener in self._listeners:
            if self._threads:  # shutdown() waits for a loop that must have run
                listener.shutdown()
            listener.server_close()
            listener.hang_up()
        for thread in self._threads:
            thread.join(timeout=5)
        self.core.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


def _meter_request(
    wire: str,
    row: Optional[Endpoint],
    client: str,
    answer: Callable[[], Tuple[int, bytes]],
    trace_id: Optional[str] = None,
) -> bytes:
    """Run *answer* (→ ``(status code, reply bytes)``) and book it the same
    way on either wire: the ``dslog_requests_total`` counter and the
    ``dslog_request_seconds`` histogram, one ``request`` log event and, for
    a traced row with tracing on, a trace named ``request`` — all labelled
    or tagged with *wire* and ``op``, the row's name (``(unrouted)`` for a
    route or opcode with no row, so a scanner cannot blow up the label
    cardinality).  *trace_id*, the caller's, runs *answer* inside a trace
    of that id; without one, only a request that took
    :data:`~repro.obs.tracing.SLOW_S` or longer is traced, root-only.
    Returns the reply for the caller to send — only now, so a client never
    sees a reply before its trace is in the ring."""
    started = time.monotonic()
    op = row.name if row is not None else "(unrouted)"
    traced = row is not None and row.traced and tracing.tracing_enabled()
    trace: Optional[tracing.Trace] = None
    if traced and trace_id is not None:
        trace = tracing.Trace("request", trace_id=trace_id, wire=wire, op=op)
        with trace.activate():
            status, reply = answer()
    else:
        status, reply = answer()
    elapsed = time.monotonic() - started
    if traced and trace is None and elapsed >= tracing.SLOW_S:
        trace = tracing.Trace("request", t0=started, wire=wire, op=op)
    if trace is not None:
        trace.set_tag("status", status)
        trace.finish()
    _REQUESTS.labels(wire, op, str(status)).inc()
    _REQUEST_SECONDS.labels(wire, op).observe(elapsed)
    if log_enabled("server"):
        log_event(
            "request",
            component="server",
            wire=wire,
            op=op,
            status=status,
            ms=round(elapsed * 1000.0, 3),
            client=client,
            trace_id=trace.trace_id if trace is not None else None,
        )
    return reply


# ----------------------------------------------------------------------
# the HTTP codec: message heads, both ends
# ----------------------------------------------------------------------
class _HeadRefused(ValueError):
    """A message head the codec will not take: the server answers
    ``status`` / ``kind`` and hangs up, the client gives up on the reply."""

    def __init__(self, status: int, kind: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind


def _read_line(
    rfile: BinaryIO, what: str, status: int = 431, kind: str = "header-too-large"
) -> bytes:
    """One CRLF-terminated line of at most :data:`MAX_LINE_BYTES`; a longer
    one is refused with *status* / *kind*, EOF first is :class:`ShortRead`."""
    line = rfile.readline(MAX_LINE_BYTES + 1)
    if len(line) > MAX_LINE_BYTES:
        raise _HeadRefused(status, kind, f"{what} exceeds {MAX_LINE_BYTES} bytes")
    if not line.endswith(b"\n"):
        raise ShortRead(f"connection closed inside {what}")
    return line


def _read_headers(rfile: BinaryIO) -> Dict[str, str]:
    """The header lines up to the blank one, as ``{lower-cased name:
    value}``; a repeated name's values are joined by ``", "`` (so two
    different ``Content-Length`` values never parse as a number)."""
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = _read_line(rfile, "a header line")
        if line == b"\r\n" or line == b"\n":
            return headers
        name, sep, value = line.partition(b":")
        if not sep or not name or name != name.strip():
            # no colon, an empty name, whitespace before the colon, or a
            # continuation line (obsolete line folding)
            raise _HeadRefused(400, "bad-request", f"malformed header line {line[:64]!r}")
        key = name.decode("latin-1").lower()
        text = value.strip().decode("latin-1")
        headers[key] = f"{headers[key]}, {text}" if key in headers else text
    raise _HeadRefused(431, "header-too-large", f"more than {MAX_HEADERS} header lines")


def _tokens(value: Optional[str]) -> FrozenSet[str]:
    """A comma-separated header value (``Connection``) as lower-cased tokens."""
    if not value:
        return frozenset()
    return frozenset(token.strip() for token in value.lower().split(","))


def _content_length(value: Optional[str]) -> int:
    """A declared ``Content-Length``, or -1 when absent or not a plain
    non-negative decimal."""
    return int(value) if value and value.isascii() and value.isdigit() else -1


# ----------------------------------------------------------------------
# the HTTP server
# ----------------------------------------------------------------------
# the stamp of a result item's outcome flags, by (cached, degraded)
_FLAGS = {
    (cached, degraded): f', "cached": {json.dumps(cached)}, "degraded": {json.dumps(degraded)}'
    for cached in (False, True)
    for degraded in (False, True)
}


def _item_text(outcome, spec) -> str:
    """A query outcome's result item without its closing brace: the JSON
    of its result payload, kept without the brace in the outcome's reply
    memo the first time, then the two stamped flags — the text
    ``json.dumps`` gives the dict with them."""
    key = ("http", spec.include_boxes, spec.include_cells)
    memo = outcome.memo
    static = memo.get(key) if memo is not None else None
    if static is None:
        payload = result_payload(
            outcome.result, include_boxes=spec.include_boxes, include_cells=spec.include_cells
        )
        static = json.dumps(payload)[:-1]
        if memo is not None:
            memo[key] = static
    return static + _FLAGS[outcome.cached, outcome.degraded]


def _batch_text(entries: list, elapsed_ms: float) -> str:
    """A ``/query_batch`` reply: the text ``json.dumps`` gives ``{"results":
    [...], "batch_size": n, "elapsed_ms": x}`` (a float's JSON is its
    ``repr``), each result item stamped from its reply memo."""
    items = ", ".join(json.dumps(e) if isinstance(e, dict) else _item_text(*e) + "}" for e in entries)
    return f'{{"results": [{items}], "batch_size": {len(entries)}, "elapsed_ms": {elapsed_ms!r}}}'


# one encoder per reply kind: reply → body text (JSON, but for "text")
_ENCODERS: Dict[str, Callable[[Any], str]] = {
    "json": json.dumps,
    "text": str,
    "query": lambda reply: f'{_item_text(reply[0], reply[1])}, "elapsed_ms": {reply[2]!r}}}',
    "batch": lambda reply: _batch_text(*reply),
}
_TEXT = b"text/plain; version=0.0.4; charset=utf-8"
_JSON = b"application/json"
_ROUTES: Dict[Tuple[str, str], Endpoint] = {
    (row.method, row.route): row for row in ENDPOINTS.values() if row.route is not None
}
_METHODS = frozenset(method for method, _ in _ROUTES)
_PATHS = frozenset(route for _, route in _ROUTES)
_STATUS_LINES = {
    status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n".encode("ascii")
    for status in HTTPStatus
}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
# status line, Date, Content-Type, Content-Length, Connection (or nothing), body
_REPLY = b"%sServer: dslog-lineage\r\nDate: %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%s\r\n%s"
_date: Tuple[int, bytes] = (0, b"")


def _http_date() -> bytes:
    """The ``Date`` header's value, formatted at most once a second."""
    global _date
    now = int(time.time())
    if _date[0] != now:
        _date = (now, formatdate(now, usegmt=True).encode("ascii"))
    return _date[1]


class _Handler(socketserver.StreamRequestHandler):
    """One thread per connection: read a request head, answer the request
    with one ``sendall``, and loop while the connection may stay open."""

    wire = "http"
    disable_nagle_algorithm = True  # a reply is one small write; send it now

    def handle(self) -> None:
        try:
            while self._handle_one():
                pass
        except OSError:
            return  # the peer reset, or the closing server hung up

    def _handle_one(self) -> bool:
        """Read and answer one request; returns whether the connection
        stays open for the next."""
        self._keep = self._unread = False
        try:
            method, target = self._read_head()
        except ShortRead:
            return False  # the peer hung up, between requests or inside a head
        except _HeadRefused as refused:
            self.request.sendall(self._error_reply(refused.status, refused.kind, str(refused)))
            return False
        path, _, query = target.partition("?")
        endpoint = path.rstrip("/") or "/"
        row = _ROUTES.get((method, endpoint))
        if row is None:
            reply = _meter_request(
                self.wire, None, self.client_address[0], lambda: self._unrouted(method, path, endpoint)
            )
        else:
            reply = _meter_request(
                self.wire,
                row,
                self.client_address[0],
                lambda: self._answer(row, query),
                tracing.parse_traceparent(self.headers.get("traceparent")),
            )
        self.request.sendall(reply)
        return self._keep

    # -- the head -------------------------------------------------------
    def _read_head(self) -> Tuple[str, str]:
        """The request line and headers; sets what the connection does
        after the reply.  Returns ``(method, target)``."""
        line = _read_line(self.rfile, "the request line", 414, "uri-too-long")
        parts = line.split()
        if len(parts) != 3 or not parts[2].startswith(b"HTTP/"):
            raise _HeadRefused(400, "bad-request", f"malformed request line {line[:64]!r}")
        method, target, version = (part.decode("latin-1") for part in parts)
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            raise _HeadRefused(
                505, "version-not-supported", f"{version} is not supported: this server speaks HTTP/1.1"
            )
        self.headers = headers = _read_headers(self.rfile)
        if "transfer-encoding" in headers:
            raise _HeadRefused(
                501, "not-implemented", "a request body is framed by Content-Length only, "
                "Transfer-Encoding is not supported"
            )
        self._http10 = version == "HTTP/1.0"
        connection = _tokens(headers.get("connection"))
        self._keep = "keep-alive" in connection if self._http10 else "close" not in connection
        self._unread = (headers.get("content-length") or "0") != "0"
        self._continue = not self._http10 and headers.get("expect", "").lower() == "100-continue"
        return method, target

    # -- the reply ------------------------------------------------------
    def _reply(self, status: int, content_type: bytes, text: str) -> bytes:
        """The whole response, head and body.  A reply sent without
        reading a declared body closes the connection: the stream cannot
        frame another request."""
        self._keep = self._keep and not self._unread
        if not self._keep:
            connection = b"Connection: close\r\n"
        else:
            connection = b"Connection: keep-alive\r\n" if self._http10 else b""
        body = text.encode("utf-8")
        return _REPLY % (_STATUS_LINES[status], _http_date(), content_type, len(body), connection, body)

    def _error_reply(self, status: int, kind: str, message: str) -> bytes:
        return self._reply(status, _JSON, json.dumps({"error": {"type": kind, "message": message}}))

    def _unrouted(self, method: str, path: str, endpoint: str) -> Tuple[int, bytes]:
        if method in _METHODS and endpoint not in _PATHS:
            status, kind, message = 404, "not-found", f"unknown endpoint {path!r}"
        else:
            self._keep = False
            status, kind, message = 405, "method-not-allowed", f"{method} is not supported on {path}"
        return status, self._error_reply(status, kind, message)

    # -- a routed request -----------------------------------------------
    def _read_body(self) -> dict:
        declared = self.headers.get("content-length")
        length = _content_length(declared)
        if not 0 <= length <= MAX_BODY_BYTES:
            # whatever body follows stays unread (a negative length would
            # block until the peer hangs up, an oversized one is refused
            # unseen), so this stream cannot frame another request
            self._keep = False
            if length > MAX_BODY_BYTES:
                raise BodyTooLarge(
                    f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                )
            raise ValueError(
                "a JSON request body is required: Content-Length must be a "
                f"non-negative integer, got {declared or ''!r}"
            )
        if self._continue:
            self.request.sendall(_CONTINUE)
        raw = recv_exact(self.rfile, length)
        self._unread = False
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadJson(str(error)) from None
        if not isinstance(body, dict):
            raise BadJson("the request body must be a JSON object")
        return body

    def _run(self, row: Endpoint, query: str) -> str:
        """Gather the row's arguments (query string of a GET, JSON body of
        a POST), run it against the core and encode its reply."""
        if row.method == "GET":
            args = {key: values[0] for key, values in urllib.parse.parse_qs(query).items()}
        elif row.bare_ok and not self._unread:
            args = {}
        else:
            args = self._read_body()
        return _ENCODERS[row.reply](run_endpoint(row, self.server.core, args, self.client_address[0]))

    def _answer(self, row: Endpoint, query: str) -> Tuple[int, bytes]:
        """Run one routed request; returns its status and whole reply."""
        try:
            text = self._run(row, query)
        except ShortRead:
            raise  # the peer hung up inside its body: nobody to answer
        except Exception as error:  # noqa: BLE001 - must never hang the socket
            status, kind, message = error_info(error)
            return status, self._error_reply(status, kind, message)
        return 200, self._reply(200, _TEXT if row.reply == "text" else _JSON, text)


# ----------------------------------------------------------------------
# the client core (either transport)
# ----------------------------------------------------------------------
class _Client:
    """What every client is, whatever it speaks: a retry policy and the one
    loop that applies it, the ``connect`` rendezvous, request building and
    one method per endpoint — all over the transport's :meth:`call`.

    All requests are read-only (and therefore idempotent), so transport
    failures (the transport's ``_RETRYABLE`` exceptions) are retried on a
    fresh connection with decorrelated-jitter backoff bounded by both an
    attempt count and a total *retry_budget* of sleep seconds
    (:class:`~repro.service.retry.RetryPolicy`) before
    :class:`LineageConnectionError` is raised.  Structured server failures
    raise :class:`LineageServerError` immediately, with the server's
    ``status``, ``type`` and ``message``.
    """

    _RETRYABLE: Tuple[type, ...] = ()
    _RENDEZVOUS = "healthz"  # the endpoint connect() polls

    def __init__(
        self,
        timeout: float,
        retries: int,
        backoff: float,
        retry_budget: Optional[float],
    ) -> None:
        self.timeout = float(timeout)
        self.retry = RetryPolicy(retries=retries, backoff=backoff, retry_budget=retry_budget)
        self.requests_sent = 0
        self.retries_used = 0

    @classmethod
    def connect(cls, address, timeout: float = 10.0, **kwargs):
        """Build a client and wait (up to *timeout* seconds) for the server
        to answer — the rendezvous for freshly spawned server processes."""
        client = cls(address, **kwargs)
        deadline = time.monotonic() + float(timeout)
        while True:
            try:
                client.call(cls._RENDEZVOUS)
                return client
            except (LineageConnectionError, LineageServerError):
                if time.monotonic() >= deadline:
                    raise LineageConnectionError(
                        f"no lineage server answered at {address} within {timeout}s"
                    ) from None
                time.sleep(min(0.05, client.retry.backoff))

    def call(self, name: str, body: Optional[dict] = None, trace_id: Optional[str] = None):
        """One round trip to endpoint *name* (a key of :data:`~repro.
        service.api.ENDPOINTS`); returns the decoded reply.  With a
        *trace_id* (32 hex digits) the request carries a ``traceparent``
        and the server traces it under that id."""
        raise NotImplementedError

    def _retrying(self, what: str, attempt: Callable[[], Any]):
        """Run *attempt* until it returns.  An attempt that raises one of
        the transport's ``_RETRYABLE`` exceptions has already discarded its
        connection; it is repeated after the schedule's next sleep."""
        schedule = None  # made by the first failure: a request that succeeds needs none
        while True:
            try:
                return attempt()
            except self._RETRYABLE as error:
                last_error = error
            if schedule is None:
                schedule = self.retry.schedule()
            if not schedule.sleep():
                raise LineageConnectionError(
                    f"{what} failed after {schedule.describe()}: {last_error}"
                ) from last_error
            self.retries_used += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- API ------------------------------------------------------------
    def prov_query(
        self,
        path: Sequence[str],
        cells: Optional[Sequence] = None,
        slices: Optional[Sequence] = None,
        merge: bool = True,
        include_boxes: bool = True,
        include_cells: bool = False,
        deadline: Optional[float] = None,
        trace_id: Optional[str] = None,
    ):
        """Run a lineage query; returns the server's result (``boxes``,
        exact ``count``, per-hop stats, ``cached`` and ``degraded`` flags)
        — a dict over HTTP, a mapping-compatible zero-copy
        :class:`~repro.service.wire.RPCResult` over RPC.  *deadline* bounds
        the server-side fan-out — a slow shard turns into a structured 504,
        never a hang.  *trace_id*: see :meth:`call`."""
        body: Dict[str, Any] = {"path": list(path), "merge": merge}
        if cells is not None:
            body["cells"] = [list(cell) for cell in cells]
        if slices is not None:
            body["slices"] = [list(pair) if pair is not None else None for pair in slices]
        body["include_boxes"] = include_boxes
        body["include_cells"] = include_cells
        if deadline is not None:
            body["deadline"] = deadline
        return self.call("query", body, trace_id)

    @staticmethod
    def _normalize_queries(
        queries: Sequence[Any],
        merge: bool,
        include_boxes: bool,
        include_cells: bool,
    ) -> List[dict]:
        """``(path, cells)`` tuples / raw body dicts → query body dicts: a
        dict's own keys win over the call's flags."""
        flags = {"merge": merge, "include_boxes": include_boxes, "include_cells": include_cells}
        bodies: List[dict] = []
        for item in queries:
            if not isinstance(item, dict):
                path, cells = item
                item = {
                    "path": list(path),
                    "cells": [
                        list(cell) if isinstance(cell, (list, tuple)) else cell
                        for cell in cells
                    ],
                }
            bodies.append({**flags, **item})
        return bodies

    def prov_query_batch(
        self,
        queries: Sequence[Any],
        merge: bool = True,
        include_boxes: bool = True,
        include_cells: bool = False,
        deadline: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> list:
        """Run many lineage queries in one round trip — the server executes
        them as one plan: one θ-join pass per (table, direction) crossed.

        Each entry of *queries* is either a full request dict (the same
        shape :meth:`prov_query` builds: ``path`` plus ``cells`` or
        ``slices``, optionally overriding ``merge`` etc.) or a shorthand
        ``(path, cells)`` pair.  Returns one entry per query, in order:
        a result, or ``{"error": {...}}`` for queries that failed
        individually (a bad query never fails its batch-mates).
        *trace_id*: see :meth:`call`.
        """
        body: Dict[str, Any] = {
            "queries": self._normalize_queries(queries, merge, include_boxes, include_cells)
        }
        if deadline is not None:
            body["deadline"] = deadline
        return self.call("query_batch", body, trace_id)

    def impact(self, name: str) -> Dict[str, int]:
        return self.call("impact", {"array": name})["impact"]

    def dependencies(self, name: str) -> Dict[str, int]:
        return self.call("dependencies", {"array": name})["dependencies"]

    def lineage_summary(self) -> dict:
        return self.call("summary")

    def healthz(self) -> dict:
        return self.call("healthz")

    def scrub(self, repair: bool = False) -> dict:
        """Run the server-side fsck; returns the scrub report.
        ``repair=True`` heals the catalog in place."""
        return self.call("scrub", {"repair": repair})["scrub"]

    def metrics_text(self) -> str:
        """The metrics registry as raw Prometheus exposition text (the one
        endpoint whose reply is not JSON)."""
        return self.call("metrics")

    def traces(self, limit: Optional[int] = None) -> list:
        """Recently finished traces, newest first."""
        return self.call("traces", None if limit is None else {"limit": limit})["traces"]


# ----------------------------------------------------------------------
# the HTTP client
# ----------------------------------------------------------------------
class _HTTPConnection:
    """One persistent socket plus the buffered reader its replies are
    parsed from."""

    __slots__ = ("sock", "rfile")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rfile = sock.makefile("rb")

    def exchange(self, request: bytes) -> Tuple[int, bytes, bool]:
        """Send one whole request and read its reply, within the head
        bounds and at most :data:`~repro.service.wire.MAX_FRAME_BYTES` of
        body; returns ``(status, body, whether the connection stays
        open)``."""
        self.sock.sendall(request)
        try:
            line = _read_line(self.rfile, "the status line")
        except ShortRead:
            # the keep-alive case: the server hung up between requests
            raise ConnectionResetError("the server closed the connection without a reply") from None
        version, _, rest = line.partition(b" ")
        status = rest[:3]
        if not version.startswith(b"HTTP/1.") or not (status.isdigit() and len(status) == 3):
            raise ValueError(f"malformed status line {line[:64]!r}")
        headers = _read_headers(self.rfile)
        length = _content_length(headers.get("content-length"))
        if not 0 <= length <= MAX_FRAME_BYTES or "transfer-encoding" in headers:
            raise ValueError(
                f"a reply must declare a Content-Length of at most {MAX_FRAME_BYTES} "
                f"bytes, got {headers.get('content-length')!r}"
            )
        body = recv_exact(self.rfile, length)
        connection = _tokens(headers.get("connection"))
        keep = "keep-alive" in connection if version == b"HTTP/1.0" else "close" not in connection
        return int(status), body, keep

    def close(self) -> None:
        for closeable in (self.rfile, self.sock):
            try:
                closeable.close()
            except OSError:
                pass


class LineageClient(_Client):
    """HTTP client for a :class:`LineageServer` with **persistent
    connections**: each calling thread keeps one socket alive across
    requests (HTTP/1.1 keep-alive), so the steady-state round trip pays no
    TCP connect/teardown and sends each request, head and body, with one
    ``sendall``.  The connection is re-dialed transparently when the server
    restarts, hangs up between requests or says ``Connection: close``.
    Retries and errors: :class:`_Client`; a reply outside the codec's
    bounds is a :class:`LineageConnectionError`.
    """

    # transport-level failures worth a retry: the server restarting, a
    # listen backlog reset, a half-closed keep-alive connection (the
    # server hung up between requests: EOF before a status line reads as
    # ConnectionResetError), a timeout
    _RETRYABLE = (
        ConnectionResetError,
        ConnectionRefusedError,
        ConnectionAbortedError,
        BrokenPipeError,
        socket.timeout,
    )

    def __init__(
        self,
        url: str,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.05,
        retry_budget: Optional[float] = 10.0,
    ) -> None:
        super().__init__(timeout, retries, backoff, retry_budget)
        self.url = url.rstrip("/")
        parsed = urllib.parse.urlsplit(self.url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"LineageClient speaks http:// only, got {url!r}")
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80
        self._netloc = parsed.netloc or f"{self._host}:{self._port}"
        # one keep-alive connection per calling thread: threads fan out in
        # parallel, and every opened connection is registered so close()
        # can drop them all
        self._local = threading.local()
        self._conns_lock = threading.Lock()
        self._conns: List[_HTTPConnection] = []

    # -- transport ------------------------------------------------------
    def _connection(self) -> _HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            sock = socket.create_connection((self._host, self._port), timeout=self.timeout)
            # request frames are small; ship them without Nagle batching
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = self._local.conn = _HTTPConnection(sock)
            with self._conns_lock:
                self._conns.append(conn)
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            return
        self._local.conn = None
        with self._conns_lock:
            try:
                self._conns.remove(conn)
            except ValueError:
                pass
        conn.close()

    def close(self) -> None:
        """Close every keep-alive connection this client has opened (any
        thread's).  The client remains usable — the next request re-dials."""
        with self._conns_lock:
            conns, self._conns = self._conns, []
        self._local = threading.local()
        for conn in conns:
            conn.close()

    def _round_trip(self, request: bytes) -> Tuple[int, bytes]:
        """One attempt over the thread's persistent connection; a failed
        one drops the connection, so the next attempt re-dials."""
        self.requests_sent += 1
        try:
            # dial errors are retryable too: the connection is opened
            # inside the retry loop
            status, payload, keep = self._connection().exchange(request)
        except (OSError, ValueError) as error:
            self._drop_connection()
            if isinstance(error, self._RETRYABLE):
                raise
            # a reply the codec refuses, a peer gone mid-body, a DNS
            # failure: not retryable-by-policy, but the connection is
            # poisoned either way
            raise LineageConnectionError(str(error)) from error
        if not keep:
            self._drop_connection()
        return status, payload

    def call(self, name: str, body: Optional[dict] = None, trace_id: Optional[str] = None):
        row = ENDPOINTS[name]
        route, data = row.route, b""
        if row.method == "GET" and body:
            route += "?" + urllib.parse.urlencode(body)
        head = f"{row.method} {route} HTTP/1.1\r\nHost: {self._netloc}\r\n"
        if trace_id is not None:
            head += f"traceparent: {tracing.traceparent(trace_id)}\r\n"
        if row.method == "POST":
            if body is not None:
                data = json.dumps(body).encode("utf-8")
            head += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
        request = (head + "\r\n").encode("ascii") + data
        status, payload = self._retrying(
            f"{row.method} {route}", lambda: self._round_trip(request)
        )
        text = payload.decode("utf-8", "replace")
        if status >= 400:
            try:
                detail = json.loads(text)["error"]
                error = LineageServerError(status, detail["type"], detail["message"])
            except (ValueError, KeyError, TypeError):  # non-JSON error body
                error = LineageServerError(status, "http-error", text)
            raise error
        if row.reply == "text":
            return text
        reply = json.loads(text)
        return reply["results"] if row.reply == "batch" else reply
