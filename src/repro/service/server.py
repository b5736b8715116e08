"""The HTTP lineage server and client (``LineageServer`` / ``LineageClient``).

Everything before this module answered queries in-process; the serving
tier makes the catalog reachable from other processes with nothing beyond
the stdlib: a :class:`http.server.ThreadingHTTPServer` fronting the shared
:class:`~repro.service.api.ServiceCore` (one handler thread per
connection, all sharing the core's executor, result cache and optional
coalescer), and a thin ``http.client``-based client with **persistent
keep-alive connections** (one per calling thread, transparently re-dialed
when the server restarts) and bounded retry on transport failures.

This module is one of two transports over the same service layer — the
binary RPC tier (:mod:`repro.service.rpc`) is the other.  Pick HTTP for
interoperability (curl, browsers, load balancers); pick RPC when the
round trip itself is the cost that matters.

JSON API
--------
=======================  ====  =====================================================
``/query``               POST  ``{"path": [...], "cells": [[i, j], ...]}`` or
                               ``{"path": [...], "slices": [[start, stop], ...]}``
                               (+ optional ``"merge"``, ``"include_boxes"``,
                               ``"include_cells"``) → result boxes, exact cell
                               count, per-hop stats, ``"cached"`` flag
``/query_batch``         POST  ``{"queries": [<query body>, ...]}`` → one
                               ``results`` entry per query (a result payload or
                               a per-item ``{"error": ...}``); the server runs
                               each resolved path's queries as a single batched
                               θ-join pass
``/graph/impact``        GET   ``?array=NAME`` → downstream closure with hop counts
``/graph/dependencies``  GET   ``?array=NAME`` → upstream closure with hop counts
``/graph/summary``       GET   whole-catalog summary (roots, leaves, fan-in/out…)
``/healthz``             GET   liveness + catalog size, durable generation vector,
                               cache/executor stats, per-shard circuit-breaker
                               states (``"status": "degraded"`` while any breaker
                               is open)
``/metrics``             GET   the whole :data:`repro.obs.REGISTRY` in Prometheus
                               text exposition format (``text/plain;
                               version=0.0.4``) — the only non-JSON endpoint
``/debug/traces``        GET   recently finished traces, newest first
                               (``?limit=N`` caps the reply); spans carry wall
                               time and tags (shard, cache outcome, fault site)
``/admin/scrub``         POST  ``{"repair": bool}`` (body optional) → full scrub
                               report; with ``"repair": true`` the catalog is
                               healed in place (:mod:`repro.storage.scrub`)
=======================  ====  =====================================================

Every failure returns a *structured* JSON payload — ``{"error": {"type",
"message"}}`` with a matching status code (400 malformed request, 404
unknown array or endpoint, 405 wrong method, 413 a declared body above
:data:`MAX_BODY_BYTES`, refused unread, 500 internal; plus the fault
taxonomy: 504 ``deadline-exceeded``, 503 ``shard-unavailable`` /
``overloaded`` / ``io-error``) — never a hung socket: the handler catches
everything, and the server always finishes the response it started.
``/query`` responses carry a ``"degraded"`` flag: ``true`` means the home
shard was unavailable and a stale cached result was served instead
(:class:`~repro.service.query.QueryExecutor`'s circuit-breaker path).

Construction sugar: ``DSLog.serve(port)`` / ``LineageService.serve(port)``
start a server on a background thread; ``LineageClient.connect(url)``
polls ``/healthz`` until the server answers.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs import REGISTRY, log_event, tracing
from .api import (
    BadJson,
    BodyTooLarge,
    QueryCoalescer,
    ServiceCore,
    annotate_outcome,
    error_info,
    result_payload,
)
from .query import DEFAULT_CACHE_ENTRIES, QueryExecutor
from .retry import RetryPolicy

_HTTP_REQUESTS = REGISTRY.counter(
    "dslog_http_requests_total",
    "HTTP requests served, by endpoint and status code",
    labelnames=("endpoint", "status"),
)
_HTTP_SECONDS = REGISTRY.histogram(
    "dslog_http_request_seconds",
    "Wall time per HTTP request, by endpoint",
    labelnames=("endpoint",),
)

# endpoints that open a per-request trace (the observability surfaces
# themselves — /metrics, /debug/traces, /healthz — would only self-spam)
# request bodies are small JSON (a 64-query batch of 256-cell queries is
# ~100 KB); a Content-Length above this is refused without reading it
MAX_BODY_BYTES = 16 * 1024 * 1024

_TRACED_ENDPOINTS = {
    "/query",
    "/query_batch",
    "/graph/impact",
    "/graph/dependencies",
    "/graph/summary",
    "/admin/scrub",
}

__all__ = [
    "LineageServer",
    "LineageClient",
    "LineageServerError",
    "LineageConnectionError",
    "QueryCoalescer",
    "result_payload",
]


class LineageServerError(RuntimeError):
    """A structured error returned by the server (the client re-raises it)."""

    def __init__(self, status: int, kind: str, message: str) -> None:
        super().__init__(f"[{status} {kind}] {message}")
        self.status = status
        self.kind = kind
        self.message = message


class LineageConnectionError(ConnectionError):
    """The client exhausted its transport retries without an HTTP response."""


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "dslog-lineage"
    # buffer the response and push it in one segment: the stdlib default
    # (unbuffered writes + Nagle) turns every keep-alive response into a
    # small-write sequence that trips the ~40 ms delayed-ACK stall
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    # the LineageServer installs itself here on the subclass it creates
    lineage: "LineageServer" = None

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # BaseHTTPRequestHandler's per-response log line, routed through
        # the structured logger at DEBUG — quiet by default, one
        # DSLOG_LOG_LEVEL=DEBUG away when needed.  The richer per-request
        # event (endpoint, status, latency) is emitted by _dispatch at INFO.
        log_event(
            "http_log",
            level="debug",
            component="server",
            client=self.client_address[0],
            line=format % args,
        )

    # -- plumbing -------------------------------------------------------
    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_payload(self, status: int, kind: str, message: str) -> None:
        self._send_json(status, {"error": {"type": kind, "message": message}})

    def _read_body(self) -> dict:
        declared = (self.headers.get("Content-Length") or "").strip()
        length = int(declared) if declared.isascii() and declared.isdigit() else -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # whatever body follows stays unread (a negative length would
            # block until the peer hangs up, an oversized one is refused
            # unseen), so this stream cannot frame another request
            self.close_connection = True
            if length > MAX_BODY_BYTES:
                raise BodyTooLarge(
                    f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                )
            raise ValueError(
                "a JSON request body is required: Content-Length must be a "
                f"non-negative integer, got {declared!r}"
            )
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadJson(str(error)) from None
        if not isinstance(body, dict):
            raise BadJson("the request body must be a JSON object")
        return body

    def _dispatch(self, method: str) -> None:
        parsed = urllib.parse.urlparse(self.path)
        endpoint = parsed.path.rstrip("/") or "/"
        route = (method, endpoint)
        handler = _ROUTES.get(route)
        if handler is None:
            if any(existing[1] == endpoint for existing in _ROUTES):
                self._send_error_payload(
                    405, "method-not-allowed", f"{method} is not supported on {parsed.path}"
                )
            else:
                self._send_error_payload(
                    404, "not-found", f"unknown endpoint {parsed.path!r}"
                )
            # unknown paths share one label value so a URL scanner cannot
            # blow up the endpoint cardinality
            _HTTP_REQUESTS.labels(endpoint="(unrouted)", status="404").inc()
            return
        started = time.monotonic()
        trace: Optional[tracing.Trace] = None
        if endpoint in _TRACED_ENDPOINTS and tracing.tracing_enabled():
            trace = tracing.Trace("http", endpoint=endpoint, method=method)
        status = self._run_route(handler, parsed, trace)
        elapsed = time.monotonic() - started
        if trace is not None:
            trace.set_tag("status", status)
            trace.finish()
        _HTTP_REQUESTS.labels(endpoint=endpoint, status=str(status)).inc()
        _HTTP_SECONDS.labels(endpoint=endpoint).observe(elapsed)
        log_event(
            "request",
            component="server",
            method=method,
            endpoint=endpoint,
            status=status,
            ms=round(elapsed * 1000.0, 3),
            client=self.client_address[0],
            trace_id=trace.trace_id if trace is not None else None,
        )

    def _run_route(self, handler, parsed, trace: "Optional[tracing.Trace]") -> int:
        """Execute one route handler inside the request's trace context and
        send the response (JSON, or raw text for ``(content_type, text)``
        payloads like /metrics); returns the HTTP status actually sent."""
        try:
            if trace is not None:
                with trace.activate():
                    status, payload = handler(self.lineage, self, parsed)
            else:
                status, payload = handler(self.lineage, self, parsed)
        except Exception as error:  # noqa: BLE001 - must never hang the socket
            status, kind, message = error_info(error)
            self._send_error_payload(status, kind, message)
            return status
        if isinstance(payload, tuple):
            content_type, text = payload
            self._send_text(status, text, content_type)
        else:
            self._send_json(status, payload)
        return status

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")


def _route_query(server: "LineageServer", handler: _Handler, parsed) -> Tuple[int, dict]:
    body = handler._read_body()
    start = time.monotonic()
    outcome, spec = server.core.execute_query(body)
    payload = result_payload(
        outcome.result,
        include_boxes=spec.include_boxes,
        include_cells=spec.include_cells,
    )
    return 200, annotate_outcome(payload, outcome, (time.monotonic() - start) * 1000.0)


def _route_query_batch(server: "LineageServer", handler: _Handler, parsed) -> Tuple[int, dict]:
    body = handler._read_body()
    start = time.monotonic()
    specs, outcomes = server.core.execute_query_batch(body)
    elapsed_ms = (time.monotonic() - start) * 1000.0
    payload_results = []
    for spec, outcome in zip(specs, outcomes):
        if isinstance(outcome, BaseException):
            status, kind, message = error_info(outcome)
            payload_results.append(
                {"error": {"type": kind, "message": message, "status": status}}
            )
            continue
        entry = result_payload(
            outcome.result,
            include_boxes=spec.include_boxes,
            include_cells=spec.include_cells,
        )
        entry["cached"] = outcome.cached
        entry["degraded"] = outcome.degraded
        payload_results.append(entry)
    return 200, {
        "results": payload_results,
        "batch_size": len(specs),
        "elapsed_ms": elapsed_ms,
    }


def _array_param(parsed) -> str:
    params = urllib.parse.parse_qs(parsed.query)
    values = params.get("array")
    if not values or not values[0]:
        raise ValueError("the 'array' query parameter is required")
    return values[0]


def _route_impact(server: "LineageServer", handler: _Handler, parsed) -> Tuple[int, dict]:
    return 200, server.core.impact_payload(_array_param(parsed))


def _route_dependencies(server: "LineageServer", handler: _Handler, parsed) -> Tuple[int, dict]:
    return 200, server.core.dependencies_payload(_array_param(parsed))


def _route_summary(server: "LineageServer", handler: _Handler, parsed) -> Tuple[int, dict]:
    return 200, server.core.summary_payload()


def _route_healthz(server: "LineageServer", handler: _Handler, parsed) -> Tuple[int, dict]:
    return 200, server.core.healthz_payload()


def _route_metrics(server: "LineageServer", handler: _Handler, parsed) -> Tuple[int, tuple]:
    return 200, ("text/plain; version=0.0.4; charset=utf-8", server.core.metrics_text())


def _route_traces(server: "LineageServer", handler: _Handler, parsed) -> Tuple[int, dict]:
    params = urllib.parse.parse_qs(parsed.query)
    limit = None
    if params.get("limit"):
        try:
            limit = int(params["limit"][0])
        except ValueError:
            raise ValueError("the 'limit' query parameter must be an integer") from None
        if limit <= 0:
            raise ValueError("the 'limit' query parameter must be positive")
    return 200, server.core.traces_payload(limit)


def _route_scrub(server: "LineageServer", handler: _Handler, parsed) -> Tuple[int, dict]:
    body = handler._read_body() if handler.headers.get("Content-Length") else {}
    return 200, server.core.scrub_payload(repair=bool(body.get("repair", False)))


_ROUTES = {
    ("POST", "/query"): _route_query,
    ("POST", "/query_batch"): _route_query_batch,
    ("GET", "/graph/impact"): _route_impact,
    ("GET", "/graph/dependencies"): _route_dependencies,
    ("GET", "/graph/summary"): _route_summary,
    ("GET", "/healthz"): _route_healthz,
    ("GET", "/metrics"): _route_metrics,
    ("GET", "/debug/traces"): _route_traces,
    ("POST", "/admin/scrub"): _route_scrub,
}


class LineageServer:
    """Serve a DSLog catalog over HTTP.

    Parameters
    ----------
    log:
        The :class:`~repro.dslog.DSLog` to serve (memory or durable).  The server
        only reads; a colocated writer keeps ingesting through the same log
        object and the result cache invalidates per touched shard.
    host / port:
        Bind address; ``port=0`` picks a free port (see :attr:`url`).
    executor:
        A pre-built :class:`QueryExecutor` to share; by default the server
        owns one (and closes it on :meth:`close`).
    max_workers / cache_entries:
        Forwarded to the owned executor.
    coalesce_ms:
        Opt-in request coalescing (see :class:`~repro.service.api.ServiceCore`).
    core:
        A pre-built :class:`~repro.service.api.ServiceCore` to serve —
        how ``DSLog.serve(transport="both")`` makes HTTP and RPC share one
        executor and cache.  Mutually exclusive with *executor* /
        *max_workers* / *cache_entries* / *coalesce_ms*; the core is not
        closed by this server.
    """

    def __init__(
        self,
        log,
        host: str = "127.0.0.1",
        port: int = 0,
        executor: Optional[QueryExecutor] = None,
        max_workers: Optional[int] = None,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        coalesce_ms: Optional[float] = None,
        core: Optional[ServiceCore] = None,
    ) -> None:
        self._owns_core = core is None
        self.core = core or ServiceCore(
            log,
            executor=executor,
            max_workers=max_workers,
            cache_entries=cache_entries,
            coalesce_ms=coalesce_ms,
        )
        handler = type("LineageHandler", (_Handler,), {"lineage": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # the pre-core attribute surface, kept for callers and tests
    @property
    def log(self):
        return self.core.log

    @property
    def executor(self) -> QueryExecutor:
        return self.core.executor

    @property
    def coalescer(self) -> Optional[QueryCoalescer]:
        return self.core.coalescer

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "LineageServer":
        """Serve on a daemon thread; returns self (``server = log.serve()``)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="lineage-http",
                kwargs={"poll_interval": 0.05},
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (blocks; for dedicated processes)."""
        self._httpd.serve_forever(poll_interval=0.05)

    def close(self) -> None:
        """Stop accepting, join the serving thread, release the executor."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if self._owns_core:
            self.core.close()

    def __enter__(self) -> "LineageServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
# transport-level failures worth a retry: the server restarting, a listen
# backlog reset, a half-closed keep-alive connection (RemoteDisconnected
# is exactly the keep-alive case: the server hung up between requests)
_RETRYABLE = (
    ConnectionResetError,
    ConnectionRefusedError,
    ConnectionAbortedError,
    BrokenPipeError,
    http.client.RemoteDisconnected,
    http.client.BadStatusLine,
    http.client.CannotSendRequest,
    http.client.ResponseNotReady,
    socket.timeout,
)


class LineageClient:
    """Stdlib HTTP client for a :class:`LineageServer` with **persistent
    connections**: each calling thread keeps one ``http.client.
    HTTPConnection`` alive across requests (HTTP/1.1 keep-alive), so the
    steady-state round trip pays no TCP connect/teardown — the connection
    is re-dialed transparently when the server restarts or the idle socket
    is reset (``RemoteDisconnected``).

    All requests are read-only (and therefore idempotent), so transport
    failures are retried with decorrelated-jitter backoff bounded by both
    an attempt count and a total *retry_budget* of sleep seconds
    (:class:`~repro.service.retry.RetryPolicy`) before
    :class:`LineageConnectionError` is raised.  HTTP-level errors are
    parsed back into :class:`LineageServerError` with the server's
    structured ``type`` and ``message``.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.05,
        jitter: float = 0.5,
        retry_budget: Optional[float] = 10.0,
    ) -> None:
        self.url = url.rstrip("/")
        parsed = urllib.parse.urlsplit(self.url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"LineageClient speaks http:// only, got {url!r}")
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80
        self.timeout = float(timeout)
        self.retry = RetryPolicy(
            retries=retries, backoff=backoff, jitter=jitter, retry_budget=retry_budget
        )
        self.requests_sent = 0
        self.retries_used = 0
        # one keep-alive connection per calling thread: threads fan out in
        # parallel (the old one-connection-per-request behavior, minus the
        # per-request dial), and every opened connection is registered so
        # close() can drop them all
        self._local = threading.local()
        self._conns_lock = threading.Lock()
        self._conns: List[http.client.HTTPConnection] = []

    # retry/backoff knobs kept as (assignable) attributes for callers that
    # tune an existing client
    @property
    def retries(self) -> int:
        return self.retry.retries

    @retries.setter
    def retries(self, value: int) -> None:
        self.retry.retries = int(value)

    @property
    def backoff(self) -> float:
        return self.retry.backoff

    @backoff.setter
    def backoff(self, value: float) -> None:
        self.retry.backoff = float(value)

    @property
    def retry_budget(self) -> Optional[float]:
        return self.retry.retry_budget

    @retry_budget.setter
    def retry_budget(self, value: Optional[float]) -> None:
        self.retry.retry_budget = None if value is None else float(value)

    @classmethod
    def connect(cls, url: str, timeout: float = 10.0, **kwargs) -> "LineageClient":
        """Build a client and wait (up to *timeout* seconds) for the server
        to answer ``/healthz`` — the rendezvous for freshly spawned server
        processes."""
        client = cls(url, **kwargs)
        deadline = time.monotonic() + float(timeout)
        while True:
            try:
                client.healthz()
                return client
            except (LineageConnectionError, LineageServerError):
                if time.monotonic() >= deadline:
                    raise LineageConnectionError(
                        f"no lineage server answered at {client.url} within {timeout}s"
                    ) from None
                time.sleep(min(0.05, client.backoff))

    # -- transport ------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            conn.connect()
            # request frames are small; ship them without Nagle batching
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._local.conn = conn
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
        try:
            conn.close()
        except OSError:
            pass

    def close(self) -> None:
        """Close every keep-alive connection this client has opened (any
        thread's).  The client remains usable — the next request re-dials."""
        with self._conns_lock:
            conns, self._conns = self._conns, []
        self._local = threading.local()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "LineageClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request_raw(self, method: str, route: str, body: Optional[dict] = None):
        """One request over the thread's persistent connection; returns
        ``(status, raw bytes)``.  Transport failures are retried (the
        connection is re-dialed); HTTP error statuses are returned to the
        caller for structured parsing."""
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data is not None else {}
        schedule = self.retry.schedule()
        last_error: Optional[BaseException] = None
        while True:
            self.requests_sent += 1
            try:
                # dial errors are retryable too: the connection is opened
                # eagerly (to set TCP_NODELAY), inside the retry loop
                conn = self._connection()
                conn.request(method, route, body=data, headers=headers)
                response = conn.getresponse()
                # read fully so the connection is reusable for the next call
                payload = response.read()
                return response.status, payload
            except _RETRYABLE as error:
                last_error = error
            except (http.client.HTTPException, OSError) as error:
                # unexpected transport state (half-written request, DNS
                # failure): not retryable-by-policy, but the connection is
                # poisoned either way
                self._drop_connection()
                raise LineageConnectionError(str(error)) from error
            self._drop_connection()
            if not schedule.sleep():
                raise LineageConnectionError(
                    f"{method} {route} failed after {schedule.describe()}: {last_error}"
                ) from last_error
            self.retries_used += 1

    def _request(self, method: str, route: str, body: Optional[dict] = None) -> dict:
        status, payload = self._request_raw(method, route, body)
        if status >= 400:
            raise self._server_error(status, payload)
        return json.loads(payload.decode("utf-8"))

    @staticmethod
    def _server_error(status: int, payload: bytes) -> LineageServerError:
        try:
            detail = json.loads(payload.decode("utf-8"))["error"]
            return LineageServerError(status, detail["type"], detail["message"])
        except Exception:  # noqa: BLE001 - non-JSON error body
            return LineageServerError(status, "http-error", payload.decode("utf-8", "replace"))

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
    ) -> dict:
        """Run a lineage query; returns the server's result payload
        (``boxes``, exact ``count``, per-hop stats, ``cached`` and
        ``degraded`` flags).  *deadline* bounds the server-side fan-out —
        a slow shard turns into a structured 504, never a hang."""
        body: Dict[str, Any] = {"path": list(path), "merge": merge}
        if cells is not None:
            body["cells"] = [list(cell) for cell in cells]
        if slices is not None:
            body["slices"] = [list(pair) if pair is not None else None for pair in slices]
        body["include_boxes"] = include_boxes
        body["include_cells"] = include_cells
        if deadline is not None:
            body["deadline"] = deadline
        return self._request("POST", "/query", body)

    def prov_query_batch(
        self,
        queries: Sequence[Any],
        merge: bool = True,
        include_boxes: bool = True,
        include_cells: bool = False,
        deadline: Optional[float] = None,
    ) -> List[dict]:
        """Run many lineage queries in one ``POST /query_batch`` round trip
        — the server executes them as one θ-join pass per resolved path.

        Each entry of *queries* is either a full request dict (the same
        shape :meth:`prov_query` builds: ``path`` plus ``cells`` or
        ``slices``, optionally overriding ``merge`` etc.) or a shorthand
        ``(path, cells)`` pair.  Returns one entry per query, in order:
        a result payload, or ``{"error": {...}}`` for queries that failed
        individually (a bad query never fails its batch-mates).
        """
        body_queries: List[dict] = []
        for item in queries:
            if isinstance(item, dict):
                entry = dict(item)
            else:
                path, cells = item
                entry = {
                    "path": list(path),
                    "cells": [
                        list(cell) if isinstance(cell, (list, tuple)) else cell
                        for cell in cells
                    ],
                }
            entry.setdefault("merge", merge)
            entry.setdefault("include_boxes", include_boxes)
            entry.setdefault("include_cells", include_cells)
            body_queries.append(entry)
        body: Dict[str, Any] = {"queries": body_queries}
        if deadline is not None:
            body["deadline"] = deadline
        return self._request("POST", "/query_batch", body)["results"]

    def impact(self, name: str) -> Dict[str, int]:
        payload = self._request(
            "GET", "/graph/impact?" + urllib.parse.urlencode({"array": name})
        )
        return payload["impact"]

    def dependencies(self, name: str) -> Dict[str, int]:
        payload = self._request(
            "GET", "/graph/dependencies?" + urllib.parse.urlencode({"array": name})
        )
        return payload["dependencies"]

    def lineage_summary(self) -> dict:
        return self._request("GET", "/graph/summary")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def scrub(self, repair: bool = False) -> dict:
        """Run the server-side fsck (``POST /admin/scrub``); returns the
        scrub report.  ``repair=True`` heals the catalog in place."""
        return self._request("POST", "/admin/scrub", {"repair": repair})["scrub"]

    def metrics_text(self) -> str:
        """Fetch ``GET /metrics`` as raw Prometheus exposition text (the
        one endpoint whose payload is not JSON)."""
        status, payload = self._request_raw("GET", "/metrics")
        if status >= 400:
            raise self._server_error(status, payload)
        return payload.decode("utf-8")

    def traces(self, limit: Optional[int] = None) -> list:
        """Fetch recently finished traces (``GET /debug/traces``),
        newest first."""
        route = "/debug/traces"
        if limit is not None:
            route += "?" + urllib.parse.urlencode({"limit": limit})
        return self._request("GET", route)["traces"]
