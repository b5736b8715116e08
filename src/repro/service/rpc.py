"""The binary RPC wire: the framed connection handler and pooled client.

HTTP (:mod:`repro.service.server`) optimizes for reach — curl, browsers,
load balancers.  This wire optimizes for the common production shape
instead: a handful of long-lived clients hammering the catalog with small
queries, where the per-request costs HTTP cannot shed (request-line and
header parsing, JSON-encoding every box coordinate) dominate the round
trip.  The operations are the rows of :data:`repro.service.api.ENDPOINTS`
(the table is in :mod:`repro.service.server`'s docstring), keyed here by
opcode; this module owns only the binary codec and the sockets.  The
server is :class:`~repro.service.server.LineageServer` given an
``rpc_port``.

* :class:`_ConnectionHandler` — the RPC listener's handler, speaking the
  framed protocol of :mod:`repro.service.wire`: one daemon thread per
  connection reading length-prefixed frames in a loop (the connection
  persists across requests; request ids let a client pipeline), dispatching
  by opcode, answering queries with binary result payloads.  Failures
  become ``OP_ERROR`` frames carrying the structured ``(status, type,
  message)`` of :func:`~repro.service.api.error_info` — a broken request
  never hangs or silently drops the connection.  A request frame may
  declare at most :data:`~repro.service.api.MAX_BODY_BYTES`; a larger one
  is answered 413 unread and the connection closed (responses keep the
  :data:`~repro.service.wire.MAX_FRAME_BYTES` limit).
* :class:`RPCClient` — a pool of persistent connections (created on
  demand up to *pool_size*, returned to the pool after each round trip):
  a reset connection, a server restart or a mid-frame close is re-dialed
  and the (idempotent) request re-sent until the attempt count or retry
  budget runs out.  Query results come back as zero-copy
  :class:`~repro.service.wire.RPCResult` views.

Fault injection: pass a :class:`~repro.faults.FaultPlan` to the server
and the RPC response path consults site ``"rpc.send"`` — ``stall`` rules
delay the response, ``error`` rules drop the connection before answering,
``short_write`` rules transmit a partial frame and then drop it.  The
soak tests drive these to prove the client degrades to retry, never to a
hang.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..obs import log_event, tracing
from .api import ENDPOINTS, MAX_BODY_BYTES, BodyTooLarge, Endpoint, error_info, run_endpoint
from .server import LineageServer, LineageServerError, _Client, _meter_request
from .wire import (
    FRAME_HEADER_SIZE,
    OP_ERROR,
    OP_QUERY,
    OPCODES,
    RPCResult,
    ShortRead,
    decode_batch,
    decode_json,
    decode_result,
    encode_batch,
    encode_frame,
    encode_json,
    encode_result,
    parse_frame_header,
    read_frame,
    recv_exact,
)

__all__ = ["RPCClient"]


class _ConnectionDropped(Exception):
    """Internal: a fault rule (or peer) killed this connection mid-response."""


# ----------------------------------------------------------------------
# the codec: one encoder and one decoder per reply kind
# ----------------------------------------------------------------------
def _entry(outcome, spec, elapsed_ms: float = 0.0) -> tuple:
    """A query outcome as an :func:`~repro.service.wire.encode_batch`
    entry (:func:`~repro.service.wire.encode_result`'s arguments), its
    static bytes kept in the outcome's reply memo."""
    return (
        outcome.result, spec.include_boxes, spec.include_cells, outcome.cached, outcome.degraded, elapsed_ms,
        outcome.memo,
    )


_ENCODERS: Dict[str, Callable[[Any], bytes]] = {
    "json": encode_json,
    "text": lambda reply: reply.encode("utf-8"),
    "query": lambda reply: encode_result(*_entry(*reply)),
    "batch": lambda reply: encode_batch([e if isinstance(e, dict) else _entry(*e) for e in reply[0]], reply[1]),
}
_DECODERS: Dict[str, Callable[[bytes], Any]] = {
    "json": decode_json,
    "text": lambda payload: payload.decode("utf-8"),
    "query": decode_result,
    "batch": lambda payload: decode_batch(payload)[0],
}
# every opcode but the response-only OP_ERROR has a row (KeyError otherwise)
_OPCODE_OF: Dict[str, int] = {name: op for op, name in OPCODES.items() if op != OP_ERROR}
_HANDLERS: Dict[int, Endpoint] = {op: ENDPOINTS[name] for name, op in _OPCODE_OF.items()}


def _error_fields(payload: bytes) -> dict:
    """The ``status`` / ``type`` / ``message`` of an ``OP_ERROR`` frame (a
    malformed one reads as a 500)."""
    try:
        info = decode_json(payload)
        return {"status": info["status"], "type": info["type"], "message": info["message"]}
    except (ValueError, KeyError, TypeError):
        return {"status": 500, "type": "internal", "message": payload.decode("utf-8", "replace")}


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
class _ConnectionHandler(socketserver.BaseRequestHandler):
    """The RPC listener's handler, one thread per connection: read frames
    in a loop until the peer hangs up (or the closing server does, or the
    listener's idle timeout), answering each on the same socket."""

    wire = "rpc"

    def handle(self) -> None:
        sock: socket.socket = self.request
        # small frames dominate; never trade latency for Nagle batching
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        log_event(
            "rpc_connect", level="debug", component="rpc", client=self.client_address[0]
        )
        rfile = sock.makefile("rb")  # a small frame is one recv; a pipelined next one waits in the buffer
        try:
            while True:
                try:
                    header = recv_exact(rfile, FRAME_HEADER_SIZE)
                    opcode, request_id, length = parse_frame_header(header)
                    if length > MAX_BODY_BYTES:
                        # refused unread, like an oversized HTTP body: the
                        # stream cannot frame another request after this one
                        self._serve_one(
                            opcode,
                            request_id,
                            BodyTooLarge(
                                f"request frame of {length} bytes exceeds the "
                                f"{MAX_BODY_BYTES}-byte limit"
                            ),
                        )
                        return
                    payload = recv_exact(rfile, length)
                except ShortRead:
                    return  # peer closed; between frames this is graceful
                except ValueError as error:
                    # corrupt header: the stream is unparseable from here on
                    log_event(
                        "rpc_bad_frame",
                        level="warning",
                        component="rpc",
                        client=self.client_address[0],
                        error=str(error),
                    )
                    return
                self._serve_one(opcode, request_id, payload)
        except (_ConnectionDropped, OSError):
            return
        finally:
            rfile.close()

    def _serve_one(self, opcode: int, request_id: int, payload: Union[bytes, Exception]) -> None:
        """Answer one request frame; *payload* is its bytes, or the reason
        the frame was refused unread."""
        row = _HANDLERS.get(opcode)
        # the body is decoded before the request is metered: its
        # "traceparent" key decides whether the request is traced
        body: Union[dict, Exception] = {}
        trace_id = None
        if isinstance(payload, bytes) and payload:
            try:
                body = decode_json(payload)
                if not isinstance(body, dict):
                    raise ValueError("the request payload must be a JSON object")
                trace_id = tracing.parse_traceparent(body.pop("traceparent", None))
            except ValueError as error:
                body = error

        def answer() -> Tuple[int, bytes]:
            try:
                if isinstance(payload, Exception):
                    raise payload
                if row is None:
                    raise ValueError(f"unknown RPC opcode {opcode}")
                if isinstance(body, Exception):
                    raise body
                reply = _ENCODERS[row.reply](
                    run_endpoint(row, self.server.core, body, self.client_address[0])
                )
                return 200, encode_frame(opcode, request_id, reply)
            except Exception as error:  # noqa: BLE001 - must answer, never hang
                status, kind, message = error_info(error)
                error_payload = encode_json({"status": status, "type": kind, "message": message})
                return status, encode_frame(OP_ERROR, request_id, error_payload)

        self._send_frame(_meter_request(self.wire, row, self.client_address[0], answer, trace_id))

    def _send_frame(self, frame: bytes) -> None:
        sock: socket.socket = self.request
        plan = self.server.fault_plan
        if plan is not None:
            # one consultation covers every rule kind at this site: stall
            # rules sleep in place, error/enospc rules raise, short_write
            # rules return how much of the frame reaches the wire
            try:
                truncated = plan.short_write("rpc.send", None, len(frame))
            except OSError as fault:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                raise _ConnectionDropped() from fault
            if truncated is not None:
                # transmit a partial frame, then kill the connection — the
                # client must see a short read and retry elsewhere
                try:
                    sock.sendall(frame[:truncated])
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                raise _ConnectionDropped()
        sock.sendall(frame)


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
class _PooledConnection:
    """One persistent socket, the buffered file its replies are read from
    (a small one in one ``recv``) and its increasing request id."""

    __slots__ = ("sock", "rfile", "next_request_id")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.next_request_id = 0

    def take_request_id(self) -> int:
        rid = self.next_request_id
        self.next_request_id = (rid + 1) & 0xFFFFFFFF
        return rid

    def read_reply(self, rid: int) -> Tuple[int, bytes]:
        """The ``(opcode, payload)`` of the response to request *rid*."""
        while True:
            opcode, response_id, payload = read_frame(self.rfile)
            if response_id == rid:
                return opcode, payload
            # stale response from an abandoned request on a recycled
            # connection: drop and keep reading

    def close(self) -> None:
        try:
            self.rfile.close()  # the socket's descriptor stays open until its file closes
            self.sock.close()
        except OSError:
            pass


class RPCClient(_Client):
    """Pooled persistent-connection client for the RPC listener of a
    :class:`~repro.service.server.LineageServer`.

    Connections are created on demand up to *pool_size*, parked in an idle
    pool between requests (LIFO, so the hottest socket stays hot) and
    re-dialed transparently when the server restarts or a frame is cut
    short.  Retries and errors: :class:`~repro.service.server._Client` —
    any socket-level failure is retried, a corrupt frame (``ValueError``)
    is not (the stream is broken, not the transport), and an ``OP_ERROR``
    frame raises :class:`~repro.service.server.LineageServerError`.

    Accepts ``"host:port"``, ``"rpc://host:port"`` or a ``(host, port)``
    tuple as *address*.
    """

    _RETRYABLE = (OSError,)  # reset, refused, short read, timeout
    _RENDEZVOUS = "ping"

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.05,
        retry_budget: Optional[float] = 10.0,
        pool_size: int = 4,
    ) -> None:
        super().__init__(timeout, retries, backoff, retry_budget)
        if isinstance(address, str):
            trimmed = address
            if "//" in trimmed:
                scheme, _, rest = trimmed.partition("//")
                if scheme not in ("rpc:", ""):
                    raise ValueError(f"RPCClient speaks rpc:// only, got {address!r}")
                trimmed = rest
            host, _, port_text = trimmed.rstrip("/").rpartition(":")
            if not host or not port_text.isdigit():
                raise ValueError(f"need 'host:port', got {address!r}")
            self.host, self.port = host, int(port_text)
        else:
            self.host, self.port = address[0], int(address[1])
        self.address = f"{self.host}:{self.port}"
        self.pool_size = max(1, int(pool_size))
        self._lock = threading.Lock()
        self._idle: List[_PooledConnection] = []
        self._closed = False
        self.dials = 0

    # -- connection pool -------------------------------------------------
    def _acquire(self) -> _PooledConnection:
        with self._lock:
            if self._closed:
                raise RuntimeError("the RPC client is closed")
            if self._idle:
                return self._idle.pop()
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.dials += 1
        return _PooledConnection(sock)

    def _release(self, conn: _PooledConnection) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self.pool_size:
                self._idle.append(conn)
                return
        conn.close()

    def close(self) -> None:
        """Close every pooled connection and refuse further requests."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    # -- transport -------------------------------------------------------
    def _exchange(self, what: str, exchange: Callable[[_PooledConnection], Any]):
        """Run *exchange* over a pooled connection, retrying transport
        failures on a fresh one; whatever it raises, a connection that
        failed mid-exchange is discarded, never returned to the pool."""

        def attempt():
            conn = self._acquire()
            try:
                result = exchange(conn)
            except BaseException:
                conn.close()
                raise
            self._release(conn)
            return result

        return self._retrying(what, attempt)

    def call(self, name: str, body: Optional[dict] = None, trace_id: Optional[str] = None):
        opcode = _OPCODE_OF[name]
        if trace_id is not None:
            body = dict(body or {}, traceparent=tracing.traceparent(trace_id))
        payload = encode_json(body) if body is not None else b""

        def exchange(conn: _PooledConnection) -> Tuple[int, bytes]:
            rid = conn.take_request_id()
            self.requests_sent += 1
            conn.sock.sendall(encode_frame(opcode, rid, payload))
            return conn.read_reply(rid)

        response_op, reply = self._exchange(f"RPC {name} to {self.address}", exchange)
        if response_op == OP_ERROR:
            info = _error_fields(reply)
            raise LineageServerError(info["status"], info["type"], info["message"])
        return _DECODERS[ENDPOINTS[name].reply](reply)

    # -- API (the endpoint methods are _Client's) --------------------------
    def ping(self) -> None:
        self.call("ping")

    def prov_query_pipelined(
        self,
        queries: Sequence[Any],
        merge: bool = True,
        include_boxes: bool = True,
        include_cells: bool = False,
        window: int = 8,
    ) -> List[Union[RPCResult, dict]]:
        """Run many queries over one connection with up to *window*
        request frames in flight — the frame header's request id is what
        makes this safe, every response names the request it answers.

        Unlike :meth:`prov_query_batch` (one ``OP_QUERY_BATCH`` frame the
        server executes as one batch), each query here is an ordinary
        ``OP_QUERY`` the server answers in arrival order; pipelining just
        stops the client from idling out a full round trip per request.
        Returns one entry per query, in order — an
        :class:`~repro.service.wire.RPCResult`, or the ``{"error": {...}}``
        dict for queries that failed individually.  Transport failures
        re-run the whole pipeline on a fresh connection (queries are
        idempotent reads), bounded by the retry budget.
        """
        payloads = [
            encode_json(body)
            for body in self._normalize_queries(
                queries, merge, include_boxes, include_cells
            )
        ]
        window = max(1, int(window))
        return self._exchange(
            f"pipelined RPC query to {self.address}",
            lambda conn: self._pipeline_once(conn, payloads, window),
        )

    def _pipeline_once(
        self, conn: _PooledConnection, payloads: Sequence[bytes], window: int
    ) -> List[Union[RPCResult, dict]]:
        results: List[Union[RPCResult, dict]] = [None] * len(payloads)
        pending: deque = deque()  # (payload index, request id), send order
        sent = 0
        while sent < len(payloads) or pending:
            if sent < len(payloads) and len(pending) < window:
                burst: List[bytes] = []
                while sent < len(payloads) and len(pending) < window:
                    rid = conn.take_request_id()
                    self.requests_sent += 1
                    burst.append(encode_frame(OP_QUERY, rid, payloads[sent]))
                    pending.append((sent, rid))
                    sent += 1
                conn.sock.sendall(b"".join(burst))
            index, rid = pending.popleft()
            op, payload = conn.read_reply(rid)
            if op == OP_ERROR:
                results[index] = {"error": _error_fields(payload)}
            else:
                results[index] = decode_result(payload)
        return results


# ----------------------------------------------------------------------
# compatibility
# ----------------------------------------------------------------------
class DualServer(LineageServer):
    """A :class:`~repro.service.server.LineageServer` that serves RPC by default."""

    def __init__(self, log, rpc_port: Optional[int] = 0, **options) -> None:
        super().__init__(log, rpc_port=rpc_port, **options)
