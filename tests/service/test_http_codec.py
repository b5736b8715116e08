"""The HTTP/1.1 codec at the byte level, both ends.

Server side: raw request bytes over a socket with a timeout, so a server
that waits for bytes that never come fails a test instead of hanging it —
the head bounds (414 / 431), ``Transfer-Encoding`` refused (501), the
connection rules (HTTP/1.0, ``Connection: close``, an unread body),
pipelined requests, ``Expect: 100-continue``, and a Hypothesis fuzz of the
request head.  Client side: a fake server that lies about its reply; every
lie is a :class:`LineageConnectionError`, never a hang and never an
allocation sized by a declared length."""

import contextlib
import json
import socket
import threading
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DSLog
from repro.capture.analytic import elementwise_lineage
from repro.service.server import (
    MAX_HEADERS,
    MAX_LINE_BYTES,
    LineageClient,
    LineageConnectionError,
)
from repro.service.wire import MAX_FRAME_BYTES

SHAPE = (4, 4)


@pytest.fixture(scope="module")
def server():
    log = DSLog()
    for name in ("a", "b", "c"):
        log.define_array(name, SHAPE)
    log.add_lineage("a", "b", relation=elementwise_lineage(SHAPE, in_name="a", out_name="b"))
    log.add_lineage("b", "c", relation=elementwise_lineage(SHAPE, in_name="b", out_name="c"))
    with log.serve(port=0) as server:
        yield server
    log.close()


# ----------------------------------------------------------------------
# a test-local reader of replies (independent of the codec under test)
# ----------------------------------------------------------------------
def read_reply(rfile):
    """One response off *rfile*: ``(status, headers, body)``, or ``None``
    at EOF."""
    line = rfile.readline()
    if not line:
        return None
    version, status, _ = line.split(b" ", 2)
    assert version == b"HTTP/1.1", line
    headers = {}
    while True:
        line = rfile.readline()
        assert line, "EOF inside a reply head"
        if line == b"\r\n":
            break
        name, value = line.split(b":", 1)
        headers[name.strip().lower().decode()] = value.strip().decode()
    body = rfile.read(int(headers["content-length"]))
    return int(status), headers, body


@contextlib.contextmanager
def connection(server, timeout: float = 5.0):
    """A raw socket to *server* and a buffered reader over it."""
    with socket.create_connection((server.host, server.port), timeout=timeout) as sock:
        with sock.makefile("rb") as rfile:
            yield sock, rfile


def exchange(server, data: bytes, replies: int = 1, timeout: float = 5.0):
    """Send *data* in one ``sendall``, read *replies* responses, then say
    whether the server hung up (EOF) or kept the connection open (a probe
    request on it is answered).  Returns ``(replies, hung_up)``."""
    with connection(server, timeout) as (sock, rfile):
        sock.sendall(data)
        got = [read_reply(rfile) for _ in range(replies)]
        try:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            probe = read_reply(rfile)
        except ConnectionError:  # reset: the server hung up on unread bytes
            return got, True
        if probe is not None:
            assert probe[0] == 200
        return got, probe is None


def error_type(reply):
    return json.loads(reply[2])["error"]["type"]


QUERY_BODY = json.dumps({"path": ["a", "b"], "cells": [[1, 1]]}).encode()


def post(body: bytes, *headers: bytes, version: bytes = b"HTTP/1.1") -> bytes:
    head = b"POST /query " + version + b"\r\nHost: t\r\nContent-Type: application/json\r\n"
    head += b"Content-Length: %d\r\n" % len(body)
    return head + b"".join(h + b"\r\n" for h in headers) + b"\r\n" + body


# ----------------------------------------------------------------------
# the head bounds
# ----------------------------------------------------------------------
def test_transfer_encoding_is_501_and_close(server):
    """The request-smuggling shape: both framings declared.  The server
    frames bodies by Content-Length only, so it refuses the request
    instead of picking one."""
    chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(QUERY_BODY), QUERY_BODY)
    data = post(chunked, b"Transfer-Encoding: chunked")
    (reply,), hung_up = exchange(server, data)
    assert reply[0] == 501 and error_type(reply) == "not-implemented"
    assert reply[1]["connection"] == "close"
    assert hung_up


def test_overlong_request_line_is_414(server):
    data = b"GET /graph/impact?array=" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n"
    (reply,), hung_up = exchange(server, data)
    assert reply[0] == 414 and error_type(reply) == "uri-too-long"
    assert hung_up


@pytest.mark.parametrize(
    "headers",
    [
        [b"X-Long: " + b"v" * MAX_LINE_BYTES],
        [b"X-Filler-%d: v" % i for i in range(MAX_HEADERS + 1)],
    ],
    ids=["long-line", "101-headers"],
)
def test_header_bounds_are_431(server, headers):
    data = b"GET /healthz HTTP/1.1\r\n" + b"".join(h + b"\r\n" for h in headers) + b"\r\n"
    (reply,), hung_up = exchange(server, data)
    assert reply[0] == 431 and error_type(reply) == "header-too-large"
    assert hung_up


def test_exactly_max_headers_is_served(server):
    fillers = b"".join(b"X-Filler-%d: v\r\n" % i for i in range(MAX_HEADERS - 1))
    (reply,), hung_up = exchange(server, b"GET /healthz HTTP/1.1\r\nHost: t\r\n" + fillers + b"\r\n")
    assert reply[0] == 200 and not hung_up


@pytest.mark.parametrize(
    "data, status",
    [
        (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
        (b"GET /healthz\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nHost : t\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nHost: t\r\n folded\r\n\r\n", 400),
        (b"PUT /query HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 405),
        (b"DELETE /nowhere HTTP/1.1\r\n\r\n", 405),
        # two framings that disagree: joined, they are no number
        (post(QUERY_BODY, b"Content-Length: 7"), 400),
    ],
)
def test_refused_heads_close_the_connection(server, data, status):
    (reply,), hung_up = exchange(server, data)
    assert reply[0] == status
    assert hung_up


# ----------------------------------------------------------------------
# connection rules
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "version, connection, stays_open",
    [
        (b"HTTP/1.1", None, True),
        (b"HTTP/1.1", b"close", False),
        (b"HTTP/1.1", b"Keep-Alive, Close", False),
        (b"HTTP/1.0", None, False),
        (b"HTTP/1.0", b"keep-alive", True),
    ],
)
def test_connection_rules(server, version, connection, stays_open):
    extra = [b"Connection: " + connection] if connection else []
    (reply,), hung_up = exchange(server, post(QUERY_BODY, *extra, version=version))
    assert reply[0] == 200 and json.loads(reply[2])["count"] == 1
    assert hung_up is not stays_open
    assert ("close" in reply[1].get("connection", "")) is not stays_open


def test_get_with_a_declared_body_is_answered_then_closed(server):
    """The body is never read, so the stream cannot frame another request:
    the stdlib server parsed the body as the next request line."""
    data = b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello"
    (reply,), hung_up = exchange(server, data)
    assert reply[0] == 200
    assert hung_up


def test_two_requests_in_one_send_get_two_replies_in_order(server):
    data = (
        b"GET /graph/impact?array=a HTTP/1.1\r\nHost: t\r\n\r\n"
        + post(QUERY_BODY)
        + b"GET /graph/dependencies?array=c HTTP/1.1\r\nHost: t\r\n\r\n"
    )
    (first, second, third), hung_up = exchange(server, data, replies=3)
    assert json.loads(first[2])["impact"] == {"b": 1, "c": 2}
    assert json.loads(second[2])["count"] == 1
    assert json.loads(third[2])["dependencies"] == {"b": 1, "a": 2}
    assert not hung_up


def test_expect_100_continue(server):
    body = json.dumps({"path": ["a", "b"], "cells": [[i % 4, i // 4 % 4] for i in range(400)]})
    head = post(body.encode(), b"Expect: 100-continue")[: -len(body)]
    with connection(server) as (sock, rfile):
        sock.sendall(head)
        assert rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert rfile.readline() == b"\r\n"
        sock.sendall(body.encode())
        status, _, payload = read_reply(rfile)
    assert status == 200 and json.loads(payload)["count"] == 16


def test_expect_100_continue_refused_body_is_never_invited(server):
    """A final reply instead of 100 Continue: the body is not wanted."""
    data = b"POST /query HTTP/1.1\r\nContent-Length: %d\r\nExpect: 100-continue\r\n\r\n" % (
        1 << 30
    )
    (reply,), hung_up = exchange(server, data)
    assert reply[0] == 413
    assert hung_up


# ----------------------------------------------------------------------
# the fuzz: random bytes and mutated heads
# ----------------------------------------------------------------------
VALID = [
    post(QUERY_BODY),
    b"GET /graph/impact?array=a HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
    b"POST /admin/scrub HTTP/1.0\r\nContent-Length: 0\r\n\r\n",
]
ANSWERS = {200, 400, 404, 405, 413, 414, 431, 501, 505}


@st.composite
def request_bytes(draw):
    if draw(st.booleans()):
        return draw(st.binary(max_size=512))
    data = bytearray(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["insert", "delete", "replace", "repeat"]))
        if kind == "insert":
            data[at:at] = draw(
                st.one_of(
                    st.binary(min_size=1, max_size=16),
                    st.sampled_from([b"\r\n", b":", b" ", b"\r\n\r\n", b"Content-Length: 9\r\n"]),
                )
            )
        elif kind == "delete":
            del data[at : at + draw(st.integers(1, 16))]
        elif kind == "replace" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif kind == "repeat":
            data[at:at] = data[at : at + draw(st.integers(1, 64))] * draw(st.integers(1, 4))
    return bytes(data)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=request_bytes())
def test_fuzzed_request_heads_end_in_an_answer_or_a_close(server, data):
    """Whatever the bytes, followed by EOF: the server answers every
    request it could frame with a status it means (never a 500) and then
    hangs up — never a hang — and the next connection is served."""
    with connection(server) as (sock, rfile):
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server refused early and hung up
        while True:
            try:
                reply = read_reply(rfile)
            except ConnectionResetError:
                break
            if reply is None:
                break
            assert reply[0] in ANSWERS, (reply, data)
    with connection(server) as (sock, rfile):
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        assert read_reply(rfile)[0] == 200


# ----------------------------------------------------------------------
# the client against a server that lies
# ----------------------------------------------------------------------
class LyingServer:
    """Answers every request head it reads with *reply*; then hangs up
    (*close*) or keeps the connection open."""

    def __init__(self, reply: bytes, close: bool = False) -> None:
        self.reply = reply
        self.close_after = close
        self.accepted = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._accept, daemon=True)
        self.thread.start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepted += 1
            threading.Thread(target=self._answer, args=(conn,), daemon=True).start()

    def _answer(self, conn: socket.socket) -> None:
        with conn:
            pending = b""
            while True:
                try:
                    chunk = conn.recv(65536)
                except OSError:
                    return
                if not chunk:
                    return
                pending += chunk
                while b"\r\n\r\n" in pending:
                    _, _, pending = pending.partition(b"\r\n\r\n")
                    try:
                        conn.sendall(self.reply)
                    except OSError:
                        return
                    if self.close_after:
                        return

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        self.listener.close()
        self.thread.join(timeout=5.0)


OK_HEAD = b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n'
LIES = {
    "status-line-too-long": b"HTTP/1.1 200 " + b"O" * MAX_LINE_BYTES + b"\r\n\r\n",
    "header-line-too-long": OK_HEAD + b"X-Long: " + b"v" * MAX_LINE_BYTES + b"\r\n\r\n",
    "too-many-headers": OK_HEAD + b"X: v\r\n" * (MAX_HEADERS + 1) + b"Content-Length: 2\r\n\r\n{}",
    "length-over-frame-limit": OK_HEAD + b"Content-Length: %d\r\n\r\n{}" % (MAX_FRAME_BYTES + 1),
    "no-content-length": OK_HEAD + b"\r\n{}",
    "chunked": OK_HEAD + b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
    "malformed-status-line": b"HTTP/1.1 OK fine\r\nContent-Length: 2\r\n\r\n{}",
    "not-http": b"SSH-2.0-OpenSSH\r\n\r\n",
}


@pytest.mark.parametrize("lie", sorted(LIES))
def test_client_refuses_replies_outside_the_bounds(lie):
    with LyingServer(LIES[lie]) as liar:
        client = LineageClient(liar.url, timeout=5.0, retries=0)
        started = time.monotonic()
        with pytest.raises(LineageConnectionError):
            client.healthz()
        assert time.monotonic() - started < 4.0
        client.close()


def test_client_memory_follows_the_bytes_received_not_the_declared_length():
    """A reply declaring 1 GiB sends ten bytes and hangs up: the client
    reads in bounded chunks, so it never holds more than a chunk."""
    lie = OK_HEAD + b"Content-Length: %d\r\n\r\n0123456789" % MAX_FRAME_BYTES
    with LyingServer(lie, close=True) as liar:
        client = LineageClient(liar.url, timeout=5.0, retries=0)
        tracemalloc.start()
        try:
            with pytest.raises(LineageConnectionError, match="got 10"):
                client.healthz()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024 * 1024


def test_client_times_out_on_a_stalled_body():
    lie = OK_HEAD + b"Content-Length: 10\r\n\r\n012"
    with LyingServer(lie) as liar:
        client = LineageClient(liar.url, timeout=0.3, retries=0)
        with pytest.raises(LineageConnectionError, match="1 attempt"):
            client.healthz()
        client.close()


def test_client_retries_a_server_that_hangs_up_without_a_reply():
    with LyingServer(b"", close=True) as liar:
        client = LineageClient(liar.url, timeout=5.0, retries=2, backoff=0.001)
        with pytest.raises(LineageConnectionError, match="3 attempts"):
            client.healthz()
        assert liar.accepted == 3


def test_client_redials_after_connection_close():
    reply = OK_HEAD + b"Connection: close\r\nContent-Length: 16\r\n\r\n" + b'{"status": "ok"}'
    with LyingServer(reply) as liar:
        client = LineageClient(liar.url, timeout=5.0, retries=0)
        for _ in range(3):
            assert client.healthz() == {"status": "ok"}
        assert liar.accepted == 3
        assert client.retries_used == 0
        client.close()
