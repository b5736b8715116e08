"""What the two transports share, tested once over both: the endpoint
table, the client core (retry loop, ``connect`` rendezvous, re-dial), the
server lifecycle (a closed server hangs up) and the admin / graph round
trips.  Transport-only behavior (keep-alive reuse, ``Content-Length``
edges, pooling, pipelining, frame corruption) stays in ``test_server.py``
and ``test_rpc.py``."""

import logging
import select
import socket
import threading
import time
from typing import Callable, NamedTuple

import pytest

from repro import DSLog
from repro.core.relation import LineageRelation
from repro.obs import REGISTRY
from repro.service import rpc as rpc_module
from repro.service import server as server_module
from repro.service import wire
from repro.service.api import ENDPOINTS
from repro.service.rpc import RPCClient
from repro.service.server import (
    LineageClient,
    LineageConnectionError,
    LineageServer,
    LineageServerError,
)
from repro.storage.sharded import ShardedLineageStore

SHAPE = (6, 6)


class Transport(NamedTuple):
    name: str
    server: Callable  # (log, port=0) -> a server listening on this wire only
    client: type
    address: Callable  # server -> what its client dials
    port: Callable  # server -> the port this wire got
    dead: str  # an address nothing listens on
    sockets: Callable  # client -> the sockets it holds open (idle, this thread)


TRANSPORTS = [
    pytest.param(
        Transport(
            "http",
            lambda log, port=0: LineageServer(log, port=port),
            LineageClient,
            lambda server: server.url,
            lambda server: server.port,
            "http://127.0.0.1:9",
            lambda client: [client._local.conn.sock],
        ),
        id="http",
    ),
    pytest.param(
        Transport(
            "rpc",
            lambda log, port=0: LineageServer(log, port=None, rpc_port=port),
            RPCClient,
            lambda server: server.rpc_address,
            lambda server: server.rpc_port,
            "127.0.0.1:9",
            lambda client: [conn.sock for conn in client._idle],
        ),
        id="rpc",
    ),
]


def identity(in_name, out_name):
    pairs = [((i, j), (i, j)) for i in range(SHAPE[0]) for j in range(SHAPE[1])]
    return LineageRelation.from_pairs(
        pairs, SHAPE, SHAPE, in_name=in_name, out_name=out_name
    )


@pytest.fixture
def log(tmp_path):
    log = DSLog(tmp_path / "db", num_shards=4)
    for name in ("a", "b", "c"):
        log.define_array(name, SHAPE)
    log.add_lineage("a", "b", relation=identity("a", "b"))
    log.add_lineage("b", "c", relation=identity("b", "c"))
    yield log
    log.close()


@pytest.fixture(params=TRANSPORTS)
def transport(request):
    return request.param


@pytest.fixture
def server(transport, log):
    with transport.server(log) as server:
        yield server


@pytest.fixture
def client(transport, server):
    with transport.client.connect(transport.address(server), timeout=5.0) as client:
        yield client


# ----------------------------------------------------------------------
# the endpoint table
# ----------------------------------------------------------------------
def test_table_covers_every_opcode_and_route_once():
    """Every opcode but the response-only ``error`` has a row; every row
    but ``ping`` has its own ``(method, route)``; the traced set is the
    six data / admin operations, never an observability endpoint."""
    assert set(ENDPOINTS) == set(wire.OPCODES.values()) - {"error"}
    assert all(name == row.name for name, row in ENDPOINTS.items())
    routed = [(row.method, row.route) for row in ENDPOINTS.values() if row.name != "ping"]
    assert all(method in ("GET", "POST") and route.startswith("/") for method, route in routed)
    assert len(set(routed)) == len(routed) == len(ENDPOINTS) - 1
    assert (ENDPOINTS["ping"].method, ENDPOINTS["ping"].route) == (None, None)
    assert {name for name, row in ENDPOINTS.items() if row.traced} == {
        "query", "query_batch", "impact", "dependencies", "summary", "scrub",
    }
    assert {row.reply for row in ENDPOINTS.values()} <= {"json", "text", "query", "batch"}


def _stable(reply):
    """A reply in the JSON payload shape, minus what legitimately differs
    between two executions (wall times, cache flags, live counters)."""
    if isinstance(reply, wire.RPCResult):
        reply = reply.to_payload()
    if isinstance(reply, list):
        return [_stable(entry) for entry in reply]
    if not isinstance(reply, dict):
        return reply
    trimmed = {
        key: value
        for key, value in reply.items()
        if key not in ("elapsed_ms", "cached", "executor", "metrics", "storage")
    }
    if "traces" in trimmed:  # a trace is recorded after its reply is sent
        trimmed["traces"] = len(trimmed["traces"])
    if "hops" in trimmed:
        trimmed["hops"] = [
            {k: v for k, v in hop.items() if k != "seconds"} for hop in trimmed["hops"]
        ]
    return trimmed


QUERY = {"path": ["a", "b", "c"], "cells": [[1, 1], [4, 5]]}
# the query and graph endpoints are compared on both wires, valid and
# refused arguments alike, by the model (tests/integration/test_model.py)
MODELED = {"query", "query_batch", "impact", "dependencies", "summary"}
EQUIVALENT_CALLS = [
    ("healthz", None),
    ("traces", {"limit": 3}),
    ("traces", {"limit": 0}),  # 400: not positive
    ("traces", {"limit": -2}),  # 400
    ("traces", {"limit": "three"}),  # 400: not an integer
    ("traces", {"limit": 1.5}),  # 400
    ("scrub", {"repair": False}),
    ("scrub", None),
]


def test_every_endpoint_answers_alike_on_both_wires(log):
    """The same arguments through both clients give equal payloads — and
    equal structured errors, word for word, for arguments the table's one
    set of checks rejects."""
    assert {name for name, _ in EQUIVALENT_CALLS} == set(ENDPOINTS) - {"metrics", "ping"} - MODELED

    def answer(client, name, args):
        try:
            return _stable(client.call(name, args))
        except LineageServerError as error:
            return (error.status, error.kind, error.message)

    with LineageServer(log, rpc_port=0) as server:
        with LineageClient.connect(server.url) as http, RPCClient.connect(server.rpc_address) as rpc:
            rejected = 0
            for name, args in EQUIVALENT_CALLS:
                over_http, over_rpc = answer(http, name, args), answer(rpc, name, args)
                assert over_http == over_rpc, (name, args)
                rejected += isinstance(over_rpc, tuple)
            assert rejected == 4  # every "# 400" line above, and only those
            # the text reply: scrape both, compare the metric families
            over_http, over_rpc = (
                {line.split()[2] for line in text.splitlines() if line.startswith("# TYPE")}
                for text in (http.metrics_text(), rpc.metrics_text())
            )
            assert over_http == over_rpc and "dslog_requests_total" in over_rpc
            assert rpc.ping() is None


# ----------------------------------------------------------------------
# round trips (one per endpoint method of the client core)
# ----------------------------------------------------------------------
def test_graph_endpoints(client):
    assert client.impact("a") == {"b": 1, "c": 2}
    assert client.dependencies("c") == {"b": 1, "a": 2}
    summary = client.lineage_summary()
    assert summary["arrays"] == 3
    assert summary["entries"] == 2 and summary["roots"] == ["a"]
    assert summary["edges"] == [["a", "b"], ["b", "c"]]


def test_healthz_scrub_traces_metrics(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["backend"] == "sharded"
    assert health["entries"] == 2
    assert len(health["generations"]) == 4
    assert health["executor"]["cache"]["max_entries"] > 0
    assert client.scrub()["clean"] is True
    assert isinstance(client.traces(limit=5), list)
    client.prov_query(["a", "b"], cells=[[0, 1]])
    text = client.metrics_text()
    assert "dslog_requests_total" in text


def _serve_as_remote_peer(transport, monkeypatch) -> None:
    """Make every connection this wire accepts look as if it came from
    192.0.2.7, a host that is not loopback."""
    handler = server_module._Handler if transport.name == "http" else rpc_module._ConnectionHandler
    setup = handler.setup

    def remote_peer(self):
        setup(self)
        self.client_address = ("192.0.2.7", self.client_address[1])

    monkeypatch.setattr(handler, "setup", remote_peer)


def test_repair_scrub_is_refused_from_a_remote_peer(transport, log, monkeypatch):
    """A repairing scrub rewrites the store and drops every entry whose
    table is damaged: from a peer that is not loopback it is refused — HTTP
    403, an RPC error item — while a detecting scrub is still answered."""
    _serve_as_remote_peer(transport, monkeypatch)
    with transport.server(log) as server:
        with transport.client.connect(transport.address(server), timeout=5.0) as client:
            assert client.scrub(repair=False)["clean"] is True
            with pytest.raises(LineageServerError) as refused:
                client.scrub(repair=True)
            assert (refused.value.status, refused.value.kind) == (403, "forbidden")
            assert "192.0.2.7" in refused.value.message
    monkeypatch.undo()
    with transport.server(log) as server:  # the same request from this host
        with transport.client.connect(transport.address(server), timeout=5.0) as client:
            assert client.scrub(repair=True)["clean"] is True


NOT_A_FLAG = [
    ("scrub", {"repair": "false"}),
    ("scrub", {"repair": 1}),
    ("query", {**QUERY, "merge": "false"}),
    ("query", {**QUERY, "include_cells": "false"}),
    ("query", {**QUERY, "include_boxes": None}),
    ("query", {"path": ["a", "b"], "cells": [[True, 1]]}),
    ("query", {"path": ["a", "b"], "slices": [[0, False], None]}),
]


@pytest.mark.parametrize("remote", [False, True], ids=["loopback", "remote"])
def test_a_flag_is_a_json_boolean(transport, log, monkeypatch, remote):
    """``"false"`` is not false: a string, number or null where a JSON
    boolean belongs, or a boolean where a coordinate or slice bound
    belongs, is a 400 on both wires and from any peer, and the store is
    never asked for a repairing scrub."""
    repairs = []
    scrub = ShardedLineageStore.scrub

    def spy(self, repair=False, shard=None):
        repairs.append(repair)
        return scrub(self, repair=repair, shard=shard)

    monkeypatch.setattr(ShardedLineageStore, "scrub", spy)
    if remote:
        _serve_as_remote_peer(transport, monkeypatch)
    with transport.server(log) as server:
        with transport.client.connect(transport.address(server), timeout=5.0) as client:
            for name, args in NOT_A_FLAG:
                with pytest.raises(LineageServerError) as refused:
                    client.call(name, args)
                assert (refused.value.status, refused.value.kind) == (400, "bad-request"), args
    assert True not in repairs


def test_one_request_vocabulary_on_both_wires(transport, client, caplog):
    """The same query is booked alike over either wire: counted under the
    same ``op`` and numeric ``status`` labels, logged at level info as one
    ``request`` event and traced as a trace named ``request``, whose fields
    and tags differ only in ``wire``.  The event's trace id — the one the
    request sent — is the one ``/debug/traces`` shows for it."""
    wire, trace_id = transport.name, "4bf92f3577b34da6a3ce929d0e0e4736"
    served = REGISTRY.get("dslog_requests_total").labels(wire, "query", "200")
    before = served.value
    with caplog.at_level(logging.INFO, logger="repro.obs"):
        client.prov_query(["a", "b"], cells=[[1, 1]], trace_id=trace_id)
    assert served.value == before + 1
    (record,) = [r for r in caplog.records if getattr(r, "event", None) == "request"]
    fields = dict(record.fields)
    assert fields.pop("ms") >= 0
    assert fields == {
        "component": "server", "wire": wire, "op": "query", "status": 200,
        "client": "127.0.0.1", "trace_id": trace_id,
    }
    (trace,) = client.traces(limit=1)
    assert (trace["name"], trace["trace_id"]) == ("request", trace_id)
    assert trace["tags"] == {
        "wire": wire, "op": "query", "status": 200, "cache": "miss", "batch_misses": 1, "path_len": 2,
    }


def test_a_filtered_request_event_is_not_built(client, monkeypatch):
    """Below info (the default) a request builds no log event at all."""
    built = []
    monkeypatch.setattr(server_module, "log_event", lambda *args, **fields: built.append(fields))
    assert client.prov_query(["a", "b"], cells=[[1, 1]])["count"] == 1
    assert built == []


def test_structured_errors(client):
    with pytest.raises(LineageServerError) as excinfo:
        client.impact("missing")
    assert excinfo.value.status == 404
    assert excinfo.value.kind == "not-found"
    with pytest.raises(LineageServerError) as excinfo:
        client.prov_query(["nope", "b"], cells=[[1, 1]])
    assert (excinfo.value.status, excinfo.value.kind) == (404, "not-found")
    assert "nope" in excinfo.value.message
    with pytest.raises(LineageServerError) as excinfo:
        client.prov_query(["a"], cells=[[0, 0]])
    assert (excinfo.value.status, excinfo.value.kind) == (400, "bad-request")


# ----------------------------------------------------------------------
# the client core: retry loop, rendezvous, re-dial
# ----------------------------------------------------------------------
def test_retries_exhausted_raises_connection_error(transport):
    client = transport.client(transport.dead, retries=2, backoff=0.001)
    with pytest.raises(LineageConnectionError) as excinfo:
        client.healthz()
    assert "3 attempts" in str(excinfo.value)
    assert client.retries_used == 2


def test_retry_budget_bounds_time(transport):
    client = transport.client(transport.dead, retries=8, backoff=30.0, retry_budget=0.05)
    started = time.monotonic()
    with pytest.raises(LineageConnectionError) as excinfo:
        client.healthz()
    assert time.monotonic() - started < 5.0
    assert "retry budget" in str(excinfo.value)


def test_connect_times_out_when_no_server(transport):
    with pytest.raises(LineageConnectionError):
        transport.client.connect(transport.dead, timeout=0.3, retries=0)


def test_connect_waits_for_late_server(transport, log):
    """``connect`` dials a server that is bound but not yet serving and
    waits for it.  No sleep: the server starts only once the client's
    connection is seen pending on the listening socket."""
    server = transport.server(log)
    connected = []
    dialer = threading.Thread(
        target=lambda: connected.append(
            transport.client.connect(transport.address(server), timeout=10.0, retries=0)
        )
    )
    dialer.start()
    try:
        pending, _, _ = select.select([server._listeners[0].socket], [], [], 10.0)
        assert pending, "the client never dialed"
        assert not connected  # nobody is serving yet
        server.start()
        dialer.join(timeout=10.0)
        assert not dialer.is_alive() and connected
        assert connected[0].healthz()["status"] == "ok"
        connected[0].close()
    finally:
        server.start().close()
        dialer.join(timeout=10.0)


def test_client_redials_after_connection_loss(transport, client):
    """A connection that dies under the client (idle reset, server-side
    kill) is re-dialed transparently instead of failing the request."""
    assert client.prov_query(["a", "b"], cells=[[1, 1]])["count"] == 1
    (held,) = transport.sockets(client)
    held.shutdown(socket.SHUT_RDWR)
    assert client.prov_query(["a", "b"], cells=[[2, 2]])["count"] == 1
    assert client.retries_used >= 1
    assert getattr(client, "dials", 2) == 2  # the pooled client counts its dials


def test_closed_server_hangs_up_and_client_finds_its_successor(transport, log):
    """Closing a server hangs up on its established connections; a client
    holding one re-dials and is answered by the server restarted on the
    same port — not by a handler thread of the dead instance serving from
    its released core.  The socket timeout bounds a regression."""
    first = transport.server(log).start()
    client = transport.client(transport.address(first), timeout=5.0, backoff=0.01)
    try:
        assert client.prov_query(["a", "b"], cells=[[1, 1]])["count"] == 1
        (held,) = transport.sockets(client)
        first.close()
        held.settimeout(5.0)
        assert held.recv(1) == b""  # EOF: the closed server hung up
        port = transport.port(first)
        with transport.server(log, port=port) as second:
            assert transport.port(second) == port
            assert client.prov_query(["a", "b", "c"], cells=[[2, 3]])["count"] == 1
            assert client.retries_used >= 1
            assert client.healthz()["status"] == "ok"
    finally:
        first.close()
        client.close()


# ----------------------------------------------------------------------
# the listener's bounds: a connection cap and an idle timeout
# ----------------------------------------------------------------------
def _reads_eof(sock: socket.socket) -> bool:
    """Block until the server hangs up (the socket timeout bounds a
    regression)."""
    sock.settimeout(5.0)
    return sock.recv(1) == b""


def test_connection_over_the_cap_is_closed_and_a_freed_slot_is_served(
    transport, log, monkeypatch, caplog
):
    """The ``dslog_connections`` gauge of the wire counts what the listener
    holds, with no wait anywhere: a connection is counted when admitted,
    never when refused, and uncounted before the listener hangs up on it."""
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 2)
    connections = REGISTRY.get("dslog_connections").labels(transport.name)
    base = connections.value  # a closed server's connections are all uncounted
    with transport.server(log) as server:
        # connect() answers a request: each client now holds an admitted slot
        held = [transport.client.connect(transport.address(server), timeout=5.0) for _ in range(2)]
        refused = socket.create_connection((server.host, transport.port(server)), timeout=5.0)
        try:
            assert connections.value == base + 2
            with caplog.at_level(logging.WARNING, logger="repro.obs"):
                assert _reads_eof(refused)  # accepted third: closed, no handler
            (event,) = [r for r in caplog.records if getattr(r, "event", None) == "connection_refused"]
            assert event.fields["max_connections"] == 2
            assert connections.value == base + 2
            # a half-close ends the first connection's handler, which gives
            # its slot back before it hangs up
            (first,) = transport.sockets(held[0])
            first.shutdown(socket.SHUT_WR)
            assert _reads_eof(first)
            assert connections.value == base + 1
            with transport.client.connect(transport.address(server), timeout=5.0) as client:
                assert client.prov_query(["a", "b"], cells=[[1, 1]])["count"] == 1
        finally:
            refused.close()
            for client in held:
                client.close()
    assert connections.value == base


def test_idle_connection_is_hung_up_and_the_client_redials(transport, log, monkeypatch):
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.2)
    with transport.server(log) as server:
        with socket.create_connection((server.host, transport.port(server)), timeout=5.0) as idle:
            assert _reads_eof(idle)
        with transport.client(transport.address(server), timeout=5.0, backoff=0.01) as client:
            assert client.prov_query(["a", "b"], cells=[[1, 1]])["count"] == 1
            (held,) = transport.sockets(client)
            assert _reads_eof(held)  # the server idled the connection out
            assert client.prov_query(["a", "b"], cells=[[2, 2]])["count"] == 1
            assert client.retries_used >= 1
            assert getattr(client, "dials", 2) == 2  # the pooled client counts its dials


def test_close_before_start_does_not_block(transport, log):
    server = transport.server(log)
    closer = threading.Thread(target=server.close, daemon=True)
    closer.start()
    closer.join(timeout=5.0)
    assert not closer.is_alive()
