"""The binary RPC transport end to end: queries against a live server,
byte-identical results across the HTTP and RPC transports, the shared
result cache, connection pooling, request-id pipelining, frame-level
errors (unknown opcode, oversized request, corrupt header) and the
per-opcode observability surface.  What the RPC client and server share
with their HTTP twins is in ``test_transports.py``."""

import json
import socket
import struct
import threading

import pytest

from repro import DSLog
from repro.capture.analytic import elementwise_lineage
from repro.obs import REGISTRY
from repro.service.rpc import RPCClient
from repro.service.server import (
    LineageClient,
    LineageServer,
    LineageServerError,
)
from repro.service.api import MAX_BODY_BYTES
from repro.service.wire import (
    OP_ERROR,
    OP_PING,
    OP_QUERY,
    WIRE_MAGIC,
    WIRE_VERSION,
    encode_frame,
    encode_json,
    read_frame,
)

SHAPE = (6, 6)


@pytest.fixture
def log(tmp_path):
    log = DSLog(tmp_path / "db", num_shards=4)
    for name in ("a", "b", "c"):
        log.define_array(name, SHAPE)
    log.add_lineage("a", "b", relation=elementwise_lineage(SHAPE, in_name="a", out_name="b"))
    log.add_lineage("b", "c", relation=elementwise_lineage(SHAPE, in_name="b", out_name="c"))
    yield log
    log.close()


@pytest.fixture
def server(log):
    server = LineageServer(log, port=None, rpc_port=0).start()
    yield server
    server.close()


@pytest.fixture
def client(server):
    client = RPCClient.connect(server.rpc_address)
    yield client
    client.close()


# ----------------------------------------------------------------------
# the API surface
# ----------------------------------------------------------------------
def test_query_round_trip(client):
    result = client.prov_query(["a", "b", "c"], cells=[[1, 1], [2, 3]])
    assert result["count"] == 2
    assert result["array"] == "c"  # the query lands on the path's final array
    assert sorted(result["boxes"]) == [[[1, 1], [1, 1]], [[2, 3], [2, 3]]]
    assert len(result["hops"]) == 2
    assert result.boxes_lo.shape == (2, 2)


def test_query_slices_and_cells_flag(client):
    result = client.prov_query(
        ["a", "b"], slices=[[1, 3], None], include_cells=True
    )
    assert result["count"] == 2 * SHAPE[1]
    assert [1, 0] in result["cells"]


def test_query_batch_mixed(client):
    results = client.prov_query_batch(
        [
            (["a", "b"], [[2, 2]]),
            {"path": ["missing", "b"], "cells": [[0, 0]]},
            {"path": ["a"], "cells": [[0, 0]]},
        ]
    )
    assert results[0]["count"] == 1
    assert results[1]["error"]["type"] == "not-found"
    assert results[2]["error"]["type"] == "bad-request"


def test_unknown_opcode_gets_error_frame(server):
    with socket.create_connection((server.host, server.rpc_port), timeout=5) as sock:
        sock.sendall(encode_frame(240, 1, b"{}"))
        opcode, request_id, payload = read_frame(sock)
    assert opcode == OP_ERROR
    assert request_id == 1
    info = json.loads(payload)
    assert info["status"] == 400
    assert "opcode" in info["message"]


def test_unknown_opcodes_share_one_metric_label(server):
    """An opcode is a u16: a peer cycling through unknown ones must not mint
    a counter and a histogram series per opcode.  Like an unknown HTTP
    route, every one is booked as ``op="(unrouted)"``."""

    def rpc_ops(family):
        values = REGISTRY.snapshot().get(family, {"values": {}})["values"]
        return {dict(pair.split("=", 1) for pair in key.split(","))["op"] for key in values if "wire=rpc" in key}

    before = {family: rpc_ops(family) for family in ("dslog_requests_total", "dslog_request_seconds")}
    with socket.create_connection((server.host, server.rpc_port), timeout=5) as sock:
        for request_id, opcode in enumerate(range(1000, 1050)):
            sock.sendall(encode_frame(opcode, request_id, b"{}"))
            assert read_frame(sock)[:2] == (OP_ERROR, request_id)
    for family, ops in before.items():
        assert rpc_ops(family) == ops | {"(unrouted)"}, family


def test_oversized_request_frame_is_413_without_reading_the_payload(server):
    """Requests are bounded like HTTP bodies.  Only the header is ever sent:
    a server that tried to read (or allocate) the declared 17 MiB would
    block until the socket timeout fails this test."""
    declared = 17 * 1024 * 1024
    assert MAX_BODY_BYTES < declared
    with socket.create_connection((server.host, server.rpc_port), timeout=5) as sock:
        sock.sendall(WIRE_MAGIC + struct.pack("<HIHI", WIRE_VERSION, declared, OP_QUERY, 7))
        opcode, request_id, payload = read_frame(sock)
        assert (opcode, request_id) == (OP_ERROR, 7)
        info = json.loads(payload)
        assert (info["status"], info["type"]) == (413, "payload-too-large")
        assert str(MAX_BODY_BYTES) in info["message"]
        assert sock.recv(1) == b""  # EOF: the stream cannot frame another request


def test_corrupt_frame_closes_connection(server):
    with socket.create_connection((server.host, server.rpc_port), timeout=5) as sock:
        sock.sendall(b"JUNKJUNKJUNKJUNKJUNK")
        assert sock.recv(1024) == b""  # server hangs up, no reply possible


# ----------------------------------------------------------------------
# transport equivalence
# ----------------------------------------------------------------------
def test_results_identical_across_transports(log):
    """The RPC result, rendered to the HTTP payload shape, must be
    byte-identical to the HTTP response (modulo timing fields)."""
    with LineageServer(log, rpc_port=0) as server:
        http = LineageClient.connect(server.url)
        rpc = RPCClient.connect(server.rpc_address)
        requests = [
            {"cells": [[1, 1], [4, 5]]},
            {"cells": [[0, 0]], "merge": False},
            {"slices": [[0, 2], [3, 5]], "include_cells": True},
            {"cells": [[2, 2]], "include_boxes": False},
        ]
        for req in requests:
            h = http.prov_query(["a", "b", "c"], **req)
            r = rpc.prov_query(["a", "b", "c"], **req)
            strip = lambda p: {
                k: v
                for k, v in p.items()
                if k not in ("elapsed_ms", "cached", "hops")
            }
            assert json.dumps(strip(h), sort_keys=True) == json.dumps(
                strip(r.to_payload()), sort_keys=True
            )
            # hop stats agree on everything but wall time
            for hh, rh in zip(h["hops"], r["hops"]):
                assert {k: v for k, v in hh.items() if k != "seconds"} == {
                    k: v for k, v in rh.items() if k != "seconds"
                }
        http.close()
        rpc.close()


def test_cache_shared_across_transports(log):
    with LineageServer(log, rpc_port=0) as server:
        http = LineageClient.connect(server.url)
        rpc = RPCClient.connect(server.rpc_address)
        first = http.prov_query(["a", "b"], cells=[[3, 3]])
        assert first["cached"] is False
        warm = rpc.prov_query(["a", "b"], cells=[[3, 3]])
        assert warm.cached is True  # HTTP warmed it, RPC hit it
        http.close()
        rpc.close()


def test_one_server_class_serves_either_wire_or_both(log):
    """A listener per port that is not ``None``; each wire's address is
    ``None`` on a server that does not speak it."""
    with LineageServer(log) as http_only:
        assert http_only.url and http_only.rpc_port is None and http_only.rpc_address is None
        assert len(http_only._listeners) == 1
        with LineageClient.connect(http_only.url) as http:
            assert http.prov_query(["a", "b"], cells=[[0, 0]])["count"] == 1
    with LineageServer(log, port=None, rpc_port=0) as rpc_only:
        assert rpc_only.port is None and rpc_only.url is None
        assert len(rpc_only._listeners) == 1
        with RPCClient.connect(rpc_only.rpc_address) as rpc:
            assert rpc.prov_query(["a", "b"], cells=[[0, 0]])["count"] == 1
    with LineageServer(log, rpc_port=0) as both:
        assert both.port != both.rpc_port and len(both._listeners) == 2
        with pytest.raises(OSError):  # a port already taken
            LineageServer(log, port=0, rpc_port=both.rpc_port)
    with pytest.raises(ValueError, match="port"):
        LineageServer(log, port=None, rpc_port=None)


def test_dslog_serve_takes_its_wires_from_the_ports(log):
    server = log.serve(rpc_port=0)
    try:
        assert isinstance(server, LineageServer)
        with LineageClient.connect(server.url) as http, RPCClient.connect(server.rpc_address) as rpc:
            assert http.prov_query(["a", "b"], cells=[[0, 0]])["cached"] is False
            assert rpc.prov_query(["a", "b"], cells=[[0, 0]]).cached is True
    finally:
        server.close()
    server = log.serve(port=None, rpc_port=0, start=False)
    try:
        assert server.url is None and server.rpc_port > 0
    finally:
        server.close()
    with pytest.raises(ValueError):
        log.serve(port=None)


# ----------------------------------------------------------------------
# connection lifecycle
# ----------------------------------------------------------------------
def test_connection_reused_across_requests(server):
    client = RPCClient.connect(server.rpc_address)
    try:
        for _ in range(10):
            client.ping()
        assert client.dials == 1
        assert client.requests_sent >= 11
    finally:
        client.close()


def test_pool_grows_under_concurrency(server):
    client = RPCClient.connect(server.rpc_address, pool_size=4)
    barrier = threading.Barrier(4)
    errors = []

    def hammer():
        try:
            barrier.wait(timeout=5)
            for _ in range(20):
                assert client.prov_query(["a", "b"], cells=[[1, 2]])["count"] == 1
        except Exception as error:  # pragma: no cover - fail below
            errors.append(error)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert 1 <= client.dials <= 4
    client.close()


# ----------------------------------------------------------------------
# pipelining
# ----------------------------------------------------------------------
def test_prov_query_pipelined_matches_sequential(client):
    """A pipelined run must return exactly what the same queries return
    one at a time, in order."""
    queries = [
        {"path": ["a", "b", "c"], "cells": [[1, 1], [2, 3]]},
        {"path": ["a", "b"], "slices": [[1, 3], None], "include_cells": True},
        {"path": ["a", "b"], "cells": [[0, 0]], "merge": False},
        {"path": ["c", "b", "a"], "cells": [[5, 5]]},
    ] * 3  # more queries than the window, so the sliding path runs
    pipelined = client.prov_query_pipelined(queries, window=4)

    def stable(payload):
        trimmed = {
            k: v for k, v in payload.items() if k not in ("elapsed_ms", "cached")
        }
        trimmed["hops"] = [
            {k: v for k, v in hop.items() if k != "seconds"}
            for hop in payload["hops"]
        ]
        return json.dumps(trimmed, sort_keys=True)

    for query, result in zip(queries, pipelined):
        q = dict(query)
        solo = client.prov_query(q.pop("path"), **q)
        assert stable(result.to_payload()) == stable(solo.to_payload())


def test_prov_query_pipelined_mixed_errors(client):
    results = client.prov_query_pipelined(
        [
            (["a", "b"], [[2, 2]]),
            {"path": ["missing", "b"], "cells": [[0, 0]]},
            {"path": ["a"], "cells": [[0, 0]]},
            (["b", "c"], [[4, 4]]),
        ]
    )
    assert results[0]["count"] == 1
    assert results[1]["error"]["type"] == "not-found"
    assert results[2]["error"]["type"] == "bad-request"
    assert results[3]["count"] == 1


def test_prov_query_pipelined_single_connection(server):
    client = RPCClient.connect(server.rpc_address)
    try:
        queries = [(["a", "b"], [[i % 6, i % 6]]) for i in range(32)]
        results = client.prov_query_pipelined(queries, window=8)
        assert all(r["count"] == 1 for r in results)
        assert client.dials == 1  # one socket carried all 32 in-flight
    finally:
        client.close()


def test_request_id_pipelining_order(server):
    """Many requests written before any response is read: responses come
    back in order, each echoing its request id."""
    body = encode_json({"path": ["a", "b"], "cells": [[1, 1]]})
    with socket.create_connection((server.host, server.rpc_port), timeout=10) as sock:
        ids = [17, 3, 99, 41, 7]
        for rid in ids:
            sock.sendall(encode_frame(OP_QUERY, rid, body))
        sock.sendall(encode_frame(OP_PING, 1000, b""))
        seen = []
        for _ in range(len(ids) + 1):
            opcode, rid, payload = read_frame(sock)
            seen.append(rid)
        assert seen == ids + [1000]


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_rpc_metrics_per_opcode(client):
    client.prov_query(["a", "b"], cells=[[0, 1]])
    client.impact("a")
    with pytest.raises(LineageServerError):
        client.impact("missing")
    text = client.metrics_text()
    assert 'dslog_requests_total{wire="rpc",op="query",status="200"}' in text
    assert 'dslog_requests_total{wire="rpc",op="impact",status="200"}' in text
    assert 'dslog_requests_total{wire="rpc",op="impact",status="404"}' in text
    assert 'dslog_request_seconds_count{wire="rpc",op="query"}' in text
    assert 'dslog_connections{wire="rpc"}' in text


def test_rpc_requests_traced(server):
    from repro.obs import tracing

    trace_id = "0af7651916cd43dd8448eb211c80319c"
    client = RPCClient.connect(server.rpc_address)
    client.prov_query(["a", "b", "c"], cells=[[1, 1]], trace_id=trace_id)
    client.close()
    traces = tracing.recent_traces(20)
    rpc_traces = [t for t in traces if t["name"] == "request" and t["tags"]["wire"] == "rpc"]
    assert rpc_traces and rpc_traces[0]["trace_id"] == trace_id
    assert rpc_traces[0]["tags"]["op"] == "query"
