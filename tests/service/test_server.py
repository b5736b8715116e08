"""The HTTP serving tier: endpoint behavior, structured error payloads for
every failure mode (malformed JSON, unknown arrays, bad parameters), query
correctness under concurrent compaction, and keep-alive / retry behavior
of the HTTP client.  What the HTTP client and server share with their RPC
twins is in ``test_transports.py``."""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro import DSLog, LineageClient
from repro.capture.analytic import elementwise_lineage
from repro.service.server import (
    MAX_BODY_BYTES,
    LineageConnectionError,
    LineageServerError,
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
    server = log.serve(port=0)
    yield server
    server.close()


@pytest.fixture
def client(server):
    return LineageClient.connect(server.url, timeout=5.0)


def _raw_post(url, route, data: bytes):
    """POST raw bytes, returning (status, parsed JSON payload)."""
    request = urllib.request.Request(
        url + route,
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


# ----------------------------------------------------------------------
# happy paths
# ----------------------------------------------------------------------
def test_query_with_cells_and_cache_flag(client, log):
    payload = client.prov_query(["a", "b", "c"], cells=[[1, 1], [2, 3]])
    assert payload["array"] == "c"
    assert payload["count"] == 2
    assert len(payload["hops"]) == 2
    assert payload["cached"] is False
    assert client.prov_query(["a", "b", "c"], cells=[[1, 1], [2, 3]])["cached"] is True


def test_query_with_slices_and_cells_payload(client, log):
    payload = client.prov_query(["a", "b"], slices=[[0, 2], [0, 2]], include_cells=True)
    assert payload["count"] == 4
    assert payload["cells"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    expected = log.prov_query(["a", "b"], [(i, j) for i in range(2) for j in range(2)])
    assert payload["count"] == expected.count_cells()


# ----------------------------------------------------------------------
# error paths: always a structured payload, never a hung socket
# ----------------------------------------------------------------------
def test_malformed_json_body(server):
    status, payload = _raw_post(server.url, "/query", b"{this is not json")
    assert status == 400
    assert payload["error"]["type"] == "bad-json"
    assert "malformed JSON" in payload["error"]["message"]


def test_non_object_json_body(server):
    status, payload = _raw_post(server.url, "/query", b'["just", "a", "list"]')
    assert status == 400
    assert payload["error"]["type"] == "bad-json"


def _send_head(server, content_length):
    """Send a ``POST /query`` head declaring *content_length* (``None``: no
    such header) and **no body**, on a socket with a timeout so a server
    that sits in ``read()`` fails the test instead of hanging it.  Returns
    ``(status, payload, hung_up)``."""
    head = b"POST /query HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
    if content_length is not None:
        head += b"Content-Length: " + content_length + b"\r\n"
    with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
        sock.sendall(head + b"\r\n")
        response = http.client.HTTPResponse(sock)
        response.begin()
        payload = json.loads(response.read().decode("utf-8"))
        hung_up = sock.recv(1) == b""  # EOF, not a timeout: the server closed
    return response.status, payload, hung_up


@pytest.mark.parametrize("declared", [b"-1", b"-9999999999"])
def test_negative_content_length_is_400_not_a_blocked_read(server, declared):
    status, payload, hung_up = _send_head(server, declared)
    assert status == 400
    assert payload["error"]["type"] == "bad-request"
    assert "Content-Length" in payload["error"]["message"]
    assert hung_up


@pytest.mark.parametrize("declared", [b"twelve", b"1e3", b"0x10", b"1_0", b"12 13", b""])
def test_non_integer_content_length_is_400_not_500(server, declared):
    status, payload, hung_up = _send_head(server, declared)
    assert status == 400
    assert payload["error"]["type"] == "bad-request"
    assert hung_up


def test_missing_content_length_is_400(server):
    status, payload, hung_up = _send_head(server, None)
    assert status == 400
    assert payload["error"]["type"] == "bad-request"
    assert "body is required" in payload["error"]["message"]
    assert hung_up


def test_oversized_content_length_is_413_without_reading_the_body(server):
    # no body byte is ever sent: a server that tried to read the declared
    # length would block until the socket timeout fails this test
    declared = str(MAX_BODY_BYTES + 1).encode()
    status, payload, hung_up = _send_head(server, declared)
    assert status == 413
    assert payload["error"]["type"] == "payload-too-large"
    assert str(MAX_BODY_BYTES) in payload["error"]["message"]
    assert hung_up


def test_disconnected_arrays_are_not_found(client, log):
    log.define_array("island", SHAPE)
    with pytest.raises(LineageServerError) as excinfo:
        client.prov_query(["a", "island"], cells=[[1, 1]])
    assert excinfo.value.status == 404


@pytest.mark.parametrize(
    "body",
    [
        {},  # no path
        {"path": ["a"]},  # too short
        {"path": ["a", "b"]},  # neither cells nor slices
        {"path": ["a", "b"], "cells": [[1, 1]], "slices": [[0, 1]]},  # both
        {"path": "a,b", "cells": [[1, 1]]},  # path not a list
        {"path": ["a", 7], "cells": [[1, 1]]},  # non-string array name
        {"path": ["a", "b"], "slices": [5]},  # slice entry not a pair
        {"path": ["a", "b"], "slices": [[0, 1, 2]]},  # pair of wrong length
        {"path": ["a", "b"], "slices": [["x", 1]]},  # non-integer bound
        {"path": ["a", "b"], "cells": [{"x": 1}]},  # cell not a coordinate
        {"path": ["a", "b"], "cells": [["x", "y"]]},  # non-integer coordinates
    ],
)
def test_bad_request_parameters(server, body):
    status, payload = _raw_post(server.url, "/query", json.dumps(body).encode())
    assert status == 400
    assert payload["error"]["type"] == "bad-request"


def test_missing_array_param(server):
    status = urllib.request.urlopen(server.url + "/graph/impact?array=a", timeout=10).status
    assert status == 200
    try:
        urllib.request.urlopen(server.url + "/graph/impact", timeout=10)
    except urllib.error.HTTPError as error:
        assert error.code == 400
        assert json.loads(error.read())["error"]["type"] == "bad-request"
    else:
        raise AssertionError("expected a 400")


def test_unknown_endpoint_and_wrong_method(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(server.url + "/nope", timeout=10)
    assert excinfo.value.code == 404
    assert json.loads(excinfo.value.read())["error"]["type"] == "not-found"
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(server.url + "/query", timeout=10)  # POST-only endpoint
    assert excinfo.value.code == 405
    assert json.loads(excinfo.value.read())["error"]["type"] == "method-not-allowed"


# ----------------------------------------------------------------------
# queries racing compaction
# ----------------------------------------------------------------------
def test_queries_during_compaction(log, server):
    """Queries issued while the store is repeatedly compacted (and mutated,
    so compaction has dead bytes to reclaim) must stay correct — snapshot
    pins retire rather than delete segment files mid-read."""
    client = LineageClient.connect(server.url, timeout=5.0)
    expected = log.prov_query(["a", "b", "c"], [(1, 1), (2, 3)]).count_cells()
    stop = threading.Event()
    errors = []

    def churn():
        while not stop.is_set():
            try:
                log.add_lineage("a", "b", relation=elementwise_lineage(SHAPE, in_name="a", out_name="b"), replace=True)
                log.compact()
            except Exception as error:  # pragma: no cover - fail the test below
                errors.append(error)
                return

    thread = threading.Thread(target=churn)
    thread.start()
    try:
        for _ in range(25):
            payload = client.prov_query(["a", "b", "c"], cells=[[1, 1], [2, 3]])
            assert payload["count"] == expected
    finally:
        stop.set()
        thread.join()
    assert not errors


# ----------------------------------------------------------------------
# client retry
# ----------------------------------------------------------------------
def _count_dials(monkeypatch, failures: int = 0) -> dict:
    """Count the client's dials (``socket.create_connection``); the first
    *failures* of them raise ``ConnectionResetError``."""
    real_dial = socket.create_connection
    dials = {"count": 0}

    def dial(*args, **kwargs):
        dials["count"] += 1
        if dials["count"] <= failures:
            raise ConnectionResetError("peer reset")
        return real_dial(*args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", dial)
    return dials


def test_client_retries_on_connection_reset(client, monkeypatch):
    client.close()  # the next request dials
    dials = _count_dials(monkeypatch, failures=2)
    assert client.healthz()["status"] == "ok"
    assert dials["count"] == 3
    assert client.retries_used == 2


def test_client_retries_exhausted(client, monkeypatch):
    client.close()
    _count_dials(monkeypatch, failures=1_000)
    client.retry.retries = 2
    client.retry.backoff = 0.001
    with pytest.raises(LineageConnectionError) as excinfo:
        client.healthz()
    assert "3 attempts" in str(excinfo.value)


def test_client_does_not_retry_http_errors(client):
    """A structured server error must surface immediately, not be retried."""
    sent = client.requests_sent
    with pytest.raises(LineageServerError):
        client.impact("missing")
    assert client.requests_sent - sent == 1
    assert client.retries_used == 0


def test_client_reuses_keepalive_connection(server, monkeypatch):
    """The steady state is one persistent connection per thread — repeated
    requests must not dial a new socket each time."""
    dials = _count_dials(monkeypatch)
    fresh = LineageClient(server.url)
    try:
        for _ in range(5):
            assert fresh.healthz()["status"] == "ok"
    finally:
        fresh.close()
    assert dials["count"] == 1


def test_service_serve_reads_applied_state(tmp_path):
    from repro import LineageService

    with LineageService(tmp_path / "db", workers=2, num_shards=4) as service:
        service.define_array("a", SHAPE)
        service.define_array("b", SHAPE)
        relation = elementwise_lineage(SHAPE, in_name="a", out_name="b")
        service.submit("op", ["a"], ["b"], relations={("a", "b"): relation}).result(
            timeout=30
        )
        with service.log.serve(port=0) as server:
            client = LineageClient.connect(server.url, timeout=5.0)
            assert client.prov_query(["a", "b"], cells=[[2, 2]])["count"] == 1


# ----------------------------------------------------------------------
# batched queries: /query_batch
# ----------------------------------------------------------------------
def test_query_batch_matches_single(client):
    queries = [(["c", "b", "a"], [[i, i]]) for i in range(4)]
    batch = client.prov_query_batch(queries)
    assert len(batch) == 4
    for (path, cells), entry in zip(queries, batch):
        single = client.prov_query(path, cells=cells)
        assert entry["boxes"] == single["boxes"]
        assert entry["count"] == single["count"]
        assert entry["hops"] == single["hops"] or len(entry["hops"]) == len(single["hops"])


def test_query_batch_empty_is_400(client, server):
    for body in ({"queries": []}, {"queries": "nope"}, {}):
        status, payload = _raw_post(
            server.url, "/query_batch", json.dumps(body).encode()
        )
        assert status == 400
        assert payload["error"]["type"] == "bad-request"


def test_query_batch_per_item_errors(client):
    """One malformed entry and one unknown array must come back as per-item
    structured errors while their batch-mates succeed."""
    results = client.prov_query_batch(
        [
            (["a", "b"], [[1, 1]]),
            {"path": ["a"]},  # too short: parse error
            (["ghost", "b"], [[0, 0]]),  # unknown array
            (["b", "c"], [[2, 2]]),
        ]
    )
    assert results[0]["count"] == 1 and results[3]["count"] == 1
    assert results[1]["error"]["type"] == "bad-request"
    assert results[1]["error"]["status"] == 400
    assert results[2]["error"]["type"] == "not-found"
    assert results[2]["error"]["status"] == 404


def test_query_batch_mixed_cached_uncached(client):
    client.prov_query(["a", "b"], cells=[[1, 1]])  # prime the cache
    results = client.prov_query_batch(
        [(["a", "b"], [[1, 1]]), (["a", "b"], [[2, 2]])]
    )
    assert results[0]["cached"] is True
    assert results[1]["cached"] is False


def test_query_batch_mixed_merge_flags(client):
    results = client.prov_query_batch(
        [
            {"path": ["c", "a"], "slices": [[0, 3], [0, 3]], "merge": True},
            {"path": ["c", "a"], "slices": [[0, 3], [0, 3]], "merge": False},
        ]
    )
    assert results[0]["count"] == results[1]["count"] == 9
    assert results[0]["boxes_merged"] <= results[1]["boxes_merged"]
