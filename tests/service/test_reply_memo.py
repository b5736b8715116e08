"""A result-cache hit is a lookup and a send: a cached result's reply
item is encoded once per wire and kept with its cache entry, every later
reply, of one query or of a batch, restamps only its own fields
(byte-identical to a fresh encode), and a request is traced only when it
sends a trace id or runs slow."""

import hashlib
import itertools
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_wire import query_results

from repro import DSLog, faults
from repro.core.relation import LineageRelation
from repro.core.query import CellBoxSet, HopStats, QueryResult
from repro.obs import tracing
from repro.service import rpc as rpc_module
from repro.service import wire
from repro.service import server as server_module
from repro.service.api import QuerySpec, result_payload
from repro.service.query import QueryExecutor, QueryOutcome
from repro.service.rpc import RPCClient
from repro.service.server import LineageClient, LineageServer
from repro.service.wire import decode_batch, decode_result, encode_result

SHAPE = (6, 6)
QUERY = [(1, 1), (2, 3)]
FLAGS = list(itertools.product([False, True], repeat=2))  # include_boxes × include_cells
STAMPS = st.tuples(st.booleans(), st.booleans(), st.floats(0, 1e3, allow_nan=False))
ERROR = {"error": {"type": "not-found", "message": "unknown array 'é'", "status": 404}}


def relation(in_name, out_name, shift=0):
    pairs = [((i, j), ((i + shift) % SHAPE[0], j)) for i in range(SHAPE[0]) for j in range(SHAPE[1])]
    return LineageRelation.from_pairs(pairs, SHAPE, SHAPE, in_name=in_name, out_name=out_name)


def spec(include_boxes, include_cells) -> QuerySpec:
    return QuerySpec(["a", "b"], QUERY, True, include_boxes, include_cells, None)


def fresh_http(outcome, include_boxes, include_cells, elapsed_ms) -> str:
    """What ``POST /query`` sent before replies were memoized."""
    payload = result_payload(outcome.result, include_boxes=include_boxes, include_cells=include_cells)
    payload.update(cached=outcome.cached, degraded=outcome.degraded, elapsed_ms=elapsed_ms)
    return json.dumps(payload)


def fresh_http_batch(entries, elapsed_ms) -> str:
    """What ``POST /query_batch`` sent before its items were memoized."""
    results = []
    for entry in entries:
        if isinstance(entry, dict):
            results.append(entry)
            continue
        outcome, request = entry
        payload = result_payload(outcome.result, request.include_boxes, request.include_cells)
        payload.update(cached=outcome.cached, degraded=outcome.degraded)
        results.append(payload)
    return json.dumps({"results": results, "batch_size": len(entries), "elapsed_ms": elapsed_ms})


def batch_replies(entries, elapsed_ms):
    """The ``batch`` reply of each wire: ``(rpc bytes, http text)``."""
    reply = (entries, elapsed_ms)
    return rpc_module._ENCODERS["batch"](reply), server_module._ENCODERS["batch"](reply)


def replies(outcome, include_boxes, include_cells, elapsed_ms):
    """The ``query`` reply of each wire: ``(rpc bytes, http text)``."""
    reply = (outcome, spec(include_boxes, include_cells), elapsed_ms)
    return rpc_module._ENCODERS["query"](reply), server_module._ENCODERS["query"](reply)


def assert_fresh(outcome, elapsed_ms=0.25):
    """Every reply of *outcome* is byte-identical to a fresh encode; returns them."""
    sent = []
    for include_boxes, include_cells in FLAGS:
        over_rpc, over_http = replies(outcome, include_boxes, include_cells, elapsed_ms)
        fresh = encode_result(
            outcome.result, include_boxes, include_cells, outcome.cached, outcome.degraded, elapsed_ms
        )
        assert over_rpc == fresh
        assert over_http == fresh_http(outcome, include_boxes, include_cells, elapsed_ms)
        sent.append((over_rpc, over_http))
    return sent


# ----------------------------------------------------------------------
# byte identity: the memo restamps exactly the per-request fields
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(st.lists(query_results(), min_size=1, max_size=3), st.data())
def test_a_memoized_reply_is_a_fresh_encode(results, data):
    """Random batches over a few results — include flags, error items,
    cached/degraded stamps and one outcome repeated — and each item as a
    single reply: the first laps fill the results' memos, the later ones
    read them, and every reply on both wires equals the encode with no
    memo (a disabled cache) byte for byte, which is the dict ``json.dumps``
    gave before over HTTP."""
    memos = [{} for _ in results]
    for _ in range(3):
        entries, fresh_entries = [], []
        for _ in range(data.draw(st.integers(1, 6))):
            if data.draw(st.integers(0, 5)) == 0:
                entries.append(ERROR)
                fresh_entries.append(ERROR)
                continue
            i = data.draw(st.integers(0, len(results) - 1))
            cached, degraded, _ = data.draw(STAMPS)
            request = spec(*data.draw(st.sampled_from(FLAGS)))
            entries.append((QueryOutcome(results[i], cached, degraded, memos[i]), request))
            fresh_entries.append((QueryOutcome(results[i], cached, degraded, None), request))
        elapsed_ms = data.draw(STAMPS)[2]
        over_rpc, over_http = batch_replies(entries, elapsed_ms)
        assert (over_rpc, over_http) == batch_replies(fresh_entries, elapsed_ms)
        assert over_http == fresh_http_batch(entries, elapsed_ms)
        assert [r if isinstance(r, dict) else r.to_payload() for r in decode_batch(over_rpc)[0]] == [
            {**r, "elapsed_ms": 0.0} if "error" not in r else r for r in json.loads(over_http)["results"]
        ]
        for entry, fresh in zip(entries, fresh_entries):
            if entry is not ERROR:
                request = entry[1]
                one = replies(entry[0], request.include_boxes, request.include_cells, elapsed_ms)
                assert one == replies(fresh[0], request.include_boxes, request.include_cells, elapsed_ms)
                assert one[1] == fresh_http(entry[0], request.include_boxes, request.include_cells, elapsed_ms)
    for memo in memos:
        assert set(memo) <= {(side, *flags) for side in ("rpc", "http") for flags in FLAGS}


def test_a_repeated_batch_of_cached_outcomes_encodes_nothing(log, monkeypatch):
    """The second identical batch is all result-cache hits: both wires
    stamp every item from the memo the first batch's replies filled,
    building no result payload and narrowing no coordinates."""
    requests = [(["b", "a"], QUERY), (["b", "a"], [(0, 0)]), (["b", "a"], [slice(0, 2)])]
    calls = []

    def counting(original):
        return lambda *args, **kwargs: calls.append(original) or original(*args, **kwargs)

    with QueryExecutor(log) as ex:
        for lap in range(2):
            outcomes = ex.query_batch(requests)
            assert all(outcome.cached for outcome in outcomes) == bool(lap)
            entries = [(outcome, spec(True, True)) for outcome in outcomes[:2]] + [ERROR]
            entries.append((outcomes[2], spec(True, False)))
            if lap:
                monkeypatch.setattr(server_module, "result_payload", counting(result_payload))
                monkeypatch.setattr(wire, "smallest_int_dtype", counting(wire.smallest_int_dtype))
            over_rpc, over_http = batch_replies(entries, 1.5)
            encoded = list(calls)
            assert over_http == fresh_http_batch(entries, 1.5)
            assert over_rpc == rpc_module._ENCODERS["batch"](
                ([e if e is ERROR else (QueryOutcome(e[0].result, *e[0][1:3], None), e[1]) for e in entries], 1.5)
            )
    assert encoded == []


def test_a_second_identical_batch_computes_no_digest(log, monkeypatch):
    """A repeated request's result-cache key is kept with the frozen box
    set ``DSLog`` memoizes its cells as, per path and merge flag: the
    second identical batch hashes nothing.  A caller's own ``CellBoxSet``
    may change in place, so it is hashed on every request."""
    digests = []
    digest = QueryExecutor._query_digest
    monkeypatch.setattr(QueryExecutor, "_query_digest", staticmethod(lambda *a: digests.append(a) or digest(*a)))
    requests = [(["b", "a"], QUERY), (["b", "a"], [slice(0, 2), slice(1, 3)]), (["b", "a"], QUERY)]
    with QueryExecutor(log) as ex:
        ex.query_batch(requests)
        assert len(digests) == 2  # the repeat is one box set, one key
        ex.query_batch(requests, merge=False)
        assert len(digests) == 4  # another merge flag is another key
        del digests[:]
        for merge in (True, False):
            outcomes = ex.query_batch(requests, merge=merge)
            assert all(outcome.cached for outcome in outcomes)
        assert digests == []
        own = ex.log._as_box_set("a", QUERY)  # the memoized, frozen box set
        assert not own.lo.flags.writeable and not own.hi.flags.writeable
        with pytest.raises(ValueError):
            own.lo[0, 0] = 5
        caller = CellBoxSet.from_cells("b", SHAPE, QUERY)
        for _ in range(2):
            assert ex.query(["b", "a"], caller).cached == bool(digests)
        assert len(digests) == 2


def golden_results():
    """Three fixed results: a narrow 2-D one, a 1-D one whose coordinates
    need int64 with a non-ASCII name and two hops, an empty 3-D one."""
    return [
        QueryResult(
            CellBoxSet("b", (6, 6), np.array([[0, 1], [2, 2]]), np.array([[1, 3], [2, 5]])),
            [HopStats("a", "b", 12, 1, 3, 2, 0.25)],
        ),
        QueryResult(
            CellBoxSet("é", (1 << 40,), np.array([[5], [1 << 33]]), np.array([[9], [(1 << 33) + 2]])),
            [HopStats("a", "é", 3, 2, 2, 2, 1.5), HopStats("é", "c", 7, 2, 4, 1, 0.125)],
        ),
        QueryResult(CellBoxSet.empty("z", (3, 4, 5)), []),
    ]


# sha256 of every reply golden_replies() builds, as the general encode
# loop built them before a memoized item was stamped without it
GOLDEN_REPLIES = "bb4c449933c85c6113324a5be99b77c7ae72a01b055f8be8c6e35d873605f227"


def golden_replies() -> str:
    """Single and batched replies of both wires over the golden results,
    every include flag and outcome stamp, with no memo, a memo being
    filled and a memo read back: the sha256 of all their bytes."""
    digest = hashlib.sha256()
    results = golden_results()
    memos = [{} for _ in results]
    for memo_lap in (None, "fill", "read"):
        for include_boxes, include_cells in FLAGS:
            entries = []
            for i, (result, (cached, degraded)) in enumerate(zip(results, FLAGS[1:])):
                memo = memos[i] if memo_lap else None
                outcome = QueryOutcome(result, cached, degraded, memo)
                request = spec(include_boxes, include_cells)
                over_rpc, over_http = replies(outcome, include_boxes, include_cells, 0.5 + i)
                digest.update(over_rpc)
                digest.update(over_http.encode("utf-8"))
                entries += [(outcome, request), ERROR]
            over_rpc, over_http = batch_replies(entries, 2.25)
            digest.update(over_rpc)
            digest.update(over_http.encode("utf-8"))
    return digest.hexdigest()


def test_replies_are_byte_identical_to_the_general_encoders():
    assert golden_replies() == GOLDEN_REPLIES


# ----------------------------------------------------------------------
# the memo lives as long as its result-cache entry
# ----------------------------------------------------------------------
@pytest.fixture
def log():
    log = DSLog()
    log.define_array("a", SHAPE)
    log.define_array("b", SHAPE)
    log.add_lineage("a", "b", relation=relation("a", "b"))
    return log


def test_the_memo_follows_its_cache_entry(log, monkeypatch):
    now = [1000.0]  # the breakers' clock, moved by hand
    monkeypatch.setattr(faults, "clock", lambda: now[0])
    with QueryExecutor(log) as ex:
        # the first encode after a miss fills the fresh entry's memo
        miss = ex.query(["b", "a"], QUERY)
        assert not miss.cached and miss.memo == {}
        first = assert_fresh(miss)
        assert len(miss.memo) == 2 * len(FLAGS)

        # a later hit reads it, restamped with its own flags and time
        hit = ex.query(["b", "a"], QUERY)
        assert hit.cached and not hit.degraded and hit.memo is miss.memo
        assert_fresh(hit, elapsed_ms=7.5)

        # a replace makes the entry stale; behind a tripped breaker it is
        # served degraded, from the memo it filled while fresh
        log.add_lineage("a", "b", relation=relation("a", "b", shift=1), replace=True)
        for _ in range(3):  # the breaker trips on its third consecutive fault
            ex._breaker(0).record_failure()
        stale = ex.query(["b", "a"], QUERY)
        assert stale.cached and stale.degraded and stale.memo is miss.memo
        for over_rpc, over_http in assert_fresh(stale):
            assert decode_result(over_rpc).degraded and json.loads(over_http)["degraded"] is True

        # the breaker heals: the recompute installs a new entry, new bytes
        now[0] += 31.0  # past the breaker's 30 s reset window
        recomputed = ex.query(["b", "a"], QUERY)
        assert not recomputed.cached and not recomputed.degraded
        assert recomputed.memo == {} and recomputed.memo is not miss.memo
        assert recomputed.result.to_cells() != miss.result.to_cells()
        again = assert_fresh(recomputed)
        assert all(new[0] != old[0] and new[1] != old[1] for new, old in zip(again, first))


def test_concurrent_hits_fill_one_memo_and_all_send_fresh_bytes(log):
    """Handler threads share an entry's memo: whichever fills it first, and
    however the fills interleave, every reply, single or batched, is a
    fresh encode."""
    with QueryExecutor(log) as ex:
        ex.query(["b", "a"], QUERY)
        hit = ex.query(["b", "a"], QUERY)
        wrong = []

        def serve(worker: int) -> None:
            for i in range(50):
                include_boxes, include_cells = FLAGS[(worker + i) % len(FLAGS)]
                elapsed_ms = worker + i / 64
                over_rpc, over_http = replies(hit, include_boxes, include_cells, elapsed_ms)
                fresh = encode_result(hit.result, include_boxes, include_cells, True, False, elapsed_ms)
                if over_rpc != fresh or over_http != fresh_http(hit, include_boxes, include_cells, elapsed_ms):
                    wrong.append((worker, i))
                entries = [(hit, spec(include_boxes, include_cells)), ERROR, (hit, spec(*FLAGS[i % len(FLAGS)]))]
                over_rpc, over_http = batch_replies(entries, elapsed_ms)
                fresh = [e if e is ERROR else (QueryOutcome(hit.result, True, False, None), e[1]) for e in entries]
                if (over_rpc, over_http) != batch_replies(fresh, elapsed_ms):
                    wrong.append((worker, i, "batch"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=serve, args=(worker,)) for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [] and len(hit.memo) == 2 * len(FLAGS)


def test_a_disabled_cache_keeps_no_memo(log):
    with QueryExecutor(log, cache_entries=0) as ex:
        outcome = ex.query(["b", "a"], QUERY)
        assert outcome.memo is None
        assert_fresh(outcome)


# ----------------------------------------------------------------------
# trace on demand
# ----------------------------------------------------------------------
@pytest.fixture
def server(log):
    with LineageServer(log, port=0, rpc_port=0) as server:
        yield server


@pytest.fixture
def clients(server):
    http = LineageClient.connect(server.url, timeout=5.0)
    rpc = RPCClient.connect(server.rpc_address, timeout=5.0)
    yield {"http": http, "rpc": rpc}
    http.close()
    rpc.close()


@pytest.mark.parametrize("wire", ["http", "rpc"])
def test_a_request_that_sends_an_id_is_traced_under_it(clients, wire):
    tracing.clear_traces()
    trace_id = "0af7651916cd43dd8448eb211c80319c"
    clients[wire].prov_query(["b", "a"], cells=QUERY, trace_id=trace_id)
    (trace,) = tracing.recent_traces()
    assert trace["trace_id"] == trace_id and trace["name"] == "request" and trace["tags"]["wire"] == wire
    assert trace["tags"]["cache"] == "miss"
    batch_id = "0af7651916cd43dd8448eb211c80319d"
    clients[wire].prov_query_batch([(["b", "a"], QUERY)], trace_id=batch_id)
    assert tracing.recent_traces(1)[0]["trace_id"] == batch_id


def test_a_request_that_sends_none_is_not_traced(clients):
    tracing.clear_traces()
    for client in clients.values():
        client.prov_query(["b", "a"], cells=QUERY)  # a miss, then a hit
        client.prov_query_batch([(["b", "a"], [(0, 0)])])
        client.impact("a")
    assert tracing.recent_traces() == []


@pytest.mark.parametrize("wire", ["http", "rpc"])
def test_a_slow_request_leaves_a_root_only_trace(clients, wire, monkeypatch):
    monkeypatch.setattr(tracing, "SLOW_S", 0.0)  # every request is slow
    tracing.clear_traces()
    clients[wire].prov_query(["b", "a"], cells=QUERY)
    (trace,) = tracing.recent_traces()
    assert trace["name"] == "request" and trace["spans"] == []
    assert trace["duration_s"] > 0 and len(trace["trace_id"]) == 16
    assert trace["tags"] == {"wire": wire, "op": "query", "status": 200}
    clients[wire].healthz()  # an untraced row stays untraced, slow or not
    assert len(tracing.recent_traces()) == 1


def test_a_malformed_traceparent_is_ignored(server):
    """Over HTTP a raw header the client would never build: answered, not traced."""
    tracing.clear_traces()
    client = LineageClient(server.url)
    body = json.dumps({"path": ["b", "a"], "cells": QUERY}).encode()
    head = (
        f"POST /query HTTP/1.1\r\nHost: x\r\ntraceparent: 00-xyz-0-01\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    status, payload = client._round_trip(head.encode() + body)
    client.close()
    assert status == 200 and json.loads(payload)["count"] == len(QUERY)
    assert tracing.recent_traces() == []


@pytest.mark.parametrize(
    "value, trace_id",
    [
        ("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", "4bf92f3577b34da6a3ce929d0e0e4736"),
        (" 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00 ", "4bf92f3577b34da6a3ce929d0e0e4736"),
        ("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-later", "4bf92f3577b34da6a3ce929d0e0e4736"),
        ("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-later", None),
        ("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", None),
        ("00-00000000000000000000000000000000-00f067aa0ba902b7-01", None),
        ("00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", None),
        ("00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", None),
        ("00-4bf92f3577b34da6-00f067aa0ba902b7-01", None),
        (None, None),
        (42, None),
    ],
)
def test_parse_traceparent(value, trace_id):
    assert tracing.parse_traceparent(value) == trace_id


def test_a_client_sends_only_a_well_formed_id():
    trace_id = "4bf92f3577b34da6a3ce929d0e0e4736"
    assert tracing.parse_traceparent(tracing.traceparent(trace_id)) == trace_id
    for bad in ("4bf92f35", "4BF92F3577B34DA6A3CE929D0E0E4736", "0" * 32, trace_id + "-x"):
        with pytest.raises(ValueError, match="32 lower-case hex"):
            tracing.traceparent(bad)
