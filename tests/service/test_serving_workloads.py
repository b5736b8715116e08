"""The serving tier on the multi-hop scatter catalogs its throughput is
measured on, checked for agreement instead of speed: a batch answers like
its queries one at a time, a result-cache hit like the θ-join chain it
skips, a deadline's pooled shard fan-out like the in-line executor, HTTP,
RPC and pipelined RPC like one another, observability switched off like
on, and concurrent durable ingest publishes every operation it was
handed.  The rates themselves come from ``bench/``."""

import threading

import numpy as np
import pytest

from repro import DSLog, LineageClient, LineageService
from repro.core.query import execute_path, execute_path_batch
from repro.core.relation import LineageRelation
from repro.obs import REGISTRY, set_enabled
from repro.service.query import QueryExecutor
from repro.service.rpc import RPCClient
from repro.service.server import LineageServer


def scatter(shape, in_name, out_name):
    """Each output cell reads itself plus two wrap-around neighbors: the
    modular wrap breaks pure box structure, so every hop's table keeps
    enough rows for the θ-join to do real interval work."""
    rows, cols = shape
    pairs = []
    for i in range(rows):
        for j in range(cols):
            pairs.append(((i, j), (i, j)))
            pairs.append(((i, j), ((i + 1) % rows, j)))
            pairs.append(((i, j), (i, (j + 1) % cols)))
    return LineageRelation.from_pairs(pairs, shape, shape, in_name=in_name, out_name=out_name)


def lane_arrays(lane, hops):
    return [f"lane{lane}_a{i}" for i in range(hops + 1)]


def build_catalog(root, shape, lanes, hops, num_shards):
    log = DSLog(root, num_shards=num_shards, autosync=False)
    for lane in range(lanes):
        names = lane_arrays(lane, hops)
        for name in names:
            log.define_array(name, shape)
        for a, b in zip(names, names[1:]):
            log.add_lineage(a, b, relation=scatter(shape, a, b))
    log.sync()
    return log


def answered(outcomes):
    """The results of a batch, none of whose requests may have failed."""
    assert not any(isinstance(outcome, BaseException) for outcome in outcomes), outcomes
    return [outcome.result for outcome in outcomes]


def same_results(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.cells.array_name == w.cells.array_name
        assert np.array_equal(g.cells.lo, w.cells.lo)
        assert np.array_equal(g.cells.hi, w.cells.hi)


# ----------------------------------------------------------------------
# batched execution: 64 point queries down a 4-hop chain
# ----------------------------------------------------------------------
BATCH_SHAPE = (12, 12)


@pytest.fixture
def batch_catalog(tmp_path):
    log = build_catalog(tmp_path / "db", BATCH_SHAPE, lanes=1, hops=4, num_shards=4)
    rows, cols = BATCH_SHAPE
    path = list(reversed(lane_arrays(0, 4)))
    requests = [(path, [((k * 7) % rows, (k * 13) % cols)]) for k in range(64)]
    yield log, requests
    log.close()


def test_batch_matches_one_at_a_time(batch_catalog):
    log, requests = batch_catalog
    path = requests[0][0]
    tables = log.hop_tables(path)
    box_sets = [log._as_box_set(path[0], cells) for _, cells in requests]
    same_results(execute_path_batch(tables, box_sets), [execute_path(tables, b) for b in box_sets])
    with QueryExecutor(log, cache_entries=0) as ex:
        batched = answered(ex.query_batch(requests))
        same_results(batched, [ex.query(p, cells).result for p, cells in requests])
        assert ex.stats()["cache"]["hits"] == 0


def test_http_batch_matches_single_round_trips(batch_catalog):
    log, requests = batch_catalog
    server = log.serve(port=0, cache_entries=0)
    try:
        with LineageClient.connect(server.url, timeout=30.0) as client:
            batch = client.prov_query_batch(requests)
            singles = [client.prov_query(p, cells=cells) for p, cells in requests]
    finally:
        server.close()
    assert [r["count"] for r in batch] == [r["count"] for r in singles]
    assert [r["boxes"] for r in batch] == [r["boxes"] for r in singles]
    assert all(r["count"] > 0 for r in batch)


# ----------------------------------------------------------------------
# the result cache and the shard fan-out, over four 4-hop lanes
# ----------------------------------------------------------------------
SERVING_SHAPE = (24, 24)


def serving_mix():
    """Full-chain forward, backward and scattered-cell queries per lane."""
    mix = []
    for lane in range(4):
        names = lane_arrays(lane, 4)
        mix.append((names, [slice(0, 8), slice(0, 8)]))
        mix.append((list(reversed(names)), [(1, 1), (5, 9), (12, 3)]))
        mix.append((names, [(2, 2), (7, 17), (20, 5), (11, 11)]))
    return mix


@pytest.fixture(scope="module")
def serving_catalogs(tmp_path_factory):
    """``serving_catalogs(num_shards)`` -> the four-lane catalog, built once."""
    built = {}

    def get(num_shards):
        if num_shards not in built:
            root = tmp_path_factory.mktemp(f"serving{num_shards}") / "db"
            built[num_shards] = build_catalog(root, SERVING_SHAPE, 4, 4, num_shards)
        return built[num_shards]

    yield get
    for log in built.values():
        log.close()


def test_cached_mix_matches_uncached(serving_catalogs):
    log = serving_catalogs(4)
    mix = serving_mix()
    with QueryExecutor(log, cache_entries=0) as ex:
        uncached = answered(ex.query_batch(mix))
    with QueryExecutor(log, cache_entries=512) as ex:
        answered(ex.query_batch(mix))
        same_results(answered(ex.query_batch(mix)), uncached)


def test_second_pass_is_all_result_cache_hits(serving_catalogs):
    """A hot pass runs no θ-join: every query is a hit, none is executed."""
    log = serving_catalogs(4)
    mix = serving_mix()
    with QueryExecutor(log, cache_entries=512) as ex:
        answered(ex.query_batch(mix))
        before = ex.stats()
        outcomes = ex.query_batch(mix)
        after = ex.stats()
    assert all(outcome.cached for outcome in outcomes)
    assert after["cache"]["hits"] - before["cache"]["hits"] == len(mix)
    assert after["cache"]["misses"] == before["cache"]["misses"]
    assert after["queries"] == before["queries"]


@pytest.mark.parametrize("num_shards", [4, 8])
def test_pooled_fanout_matches_sequential(serving_catalogs, num_shards):
    log = serving_catalogs(num_shards)
    mix = serving_mix()
    log.store.cache.clear()
    with QueryExecutor(log, cache_entries=0) as ex:
        sequential = answered(ex.query_batch(mix))
    log.store.cache.clear()
    with QueryExecutor(log, cache_entries=0) as ex:
        # only a deadline sends cold shards to the pool
        pooled = [outcome.result for outcome in ex.query_batch(mix, deadline=60.0)]
        assert ex.stats()["parallel_loads"] > 0
    same_results(pooled, sequential)


def test_http_roundtrip_serves_cached(serving_catalogs):
    log = serving_catalogs(4)
    path, cells = lane_arrays(0, 4), [[1, 1], [5, 9]]
    server = log.serve(port=0)
    try:
        with LineageClient.connect(server.url, timeout=10.0) as client:
            first = client.prov_query(path, cells=cells)
            again = [client.prov_query(path, cells=cells, include_boxes=False) for _ in range(5)]
    finally:
        server.close()
    assert first["cached"] is False
    assert all(r["cached"] is True and r["count"] == first["count"] for r in again)
    assert first["count"] == log.prov_query(path, [tuple(c) for c in cells]).count_cells()


# ----------------------------------------------------------------------
# observability off changes no answer
# ----------------------------------------------------------------------
def test_disabled_observability_changes_no_answer(tmp_path):
    log = build_catalog(tmp_path / "db", SERVING_SHAPE, lanes=2, hops=3, num_shards=2)
    mix = []
    for lane in range(2):
        names = lane_arrays(lane, 3)
        mix.append((names, [slice(0, 8), slice(0, 8)]))
        mix.append((list(reversed(names)), [(1, 1), (5, 9)]))
    queries = REGISTRY.get("dslog_queries_total")
    try:
        with QueryExecutor(log, cache_entries=0) as ex:
            enabled = answered(ex.query_batch(mix))
            set_enabled(False)
            before = queries.value
            disabled = answered(ex.query_batch(mix))
            assert queries.value == before
            set_enabled(True)
            again = answered(ex.query_batch(mix))
            assert queries.value == before + len(mix)
    finally:
        set_enabled(True)
        log.close()
    same_results(disabled, enabled)
    same_results(again, enabled)


# ----------------------------------------------------------------------
# HTTP, RPC and pipelined RPC over one uncached core
# ----------------------------------------------------------------------
RPC_SHAPE = (32, 32)
ROWS, COLS = RPC_SHAPE
RPC_REQUESTS = {
    # raw (unmerged) boxes for a full-array slice: box-heavy
    "full-unmerged": {"path": ["a0", "a1"], "slices": [[0, ROWS], [0, COLS]], "merge": False},
    # an explicit per-cell listing of the full array: cell-heavy
    "full-cells": {"path": ["a0", "a1"], "slices": [[0, ROWS], [0, COLS]], "include_cells": True},
    "half-unmerged": {"path": ["a0", "a1"], "slices": [[0, ROWS // 2], [0, COLS]], "merge": False},
    "scattered": {"path": ["a0", "a1"], "cells": [[1, 1], [5, 9], [12, 3]]},
    "two-hop": {"path": ["a0", "a1", "a2"], "slices": [[0, ROWS // 2], [0, COLS // 2]]},
}


@pytest.fixture(scope="module")
def transports(tmp_path_factory):
    log = DSLog(tmp_path_factory.mktemp("rpc") / "db", num_shards=4, autosync=False)
    names = ["a0", "a1", "a2"]
    for name in names:
        log.define_array(name, RPC_SHAPE)
    for a, b in zip(names, names[1:]):
        log.add_lineage(a, b, relation=scatter(RPC_SHAPE, a, b))
    log.sync()
    with LineageServer(log, rpc_port=0, cache_entries=0) as server:
        with LineageClient.connect(server.url, timeout=30.0) as http:
            with RPCClient.connect(server.rpc_address, timeout=30.0) as rpc:
                yield http, rpc
    log.close()


def _answer(reply):
    payload = reply.to_payload() if hasattr(reply, "to_payload") else reply
    assert payload["cached"] is False
    return {key: payload[key] for key in ("array", "count", "boxes", "cells") if key in payload}


@pytest.mark.parametrize("name", sorted(RPC_REQUESTS))
def test_transports_carry_identical_answers(transports, name):
    http, rpc = transports
    request = dict(RPC_REQUESTS[name])
    path = request.pop("path")
    over_http = _answer(http.prov_query(path, **request))
    assert over_http["count"] > 0
    assert _answer(rpc.prov_query(path, **request)) == over_http
    pipelined = rpc.prov_query_pipelined([RPC_REQUESTS[name]] * 4, window=4)
    assert [_answer(r) for r in pipelined] == [over_http] * 4


# ----------------------------------------------------------------------
# concurrent durable ingest through the lineage service
# ----------------------------------------------------------------------
INGEST_SHAPE = (16,)


def elementwise(in_name, out_name):
    pairs = [(cell, cell) for cell in np.ndindex(*INGEST_SHAPE)]
    return LineageRelation.from_pairs(pairs, INGEST_SHAPE, INGEST_SHAPE, in_name=in_name, out_name=out_name)


@pytest.mark.parametrize("writers", [1, 4, 8])
def test_durable_concurrent_ingest(tmp_path, writers):
    """Each writer submits a chain of operations and waits for each to be
    durable; afterwards a reopened catalog holds every chain whole."""
    ops_per_writer = 32 // writers
    service = LineageService(tmp_path / "db", workers=4, num_shards=4)
    for w in range(writers):
        for i in range(ops_per_writer + 1):
            service.define_array(f"w{w}a{i}", INGEST_SHAPE)
    errors = []

    def writer(w):
        try:
            for i in range(ops_per_writer):
                a, b = f"w{w}a{i}", f"w{w}a{i + 1}"
                ticket = service.submit(
                    f"op{w}_{i}", [a], [b], relations={(a, b): elementwise(a, b)}, reuse=False
                )
                ticket.result(timeout=120)
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    stats = service.stats()
    service.close()
    assert not errors
    ops = writers * ops_per_writer
    assert stats["committed_ops"] == ops and stats["failed"] == 0
    assert 1 <= stats["commits"] <= ops
    log = DSLog.load(tmp_path / "db")
    try:
        assert len(log.catalog) == ops
        for w in range(writers):
            chain = [f"w{w}a{i}" for i in range(ops_per_writer + 1)]
            assert log.prov_query(chain, [(3,)]).to_cells() == {(3,)}
    finally:
        log.close()


def test_sync_autosync_ingest_reopens_whole(tmp_path):
    """The single-writer path the service replaces: one synchronous
    ``register_operation`` and a manifest sync per operation."""
    log = DSLog(tmp_path / "db", num_shards=4, autosync=True)
    names = [f"a{i}" for i in range(21)]
    for name in names:
        log.define_array(name, INGEST_SHAPE)
    for a, b in zip(names, names[1:]):
        log.register_operation(f"op_{a}", [a], [b], relations={(a, b): elementwise(a, b)}, reuse=False)
    log.close()
    log = DSLog.load(tmp_path / "db")
    try:
        assert len(log.catalog) == 20
        assert log.prov_query(names, [(5,)]).to_cells() == {(5,)}
    finally:
        log.close()
