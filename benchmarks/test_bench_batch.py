"""Batched query execution benchmark: one θ-join pass for many queries.

Two measurements over the same 64-query batch (single-cell backward
queries down a 4-hop scatter chain, all sharing one resolved path):

* **batched vs sequential uncached QPS** — ``prov_query_batch`` runs the
  whole batch as one blocked kernel pass per hop with per-query offset
  segmentation, vs the same executor answering the 64 queries one at a
  time (result cache off in both, table cache warm in both: this isolates
  the cross-query amortization win, not caching or I/O);
* **HTTP batch round trip** — ``LineageClient.prov_query_batch`` vs 64
  individual ``/query`` round trips against a live server.

Gate: batched execution must beat sequential by ≥ 2× at batch 64.  The
kernel amortizes numpy dispatch and per-query planning on a single core —
no parallelism involved — so the gate holds on 1-core runners too
(``BENCH_BATCH_MIN_SPEEDUP`` overrides).  "Sequential" is the same one
pipeline answering 64 batches of one; batched results are asserted
bit-identical to those before any timing is recorded.

``benchmarks/BENCH_post_batch.json`` records the numbers captured when
batched execution landed; reproduce with

    PYTHONPATH=src python -m pytest benchmarks/test_bench_batch.py \
        --benchmark-json=BENCH_current.json
"""

import os
import time

import numpy as np

from repro import DSLog, LineageClient
from repro.core.query import execute_path, execute_path_batch
from repro.core.relation import LineageRelation
from repro.service.query import QueryExecutor

SHAPE = (12, 12)  # point-query serving: small per-query kernel work
HOPS = 4
BATCH = 64
ROUNDS = 4
HTTP_ROUNDS = 2

_results = {}
_dirs = iter(range(1_000_000))  # fresh catalog dir per (re-)invocation


def scatter(in_name, out_name):
    """Each output cell reads itself plus two wrap-around neighbors (the
    same shape the serving benchmark uses, scaled down to point-query
    size): the modular wrap breaks pure box structure so the θ-join does
    real interval work per hop."""
    rows, cols = SHAPE
    pairs = []
    for i in range(rows):
        for j in range(cols):
            pairs.append(((i, j), (i, j)))
            pairs.append(((i, j), ((i + 1) % rows, j)))
            pairs.append(((i, j), (i, (j + 1) % cols)))
    return LineageRelation.from_pairs(
        pairs, SHAPE, SHAPE, in_name=in_name, out_name=out_name
    )


def chain_arrays():
    return [f"batch_a{i}" for i in range(HOPS + 1)]


def build_catalog(root):
    log = DSLog(root, backend="sharded", num_shards=4, autosync=False)
    names = chain_arrays()
    for name in names:
        log.define_array(name, SHAPE)
    for a, b in zip(names, names[1:]):
        log.add_lineage(a, b, relation=scatter(a, b))
    log.sync()
    return log


def build_batch():
    """BATCH single-cell backward queries down the full chain: one resolved
    path, 64 distinct query boxes — the shape request coalescing produces
    under load."""
    path = list(reversed(chain_arrays()))
    rows, cols = SHAPE
    requests = []
    for k in range(BATCH):
        cell = ((k * 7) % rows, (k * 13) % cols)
        requests.append((path, [cell]))
    return requests


def assert_batch_matches_oracle(ex, requests):
    """Pin the acceptance criterion before timing anything: the batch's
    boxes are bit-identical to one batch of one per query."""
    path = list(requests[0][0])
    tables = ex.log.hop_tables(path)
    box_sets = [ex.log._as_box_set(path[0], cells) for _, cells in requests]
    got = execute_path_batch(tables, box_sets)
    want = [execute_path(tables, box_set) for box_set in box_sets]
    for g, w in zip(got, want):
        assert g.cells.array_name == w.cells.array_name
        assert np.array_equal(g.cells.lo, w.cells.lo)
        assert np.array_equal(g.cells.hi, w.cells.hi)


def time_sequential(ex, requests, rounds):
    start = time.monotonic()
    for _ in range(rounds):
        for path, cells in requests:
            ex.prov_query(path, cells)
    wall = time.monotonic() - start
    return rounds * len(requests) / wall


def time_batched(ex, requests, rounds):
    start = time.monotonic()
    for _ in range(rounds):
        ex.prov_query_batch(requests)
    wall = time.monotonic() - start
    return rounds * len(requests) / wall


def batch_threshold():
    override = os.environ.get("BENCH_BATCH_MIN_SPEEDUP")
    if override:
        return float(override)
    return 2.0  # single-core-safe: batching amortizes overhead, not cores


# ----------------------------------------------------------------------
# batched vs sequential uncached QPS
# ----------------------------------------------------------------------
def test_bench_batch_vs_sequential(benchmark, tmp_path):
    def run():
        log = build_catalog(tmp_path / f"batch-db{next(_dirs)}")
        requests = build_batch()
        with QueryExecutor(log, max_workers=1, cache_entries=0) as ex:
            assert_batch_matches_oracle(ex, requests)
            ex.prov_query_batch(requests)  # warm the table cache, unmeasured
            sequential_qps = time_sequential(ex, requests, ROUNDS)
            batched_qps = time_batched(ex, requests, ROUNDS)
        log.close()
        result = {
            "batch_size": BATCH,
            "cpu_count": os.cpu_count(),
            "sequential_qps": sequential_qps,
            "batched_qps": batched_qps,
            "batch_speedup": batched_qps / sequential_qps,
        }
        _results["batch"] = result
        return result

    result = benchmark.pedantic(run, rounds=1, warmup_rounds=0)
    benchmark.extra_info.update(result)


def test_batch_speedup_gate(tmp_path):
    """Acceptance criterion: one batched kernel pass answers 64 uncached
    queries ≥ 2× faster than the same executor answering them one at a
    time."""
    threshold = batch_threshold()
    result = _results.get("batch")
    if result is None:
        log = build_catalog(tmp_path / "db")
        requests = build_batch()
        with QueryExecutor(log, max_workers=1, cache_entries=0) as ex:
            ex.prov_query_batch(requests)
            result = {
                "sequential_qps": time_sequential(ex, requests, ROUNDS),
                "batched_qps": time_batched(ex, requests, ROUNDS),
            }
        log.close()
    speedup = result["batched_qps"] / result["sequential_qps"]
    assert speedup >= threshold, (
        f"batch-{BATCH} execution only {speedup:.2f}x sequential "
        f"({result['batched_qps']:.0f} vs {result['sequential_qps']:.0f} qps)"
    )


# ----------------------------------------------------------------------
# HTTP batch round trip
# ----------------------------------------------------------------------
def test_bench_http_batch(benchmark, tmp_path):
    def run():
        log = build_catalog(tmp_path / f"http-batch-db{next(_dirs)}")
        requests = build_batch()
        server = log.serve(port=0, max_workers=1, cache_entries=0)
        client = LineageClient.connect(server.url, timeout=30.0)
        queries = [(path, cells) for path, cells in requests]
        client.prov_query_batch(queries, include_boxes=False)  # warm tables
        start = time.monotonic()
        for _ in range(HTTP_ROUNDS):
            for path, cells in requests:
                client.prov_query(path, cells=cells, include_boxes=False)
        single_wall = time.monotonic() - start
        start = time.monotonic()
        for _ in range(HTTP_ROUNDS):
            client.prov_query_batch(queries, include_boxes=False)
        batch_wall = time.monotonic() - start
        server.close()
        log.close()
        n = HTTP_ROUNDS * BATCH
        result = {
            "http_single_qps": n / single_wall,
            "http_batch_qps": n / batch_wall,
            "http_batch_speedup": single_wall / batch_wall,
        }
        _results["http"] = result
        return result

    result = benchmark.pedantic(run, rounds=1, warmup_rounds=0)
    benchmark.extra_info.update(result)
