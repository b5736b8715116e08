"""Serving-tier benchmark: result-cache QPS and parallel shard fan-out.

Three measurements over the same query mix (multi-hop path queries across
independent lineage chains, spread over the shards by the crc32 pair
router):

* **cached vs uncached QPS** — a generation-keyed :class:`ResultCache` in
  front of the executor vs the same executor with the cache disabled (the
  table cache stays warm in both: this isolates the *result* cache win);
* **parallel fan-out** — ``max_workers=4`` vs the pool-less executor
  (``max_workers=1``, tables hydrate in-line) on a cold table cache at 4
  and 8 shards, so the mix's per-shard segment reads and gunzips overlap
  inside the pooled prefetch of each path group;
* **HTTP round trip** — end-to-end ``LineageClient``→``LineageServer``
  QPS on a cache-hot query, i.e. the serving tier's protocol overhead.

Gates: cached reads must beat uncached by ≥ 5× everywhere (a cache hit is
a digest + dict probe; no hardware can make that slower than a θ-join
chain).  The fan-out speedup gate (≥ 1.5× at 4 shards) needs actual cores
— on fewer than 4 the number is recorded in the JSON but the assertion is
skipped with the reason, mirroring the concurrent-ingest gate's scaling
(``BENCH_SERVING_MIN_FANOUT`` overrides).

``benchmarks/BENCH_post_serving.json`` records the numbers captured when
the serving tier landed; reproduce with

    PYTHONPATH=src python -m pytest benchmarks/test_bench_serving.py \
        --benchmark-json=BENCH_current.json
"""

import os
import time

import pytest

from repro import DSLog, LineageClient
from repro.core.relation import LineageRelation
from repro.service.query import QueryExecutor

SHAPE = (24, 24)
LANES = 4  # independent chains, queried concurrently by the mix
HOPS = 4  # path length per lane
CACHE_ROUNDS = 6
FANOUT_ROUNDS = 3
PARALLEL_WORKERS = 4

_results = {}
_dirs = iter(range(1_000_000))  # fresh catalog dir per (re-)invocation


def scatter(in_name, out_name):
    """Each output cell reads itself plus two wrap-around neighbors: the
    modular wrap breaks pure box structure, so the compressed table keeps
    enough rows for the θ-join to do real work."""
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


def lane_arrays(lane):
    return [f"lane{lane}_a{i}" for i in range(HOPS + 1)]


def build_catalog(root, num_shards):
    log = DSLog(root, backend="sharded", num_shards=num_shards, autosync=False)
    for lane in range(LANES):
        names = lane_arrays(lane)
        for name in names:
            log.define_array(name, SHAPE)
        for a, b in zip(names, names[1:]):
            log.add_lineage(a, b, relation=scatter(a, b))
    log.sync()
    return log


def build_mix():
    """The query mix: full-chain forward, backward and scattered-cell
    queries for every lane (3 × LANES requests)."""
    mix = []
    for lane in range(LANES):
        names = lane_arrays(lane)
        mix.append((names, [slice(0, 8), slice(0, 8)]))
        mix.append((list(reversed(names)), [(1, 1), (5, 9), (12, 3)]))
        mix.append((names, [(2, 2), (7, 17), (20, 5), (11, 11)]))
    return mix


def clear_table_caches(log):
    log.store.cache.clear()


def time_mix(log, mix, max_workers, rounds, cache_entries=0, cold=False):
    """Wall-time *rounds* passes of the mix; returns queries per second."""
    with QueryExecutor(log, max_workers=max_workers, cache_entries=cache_entries) as ex:
        if cache_entries:
            ex.prov_query_batch(mix)  # prime the result cache once, unmeasured
        start = time.monotonic()
        for _ in range(rounds):
            if cold:
                clear_table_caches(log)
            ex.prov_query_batch(mix)
        wall = time.monotonic() - start
    return rounds * len(mix) / wall


def fanout_threshold():
    override = os.environ.get("BENCH_SERVING_MIN_FANOUT")
    if override:
        return float(override)
    cores = os.cpu_count() or 1
    if cores >= 4:
        return 1.5
    return None  # fewer cores than the fan-out width: record, don't gate


# ----------------------------------------------------------------------
# cached vs uncached QPS
# ----------------------------------------------------------------------
def test_bench_serving_cache(benchmark, tmp_path):
    def run():
        log = build_catalog(tmp_path / f"cache-db{next(_dirs)}", 4)
        mix = build_mix()
        log.prov_query(lane_arrays(0), [(1, 1)])  # warm the table cache
        uncached_qps = time_mix(log, mix, max_workers=1, rounds=CACHE_ROUNDS)
        cached_qps = time_mix(
            log, mix, max_workers=1, rounds=CACHE_ROUNDS, cache_entries=512
        )
        log.close()
        result = {
            "queries_per_round": len(mix),
            "uncached_qps": uncached_qps,
            "cached_qps": cached_qps,
            "cache_speedup": cached_qps / uncached_qps,
        }
        _results["cache"] = result
        return result

    result = benchmark.pedantic(run, rounds=1, warmup_rounds=0)
    benchmark.extra_info.update(result)


def test_cached_reads_at_least_5x_uncached(tmp_path):
    """Acceptance criterion: the generation-keyed result cache serves hot
    queries ≥ 5× faster than re-running the θ-join chains."""
    result = _results.get("cache")
    if result is None:
        log = build_catalog(tmp_path / "db", 4)
        mix = build_mix()
        result = {
            "uncached_qps": time_mix(log, mix, max_workers=1, rounds=CACHE_ROUNDS),
            "cached_qps": time_mix(
                log, mix, max_workers=1, rounds=CACHE_ROUNDS, cache_entries=512
            ),
        }
        log.close()
    speedup = result["cached_qps"] / result["uncached_qps"]
    assert speedup >= 5.0, (
        f"cached reads only {speedup:.1f}x uncached "
        f"({result['cached_qps']:.0f} vs {result['uncached_qps']:.0f} qps)"
    )


# ----------------------------------------------------------------------
# parallel shard fan-out
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_shards", [4, 8])
def test_bench_serving_fanout(benchmark, tmp_path, num_shards):
    def run():
        log = build_catalog(tmp_path / f"fanout-db{num_shards}-{next(_dirs)}", num_shards)
        mix = build_mix()
        seq_qps = time_mix(log, mix, max_workers=1, rounds=FANOUT_ROUNDS, cold=True)
        par_qps = time_mix(
            log, mix, max_workers=PARALLEL_WORKERS, rounds=FANOUT_ROUNDS, cold=True
        )
        log.close()
        result = {
            "num_shards": num_shards,
            "cpu_count": os.cpu_count(),
            "sequential_qps": seq_qps,
            "parallel_qps": par_qps,
            "fanout_speedup": par_qps / seq_qps,
        }
        _results[("fanout", num_shards)] = result
        return result

    result = benchmark.pedantic(run, rounds=1, warmup_rounds=0)
    benchmark.extra_info.update(result)


def test_fanout_speedup_gate(tmp_path):
    """Acceptance criterion: ≥ 1.5× over the sequential executor at 4
    shards — gated on having ≥ 4 usable cores, because thread fan-out of
    CPU-bound θ-joins cannot beat a single core's serial throughput."""
    threshold = fanout_threshold()
    if threshold is None:
        pytest.skip(
            f"only {os.cpu_count()} usable core(s): parallel fan-out has no "
            "hardware headroom here; speedup is recorded in the benchmark "
            "JSON and gated on multi-core runners"
        )
    result = _results.get(("fanout", 4))
    if result is None:
        log = build_catalog(tmp_path / "db", 4)
        mix = build_mix()
        result = {
            "sequential_qps": time_mix(log, mix, 1, FANOUT_ROUNDS, cold=True),
            "parallel_qps": time_mix(
                log, mix, PARALLEL_WORKERS, FANOUT_ROUNDS, cold=True
            ),
        }
        log.close()
    speedup = result["parallel_qps"] / result["sequential_qps"]
    assert speedup >= threshold, (
        f"4-shard parallel fan-out only {speedup:.2f}x the sequential executor "
        f"({result['parallel_qps']:.0f} vs {result['sequential_qps']:.0f} qps)"
    )


# ----------------------------------------------------------------------
# HTTP round trip
# ----------------------------------------------------------------------
def test_bench_http_roundtrip(benchmark, tmp_path):
    def run():
        log = build_catalog(tmp_path / f"http-db{next(_dirs)}", 4)
        server = log.serve(port=0)
        client = LineageClient.connect(server.url, timeout=10.0)
        path = lane_arrays(0)
        cells = [[1, 1], [5, 9]]
        client.prov_query(path, cells=cells)  # prime the result cache
        n = 50
        start = time.monotonic()
        for _ in range(n):
            payload = client.prov_query(path, cells=cells, include_boxes=False)
        wall = time.monotonic() - start
        assert payload["cached"] is True
        server.close()
        log.close()
        result = {"http_qps": n / wall, "mean_roundtrip_ms": wall / n * 1000}
        _results["http"] = result
        return result

    result = benchmark.pedantic(run, rounds=1, warmup_rounds=0)
    benchmark.extra_info.update(result)
