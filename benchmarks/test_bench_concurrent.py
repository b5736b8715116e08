"""Concurrent ingest throughput of the lineage service (1 / 4 / 8 writers).

Each *writer thread* plays a host pipeline doing durable in-situ capture:
it submits one operation and waits for its ticket (``submit().result()``),
i.e. every op is published — fsync'd segments + manifest swap — before the
writer moves on.  A single writer therefore pays one full group commit per
op, while concurrent writers share commits (the committer batches every op
applied during the publish window), which is exactly the effect this
benchmark quantifies:

* **ops/sec** at 1, 4 and 8 writer threads over a 4-shard catalog;
* **p99 submit latency** (the enqueue call: backpressure only) and
  **p99 durable latency** (submit → covered by a published generation);
* commit amortization (``avg_commit_batch``).

The final test asserts the mechanism — four writers share commits, so
their average commit batch is larger than a single writer's.  The rate it
buys is reported, not gated: it moves with the box's clock regime, and
``service.pipeline.commit_batch_size`` in ``BENCHMARK.json`` measures it
from the harness that judges PRs.  ``benchmarks/BENCH_post_service.json``
records the numbers captured when the service landed; reproduce with

    PYTHONPATH=src python -m pytest benchmarks/test_bench_concurrent.py \
        --benchmark-json=BENCH_current.json
"""

import threading
import time

import numpy as np
import pytest

from repro import DSLog, LineageService
from repro.core.relation import LineageRelation

SHAPE = (16,)
NUM_SHARDS = 4
WORKERS = 4
COMMIT_INTERVAL = 0.005
TOTAL_OPS = {1: 80, 4: 160, 8: 160}

_results = {}


def elementwise(in_name, out_name):
    pairs = [(cell, cell) for cell in np.ndindex(*SHAPE)]
    return LineageRelation.from_pairs(
        pairs, SHAPE, SHAPE, in_name=in_name, out_name=out_name
    )


def _percentile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(len(values) * q))]


def run_ingest(writers, total_ops, root):
    """Durable multi-writer ingest; returns throughput + latency stats."""
    ops_per_writer = total_ops // writers
    service = LineageService(
        root,
        workers=WORKERS,
        num_shards=NUM_SHARDS,
        commit_interval=COMMIT_INTERVAL,
        queue_size=128,
    )
    for w in range(writers):
        for i in range(ops_per_writer + 1):
            service.define_array(f"w{w}a{i}", SHAPE)
    submit_lat = [[] for _ in range(writers)]
    durable_lat = [[] for _ in range(writers)]

    def writer(w):
        for i in range(ops_per_writer):
            a, b = f"w{w}a{i}", f"w{w}a{i+1}"
            relation = elementwise(a, b)
            start = time.monotonic()
            ticket = service.submit(
                f"op{w}_{i}", [a], [b], relations={(a, b): relation}, reuse=False
            )
            submit_lat[w].append(time.monotonic() - start)
            ticket.result(timeout=120)
            durable_lat[w].append(time.monotonic() - start)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(writers)]
    start = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.monotonic() - start
    stats = service.stats()
    service.close()

    flat_submit = [x for lat in submit_lat for x in lat]
    flat_durable = [x for lat in durable_lat for x in lat]
    return {
        "writers": writers,
        "ops": writers * ops_per_writer,
        "ops_per_sec": writers * ops_per_writer / wall,
        "p99_submit_ms": _percentile(flat_submit, 0.99) * 1000,
        "p99_durable_ms": _percentile(flat_durable, 0.99) * 1000,
        "avg_commit_batch": stats["avg_commit_batch"],
        "commits": stats["commits"],
    }


@pytest.mark.parametrize("writers", [1, 4, 8])
def test_bench_concurrent_ingest(benchmark, tmp_path, writers):
    counter = iter(range(1_000_000))

    def ingest():
        result = run_ingest(writers, TOTAL_OPS[writers], tmp_path / f"db{next(counter)}")
        _results[writers] = result
        return result

    result = benchmark.pedantic(ingest, rounds=1, warmup_rounds=0)
    for key, value in result.items():
        benchmark.extra_info[key] = value


def test_four_writers_share_commits(tmp_path):
    """Group commit at work: the committer batches every op applied during
    a publish window, so 4 writers average more ops per commit than 1.

    Uses the measurements of the parametrized benchmark above when they
    exist (plain ``pytest benchmarks``), otherwise measures both
    configurations directly.
    """
    single = _results.get(1) or run_ingest(1, TOTAL_OPS[1], tmp_path / "single")
    four = _results.get(4) or run_ingest(4, TOTAL_OPS[4], tmp_path / "four")
    assert four["avg_commit_batch"] > single["avg_commit_batch"]


def test_bench_sync_autosync_baseline(benchmark, tmp_path):
    """The status-quo path the service replaces: one synchronous
    ``register_operation`` + full-manifest autosync per op on the caller's
    thread (single-writer by construction)."""
    counter = iter(range(1_000_000))
    n = 40

    def ingest():
        log = DSLog(
            tmp_path / f"db{next(counter)}",
            backend="sharded",
            num_shards=NUM_SHARDS,
            autosync=True,
        )
        for i in range(n + 1):
            log.define_array(f"a{i}", SHAPE)
        start = time.monotonic()
        for i in range(n):
            a, b = f"a{i}", f"a{i+1}"
            log.register_operation(
                f"op{i}", [a], [b], relations={(a, b): elementwise(a, b)}, reuse=False
            )
        wall = time.monotonic() - start
        log.close()
        return {"ops_per_sec": n / wall}

    result = benchmark.pedantic(ingest, rounds=1, warmup_rounds=0)
    benchmark.extra_info.update(result)
