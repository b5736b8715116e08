"""Ingest + reopen benchmarks for the durable lineage store (one shard).

Builds a 1,000-entry chain catalog once per session, then measures:

* **ingest** — appending entries to segments with one manifest sync at the
  end (the bulk-load pattern, ``autosync=False``);
* **cold open (lazy)** — ``DSLog.load`` on the catalog directory, which
  must be O(manifest): the run asserts that *zero* tables are deserialized;
* **first query after a cold open** — only the queried path's tables are
  materialized (5 of 2,000 here);
* **eager materialization** — the cost the lazy open avoids: loading every
  table of every entry, the moral equivalent of the legacy loader.

``benchmarks/BENCH_post_store.json`` records the numbers captured when the
store landed; reproduce with

    PYTHONPATH=src python -m pytest benchmarks/test_bench_store.py \
        --benchmark-json=BENCH_current.json
"""

import numpy as np
import pytest

from repro import DSLog
from repro.core.relation import LineageRelation

N_ENTRIES = 1_000
SHAPE = (8,)


def elementwise(shape, in_name, out_name):
    pairs = [(cell, cell) for cell in np.ndindex(*shape)]
    return LineageRelation.from_pairs(pairs, shape, shape, in_name=in_name, out_name=out_name)


def build_chain(root, n):
    log = DSLog(root=root, num_shards=1, autosync=False)
    names = [f"A{i:05d}" for i in range(n + 1)]
    for name in names:
        log.define_array(name, SHAPE)
    for a, b in zip(names, names[1:]):
        log.add_lineage(a, b, relation=elementwise(SHAPE, a, b), op_name=f"op_{a}")
    log.close()
    return names


@pytest.fixture(scope="session")
def chain_db(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_store") / "db"
    names = build_chain(root, N_ENTRIES)
    return root, names


def test_bench_segment_ingest(benchmark, tmp_path):
    """Bulk-load 200 entries into a fresh store (segments + one sync)."""
    counter = iter(range(1_000_000))

    def ingest():
        root = tmp_path / f"db{next(counter)}"
        build_chain(root, 200)

    benchmark.pedantic(ingest, rounds=3, warmup_rounds=1)
    benchmark.extra_info["entries"] = 200


def test_bench_cold_open_is_lazy(benchmark, chain_db):
    """Reopen the 1k-entry catalog: O(manifest), zero tables deserialized."""
    root, _names = chain_db

    def cold_open():
        log = DSLog.load(root)
        assert len(log.catalog) == N_ENTRIES
        assert log.store.tables_deserialized == 0
        return log

    log = benchmark.pedantic(cold_open, rounds=5, warmup_rounds=1)
    benchmark.extra_info["entries"] = N_ENTRIES
    benchmark.extra_info["tables_deserialized"] = log.store.tables_deserialized
    benchmark.extra_info["manifest_generation"] = log.store.meta.manifest.generation


def test_bench_first_query_after_cold_open(benchmark, chain_db):
    """Cold open plus one 5-hop path query: loads 5 of 2,000 tables."""
    root, names = chain_db
    path = names[100:106]

    def open_and_query():
        log = DSLog.load(root)
        result = log.prov_query(path, [(3,)])
        assert result.to_cells() == {(3,)}
        return log

    log = benchmark.pedantic(open_and_query, rounds=5, warmup_rounds=1)
    benchmark.extra_info["entries"] = N_ENTRIES
    benchmark.extra_info["tables_deserialized"] = log.store.tables_deserialized


def test_bench_eager_materialize_all(benchmark, chain_db):
    """The eager-open cost the lazy path avoids: every table materialized."""
    root, _names = chain_db

    def open_eager():
        log = DSLog.load(root)
        count = log.catalog.materialize_all()
        assert count == 2 * N_ENTRIES
        return log

    log = benchmark.pedantic(open_eager, rounds=2, warmup_rounds=1)
    benchmark.extra_info["entries"] = N_ENTRIES
    benchmark.extra_info["tables_deserialized"] = log.store.tables_deserialized


def test_bench_planned_query_on_reopened_catalog(benchmark, chain_db):
    """Graph-planned two-array query (no hop list) over the 1k-hop chain."""
    root, names = chain_db
    log = DSLog.load(root)
    src, dst = names[200], names[220]

    result = benchmark.pedantic(
        lambda: log.prov_query([src, dst], [(5,)]), rounds=5, warmup_rounds=1
    )
    assert result.to_cells() == {(5,)}
    benchmark.extra_info["hops"] = 20
