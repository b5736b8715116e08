"""Zero-copy storage fast-path benchmarks: cold hydration, uncached query
throughput, in-memory footprint, and group-commit write coalescing.

The catalog mixes the two hydration regimes:

* a long chain of **small** tables — per-table overhead (file opens, JSON
  headers, buffer copies) dominates, which is where the cached mmap
  readers and the removed ``astype(int64)``/slice copies pay off;
* a handful of **wide** tables (tens of thousands of compressed rows) —
  memory bandwidth dominates, which is where narrow-dtype views (int16
  instead of int64, 4× fewer bytes) pay off.

Machine-independent gates live next to the timings:

* hydrated tables must come back at their stored narrow dtypes, and the
  table cache must charge ≤ 40% of the int64-inflated footprint;
* a bulk ingest synced once must coalesce its appends into a handful of
  OS writes (records-per-write ≥ 20).

``benchmarks/BENCH_post_zerocopy.json`` records the numbers captured when
the fast path landed; reproduce with

    PYTHONPATH=src python -m pytest benchmarks/test_bench_zerocopy.py \
        --benchmark-json=BENCH_current.json
"""

import numpy as np
import pytest

from repro import DSLog
from repro.core.relation import LineageRelation

CHAIN_ENTRIES = 400
CHAIN_SHAPE = (8,)
WIDE_ENTRIES = 4
WIDE_ROWS = 30_000
WIDE_SHAPE = (WIDE_ROWS,)


def elementwise(shape, in_name, out_name):
    pairs = [(cell, cell) for cell in np.ndindex(*shape)]
    return LineageRelation.from_pairs(pairs, shape, shape, in_name=in_name, out_name=out_name)


def scrambled(shape, in_name, out_name, seed):
    """A permutation relation with no run structure: ProvRC keeps ~one row
    per cell, so the table is wide and hydration is bandwidth-bound."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(shape[0])
    pairs = [((int(i),), (int(perm[i]),)) for i in range(shape[0])]
    return LineageRelation.from_pairs(pairs, shape, shape, in_name=in_name, out_name=out_name)


def build_catalog(root):
    log = DSLog(root=root, num_shards=1, autosync=False)
    chain = [f"C{i:04d}" for i in range(CHAIN_ENTRIES + 1)]
    for name in chain:
        log.define_array(name, CHAIN_SHAPE)
    for a, b in zip(chain, chain[1:]):
        log.add_lineage(a, b, relation=elementwise(CHAIN_SHAPE, a, b), op_name=f"op_{a}")
    wide = [f"W{i}" for i in range(WIDE_ENTRIES + 1)]
    for name in wide:
        log.define_array(name, WIDE_SHAPE)
    for i, (a, b) in enumerate(zip(wide, wide[1:])):
        log.add_lineage(a, b, relation=scrambled(WIDE_SHAPE, a, b, seed=i), op_name=f"wop_{i}")
    log.close()
    return chain, wide


@pytest.fixture(scope="session")
def zerocopy_db(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_zerocopy") / "db"
    chain, wide = build_catalog(root)
    return root, chain, wide


N_TABLES = 2 * (CHAIN_ENTRIES + WIDE_ENTRIES)


def int64_inflated_nbytes(table):
    """What the table would occupy had hydration upcast every interval
    column to int64 (the pre-zero-copy behavior)."""
    total = table.val_kind.nbytes + table.val_ref.nbytes
    for name in ("key_lo", "key_hi", "val_lo", "val_hi"):
        total += getattr(table, name).size * 8
    return total


def test_bench_cold_hydration(benchmark, zerocopy_db):
    """Cold open + materialize every table through the mmap fast path."""
    root, _chain, _wide = zerocopy_db

    def hydrate():
        log = DSLog.load(root)
        count = log.catalog.materialize_all()
        assert count == N_TABLES
        return log

    log = benchmark.pedantic(hydrate, rounds=3, warmup_rounds=1)
    benchmark.extra_info["tables"] = N_TABLES
    benchmark.extra_info["cache_bytes"] = log.store.cache.stats()["bytes"]
    benchmark.extra_info.update(log.store.reader_stats())
    log.close()


def test_bench_uncached_query_path(benchmark, zerocopy_db):
    """Multi-hop queries with the table cache cleared each round: every hop
    pays hydration (mmap read + narrow views) plus the θ-join chain."""
    root, chain, wide = zerocopy_db
    log = DSLog.load(root)
    paths = [chain[40:48], chain[200:208], list(reversed(chain[100:106])), wide[:3]]

    def query_cold():
        log.store.cache.clear()
        hits = 0
        for path in paths:
            result = log.prov_query(path, [(3,)])
            hits += result.count_cells()
        assert hits >= len(paths)
        return hits

    benchmark.pedantic(query_cold, rounds=5, warmup_rounds=1)
    benchmark.extra_info["paths"] = len(paths)
    benchmark.extra_info["tables_deserialized"] = log.store.tables_deserialized
    log.close()


def test_hydration_preserves_narrow_dtypes(zerocopy_db):
    root, chain, wide = zerocopy_db
    log = DSLog.load(root)
    small = log.catalog.entry(chain[0], chain[1]).backward
    assert small.key_lo.dtype == np.int8
    big = log.catalog.entry(wide[0], wide[1]).backward
    assert big.key_lo.dtype == np.int16  # 30k rows: indices fit int16
    assert not big.key_lo.flags.writeable
    log.close()


def test_cache_charges_narrow_footprint(zerocopy_db):
    """Acceptance criterion: the in-memory footprint of hydrated tables is
    the narrow on-disk width, not the int64 inflation — machine-independent
    and gated at ≤ 40% (int16-dominated wide tables alone give 4×)."""
    root, _chain, _wide = zerocopy_db
    log = DSLog.load(root)
    log.catalog.materialize_all()
    charged = log.store.cache.stats()["bytes"]
    inflated = sum(
        int64_inflated_nbytes(entry.backward) + int64_inflated_nbytes(entry.forward)
        for entry in log.catalog.entries()
    )
    ratio = charged / inflated
    assert ratio <= 0.40, (
        f"hydrated footprint is {charged} bytes = {ratio:.0%} of the int64 "
        f"inflation ({inflated}); the zero-copy path should stay under 40%"
    )
    log.close()


def test_group_commit_coalescing_gate(tmp_path):
    """Acceptance criterion: a bulk ingest synced once reaches the OS as a
    handful of coalesced writes — records-per-write ≥ 20 (deterministic:
    wait overlap, not parallelism, so it holds on a 1-CPU runner)."""
    log = DSLog(root=tmp_path / "db", num_shards=1, autosync=False)
    names = [f"A{i}" for i in range(201)]
    for name in names:
        log.define_array(name, CHAIN_SHAPE)
    for a, b in zip(names, names[1:]):
        log.add_lineage(a, b, relation=elementwise(CHAIN_SHAPE, a, b))
    log.sync()
    stats = log.store.write_stats()
    assert stats["coalesced_records"] >= 400  # 200 entries x 2 orientations
    per_write = stats["coalesced_records"] / max(stats["coalesced_writes"], 1)
    assert per_write >= 20, (
        f"only {per_write:.1f} records per OS write "
        f"({stats['coalesced_records']} records in {stats['coalesced_writes']} writes)"
    )
    log.close()
