"""Persistent catalogs: the durable store and the lineage graph.

A DSLog opened with a root directory is a long-lived, on-disk artifact:
ProvRC tables are appended to segment files, all metadata (op names,
operation records, reuse-predictor state) rides in atomic JSON manifests,
and reopening the directory costs O(manifest) — tables are only read
back, through an LRU cache, when a query touches them.

The example builds a branching workflow (a diamond plus a tail), closes the
catalog, reopens it cold, and then lets the lineage *graph* do the work:
two-array ``prov_query`` calls without a hop list, impact/dependency
closures, and a whole-catalog summary.

Run with:  python examples/persistent_catalog.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import DSLog
from repro.core.relation import LineageRelation


def elementwise(shape, in_name, out_name):
    pairs = [(cell, cell) for cell in np.ndindex(*shape)]
    return LineageRelation.from_pairs(pairs, shape, shape, in_name=in_name, out_name=out_name)


def row_sum(rows, cols, in_name, out_name):
    pairs = [((r,), (r, c)) for r in range(rows) for c in range(cols)]
    return LineageRelation.from_pairs(pairs, (rows,), (rows, cols), in_name=in_name, out_name=out_name)


def main() -> None:
    root = Path(tempfile.mkdtemp()) / "catalog"
    shape = (64, 8)

    # 1. ingest a diamond-shaped workflow into a durable catalog
    #        raw -> cleaned -> features -+
    #        raw -> normalized ----------+-> merged -> scores
    with DSLog(root) as log:
        for name in ("raw", "cleaned", "features", "normalized", "merged"):
            log.define_array(name, shape)
        log.define_array("scores", (shape[0],))
        log.add_lineage("raw", "cleaned", relation=elementwise(shape, "raw", "cleaned"),
                        op_name="fillna")
        log.add_lineage("cleaned", "features", relation=elementwise(shape, "cleaned", "features"),
                        op_name="log1p")
        log.add_lineage("raw", "normalized", relation=elementwise(shape, "raw", "normalized"),
                        op_name="zscore")
        log.add_lineage("features", "merged", relation=elementwise(shape, "features", "merged"),
                        op_name="blend")
        log.add_lineage("normalized", "merged", relation=elementwise(shape, "normalized", "merged"),
                        op_name="blend")
        log.add_lineage("merged", "scores", relation=row_sum(*shape, "merged", "scores"),
                        op_name="row_score")
        print(f"ingested {len(log.catalog)} entries, "
              f"{log.storage_bytes() / 1e3:.1f} KB long-term storage")

    # 2. cold reopen: O(manifest) — no table bytes are touched yet
    log = DSLog.load(root)
    print(f"reopened: {len(log.catalog)} entries, "
          f"{log.store.tables_deserialized} tables deserialized, "
          f"op name preserved: {log.catalog.entry('raw', 'cleaned').op_name!r}")

    # 2b. narrow hydration: tables come back as read-only arrays at the
    # dtypes they were stored at, and the store's one table cache charges
    # that footprint (an int8 table would cost 8x more after an
    # astype(int64) upcast)
    def cached_bytes():
        return log.store.cache.stats()["bytes"]

    print(f"cache before hydration: {cached_bytes()} bytes")
    hydrated = log.catalog.entry("raw", "cleaned").backward
    print(f"cache after one table:  {cached_bytes()} bytes "
          f"(key_lo dtype {hydrated.key_lo.dtype}, "
          f"writeable={hydrated.key_lo.flags.writeable})")
    log.catalog.materialize_all()
    print(f"cache fully hydrated:   {cached_bytes()} bytes, "
          f"mmap readers: {log.store.reader_stats()}")

    # 3. graph-planned queries: no hop list, diamonds are unioned
    backward = log.prov_query(["scores", "raw"], [(3,)])
    print(f"scores[3] depends on {backward.count_cells()} raw cells "
          f"(via {log.store.tables_deserialized} lazily loaded tables)")
    forward = log.prov_query(["raw", "scores"], [(3, j) for j in range(shape[1])])
    print(f"raw[3, :] influences scores cells: {sorted(forward.to_cells())}")

    # 4. graph analytics over the whole catalog
    print(f"impact of 'raw': {log.impact('raw')}")
    print(f"dependencies of 'scores': {log.dependencies('scores')}")
    summary = log.lineage_summary()
    print(f"summary: roots={summary['roots']} leaves={summary['leaves']} "
          f"max_depth={summary['max_depth']} entries={summary['entries']}")
    print(f"table cache hits: {log.store.cache.stats()['hits']}")

    # 5. churn an entry, then compact the dead bytes away
    log.add_lineage("raw", "cleaned", relation=elementwise(shape, "raw", "cleaned"),
                    op_name="fillna_v2", replace=True)
    stats = log.compact().values()  # one stats dict per shard
    print(f"compacted: reclaimed {sum(s['reclaimed_bytes'] for s in stats)} bytes "
          f"({sum(s['records_copied'] for s in stats)} live records kept)")
    log.close()


if __name__ == "__main__":
    main()
