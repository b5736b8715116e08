"""Batched lineage queries: one plan for many queries.

The per-request serving path answers one query at a time — fine when the
result cache absorbs the traffic, but an uncached audit sweep (say, "trace
every flagged output cell back to its raw inputs") pays planning, snapshot
pinning, table hydration and numpy dispatch once *per query*.  ``POST
/query_batch`` runs the whole sweep as one plan: each distinct hop table
hydrates once, and every (table, direction) the batch crosses is joined in
one kernel pass over all the queries that reach it — whatever path they
came from, backward or forward, long or short, explicit or planned by the
lineage graph.  Results are segmented back out per query, bit-identical to
asking one at a time.

The example:

1. builds a 4-hop sharded catalog,
2. sweeps 64 cells via ``LineageClient.prov_query_batch`` vs 64 individual
   ``/query`` round trips, printing both wall times,
3. sends one mixed batch — backward and forward paths of different lengths
   over the same chain plus a graph-planned two-array query — and exits
   non-zero unless every item equals its single ``/query`` answer,
4. shows per-item error containment (a bad query rides along harmlessly).

Run with:  python examples/batch_queries.py
"""

import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import DSLog
from repro.core.relation import LineageRelation
from repro.service.server import LineageClient

SHAPE = (16, 16)
CHAIN = ["raw", "cleaned", "normalized", "features", "scores"]
BATCH = 64


def scatter(in_name, out_name):
    """Each output cell reads itself plus two wrap-around neighbors."""
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


def build_catalog(root):
    log = DSLog(root, num_shards=4, autosync=False)
    for name in CHAIN:
        log.define_array(name, SHAPE)
    for a, b in zip(CHAIN, CHAIN[1:]):
        log.add_lineage(a, b, relation=scatter(a, b))
    log.sync()
    return log


def flagged_cells():
    """The audit sweep: 64 scattered output cells to trace back to raw."""
    rows, cols = SHAPE
    return [((k * 7) % rows, (k * 13) % cols) for k in range(BATCH)]


def main():
    with tempfile.TemporaryDirectory() as root:
        log = build_catalog(root)
        path = list(reversed(CHAIN))  # scores -> ... -> raw (backward sweep)

        # -- 1. batched vs sequential sweep (cache off: every query cold) --
        server = log.serve(port=0, cache_entries=0)
        client = LineageClient.connect(server.url)
        queries = [(path, [cell]) for cell in flagged_cells()]
        client.prov_query_batch(queries, include_boxes=False)  # warm tables

        start = time.monotonic()
        singles = [
            client.prov_query(p, cells=c, include_boxes=False) for p, c in queries
        ]
        single_wall = time.monotonic() - start

        start = time.monotonic()
        batched = client.prov_query_batch(queries, include_boxes=False)
        batch_wall = time.monotonic() - start

        assert [b["count"] for b in batched] == [s["count"] for s in singles]
        print(f"audit sweep, {BATCH} uncached queries down {len(CHAIN) - 1} hops:")
        print(f"  one at a time : {single_wall * 1000:7.1f} ms")
        print(
            f"  one batch     : {batch_wall * 1000:7.1f} ms "
            f"({single_wall / batch_wall:.1f}x)"
        )

        # -- 2. one plan for a mixed batch: every item as if asked alone --
        mixed_paths = [
            path,                                        # backward, 4 hops
            ["features", "normalized", "cleaned"],       # backward, 2 hops
            list(CHAIN),                                 # forward, 4 hops
            ["cleaned", "normalized", "features"],       # forward, 2 hops
            ["normalized", "cleaned", "normalized"],     # back, then forward
            ["scores", "normalized"],                    # planned by the graph
        ]
        sweep = [
            (p, [cell]) for p in mixed_paths for cell in flagged_cells()[:4]
        ]

        def answer(result):
            hops = [{k: v for k, v in h.items() if k != "seconds"} for h in result["hops"]]
            return result["count"], result["boxes"], hops

        batch_items = client.prov_query_batch(sweep)
        alone = [client.prov_query(p, cells=c) for p, c in sweep]
        agree = sum(answer(b) == answer(a) for b, a in zip(batch_items, alone))
        print(f"\nmixed batch: {agree}/{len(sweep)} items equal their single /query answer")
        if agree != len(sweep):
            raise SystemExit("a batch item differs from its single /query answer")

        # -- 3. per-item error containment --
        mixed = client.prov_query_batch(
            [
                (path, [flagged_cells()[0]]),
                (["scores", "no-such-array"], [(0, 0)]),
            ]
        )
        print("\nper-item containment:")
        print(f"  good query -> count={mixed[0]['count']}")
        print(f"  bad query  -> {mixed[1]['error']['type']}: ", end="")
        print(mixed[1]["error"]["message"])
        server.close()
        log.close()


if __name__ == "__main__":
    main()
