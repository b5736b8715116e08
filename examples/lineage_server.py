"""Serving lineage over HTTP: one writer process, two client readers.

Until now every query ran inside the process that owned the catalog; the
serving tier makes the lineage reachable from anywhere:

    writer (this process)                    readers (child processes)
    DSLog -> dslog.serve(port)  <-- HTTP --  LineageClient.connect(url)

The server is a thread-per-connection HTTP/1.1 listener fronting a
``QueryExecutor``: queries fan out per shard on a thread pool, and hot
results are served from a generation-keyed LRU — the ``cached`` flag in
each response shows it working.  A cached result depends on the lineage
entries of its own hops and on nothing else: when the writer ingests an
unrelated entry it stays valid, and when the writer replaces one of its
hops it is recomputed.

The example starts a server, forks two reader processes that issue path
queries and graph analytics over HTTP, then ingests mid-flight and asserts
that the cache invalidates exactly where it must (it exits non-zero
otherwise, which is how CI runs it).

Run with:  python examples/lineage_server.py
"""

import multiprocessing
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import DSLog
from repro.core.relation import LineageRelation
from repro.service.server import LineageClient

SHAPE = (16, 16)
CHAIN = ["raw", "cleaned", "normalized", "features"]


def blur3(in_name, out_name):
    rows, cols = SHAPE
    pairs = []
    for r in range(rows):
        for c in range(cols):
            for dc in (-1, 0, 1):
                if 0 <= c + dc < cols:
                    pairs.append(((r, c), (r, c + dc)))
    return LineageRelation.from_pairs(pairs, SHAPE, SHAPE, in_name=in_name, out_name=out_name)


def reader(reader_id: int, url: str) -> None:
    """A client process: no repro imports beyond the client, no shared
    memory with the writer — everything crosses the HTTP boundary."""
    client = LineageClient.connect(url, timeout=10.0)
    health = client.healthz()
    print(f"[reader {reader_id}] connected: {health['entries']} entries, "
          f"backend={health['backend']}, generations={health['generations']}")

    forward = client.prov_query(CHAIN, cells=[[4, 4], [8, 8]])
    print(f"[reader {reader_id}] {CHAIN[0]} -> {CHAIN[-1]}: "
          f"{forward['count']} cells in {len(forward['hops'])} hops "
          f"(cached={forward['cached']})")

    again = client.prov_query(CHAIN, cells=[[4, 4], [8, 8]])
    print(f"[reader {reader_id}] same query again: cached={again['cached']} "
          f"in {again['elapsed_ms']:.2f} ms")

    impact = client.impact("raw")
    print(f"[reader {reader_id}] impact of 'raw': {impact}")


def main() -> None:
    root = Path(tempfile.mkdtemp()) / "catalog"

    # --- the writer process owns the catalog and serves it ----------------
    log = DSLog(root, num_shards=4)
    for name in CHAIN:
        log.define_array(name, SHAPE)
    for a, b in zip(CHAIN, CHAIN[1:]):
        log.add_lineage(a, b, relation=blur3(a, b), op_name=f"{a}->{b}")

    server = log.serve(port=0)
    print(f"serving {len(log.catalog)} entries at {server.url}\n")

    # --- two reader processes query over HTTP -----------------------------
    ctx = multiprocessing.get_context("spawn")  # no inherited state: HTTP only
    readers = [ctx.Process(target=reader, args=(i, server.url)) for i in (1, 2)]
    for proc in readers:
        proc.start()
    for proc in readers:
        proc.join()
        assert proc.exitcode == 0

    # --- a write invalidates exactly the results it changed ---------------
    local = LineageClient.connect(server.url)
    warm = local.prov_query(CHAIN, cells=[[4, 4], [8, 8]])
    print(f"\n[writer] before ingest: cached={warm['cached']}")
    assert warm["cached"]

    log.define_array("report", SHAPE)
    log.add_lineage("features", "report", relation=blur3("features", "report"))

    after = local.prov_query(CHAIN, cells=[[4, 4], [8, 8]])
    print(f"[writer] after ingesting features->report: cached={after['cached']} "
          "(a result depends only on the entries of its own hops)")
    assert after["cached"] and after["count"] == warm["count"]
    impact = local.impact("raw")
    print(f"[writer] impact of 'raw' now reaches: {impact}")
    assert "report" in impact  # graph answers turn over on any catalog change

    a, b = CHAIN[1:3]
    log.add_lineage(a, b, relation=blur3(a, b), op_name=f"{a}->{b} (v2)", replace=True)
    replaced = local.prov_query(CHAIN, cells=[[4, 4], [8, 8]])
    print(f"[writer] after replacing {a}->{b}: cached={replaced['cached']} "
          "(one of its hops is a new entry)")
    assert not replaced["cached"] and replaced["count"] == warm["count"]
    print(f"[writer] executor stats: {local.healthz()['executor']['cache']}")

    server.close()
    log.close()


if __name__ == "__main__":
    main()
