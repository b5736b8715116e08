"""The side of the benchmark that holds a catalog: build it, reopen it,
serve it — in the generator's process or in a child.

Run as a script this file is the **server child**: it receives a JSON
config on the command line, builds the catalog it is asked to serve,
starts the servers, prints one ``ready`` line, and then answers one-word
commands on stdin (``stats``, ``burst <n>``, ``stop``) with one JSON line each.
It exits when told to or when stdin closes, so a dead parent never leaves
a server behind.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

if __name__ == "__main__":  # the child runs uninstalled, like run.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import clock
import gen
from repro.dslog import DSLog
from repro.obs import REGISTRY
from repro.service.pipeline import LineageService
from repro.service.rpc import DualServer

NUM_SHARDS = 4
REOPEN_CYCLES = 40


def tree_bytes(root: Path) -> int:
    """On-disk bytes of a catalog: every segment and manifest file."""
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def to_query(request: gen.Request):
    """The in-process form of a request's cells."""
    if "slices" in request:
        return [slice(a, b) for a, b in request["slices"]]
    return [tuple(cell) for cell in request["cells"]]


def executor_options(result_cache: Optional[int]) -> dict:
    """Keyword arguments for ``QueryExecutor`` / ``DualServer``: the
    workload's ``ResultCache`` size, or the program's default."""
    return {} if result_cache is None else {"cache_entries": result_cache}


def ingest(root: Path, groups: Sequence[gen.Group]) -> dict:
    """Make every relation of a catalog durable, one ``sync()`` per
    relation, then ``compact()`` and close.  The commit latency of a
    relation runs from its ``add_lineage`` call to the return of its
    ``sync``, scaled to the reference clock by the probes around it."""
    rows, raw_bytes = gen.raw_size(gen.relations(groups))
    log = DSLog(root, backend="sharded", num_shards=NUM_SHARDS, autosync=False)
    for group in groups:
        for name, shape in group.arrays:
            log.define_array(name, shape)
    commit_ms: List[float] = []
    sync_s = 0.0
    before = clock.probe()
    for relation in gen.relations(groups):
        t0 = time.perf_counter()
        log.add_lineage(relation.in_name, relation.out_name, relation=relation)
        t1 = time.perf_counter()
        log.sync()
        t2 = time.perf_counter()
        after = clock.probe()
        sync_s += t2 - t1
        commit_ms.append((t2 - t0) * 1e3 * clock.scale(before, after))
        before = after
    t0 = time.perf_counter()
    compacted = log.compact()
    compact_s = time.perf_counter() - t0
    log.close()
    return {
        "rows": rows,
        "raw_bytes": raw_bytes,
        "commit_ms": commit_ms,
        "sync_s": sync_s,
        "compact_s": compact_s,
        "compact_bytes": sum(s["bytes_after"] for s in compacted.values()),
        "stored_bytes": tree_bytes(root),
    }


def open_catalog(root: Path, table_cache_frac: Optional[float] = None) -> DSLog:
    """Reopen a built catalog; with *table_cache_frac*, give its table
    cache that share of the bytes its tables take once hydrated."""
    log = DSLog.load(root)
    if table_cache_frac is None:
        return log
    try:
        log.catalog.materialize_all()
        hydrated = sum(stats["bytes"] for stats in log.store.cache_stats())
    finally:
        log.close()
    return DSLog.load(root, cache_bytes=int(hydrated * table_cache_frac))


def reopen_cycles(root: Path, request: gen.Request, cycles: int = REOPEN_CYCLES) -> List[float]:
    """``DSLog.load`` + first answer + close, *cycles* times; milliseconds
    each at the reference clock (one probe every few cycles).  The first
    answer pays the manifest reads and the hydration of the tables on its
    path — what a restarted reader waits for."""
    path, query = request["path"], to_query(request)
    out: List[float] = []
    after = clock.probe()
    for start in range(0, cycles, 5):
        before, raw = after, []
        for _ in range(min(5, cycles - start)):
            t0 = time.perf_counter()
            log = DSLog.load(root)
            log.prov_query(path, query)
            raw.append((time.perf_counter() - t0) * 1e3)
            log.close()
        after = clock.probe()
        out += [ms * clock.scale(before, after) for ms in raw]
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# the server child
# ----------------------------------------------------------------------
def run_burst(service: LineageService, writes: Sequence[gen.Write]) -> dict:
    """Submit one burst of small relations back to back, wait until each
    is durable, then ``compact()``.  A write's commit latency runs from its
    ``submit_lineage`` call to the manifest publish that covers it, at the
    reference clock."""
    relations = [gen.write_relation(w) for w in writes]
    for write in writes:
        if not write.replace:
            service.define_array(write.out_name, gen.CHURN_SHAPE)
    before = clock.probe()
    tickets = [
        service.submit_lineage(w.in_name, w.out_name, relation=r, replace=w.replace)
        for w, r in zip(writes, relations)
    ]
    queue_depth = service.stats()["queue_depth"]
    commit_ms: List[float] = []
    failed = 0
    for ticket in tickets:
        try:
            ticket.result(timeout=30.0)
            commit_ms.append(ticket.durable_latency * 1e3)
        except Exception:  # noqa: BLE001 - counted, reported as a failed operation
            failed += 1
    scale = clock.scale(before, clock.probe())
    commit_ms = [ms * scale for ms in commit_ms]
    t0 = time.perf_counter()
    compacted = service.compact()
    return {
        "commit_ms": commit_ms,
        "failed": failed,
        "queue_depth": queue_depth,
        "compact_s": time.perf_counter() - t0,
        "compact_bytes": sum(s["bytes_after"] for s in compacted.values()),
        "stored_bytes": tree_bytes(service.log.root),
        "rss_mb": peak_rss_mb(),
    }


def _child_stats(server: DualServer) -> dict:
    return {
        "executor": server.executor.stats(),
        "registry": REGISTRY.snapshot(),
        "live_bytes": server.log.store.live_bytes(),
        "rss_mb": peak_rss_mb(),
    }


def child_main(config: dict) -> int:
    """Build, reopen, serve; then obey stdin until ``stop`` or EOF."""
    spec = gen.CatalogSpec(*config["spec"])
    seed = int(config["seed"])
    root = Path(config["root"])
    out = sys.stdout

    def say(payload: dict) -> None:
        out.write(json.dumps(payload) + "\n")
        out.flush()

    groups = gen.build_groups(spec, seed)
    ingest_stats = ingest(root, groups)
    t0 = time.perf_counter()
    reopen_ms = reopen_cycles(root, config["probe"], int(config["reopen_cycles"]))
    reopen_s = time.perf_counter() - t0
    groups = None  # the relations are on disk now; serve from there

    service = None
    burst = int(config["burst"])  # writes per burst; 0 serves a catalog nobody writes
    if burst:
        service = LineageService(root, num_shards=NUM_SHARDS)
        log = service.log
    else:
        log = open_catalog(root, config["table_cache_frac"])
    server = DualServer(log, **executor_options(config["result_cache"])).start()
    say(
        {
            "event": "ready",
            "http": server.url,
            "rpc": server.rpc_address,
            "ingest": ingest_stats,
            "reopen_ms": reopen_ms,
            "reopen_s": reopen_s,
        }
    )
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                say(_child_stats(server))
            elif command.startswith("burst "):
                cycle = int(command.split()[1])
                say(run_burst(service, gen.write_burst(spec, seed, cycle, burst)))
            elif command == "stop":
                break
    finally:
        server.close()
        if service is not None:
            service.close()
        else:
            log.close()
    return 0


if __name__ == "__main__":
    sys.exit(child_main(json.loads(sys.argv[1])))
