"""Scraping a lineage server's /metrics: the observability smoke test.

Starts a sharded catalog with some lineage, serves it, drives a little
traffic (queries, a cache hit, a graph call, one deliberate 404), then

* fetches ``GET /metrics`` and validates that the payload parses as
  Prometheus text exposition format 0.0.4,
* asserts the metric names every dashboard would alert on are present
  (storage, ingest, serving, cache, breaker, fault families),
* fetches ``GET /debug/traces``, checks that every request that sent a
  trace id was traced under it (a request that sends none is traced only
  when it runs slow), and shows the span tree of the slowest,
* points ``python -m repro.tools.stats`` at the same server.

The exit status is the contract: 0 only if every check passed — CI runs
this file as the observability smoke step, so it doubles as the copy-
paste example for wiring a real Prometheus scrape::

    scrape_configs:
      - job_name: dslog
        static_configs:
          - targets: ["127.0.0.1:8791"]   # LineageServer(port=8791)

Run with:  python examples/metrics_scrape.py
"""

import secrets
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import DSLog
from repro.core.relation import LineageRelation
from repro.obs.metrics import parse_prometheus_text, sample_value
from repro.service.server import LineageClient, LineageServer, LineageServerError
from repro.tools import stats as stats_cli

SHAPE = (12, 12)
CHAIN = ["raw", "cleaned", "features"]

# one required family per instrumented subsystem; a missing name means a
# subsystem lost its instrumentation
REQUIRED = (
    "dslog_segment_flushes_total",    # storage: segment writer
    "dslog_segment_fsyncs_total",     # storage: durability barriers
    "dslog_table_cache_hits_total",   # storage: table cache
    "dslog_table_cache_bytes",        # storage: cache footprint gauge
    "dslog_manifest_publishes_total", # storage: atomic manifest swaps
    "dslog_queries_total",            # serving: executor queries
    "dslog_result_cache_misses_total",# serving: result cache
    "dslog_prefetch_seconds",         # serving: per-shard hydration
    "dslog_requests_total",           # serving: both wires, by wire/op/status
    "dslog_request_seconds",          # serving: request latency histogram
    "dslog_connections",              # serving: open connections per wire
    "dslog_breaker_transitions_total",# resilience: circuit breakers
    "dslog_faults_injected_total",    # resilience: fault accounting
)


def identity(in_name, out_name):
    pairs = [((i, j), (i, j)) for i in range(SHAPE[0]) for j in range(SHAPE[1])]
    return LineageRelation.from_pairs(
        pairs, SHAPE, SHAPE, in_name=in_name, out_name=out_name
    )


def drive_traffic(client):
    """Returns the trace ids the queries sent."""
    ids = [secrets.token_hex(16) for _ in range(3)]  # W3C trace ids: 32 hex digits
    client.prov_query(CHAIN, slices=[(0, 4), (0, 4)], trace_id=ids[0])
    client.prov_query(CHAIN, slices=[(0, 4), (0, 4)], trace_id=ids[1])  # cache hit
    client.prov_query(list(reversed(CHAIN)), cells=[(3, 3)], trace_id=ids[2])
    client.impact("raw")
    try:
        client.impact("no-such-array")  # a deliberate 404 for the status axis
    except LineageServerError:
        pass
    return ids


def check_metrics(client):
    text = client.metrics_text()
    families = parse_prometheus_text(text)  # raises ValueError on bad format
    print(f"/metrics: {len(text)} bytes, {len(families)} families, format OK")

    missing = [name for name in REQUIRED if name not in families]
    if missing:
        print(f"FAIL: required metrics missing: {missing}")
        return False

    served = sample_value(
        families, "dslog_requests_total", {"wire": "http", "op": "query", "status": "200"}
    )
    not_found = sample_value(
        families, "dslog_requests_total", {"wire": "http", "op": "impact", "status": "404"}
    )
    queries = sample_value(families, "dslog_queries_total")
    hits = sample_value(families, "dslog_result_cache_hits_total")
    print(f"  /query 200s: {served:.0f}   impact 404s: {not_found:.0f}")
    print(f"  executor queries: {queries:.0f}   result-cache hits: {hits:.0f}")
    if not (served >= 3 and not_found >= 1 and queries >= 2 and hits >= 1):
        print("FAIL: counters do not reflect the traffic just driven")
        return False
    return True


def show_slowest_trace(client, ids):
    traces = client.traces()
    missing = set(ids) - {t["trace_id"] for t in traces}
    if missing:
        print(f"FAIL: requests that sent a trace id were not traced: {sorted(missing)}")
        return False
    slowest = max(traces, key=lambda t: t["duration_s"] or 0)
    print(
        f"slowest trace: {slowest['name']} {slowest['tags']} "
        f"{(slowest['duration_s'] or 0) * 1000:.2f} ms"
    )
    for span in slowest["spans"]:
        indent = "    " if span["parent_id"] else "  "
        ms = (span["duration_s"] or 0) * 1000
        print(f"{indent}{span['name']:<15} {ms:7.3f} ms  {span['tags']}")
    return True


def main():
    with tempfile.TemporaryDirectory() as tmp:
        log = DSLog(Path(tmp) / "db", num_shards=2)
        for name in CHAIN:
            log.define_array(name, SHAPE)
        for a, b in zip(CHAIN, CHAIN[1:]):
            log.add_lineage(a, b, relation=identity(a, b))

        server = LineageServer(log)
        server.start()
        try:
            client = LineageClient.connect(server.url)
            ids = drive_traffic(client)

            ok = check_metrics(client)
            ok = show_slowest_trace(client, ids) and ok

            print("\n--- python -m repro.tools.stats", server.url, "--grep dslog_request ---")
            ok = stats_cli.main([server.url, "--grep", "dslog_request"]) == 0 and ok
        finally:
            server.close()
            log.close()

    print("\nOK" if ok else "\nFAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
