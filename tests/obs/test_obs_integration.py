"""Observability end to end: the /metrics and /debug/traces endpoints, the
unified /healthz snapshot, structured request logging and the
fault-injection log event.  What a request's trace and the counters must
say is stated once, by the stateful model (tests/integration/test_model.py)."""

import logging

import pytest

from repro import DSLog, LineageClient
from repro.capture.analytic import elementwise_lineage
from repro.faults import FaultPlan, InjectedFault
from repro.obs import tracing
from repro.obs.metrics import parse_prometheus_text, sample_value
from repro.service.server import LineageServer

SHAPE = (6, 6)
TRACE_ID = "4bf92f3577b34da6a3ce929d0e0e4736"  # a request that sends it is traced under it

# names the CI smoke and this test both require on the wire; one per
# instrumented subsystem (storage, ingest happens via service tests,
# serving, cache, breaker, faults)
REQUIRED_METRICS = (
    "dslog_segment_flushes_total",
    "dslog_segment_fsyncs_total",
    "dslog_table_cache_hits_total",
    "dslog_table_cache_bytes",
    "dslog_queries_total",
    "dslog_result_cache_misses_total",
    "dslog_breaker_transitions_total",
    "dslog_faults_injected_total",
    "dslog_requests_total",
    "dslog_request_seconds",
    "dslog_prefetch_seconds",
)


@pytest.fixture
def server(tmp_path):
    log = DSLog(tmp_path / "db", num_shards=2)
    for name in ("a", "b", "c"):
        log.define_array(name, SHAPE)
    log.add_lineage("a", "b", relation=elementwise_lineage(SHAPE, in_name="a", out_name="b"))
    log.add_lineage("b", "c", relation=elementwise_lineage(SHAPE, in_name="b", out_name="c"))
    server = LineageServer(log)
    server.start()
    yield server
    server.close()
    log.close()


@pytest.fixture
def client(server):
    return LineageClient.connect(server.url)


# ----------------------------------------------------------------------
# /metrics
# ----------------------------------------------------------------------
def test_metrics_endpoint_serves_valid_prometheus(client):
    # a request is metered before its reply is sent: no scrape can race it
    client.prov_query(["c", "a"], cells=[(1, 1)])
    text = client.metrics_text()
    families = parse_prometheus_text(text)  # raises on malformed text
    for name in REQUIRED_METRICS:
        assert name in families, f"{name} missing from /metrics"
    assert families["dslog_requests_total"]["type"] == "counter"
    assert families["dslog_request_seconds"]["type"] == "histogram"
    assert families["dslog_table_cache_bytes"]["type"] == "gauge"
    assert (
        sample_value(
            families,
            "dslog_requests_total",
            {"wire": "http", "op": "query", "status": "200"},
        )
        >= 1
    )


def test_metrics_content_type(server):
    import urllib.request

    with urllib.request.urlopen(server.url + "/metrics", timeout=5) as response:
        assert response.headers["Content-Type"].startswith("text/plain; version=0.0.4")


# ----------------------------------------------------------------------
# /debug/traces
# ----------------------------------------------------------------------
def test_traces_limit_param(client):
    tracing.clear_traces()
    for i in range(3):
        client.prov_query(["b", "a"], cells=[(i, i)], trace_id=f"{i + 1:032x}")
    assert len(client.traces()) == 3
    assert len(client.traces(limit=2)) == 2


# ----------------------------------------------------------------------
# /healthz agreement with /metrics
# ----------------------------------------------------------------------
def test_healthz_unified_snapshot(client):
    client.prov_query(["c", "a"], cells=[(1, 1)])
    health = client.healthz()
    # the storage section and the registry snapshot ride in one payload
    storage = health["storage"]
    assert "writes" in storage and "table_cache" in storage and "readers" in storage
    assert storage["writes"]["coalesced_records"] >= 1
    snapshot = health["metrics"]
    families = parse_prometheus_text(client.metrics_text())
    # both views read the same registry: spot-check an exact counter.
    # (/healthz was served before /metrics, so its own request may add
    # +1 between the two reads — allow only that skew on http counters)
    assert snapshot["dslog_queries_total"]["values"][""] == sample_value(
        families, "dslog_queries_total"
    )
    assert snapshot["dslog_manifest_publishes_total"]["values"][""] == sample_value(
        families, "dslog_manifest_publishes_total"
    )


# ----------------------------------------------------------------------
# structured request logging (the un-swallowed log_message)
# ----------------------------------------------------------------------
def test_request_log_event(client, caplog):
    def query_logs():
        return [
            getattr(r, "fields", {})
            for r in caplog.records
            if getattr(r, "event", None) == "request"
            and getattr(r, "fields", {}).get("op") == "query"
        ]

    with caplog.at_level(logging.INFO, logger="repro.obs"):
        client.prov_query(["b", "a"], cells=[(0, 0)], trace_id=TRACE_ID)
    requests = query_logs()  # logged before the reply was sent
    assert requests, "no structured request log event"
    entry = requests[-1]
    assert entry["wire"] == "http"
    assert entry["status"] == 200
    assert entry["ms"] >= 0
    assert entry["trace_id"] == TRACE_ID


def test_request_log_quiet_by_default(client, capfd):
    client.prov_query(["b", "a"], cells=[(0, 0)])
    captured = capfd.readouterr()
    assert '"event":"request"' not in captured.err
    assert "POST /query" not in captured.err  # no access-log line either


# ----------------------------------------------------------------------
# the fault_injected log event
# ----------------------------------------------------------------------
def test_fault_injection_emits_log_event(caplog):
    plan = FaultPlan().on("unit.site", at=1, times=1)
    plan.arm()
    with caplog.at_level(logging.WARNING, logger="repro.obs"):
        with pytest.raises(InjectedFault):
            plan.check("unit.site")
    events = [
        r.fields
        for r in caplog.records
        if getattr(r, "event", None) == "fault_injected"
    ]
    assert events and events[-1]["site"] == "unit.site"
    assert events[-1]["kind"] == "error"
