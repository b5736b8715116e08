"""Observability end to end: the /metrics and /debug/traces endpoints, the
unified /healthz snapshot, structured request logging, and the
fault-injection accounting invariant (observed == planned)."""

import logging

import pytest

from repro import DSLog, LineageClient
from repro.core.relation import LineageRelation
from repro.faults import FaultPlan, InjectedFault
from repro.obs import REGISTRY, tracing
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


def identity(in_name, out_name):
    pairs = [((i, j), (i, j)) for i in range(SHAPE[0]) for j in range(SHAPE[1])]
    return LineageRelation.from_pairs(
        pairs, SHAPE, SHAPE, in_name=in_name, out_name=out_name
    )


@pytest.fixture
def server(tmp_path):
    log = DSLog(tmp_path / "db", num_shards=2)
    for name in ("a", "b", "c"):
        log.define_array(name, SHAPE)
    log.add_lineage("a", "b", relation=identity("a", "b"))
    log.add_lineage("b", "c", relation=identity("b", "c"))
    server = LineageServer(log)
    server.start()
    yield server
    server.close()
    log.close()


@pytest.fixture
def client(server):
    return LineageClient.connect(server.url)


def _counter_value(name, **labels):
    metric = REGISTRY.get(name)
    if metric is None:
        return 0.0
    return (metric.labels(**labels) if labels else metric).value


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


def test_http_error_statuses_are_metered(client):
    labels = {"wire": "http", "op": "impact", "status": "404"}
    before = _counter_value("dslog_requests_total", **labels)
    with pytest.raises(Exception):
        client.impact("no-such-array")
    after = _counter_value("dslog_requests_total", **labels)
    assert after == before + 1


# ----------------------------------------------------------------------
# /debug/traces
# ----------------------------------------------------------------------
def _query_traces(client):
    """The ``/query`` traces in the ring: a request's trace is finished
    before its reply is sent."""
    return [
        t
        for t in client.traces()
        if t["name"] == "request" and {"wire": "http", "op": "query"}.items() <= t["tags"].items()
    ]


def test_query_produces_full_trace(client):
    tracing.clear_traces()
    client.prov_query(["c", "a"], cells=[(2, 3)], trace_id=TRACE_ID)
    http_traces = _query_traces(client)
    assert http_traces, "no /query trace reached the ring"
    trace = http_traces[0]
    assert trace["trace_id"] == TRACE_ID
    assert trace["tags"]["status"] == 200
    assert trace["tags"]["cache"] == "miss"
    assert trace["duration_s"] > 0
    names = [s["name"] for s in trace["spans"]]
    for required in ("plan", "prefetch", "prefetch-shard", "join", "cache-install"):
        assert required in names, f"{required} missing from {names}"
    # prefetch-shard spans nest under the prefetch span and carry the shard
    spans = {s["span_id"]: s for s in trace["spans"]}
    for shard_span in (s for s in trace["spans"] if s["name"] == "prefetch-shard"):
        assert spans[shard_span["parent_id"]]["name"] == "prefetch"
        assert "shard" in shard_span["tags"]


def test_cached_query_trace_tags_hit(client):
    client.prov_query(["c", "a"], cells=[(2, 3)])
    tracing.clear_traces()
    client.prov_query(["c", "a"], cells=[(2, 3)], trace_id=TRACE_ID)
    (trace,) = _query_traces(client)
    assert trace["tags"]["cache"] == "hit"


def test_traces_limit_param(client):
    tracing.clear_traces()
    for i in range(3):
        client.prov_query(["b", "a"], cells=[(i, i)], trace_id=f"{i + 1:032x}")
    assert len(client.traces()) == 3
    assert len(client.traces(limit=2)) == 2


def test_ingest_ticket_traces(tmp_path):
    from repro.service import LineageService

    tracing.clear_traces()
    with LineageService(tmp_path / "svc", num_shards=2) as service:
        for name in ("x", "y"):
            service.define_array(name, SHAPE)
        ticket = service.submit_lineage("x", "y", relation=identity("x", "y"))
        ticket.wait()
    ingest = [t for t in tracing.recent_traces() if t["name"] == "ingest"]
    assert ingest, "no ingest trace recorded"
    trace = ingest[0]
    assert trace["tags"]["outcome"] == "durable"
    names = [s["name"] for s in trace["spans"]]
    assert names == ["queued", "apply", "commit"]


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
# fault accounting: observed == planned
# ----------------------------------------------------------------------
def test_faults_injected_metric_matches_plan(tmp_path):
    plan = FaultPlan().on("segment.fsync", every=2)
    before = _counter_value("dslog_faults_injected_total", site="segment.fsync", kind="error")
    log = DSLog(tmp_path / "db", num_shards=1, faults=plan, autosync=False)
    log.define_array("a", SHAPE)
    log.define_array("b", SHAPE)
    log.add_lineage("a", "b", relation=identity("a", "b"))
    plan.arm()
    failures = 0
    for _ in range(6):
        # a sync only publishes dirty shards: re-ingest so each one fsyncs
        log.add_lineage("a", "b", relation=identity("a", "b"), replace=True)
        try:
            log.sync()
        except (InjectedFault, OSError):
            failures += 1
    plan.disarm()
    log.close()
    after = _counter_value("dslog_faults_injected_total", site="segment.fsync", kind="error")
    assert failures > 0
    assert after - before == plan.fired()


def test_short_write_faults_are_counted_once(tmp_path):
    """short_write rules fire through plan.short_write(), not check();
    the metric must still agree with plan.fired()."""
    plan = FaultPlan().on("segment.write", kind="short_write", at=1, times=1)
    before = _counter_value(
        "dslog_faults_injected_total", site="segment.write", kind="short_write"
    )
    log = DSLog(tmp_path / "db", num_shards=1, faults=plan, autosync=False)
    log.define_array("a", SHAPE)
    log.define_array("b", SHAPE)
    plan.arm()
    try:
        log.add_lineage("a", "b", relation=identity("a", "b"))
        log.sync()
    except (InjectedFault, OSError):
        pass
    plan.disarm()
    log.close()
    after = _counter_value(
        "dslog_faults_injected_total", site="segment.write", kind="short_write"
    )
    assert plan.fired() == 1
    assert after - before == 1


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


def test_breaker_transitions_metered(tmp_path):
    from repro.faults import CircuitBreaker

    before_open = _counter_value(
        "dslog_breaker_transitions_total", scope="unit-breaker", to="open"
    )
    breaker = CircuitBreaker(failures=2, reset_after=0.01, scope="unit-breaker")
    breaker.record_failure()
    breaker.record_failure()  # trips
    after_open = _counter_value(
        "dslog_breaker_transitions_total", scope="unit-breaker", to="open"
    )
    assert after_open == before_open + 1
