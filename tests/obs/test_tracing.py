"""Tracing: span nesting (including across executor thread pools via
contextvars propagation), the bounded ring, the noop fast path when no
trace is active, and the slow-trace log hook."""

import json
import logging
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import tracing
from repro.obs.tracing import (
    Trace,
    clear_traces,
    current_trace,
    recent_traces,
    span,
    start_trace,
    wrap_context,
)


@pytest.fixture(autouse=True)
def clean_ring():
    clear_traces()
    yield
    clear_traces()
    # start_trace() pins the trace in this thread's context until the
    # caller replaces it; drop it so tests stay independent
    tracing._CURRENT.set(None)


def _by_name(trace_dict):
    return {s["name"]: s for s in trace_dict["spans"]}


def test_trace_ids_are_16_hex_digits_and_unique():
    ids = [Trace("t").trace_id for _ in range(10_000)]
    assert len(set(ids)) == len(ids)
    assert all(len(trace_id) == 16 and int(trace_id, 16) >= 0 for trace_id in ids)


def test_span_nesting_parent_ids():
    trace = Trace("t")
    with trace.activate():
        with trace.span("outer") as outer:
            with trace.span("inner") as inner:
                with trace.span("leaf"):
                    pass
    spans = _by_name(trace.as_dict())
    assert spans["outer"]["parent_id"] is None
    assert spans["inner"]["parent_id"] == outer.span_id
    assert spans["leaf"]["parent_id"] == inner.span_id
    assert all(s["duration_s"] >= 0 for s in spans.values())


def test_module_span_requires_active_trace():
    # no trace: module-level span() is a noop and records nothing
    with span("orphan") as sp:
        sp.set_tag("ignored", 1)
    trace = start_trace("t")
    try:
        with span("attached"):
            pass
    finally:
        trace.finish()
    assert [s["name"] for s in trace.as_dict()["spans"]] == ["attached"]


def test_nesting_across_thread_pool():
    """Spans opened in pool threads via wrap_context() must attach under
    the submitting span, exactly like the query executor's fan-out."""
    trace = Trace("t")
    with trace.activate():
        with trace.span("fanout") as fanout:

            def load(shard):
                with span("prefetch-shard", shard=shard):
                    return shard

            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(wrap_context(load), i) for i in range(4)]
                assert sorted(f.result() for f in futures) == [0, 1, 2, 3]
    spans = trace.as_dict()["spans"]
    children = [s for s in spans if s["name"] == "prefetch-shard"]
    assert len(children) == 4
    assert {s["parent_id"] for s in children} == {fanout.span_id}
    assert sorted(s["tags"]["shard"] for s in children) == [0, 1, 2, 3]


def test_pool_thread_without_wrap_has_no_trace():
    trace = Trace("t")
    with trace.activate():
        with ThreadPoolExecutor(max_workers=1) as pool:
            assert pool.submit(current_trace).result() is None
        assert current_trace() is trace


def test_add_span_from_other_thread():
    """Post-hoc spans (pipeline tickets timed by the committer thread)."""
    trace = Trace("ingest")

    def committer():
        trace.add_span("commit", 0.025, batch=3)

    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(committer).result()
    (sp,) = trace.as_dict()["spans"]
    assert sp["name"] == "commit"
    assert sp["duration_s"] == pytest.approx(0.025)
    assert sp["tags"]["batch"] == 3


def test_finish_pushes_to_ring_once():
    trace = Trace("t", kind="x")
    trace.finish()
    trace.finish()  # idempotent
    traces = recent_traces()
    assert len(traces) == 1
    assert traces[0]["trace_id"] == trace.trace_id
    assert traces[0]["tags"] == {"kind": "x"}
    assert traces[0]["duration_s"] >= 0


def test_ring_is_bounded_and_newest_first(monkeypatch):
    monkeypatch.setattr(tracing, "_ring", deque(maxlen=4))
    ids = []
    for i in range(8):
        t = Trace("t", seq=i)
        ids.append(t.trace_id)
        t.finish()
    traces = recent_traces()
    assert len(traces) == 4
    assert [t["trace_id"] for t in traces] == ids[-1:-5:-1]
    assert [t["trace_id"] for t in recent_traces(limit=2)] == ids[-1:-3:-1]


def test_start_trace_none_when_disabled():
    tracing.set_enabled(False)
    try:
        assert start_trace("t") is None
        assert current_trace() is None
    finally:
        tracing.set_enabled(True)


def test_slow_trace_emits_log_event(caplog, monkeypatch):
    monkeypatch.setattr(tracing, "SLOW_S", 0.0)  # every trace is slow
    with caplog.at_level(logging.INFO, logger="repro.obs"):
        Trace("slowpoke").finish()
    events = [r for r in caplog.records if getattr(r, "fields", {}).get("trace_name") == "slowpoke"]
    assert len(events) == 1
    assert events[0].getMessage() == "slow_trace"


def test_trace_payload_is_json_serializable():
    trace = Trace("t")
    with trace.activate(), trace.span("s", shard=1):
        pass
    json.dumps(trace.finish())
