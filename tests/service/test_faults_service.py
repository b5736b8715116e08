"""The failure envelope of the service tier: injected worker/commit faults
fail tickets structurally, slow shards turn into deadline errors instead of
hangs, a faulting shard trips its circuit breaker and the executor keeps
answering from the stale cache flagged degraded, the breaker's half-open
probe heals the shard with a reopen-and-scrub, and the HTTP surface maps
all of it to structured status codes (504 deadline, 503 unavailable /
overloaded) plus the ``degraded`` response flag and ``/healthz`` breaker
states."""

import time

import numpy as np
import pytest

from repro import (
    DeadlineExceeded,
    DSLog,
    FaultPlan,
    InjectedFault,
    LineageService,
    QueryExecutor,
    ShardUnavailable,
)
from repro import faults
from repro.core.relation import LineageRelation
from repro.service.server import (
    LineageClient,
    LineageConnectionError,
    LineageServer,
    LineageServerError,
)
from repro.storage.segments import CorruptRecordError, record_overhead
from repro.storage.sharded import shard_index

SHAPE = (4,)
QUERY = [(1,)]
NUM_SHARDS = 2


def elementwise(in_name, out_name, shape=SHAPE):
    pairs = [(cell, cell) for cell in np.ndindex(*shape)]
    return LineageRelation.from_pairs(
        pairs, shape, shape, in_name=in_name, out_name=out_name
    )


def pair_for_shard(target, prefix="p"):
    """A (in, out) name pair whose home shard is *target*."""
    for i in range(10_000):
        a, b = f"{prefix}{i}_in", f"{prefix}{i}_out"
        if shard_index(a, b, NUM_SHARDS) == target:
            return a, b
    raise AssertionError("no pair found")


def add_pair(log, a, b):
    log.define_array(a, SHAPE)
    log.define_array(b, SHAPE)
    log.add_lineage(a, b, relation=elementwise(a, b))


def build_sharded(root, plan):
    """A sharded catalog with one entry homed on every shard."""
    log = DSLog(
        root, num_shards=NUM_SHARDS, autosync=False, faults=plan
    )
    pairs = {}
    for shard in range(NUM_SHARDS):
        a, b = pair_for_shard(shard, prefix=f"s{shard}x")
        add_pair(log, a, b)
        pairs[shard] = (a, b)
    log.sync()
    return log, pairs


def kill_shard_reads(log, plan, shard):
    """Arm the plan so every disk read of *shard* fails, and drop the
    shard's table cache so queries must actually hit the disk."""
    plan.on("segment.read", scope=f"shard-{shard:02d}", kind="error", every=1)
    plan.on("segment.mmap", scope=f"shard-{shard:02d}", kind="error", every=1)
    log.store.cache.clear(scope=f"shard-{shard:02d}")
    plan.arm()


class TestPipelineFaults:
    def test_worker_fault_fails_ticket_structurally(self, tmp_path):
        plan = FaultPlan().on("service.worker", at=1)
        log = DSLog(
            tmp_path / "db", num_shards=2, autosync=False, faults=plan
        )
        with LineageService(log=log, workers=1) as svc:
            svc.define_array("x", SHAPE)
            svc.define_array("y", SHAPE)
            plan.arm()
            ticket = svc.submit_lineage("x", "y", relation=elementwise("x", "y"))
            with pytest.raises(InjectedFault):
                ticket.result(timeout=10)
            assert ticket.failed
            plan.disarm()
            # the service keeps ingesting after the fault
            svc.define_array("z", SHAPE)
            entry = svc.submit_lineage("y", "z", relation=elementwise("y", "z")).result(
                timeout=10
            )
            assert entry is not None
        assert plan.fired("service.worker") == 1

    def test_ticket_result_deadline_is_structured(self, tmp_path):
        # a long commit window: the op applies but durability lags, so a
        # short result() wait must raise DeadlineExceeded (a TimeoutError)
        with LineageService(tmp_path / "db", workers=1, commit_interval=30.0) as svc:
            svc.define_array("x", SHAPE)
            svc.define_array("y", SHAPE)
            svc.define_array("w", SHAPE)
            # the first commit window is immediately due; burn it so the
            # ticket under test really waits out the 30s window
            svc.submit_lineage("w", "x", relation=elementwise("w", "x")).result(timeout=10)
            ticket = svc.submit_lineage("x", "y", relation=elementwise("x", "y"))
            with pytest.raises(DeadlineExceeded):
                ticket.result(timeout=0.05)
            assert isinstance(DeadlineExceeded("x"), TimeoutError)  # contract
            svc.flush(timeout=30)
            assert ticket.result(timeout=10) is not None

    def test_commit_fault_fails_the_whole_batch(self, tmp_path):
        plan = FaultPlan().on("service.commit", at=1)
        log = DSLog(
            tmp_path / "db", num_shards=2, autosync=False, faults=plan
        )
        with LineageService(log=log, workers=2, commit_interval=30.0) as svc:
            svc.define_array("x", SHAPE)
            svc.define_array("y", SHAPE)
            plan.arm()
            ticket = svc.submit_lineage("x", "y", relation=elementwise("x", "y"))
            svc.flush(timeout=30)
            plan.disarm()
            assert ticket.failed
            with pytest.raises(InjectedFault):
                ticket.result(timeout=1)


class TestExecutorDeadlines:
    def test_slow_shard_prefetch_is_a_deadline_not_a_hang(self, tmp_path):
        plan = FaultPlan()
        log, pairs = build_sharded(tmp_path / "db", plan)
        a, b = pairs[1]
        plan.on(
            "segment.read", scope="shard-01", kind="stall", every=1, seconds=0.5
        )
        log.store.cache.clear(scope="shard-01")
        plan.arm()
        with QueryExecutor(log, max_workers=2) as ex:
            start = time.monotonic()
            with pytest.raises(DeadlineExceeded) as excinfo:
                ex.query([a, b], QUERY, deadline=0.05)
            assert time.monotonic() - start < 0.5  # did not ride out the stall
            assert excinfo.value.shard == 1
            assert ex.stats()["deadline_misses"] == 1
        plan.disarm()
        log.close()


class TestBreakerDegradedServing:
    def test_trip_degrade_and_heal(self, tmp_path, monkeypatch):
        now = [1000.0]  # the breakers' clock, moved by hand
        monkeypatch.setattr(faults, "clock", lambda: now[0])
        plan = FaultPlan()
        log, pairs = build_sharded(tmp_path / "db", plan)
        home = 1
        a, b = pairs[home]
        other_a, other_b = pairs[0]
        ex = QueryExecutor(
            log, max_workers=2, breaker_failures=1, breaker_reset_after=0.2
        )
        try:
            fresh = ex.query([a, b], QUERY)
            assert not fresh.degraded
            expected = fresh.result.to_cells()

            # invalidate the cached result (re-ingest the queried pair:
            # same relation, so ``expected`` stands), then make that
            # shard's disk unreadable
            log.add_lineage(a, b, relation=elementwise(a, b), replace=True)
            log.sync()
            kill_shard_reads(log, plan, home)

            # first faulting query: breaker records the failure (threshold
            # 1 -> trips) and the stale cached answer is served degraded
            degraded = ex.query([a, b], QUERY)
            assert degraded.degraded and degraded.cached
            assert degraded.result.to_cells() == expected
            assert ex.breaker_stats()[home]["state"] == "open"

            # breaker open: the dead disk is not touched again, the stale
            # answer keeps flowing
            again = ex.query([a, b], QUERY)
            assert again.degraded
            assert ex.stats()["degraded_serves"] == 2

            # the healthy shard is unaffected
            ok = ex.query([other_a, other_b], QUERY)
            assert not ok.degraded

            # a query with no cached fallback refuses structurally
            e, f = pair_for_shard(home, prefix="fresh")
            add_pair(log, e, f)
            with pytest.raises(ShardUnavailable) as excinfo:
                ex.query([e, f], QUERY)
            assert excinfo.value.shard == home

            # heal the disk; after reset_after the half-open probe runs
            # reopen-with-scrub, closes the breaker and serves fresh again
            plan.disarm()
            now[0] += 0.25
            healed = ex.query([a, b], QUERY)
            assert not healed.degraded
            assert healed.result.to_cells() == expected
            assert ex.breaker_stats()[home]["state"] == "closed"
            assert ex.stats()["shard_reopens"] == 1
        finally:
            ex.close()
            log.close()


    def test_probe_that_drops_an_entry_forgets_it(self, tmp_path, monkeypatch):
        # an entry stores one table: when the half-open probe's repair
        # drops an entry whose record is corrupt, the live catalog forgets
        # it too, and the pair then answers as a missing one, not as a
        # shard fault forever
        now = [1000.0]
        monkeypatch.setattr(faults, "clock", lambda: now[0])
        log, pairs = build_sharded(tmp_path / "db", FaultPlan())
        a, b = pairs[1]
        entry = log.catalog.entry(a, b)
        shard_dir = tmp_path / "db" / "shard-01"
        record = shard_dir / entry.backward_ref.segment
        data = bytearray(record.read_bytes())
        data[entry.backward_ref.offset + record_overhead() + entry.backward_ref.length // 2] ^= 0xFF
        record.write_bytes(bytes(data))
        log.store.cache.clear(scope="shard-01")
        ex = QueryExecutor(log, max_workers=2, breaker_failures=1, breaker_reset_after=0.2)
        try:
            with pytest.raises(CorruptRecordError):
                ex.query([a, b], QUERY)
            assert ex.breaker_stats()[1]["state"] == "open"
            now[0] += 0.25  # the probe reopens and repairs the shard
            with pytest.raises(OSError):
                ex.query([a, b], QUERY)  # this query planned the entry first
            assert ex.stats()["shard_reopens"] == 1
            with pytest.raises(KeyError):
                log.catalog.entry(a, b)
            with pytest.raises(KeyError):
                ex.query([a, b], QUERY)
            c, d = pairs[0]
            assert ex.query([c, d], QUERY).result.to_cells() == {QUERY[0]}
        finally:
            ex.close()
            log.close()


class TestServerFaultSurface:
    def test_degraded_flag_healthz_and_admin_scrub(self, tmp_path):
        plan = FaultPlan()
        log, pairs = build_sharded(tmp_path / "db", plan)
        home = 1
        a, b = pairs[home]
        ex = QueryExecutor(
            log, max_workers=2, breaker_failures=1, breaker_reset_after=60.0
        )
        with LineageServer(log, executor=ex) as server:
            client = LineageClient(server.url, retries=0)
            first = client.prov_query([a, b], cells=QUERY)
            assert first["degraded"] is False

            # only a write to the queried pair itself invalidates its result
            log.add_lineage(a, b, relation=elementwise(a, b), replace=True)
            log.sync()
            kill_shard_reads(log, plan, home)

            served = client.prov_query([a, b], cells=QUERY)
            assert served["degraded"] is True and served["cached"] is True
            assert served["count"] == first["count"]

            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["breakers"][f"{home}"]["state"] == "open"

            # a never-cached query on the dead shard: structured 503
            e, f = pair_for_shard(home, prefix="fresh")
            add_pair(log, e, f)
            with pytest.raises(LineageServerError) as excinfo:
                client.prov_query([e, f], cells=QUERY)
            assert excinfo.value.status == 503
            assert excinfo.value.kind == "shard-unavailable"

            # the admin scrub endpoint answers once the fault is lifted
            plan.disarm()
            report = client.scrub(repair=False)
            assert set(report["shards"]) == {"0", "1"}
        ex.close()
        log.close()

    def test_slow_shard_maps_to_504(self, tmp_path):
        plan = FaultPlan()
        log, pairs = build_sharded(tmp_path / "db", plan)
        a, b = pairs[0]
        plan.on("segment.read", scope="shard-00", kind="stall", every=1, seconds=0.5)
        log.store.cache.clear(scope="shard-00")
        plan.arm()
        with LineageServer(log) as server:
            client = LineageClient(server.url, retries=0)
            with pytest.raises(LineageServerError) as excinfo:
                client.prov_query([a, b], cells=QUERY, deadline=0.05)
            assert excinfo.value.status == 504
            assert excinfo.value.kind == "deadline-exceeded"
        plan.disarm()
        log.close()

    def test_client_retry_budget_bounds_total_wait(self, tmp_path):
        # nothing listens on this port: every attempt fails fast, so the
        # retry budget (not the huge backoff) must bound the total wait
        client = LineageClient(
            "http://127.0.0.1:9", retries=8, backoff=30.0, retry_budget=0.1
        )
        start = time.monotonic()
        with pytest.raises(LineageConnectionError) as excinfo:
            client.healthz()
        assert time.monotonic() - start < 5.0
        assert "retry budget" in str(excinfo.value)
        assert client.retries_used >= 1
