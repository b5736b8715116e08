"""The failure envelope of the service tier: injected worker/commit faults
fail tickets structurally, slow shards turn into deadline errors instead of
hangs, and the HTTP surface maps them to structured status codes (504
deadline, 503 unavailable / overloaded) plus the ``degraded`` response
flag and ``/healthz`` breaker states.  How a faulting shard trips its
breaker, serves stale answers flagged degraded and heals through the
half-open probe is a rule of the stateful model
(``tests/integration/test_model.py``)."""

import errno
import time

import pytest

from repro import (
    DeadlineExceeded,
    DSLog,
    FaultPlan,
    InjectedFault,
    LineageService,
    QueryExecutor,
)
from repro import faults
from repro.capture.analytic import elementwise_lineage
from repro.service.server import (
    LineageClient,
    LineageConnectionError,
    LineageServer,
    LineageServerError,
)
from repro.storage.sharded import shard_index

SHAPE = (4,)
QUERY = [(1,)]
NUM_SHARDS = 2


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
    log.add_lineage(a, b, relation=elementwise_lineage(SHAPE, in_name=a, out_name=b))


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
            ticket = svc.submit_lineage("x", "y", relation=elementwise_lineage(SHAPE, in_name="x", out_name="y"))
            with pytest.raises(InjectedFault):
                ticket.result(timeout=10)
            assert ticket.failed
            plan.disarm()
            # the service keeps ingesting after the fault
            svc.define_array("z", SHAPE)
            entry = svc.submit_lineage("y", "z", relation=elementwise_lineage(SHAPE, in_name="y", out_name="z")).result(
                timeout=10
            )
            assert entry is not None
        assert plan.fired("service.worker") == 1

    def test_ticket_result_deadline_is_structured(self, tmp_path, monkeypatch):
        # a frozen clock never ends the commit window: the op applies but
        # durability lags, so a short result() wait must raise
        # DeadlineExceeded (a TimeoutError)
        monkeypatch.setattr(faults, "clock", lambda: 1000.0)
        with LineageService(tmp_path / "db", workers=1) as svc:
            svc.define_array("x", SHAPE)
            svc.define_array("y", SHAPE)
            svc.define_array("w", SHAPE)
            # the first commit window is immediately due; burn it so the
            # ticket under test really waits on the window
            svc.submit_lineage("w", "x", relation=elementwise_lineage(SHAPE, in_name="w", out_name="x")).result(
                timeout=10
            )
            ticket = svc.submit_lineage("x", "y", relation=elementwise_lineage(SHAPE, in_name="x", out_name="y"))
            with pytest.raises(DeadlineExceeded):
                ticket.result(timeout=0.05)
            assert isinstance(DeadlineExceeded("x"), TimeoutError)  # contract
            svc.flush(timeout=30)
            assert ticket.result(timeout=10) is not None

    def test_a_ticket_whose_bytes_a_reopen_dropped_is_not_acknowledged(self, tmp_path, monkeypatch):
        """A recovery probe on a failing disk drops the shard's buffered
        records, the ticket's among them: the commit after the disk heals
        fails it with the torn-write ``EIO`` instead of acknowledging it."""
        monkeypatch.setattr(faults, "clock", lambda: 1000.0)  # commit on flush only
        plan = FaultPlan().on("segment.write", times=None)
        log = DSLog(tmp_path / "db", num_shards=1, autosync=False, faults=plan)
        with LineageService(log=log, workers=1) as svc:
            for name in "wxy":
                svc.define_array(name, SHAPE)
            # the first commit window is immediately due; burn it
            svc.submit_lineage("w", "x", relation=elementwise_lineage(SHAPE, in_name="w", out_name="x")).result(
                timeout=10
            )
            ticket = svc.submit_lineage("x", "y", relation=elementwise_lineage(SHAPE, in_name="x", out_name="y"))
            svc._queue.join()  # applied, not yet committed
            plan.arm()
            with pytest.raises(OSError):
                log.store.reopen_shard(0)
            plan.disarm()
            svc.flush(timeout=10)
            with pytest.raises(OSError, match="torn segment write") as raised:
                ticket.result(timeout=1)
            assert raised.value.errno == errno.EIO

    def test_commit_fault_fails_the_whole_batch(self, tmp_path, monkeypatch):
        monkeypatch.setattr(faults, "clock", lambda: 1000.0)  # commit on flush only
        plan = FaultPlan().on("service.commit", at=1)
        log = DSLog(
            tmp_path / "db", num_shards=2, autosync=False, faults=plan
        )
        with LineageService(log=log, workers=2) as svc:
            svc.define_array("x", SHAPE)
            svc.define_array("y", SHAPE)
            plan.arm()
            ticket = svc.submit_lineage("x", "y", relation=elementwise_lineage(SHAPE, in_name="x", out_name="y"))
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
        with QueryExecutor(log) as ex:
            start = time.monotonic()
            with pytest.raises(DeadlineExceeded) as excinfo:
                ex.query([a, b], QUERY, deadline=0.05)
            assert time.monotonic() - start < 0.5  # did not ride out the stall
            assert excinfo.value.shard == 1
            assert ex.stats()["deadline_misses"] == 1
        plan.disarm()
        log.close()


class TestServerFaultSurface:
    def test_degraded_flag_healthz_and_admin_scrub(self, tmp_path):
        plan = FaultPlan()
        log, pairs = build_sharded(tmp_path / "db", plan)
        home = 1
        a, b = pairs[home]
        with LineageServer(log) as server:
            client = LineageClient(server.url, retries=0)
            first = client.prov_query([a, b], cells=QUERY)
            assert first["degraded"] is False

            # only a write to the queried pair itself invalidates its result
            log.add_lineage(a, b, relation=elementwise_lineage(SHAPE, in_name=a, out_name=b), replace=True)
            log.sync()
            kill_shard_reads(log, plan, home)

            for _ in range(3):  # the breaker trips on its third consecutive fault
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
