"""The async ingest pipeline: tickets, group commit, backpressure, and the
multi-writer stress test of the acceptance criteria (≥ 8 concurrent writer
threads + concurrent readers, zero lost or duplicated entries, full
metadata fidelity after reopen)."""

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro import DSLog, IngestOverloaded, LineageService, faults
from repro.capture.analytic import elementwise_lineage
from repro.core.relation import LineageRelation
from repro.faults import FaultPlan
from repro.service import ServiceClosedError, pipeline
from repro.storage.manifest import load_manifest

SHAPE = (4,)
X_TO_Y = elementwise_lineage(SHAPE, in_name="x", out_name="y")


class TestTickets:
    def test_ticket_resolves_to_operation_record(self, tmp_path):
        with LineageService(tmp_path / "db", workers=2) as svc:
            svc.define_array("x", SHAPE)
            svc.define_array("y", SHAPE)
            ticket = svc.submit("op", ["x"], ["y"], relations={("x", "y"): X_TO_Y})
            record = ticket.result(timeout=10)
            assert record.op_name == "op"
            assert record.entries == [("x", "y")]
            assert ticket.done and not ticket.failed
            assert ticket.durable_latency is not None

    def test_durable_means_published(self, tmp_path):
        svc = LineageService(tmp_path / "db", workers=1, num_shards=2)
        svc.define_array("x", SHAPE)
        svc.define_array("y", SHAPE)
        svc.submit("op", ["x"], ["y"], relations={("x", "y"): X_TO_Y}).result(timeout=10)
        # the entry must be readable from disk *now*, before close()
        reopened = DSLog.load(tmp_path / "db")
        assert len(reopened.catalog) == 1
        assert reopened.prov_query(["x", "y"], [(1,)]).to_cells() == {(1,)}
        reopened.close()
        svc.close()

    def test_failed_operation_raises_from_result(self, tmp_path):
        with LineageService(tmp_path / "db", workers=1) as svc:
            svc.define_array("x", SHAPE)
            ticket = svc.submit("op", ["x"], ["missing"], relations={})
            with pytest.raises(KeyError, match="missing"):
                ticket.result(timeout=10)
            assert ticket.failed
            # the service keeps serving after a failed op
            svc.define_array("y", SHAPE)
            ok = svc.submit("op", ["x"], ["y"], relations={("x", "y"): X_TO_Y})
            assert ok.result(timeout=10).op_name == "op"

    def test_a_log_it_cannot_publish_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="memory log"):
            LineageService(log=DSLog())
        log = DSLog(tmp_path / "db")
        view = log.snapshot()
        with pytest.raises(ValueError, match="snapshot view"):
            LineageService(log=view)
        view.close()
        log.close()

    @pytest.mark.parametrize("extra", [{"root": "other-db"}, {"num_shards": 2}], ids=["root", "num_shards"])
    def test_a_log_comes_alone(self, tmp_path, extra):
        # the service opens no catalog when given one, so a root or shard
        # count beside it would be dropped without a word
        log = DSLog(tmp_path / "db", num_shards=1)
        with pytest.raises(ValueError, match="not both"):
            LineageService(log=log, **extra)
        log.close()

    def test_submit_after_close_raises(self, tmp_path):
        svc = LineageService(tmp_path / "db")
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit("op", ["x"], ["y"])

    def test_group_commit_batches_concurrent_writers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "COMMIT_INTERVAL_S", 0.02)
        with LineageService(tmp_path / "db", workers=4, num_shards=2) as svc:
            n = 24
            for i in range(n + 1):
                svc.define_array(f"a{i}", SHAPE)
            tickets = []

            def writer(lo, hi):
                for i in range(lo, hi):
                    tickets.append(
                        svc.submit(
                            f"op{i}",
                            [f"a{i}"],
                            [f"a{i+1}"],
                            relations={
                                (f"a{i}", f"a{i+1}"): elementwise_lineage(SHAPE, in_name=f"a{i}", out_name=f"a{i+1}")
                            },
                        )
                    )

            threads = [
                threading.Thread(target=writer, args=(k * 6, (k + 1) * 6)) for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            svc.flush(timeout=30)
            stats = svc.stats()
            assert stats["committed_ops"] == n
            # group commit must have amortized publishes: far fewer commits
            # than operations
            assert stats["commits"] < n
            assert stats["largest_commit"] >= 2

    def test_backpressure_bounded_queue(self, tmp_path, monkeypatch):
        # a queue of 1 with no room must raise the structured overload
        # error on a zero-ish timeout rather than growing without bound
        monkeypatch.setattr(pipeline, "QUEUE_SIZE", 1)
        with LineageService(tmp_path / "db", workers=1) as svc:
            svc.define_array("x", SHAPE)
            blocked = threading.Event()
            release = threading.Event()

            def slow_capture(cell):
                blocked.set()
                release.wait(10)
                return [cell]

            svc.define_array("slow", SHAPE)
            svc.submit("slow", ["x"], ["slow"], captures={("x", "slow"): slow_capture})
            assert blocked.wait(10)  # worker is busy inside the capture
            svc.define_array("y", SHAPE)
            svc.define_array("z", SHAPE)
            svc.submit("fill", ["x"], ["y"], relations={("x", "y"): X_TO_Y})
            with pytest.raises(IngestOverloaded) as excinfo:
                svc.submit(
                    "wont-fit",
                    ["x"],
                    ["z"],
                    relations={("x", "z"): elementwise_lineage(SHAPE, in_name="x", out_name="z")},
                    timeout=0.05,
                )
            assert excinfo.value.queue_depth >= 1
            assert svc.stats()["overloaded"] == 1
            release.set()
            svc.flush(timeout=30)

    def test_submit_lineage(self, tmp_path):
        with LineageService(tmp_path / "db") as svc:
            svc.define_array("x", SHAPE)
            svc.define_array("y", SHAPE)
            entry = svc.submit_lineage(
                "x", "y", relation=elementwise_lineage(SHAPE, in_name="x", out_name="y"), op_name="pairwise"
            ).result(timeout=10)
            assert entry.op_name == "pairwise"


class TestSubmitOrder:
    def test_writes_of_one_edge_apply_in_submit_order(self, tmp_path):
        # the first write stalls in its worker; the second, popped by the
        # other worker meanwhile, must still apply after it
        plan = FaultPlan().on("service.worker", kind="stall", at=1, seconds=0.5)
        log = DSLog(tmp_path / "db", num_shards=2, autosync=False, faults=plan)
        with LineageService(log=log, workers=2) as svc:
            svc.define_array("x", SHAPE)
            svc.define_array("y", SHAPE)
            plan.arm()
            first = svc.submit_lineage("x", "y", relation=X_TO_Y, replace=True)
            deadline = time.monotonic() + 10
            while not plan.fired() and time.monotonic() < deadline:
                time.sleep(0.001)
            assert plan.fired() == 1  # the first write is stalled in its worker
            one_row = LineageRelation.from_pairs([((0,), (1,))], SHAPE, SHAPE, in_name="x", out_name="y")
            second = svc.submit_lineage("x", "y", relation=one_row, replace=True)
            svc.flush(timeout=10)
            assert first.result().version == 1 and second.result().version == 2
            assert log.prov_query(["y", "x"], [(0,)]).to_cells() == {(1,)}

    def test_more_workers_than_cores_keep_each_edges_last_write(self, tmp_path):
        edges = [("x", "y"), ("y", "z"), ("x", "z")]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with LineageService(tmp_path / "db", workers=4, num_shards=2) as svc:
                for name in "xyz":
                    svc.define_array(name, SHAPE)
                for k in range(48):
                    a, b = edges[k % 3]
                    shift = LineageRelation.from_pairs(
                        [((i,), ((i + k) % 4,)) for i in range(4)], SHAPE, SHAPE, in_name=a, out_name=b
                    )
                    svc.submit_lineage(a, b, relation=shift, op_name=f"write-{k}", replace=True)
                svc.flush(timeout=30)
                for j, (a, b) in enumerate(edges):
                    last = 45 + j
                    assert svc.log.catalog.entry(a, b).op_name == f"write-{last}"
                    assert svc.log.prov_query([b, a], [(0,)]).to_cells() == {(last % 4,)}
        finally:
            sys.setswitchinterval(switch)


class TestCommitWindow:
    """The committer's window runs on ``faults.clock`` and only a flush in
    progress overrides it."""

    @staticmethod
    def define(svc, names="wxyz"):
        for name in names:
            svc.define_array(name, SHAPE)

    def test_a_frozen_clock_commits_only_when_asked(self, tmp_path, monkeypatch):
        monkeypatch.setattr(faults, "clock", lambda: 1000.0)
        svc = LineageService(tmp_path / "db", workers=1)
        self.define(svc)
        first = svc.submit_lineage("w", "x", relation=elementwise_lineage(SHAPE, in_name="w", out_name="x"))
        svc.flush(timeout=10)  # stamps the last commit at the frozen instant
        assert first.done and not first.failed
        ticket = svc.submit_lineage("x", "y", relation=elementwise_lineage(SHAPE, in_name="x", out_name="y"))
        assert not ticket.wait(0.2)  # twenty windows of wall time, none on the clock
        svc.flush(timeout=10)
        assert ticket.done and not ticket.failed
        last = svc.submit_lineage("y", "z", relation=elementwise_lineage(SHAPE, in_name="y", out_name="z"))
        assert not last.wait(0.1)
        svc.close()
        assert last.done and not last.failed

    def test_a_timed_out_flush_does_not_disable_the_window(self, tmp_path, monkeypatch):
        monkeypatch.setattr(faults, "clock", lambda: 1000.0)  # the window never ends
        plan = FaultPlan().on("service.commit", kind="stall", every=1, seconds=0.1)
        log = DSLog(tmp_path / "db", num_shards=2, autosync=False, faults=plan)
        with LineageService(log=log, workers=1) as svc:
            self.define(svc)
            # the first commit window is immediately due; burn it
            svc.submit_lineage("w", "x", relation=elementwise_lineage(SHAPE, in_name="w", out_name="x")).result(
                timeout=10
            )
            plan.arm()
            svc.submit_lineage("x", "y", relation=elementwise_lineage(SHAPE, in_name="x", out_name="y"))
            with pytest.raises(TimeoutError):
                svc.flush(timeout=0.05)  # the commit it asked for stalls
            plan.disarm()
            ticket = svc.submit_lineage("y", "z", relation=elementwise_lineage(SHAPE, in_name="y", out_name="z"))
            assert not ticket.wait(0.2)  # the window holds again
            svc.flush(timeout=10)
            assert ticket.done and not ticket.failed


class TestStress:
    """The acceptance stress test: 8 writers, concurrent readers, a
    mid-run compaction — zero lost or duplicated entries, and the reopened
    catalog reproduces every op name, operation record and reuse
    signature."""

    WRITERS = 8
    OPS_PER_WRITER = 12

    def test_concurrent_writers_and_readers(self, tmp_path, monkeypatch):
        total = self.WRITERS * self.OPS_PER_WRITER
        monkeypatch.setattr(pipeline, "QUEUE_SIZE", 64)  # writers meet backpressure
        svc = LineageService(tmp_path / "db", workers=4, num_shards=4)
        for w in range(self.WRITERS):
            for i in range(self.OPS_PER_WRITER + 1):
                svc.define_array(f"w{w}_a{i}", SHAPE)

        errors = []
        tickets = [[] for _ in range(self.WRITERS)]

        def writer(w):
            try:
                for i in range(self.OPS_PER_WRITER):
                    a, b = f"w{w}_a{i}", f"w{w}_a{i+1}"
                    data = np.arange(4) + w  # distinct content per writer
                    tickets[w].append(
                        svc.submit(
                            f"op_w{w}_{i}",
                            [a],
                            [b],
                            relations={(a, b): elementwise_lineage(SHAPE, in_name=a, out_name=b)},
                            input_data={a: data},
                            op_args={"writer": w, "step": i},
                        )
                    )
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        stop_readers = threading.Event()

        def reader():
            try:
                while not stop_readers.is_set():
                    snap = svc.snapshot()
                    try:
                        n = len(snap.catalog)
                        summary = snap.lineage_summary()
                        assert summary["entries"] == n  # consistent cut
                        if n:
                            entry = snap.catalog.entries()[0]
                            result = snap.prov_query(
                                [entry.out_name, entry.in_name], [(2,)]
                            )
                            assert result.to_cells() == {(2,)}
                    finally:
                        snap.close()
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        writer_threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(self.WRITERS)
        ]
        reader_threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in reader_threads:
            t.start()
        for t in writer_threads:
            t.start()
        for t in writer_threads:
            t.join()
        # compaction concurrent with the readers' pinned snapshots
        svc.compact(shard=1)
        svc.flush(timeout=60)
        stop_readers.set()
        for t in reader_threads:
            t.join()

        assert errors == []
        for per_writer in tickets:
            for ticket in per_writer:
                assert ticket.result(timeout=10) is not None

        stats = svc.stats()
        assert stats["submitted"] == total
        assert stats["failed"] == 0
        assert stats["committed_ops"] == total
        # what the concurrent publishes logged replays to the manifest in
        # memory, before close() checkpoints it
        for shard in svc.log.store.shards:
            assert load_manifest(shard.root).to_json() == json.loads(json.dumps(shard.manifest.to_json()))
        svc.close()

        # ---- zero lost / duplicated entries, full metadata fidelity ----
        reopened = DSLog.load(tmp_path / "db")
        assert len(reopened.catalog) == total  # no loss, and (pairs being
        # unique) any duplicate would have collapsed this count
        entries = reopened.catalog.entries()
        assert all(entry.version == 1 for entry in entries)  # no double ingest
        expected_ops = {
            f"op_w{w}_{i}"
            for w in range(self.WRITERS)
            for i in range(self.OPS_PER_WRITER)
        }
        assert {entry.op_name for entry in entries} == expected_ops
        records = reopened.catalog.operations
        assert len(records) == total
        assert {record.op_name for record in records} == expected_ops
        by_name = {record.op_name: record for record in records}
        for w in range(self.WRITERS):
            for i in range(self.OPS_PER_WRITER):
                record = by_name[f"op_w{w}_{i}"]
                assert record.entries == [(f"w{w}_a{i}", f"w{w}_a{i+1}")]
                assert record.op_args == {"writer": w, "step": i}
        # every op carried input_data, so every signature was observed
        assert reopened.reuse.stats()["base_entries"] == total
        # spot-check queries across several shards
        for w in (0, 3, 7):
            path = [f"w{w}_a0", f"w{w}_a{self.OPS_PER_WRITER}"]
            assert reopened.prov_query(path, [(1,)]).to_cells() == {(1,)}
        reopened.close()
