"""Crash-injection tests for manifest atomicity and segment recovery.

Simulates the two crash windows of the durability protocol:

* a **torn temp-file write** — the process died while writing
  ``MANIFEST.json.tmp``, before the atomic rename: reopening must see the
  last *published* generation, with the partial temp file ignored;
* a **dangling segment tail** — the process died mid-append, after the
  manifest was published: the published records must stay readable, the
  torn tail bytes inert (no later write touches that file: new appends go
  to a fresh segment), and compaction must reclaim them.
"""

import json

import pytest

from repro import DSLog, FaultPlan, LineageService
from repro.capture.analytic import elementwise_lineage
from repro.storage.manifest import MANIFEST_NAME, load_manifest
from repro.storage.segments import (
    SEGMENT_HEADER_SIZE,
    SegmentWriter,
    read_record,
    scan_segment,
    walk_records,
)

SHAPE = (4,)
STORE = "shard-00"


def build(root, n, num_shards=1, **kwargs):
    """A chain of *n* entries; with one shard the whole store is the
    ``shard-00`` directory (``STORE``)."""
    log = DSLog(root, num_shards=num_shards, autosync=False, **kwargs)
    names = [f"A{i}" for i in range(n + 1)]
    for name in names:
        log.define_array(name, SHAPE)
    for a, b in zip(names, names[1:]):
        log.add_lineage(a, b, relation=elementwise_lineage(SHAPE, in_name=a, out_name=b), op_name=f"op_{a}")
    log.close()
    return names


class TestTornManifestTemp:
    def test_partial_temp_write_recovers_to_published_generation(self, tmp_path):
        root = tmp_path / "db"
        names = build(root, 5)
        published = load_manifest(root / STORE).generation

        # crash mid-write of the next manifest: a torn, non-JSON temp file
        (root / STORE / "MANIFEST.json.tmp").write_bytes(b'{"format": "dslog-seg')

        reopened = DSLog.load(root, autosync=False)
        assert reopened.store.meta.manifest.generation == published
        assert len(reopened.catalog) == 5
        assert reopened.prov_query([names[0], names[2]], [(1,)]).to_cells() == {(1,)}
        # the recovered store keeps publishing cleanly past the torn temp
        reopened.define_array("B", SHAPE)
        reopened.add_lineage(names[5], "B", relation=elementwise_lineage(SHAPE, in_name=names[5], out_name="B"))
        reopened.sync()
        assert load_manifest(root / STORE).generation == published + 1
        reopened.close()

    def test_temp_never_mistaken_for_manifest(self, tmp_path):
        root = tmp_path / "db"
        build(root, 2)
        manifest_before = (root / STORE / MANIFEST_NAME).read_text()
        # even a *valid-looking* temp with a higher generation must be ignored
        fake = json.loads(manifest_before)
        fake["generation"] = 999
        (root / STORE / "MANIFEST.json.tmp").write_text(json.dumps(fake))
        reopened = DSLog.load(root)
        assert reopened.store.meta.manifest.generation == json.loads(manifest_before)["generation"]
        reopened.close()

    def test_sharded_one_shard_torn(self, tmp_path):
        root = tmp_path / "db"
        names = build(root, 6, num_shards=3)
        generations = [load_manifest(root / f"shard-{i:02d}").generation for i in range(3)]
        (root / "shard-01" / "MANIFEST.json.tmp").write_bytes(b"\x00garbage")
        reopened = DSLog.load(root)
        assert list(reopened.store.generation_vector()) == generations
        assert len(reopened.catalog) == 6
        assert reopened.prov_query([names[0], names[3]], [(2,)]).to_cells() == {(2,)}
        reopened.close()


class TestDanglingSegmentTail:
    def _torn_append(self, segment_path):
        """Append a record prefix promising more bytes than follow."""
        with open(segment_path, "ab") as fh:
            fh.write((5000).to_bytes(4, "little"))
            fh.write(b"only-a-few-bytes")

    def test_reopen_recovers_and_new_appends_land_in_a_fresh_segment(self, tmp_path):
        root = tmp_path / "db"
        names = build(root, 4)
        manifest = load_manifest(root / STORE)
        segment = root / STORE / manifest.segments[-1]
        complete = scan_segment(segment)["valid_prefix"]
        self._torn_append(segment)
        assert scan_segment(segment)["valid_prefix"] == complete  # tail is not a record
        with_tail = segment.read_bytes()
        assert len(with_tail) > complete

        reopened = DSLog.load(root)
        assert reopened.store.meta.manifest.generation == manifest.generation
        assert len(reopened.catalog) == 4
        # every published record still readable
        assert reopened.catalog.materialize_all() == 4
        # new ingest goes to a fresh segment, remains readable, and leaves
        # the old file and its tail untouched
        reopened.define_array("B", SHAPE)
        reopened.add_lineage(names[4], "B", relation=elementwise_lineage(SHAPE, in_name=names[4], out_name="B"))
        reopened.sync()
        entry = reopened.catalog.entry(names[4], "B")
        assert entry.backward_ref.segment not in manifest.segments
        assert segment.read_bytes() == with_tail
        reopened.close()
        assert segment.read_bytes() == with_tail

        again = DSLog.load(root)
        assert len(again.catalog) == 5
        assert again.prov_query([names[4], "B"], [(3,)]).to_cells() == {(3,)}
        again.close()

    def test_compact_reclaims_the_tail(self, tmp_path):
        root = tmp_path / "db"
        build(root, 4)
        manifest = load_manifest(root / STORE)
        segment = root / STORE / manifest.segments[-1]
        self._torn_append(segment)
        tail_bytes = scan_segment(segment)["tail_bytes"]
        assert tail_bytes > 0

        log = DSLog.load(root)
        stats = log.compact()[0]
        assert stats["reclaimed_bytes"] >= tail_bytes
        for name in log.store.meta.manifest.segments:
            path = root / STORE / name
            assert scan_segment(path)["tail_bytes"] == 0  # no tails left
        assert len(log.catalog) == 4
        log.close()

    def test_unreferenced_segment_dropped_on_reopen(self, tmp_path):
        """A crash between writing a fresh segment and publishing the
        manifest leaves a whole orphan file; reopening removes it."""
        root = tmp_path / "db"
        build(root, 3)
        orphan = root / STORE / "segment-000099.seg"
        orphan.write_bytes(b"DSEG" + (1).to_bytes(2, "little") + b"leftover")
        reopened = DSLog.load(root)
        assert not orphan.exists()
        assert len(reopened.catalog) == 3
        reopened.close()

    def test_walk_records_stops_at_tail(self, tmp_path):
        root = tmp_path / "db"
        build(root, 3)
        manifest = load_manifest(root / STORE)
        segment = root / STORE / manifest.segments[-1]
        records_before = list(walk_records(segment, 0))
        self._torn_append(segment)
        assert list(walk_records(segment, 0)) == records_before
        assert records_before[0][0] == SEGMENT_HEADER_SIZE

    def test_sharded_tail_in_one_shard(self, tmp_path):
        root = tmp_path / "db"
        names = build(root, 8, num_shards=2)
        shard_dir = root / "shard-01"
        manifest = load_manifest(shard_dir)
        assert manifest.segments, "expected entries hashed to shard 1"
        self._torn_append(shard_dir / manifest.segments[-1])
        reopened = DSLog.load(root)
        assert len(reopened.catalog) == 8
        assert reopened.catalog.materialize_all() == 8
        assert reopened.prov_query([names[0], names[4]], [(1,)]).to_cells() == {(1,)}
        reopened.close()


class TestTornWriteOffsetStability:
    def test_short_write_never_reassigns_promised_offsets(self, tmp_path):
        """An append's offset is a promise manifest rows may already hold:
        after a torn flush the writer refuses appends, so no later record
        can take the dropped region; the store's next record lands in a
        fresh segment and the torn ref reads as truncated."""
        path = tmp_path / "segment-000001.seg"
        plan = FaultPlan().on("segment.write", kind="short_write", at=1, times=1)
        writer = SegmentWriter(path, faults=plan)
        plan.arm()
        off_a, _len_a = writer.append(b"a" * 100)
        with pytest.raises(OSError):
            writer.flush_pending()
        assert writer.torn_writes == 1
        with pytest.raises(OSError, match="takes no more records"):
            writer.append(b"b" * 64)
        writer.close()
        with pytest.raises(ValueError, match="truncated"):
            read_record(path, off_a, 100)

        plan = FaultPlan().on("segment.write", kind="short_write", at=1, times=1, fraction=0.1)
        log = DSLog(tmp_path / "db", num_shards=1, autosync=False, faults=plan)
        for name in ("A", "B", "C"):
            log.define_array(name, SHAPE)
        log.sync()
        plan.arm()
        log.add_lineage("A", "B", relation=elementwise_lineage(SHAPE, in_name="A", out_name="B"))
        with pytest.raises(OSError):
            log.sync()
        torn = log.catalog.entry("A", "B").backward_ref
        log.add_lineage("B", "C", relation=elementwise_lineage(SHAPE, in_name="B", out_name="C"))
        log.sync()
        ref = log.catalog.entry("B", "C").backward_ref
        assert ref.segment != torn.segment
        assert log.prov_query(["B", "C"], [(2,)]).to_cells() == {(2,)}
        found = log.scrub()["shards"][0]["corrupt_records"]
        assert {(tuple(r["pair"]), r["class"]) for r in found} == {(("A", "B"), "truncated")}
        log.close()


class TestDroppedWriter:
    def test_a_dropped_batch_is_torn_and_its_offsets_never_reused(self, tmp_path):
        """A recovery probe on a failing disk drops the writer's buffered
        records: that is a torn write, and the next record goes to a fresh
        segment, so the dropped entry's ref dangles instead of naming the
        next entry's table."""
        plan = FaultPlan().on("segment.write", times=None)  # a dead disk
        log = DSLog(tmp_path / "db", num_shards=1, autosync=False, faults=plan)
        for name in ("A", "B", "C", "D"):
            log.define_array(name, SHAPE)
        log.add_lineage("A", "B", relation=elementwise_lineage(SHAPE, in_name="A", out_name="B"))
        log.sync()
        shard = log.store.shards[0]
        epoch = shard.torn_epoch()
        plan.arm()
        log.add_lineage("B", "C", relation=elementwise_lineage(SHAPE, in_name="B", out_name="C"))
        with pytest.raises(OSError):
            log.sync()
        with pytest.raises(OSError):
            log.store.reopen_shard(0)
        plan.disarm()
        log.add_lineage("C", "D", relation=elementwise_lineage(SHAPE, in_name="C", out_name="D"))
        log.sync()
        dropped, fresh = (log.catalog.entry(*pair).backward_ref for pair in (("B", "C"), ("C", "D")))
        assert fresh.segment not in (dropped.segment, log.catalog.entry("A", "B").backward_ref.segment)
        assert shard.torn_epoch() > epoch
        assert log.prov_query(["C", "D"], [(1,)]).to_cells() == {(1,)}
        found = log.scrub()["shards"][0]["corrupt_records"]
        assert {(tuple(r["pair"]), r["class"]) for r in found} == {(("B", "C"), "truncated")}
        log.close()

    def test_a_dropped_writer_with_unsynced_bytes_is_torn(self, tmp_path):
        """A writer dropped after its batch reached the OS but failed its
        fsync: no later fsync covers those bytes (the next publish writes a
        fresh segment), so they count as lost and the torn epoch moves."""
        plan = FaultPlan().on("segment.fsync", times=None)
        log = DSLog(tmp_path / "db", num_shards=1, autosync=False, faults=plan)
        for name in ("A", "B", "C", "D"):
            log.define_array(name, SHAPE)
        log.add_lineage("A", "B", relation=elementwise_lineage(SHAPE, in_name="A", out_name="B"))
        log.sync()
        shard = log.store.shards[0]
        epoch = shard.torn_epoch()
        plan.arm()
        log.add_lineage("B", "C", relation=elementwise_lineage(SHAPE, in_name="B", out_name="C"))
        with pytest.raises(OSError):
            log.sync()
        assert shard._writer.pending_bytes == 0  # the batch is in the OS, not on disk
        assert shard.torn_epoch() == epoch
        log.store.reopen_shard(0)
        plan.disarm()
        assert shard.torn_epoch() > epoch
        log.add_lineage("C", "D", relation=elementwise_lineage(SHAPE, in_name="C", out_name="D"))
        log.sync()
        dropped, fresh = (log.catalog.entry(*pair).backward_ref for pair in (("B", "C"), ("C", "D")))
        assert fresh.segment != dropped.segment
        log.close()


class TestGroupCommitFaults:
    """The group-commit crash matrix: an fsync fault mid-batch must be
    all-or-nothing at the ticket level — no ticket may resolve durable
    whose record is missing after a cold reopen."""

    def _run_service(self, root, plan, n=12, flush_after=None):
        """Submit *n* tickets; with *flush_after*, flush after that many so
        the tickets span at least two group commits whatever the timing."""
        log = DSLog(root, num_shards=2, autosync=False, faults=plan)
        svc = LineageService(log=log, workers=2)
        names = [f"A{i}" for i in range(n + 1)]
        for name in names:
            svc.define_array(name, SHAPE)
        plan.arm()
        tickets = []
        for a, b in zip(names, names[1:]):
            if len(tickets) == flush_after:
                svc.flush(timeout=60)
            tickets.append(
                svc.submit_lineage(a, b, relation=elementwise_lineage(SHAPE, in_name=a, out_name=b), op_name=f"op_{a}")
            )
        svc.flush(timeout=60)
        plan.disarm()
        svc.close()
        return tickets

    def _assert_durable_tickets_survive_reopen(self, root, tickets):
        reopened = DSLog.load(root)
        present = {(e.in_name, e.out_name) for e in reopened.catalog.entries()}
        durable, failed = 0, 0
        for ticket in tickets:
            assert ticket.done  # flush resolved everything, one way or the other
            if ticket.failed:
                failed += 1
                continue
            durable += 1
            entry = ticket._record
            pair = (entry.in_name, entry.out_name)
            assert pair in present, f"durable ticket lost on reopen: {pair}"
            # and the record bytes really hydrate from disk
            assert reopened.catalog.entry(*pair).backward is not None
        reopened.close()
        return durable, failed

    def test_fsync_fault_mid_batch_is_all_or_nothing(self, tmp_path):
        root = tmp_path / "db"
        plan = FaultPlan().on("segment.fsync", scope="shard-01", at=1, times=1)
        tickets = self._run_service(root, plan, flush_after=6)
        assert plan.fired("segment.fsync") == 1
        durable, failed = self._assert_durable_tickets_survive_reopen(root, tickets)
        # the faulted publish failed its whole batch together
        assert failed >= 1
        # the retried publishes made later batches durable
        assert durable >= 1

    def test_commit_retry_republishes_the_failed_shard(self, tmp_path):
        # the fsync fault leaves the shard dirty; the next group commit
        # must re-publish it rather than silently dropping its batch
        root = tmp_path / "db"
        plan = FaultPlan().on("segment.fsync", at=2, times=2)
        tickets = self._run_service(root, plan)
        durable, _failed = self._assert_durable_tickets_survive_reopen(root, tickets)
        assert durable >= 1
        # reopened catalog is internally consistent: every entry hydrates
        reopened = DSLog.load(root)
        assert reopened.catalog.materialize_all() == len(reopened.catalog)
        assert reopened.scrub(repair=False)["clean"]
        reopened.close()
