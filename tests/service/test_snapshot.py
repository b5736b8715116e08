"""Snapshot-isolated readers: consistent cuts, read-only enforcement, and
compaction running under a live snapshot (stale segment files must remain
readable until the reader drops its pin)."""

import pytest

from repro import DSLog, LineageService
from repro.capture.analytic import elementwise_lineage
from repro.service.snapshot import SnapshotDSLog, SnapshotReadOnlyError
from repro.storage.segments import read_record

SHAPE = (4,)


def chain(log, n, prefix="A"):
    names = [f"{prefix}{i}" for i in range(n + 1)]
    for name in names:
        log.define_array(name, SHAPE)
    for a, b in zip(names, names[1:]):
        log.add_lineage(a, b, relation=elementwise_lineage(SHAPE, in_name=a, out_name=b), op_name=f"op_{a}")
    return names


class TestIsolation:
    def test_later_ingest_is_invisible(self, tmp_path):
        log = DSLog(tmp_path / "db", num_shards=2, autosync=False)
        chain(log, 3)
        snap = log.snapshot()
        assert len(snap.catalog) == 3
        log.define_array("late", SHAPE)
        log.add_lineage("A3", "late", relation=elementwise_lineage(SHAPE, in_name="A3", out_name="late"))
        assert len(log.catalog) == 4
        assert len(snap.catalog) == 3  # the cut does not move
        with pytest.raises(KeyError):
            snap.catalog.array("late")
        # the snapshot's graph is its own frozen instance
        assert "late" in log.impact("A0")
        assert "late" not in snap.impact("A0")
        snap.close()
        log.close()

    def test_snapshot_of_memory_backend(self):
        log = DSLog()
        chain(log, 2)
        snap = log.snapshot()
        log.define_array("x", SHAPE)
        log.add_lineage("A2", "x", relation=elementwise_lineage(SHAPE, in_name="A2", out_name="x"))
        assert len(snap.catalog) == 2
        assert snap.prov_query(["A0", "A1"], [(1,)]).to_cells() == {(1,)}
        snap.close()

    def test_read_api_works_and_write_api_raises(self, tmp_path):
        log = DSLog(tmp_path / "db", autosync=False)
        names = chain(log, 4)
        snap = log.snapshot()
        assert snap.prov_query([names[0], names[2]], [(2,)]).to_cells() == {(2,)}
        assert snap.dependencies(names[3]) == {names[0]: 3, names[1]: 2, names[2]: 1}
        assert snap.lineage_summary()["entries"] == 4
        assert snap.storage_bytes() > 0
        for call in (
            lambda: snap.define_array("nope", SHAPE),
            lambda: snap.add_lineage("A0", "A1", relation=elementwise_lineage(SHAPE, in_name="A0", out_name="A1")),
            lambda: snap.register_operation("op", ["A0"], ["A1"]),
            lambda: snap.sync(),
            lambda: snap.compact(),
            lambda: snap.scrub(repair=True),
        ):
            with pytest.raises(SnapshotReadOnlyError):
                call()
        # snapshotting a snapshot is the same frozen view
        assert snap.snapshot() is snap
        snap.close()
        snap.close()  # idempotent
        log.close()

    def test_generation_vector_recorded(self, tmp_path):
        log = DSLog(tmp_path / "db", num_shards=3, autosync=False)
        chain(log, 3)
        log.sync()
        snap = log.snapshot()
        assert isinstance(snap, SnapshotDSLog)
        assert snap.generation_vector == log.store.generation_vector()
        assert len(snap.generation_vector) == 3
        snap.close()
        log.close()


class TestCompactionUnderSnapshot:
    def test_stale_segments_survive_until_release(self, tmp_path):
        """The satellite case: ``compact()`` while a reader holds hydrated
        tables.  The pre-compaction segment files must stay on disk and
        readable until the snapshot drops its pin — then be deleted."""
        log = DSLog(tmp_path / "db", num_shards=2, autosync=False)
        names = chain(log, 6)
        log.sync()

        snap = log.snapshot()
        # hydrate a table and remember its pre-compaction address
        entry = snap.catalog.entry(names[0], names[1])
        table = entry.backward  # hydrated: the reader holds it now
        old_ref = entry.backward_ref
        home = log.store.shard_for(names[0], names[1])
        shard = log.store.shard(home)
        old_segment = shard._segment_path(old_ref.segment)
        assert old_segment.exists()

        # churn + compact while the snapshot is open
        log.add_lineage(
            names[0], names[1], relation=elementwise_lineage(SHAPE, in_name=names[0], out_name=names[1]), replace=True
        )
        stats = log.compact()
        assert stats[home]["segments_retired"] >= 1
        # stale file still present and the old ref still readable from it
        assert old_segment.exists()
        payload = read_record(old_segment, old_ref.offset, old_ref.length)
        assert len(payload) == old_ref.length
        # the snapshot still answers from its pinned state; a re-read of the
        # entry (through the compaction remap) yields the same table
        assert snap.prov_query([names[1], names[0]], [(2,)]).to_cells() == {(2,)}
        from repro.reuse.signatures import tables_equal

        assert tables_equal(snap.catalog.entry(names[0], names[1]).backward, table)

        snap.close()  # last pin dropped: retired files deleted
        assert not old_segment.exists()
        # the live log is unaffected
        assert log.prov_query([names[0], names[2]], [(1,)]).to_cells() == {(1,)}
        log.close()

    def test_compact_without_pins_deletes_immediately(self, tmp_path):
        log = DSLog(tmp_path / "db", num_shards=2, autosync=False)
        names = chain(log, 4)
        log.sync()
        old_segments = [
            shard._segment_path(name)
            for shard in log.store.shards
            for name in shard.manifest.segments
        ]
        log.add_lineage(
            names[0], names[1], relation=elementwise_lineage(SHAPE, in_name=names[0], out_name=names[1]), replace=True
        )
        stats = log.compact()
        assert all(s["segments_retired"] == 0 for s in stats.values())
        assert not any(path.exists() for path in old_segments)
        log.close()

    def test_service_snapshot_under_concurrent_compaction(self, tmp_path):
        with LineageService(tmp_path / "db", workers=2, num_shards=2) as svc:
            for i in range(8):
                svc.define_array(f"a{i}", SHAPE)
            for i in range(7):
                svc.submit(
                    f"op{i}",
                    [f"a{i}"],
                    [f"a{i+1}"],
                    relations={(f"a{i}", f"a{i+1}"): elementwise_lineage(SHAPE, in_name=f"a{i}", out_name=f"a{i+1}")},
                ).result(timeout=10)
            snap = svc.snapshot()
            baseline = len(snap.catalog)
            svc.compact()
            svc.submit(
                "late", ["a0"], ["a2"],
                relations={("a0", "a2"): elementwise_lineage(SHAPE, in_name="a0", out_name="a2")},
            ).result(timeout=10)
            assert len(snap.catalog) == baseline
            assert snap.prov_query(["a0", "a3"], [(1,)]).to_cells() == {(1,)}
            snap.close()
