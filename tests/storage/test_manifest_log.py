"""The manifest log: a publish is one edit record in the shard's active
segment, ``MANIFEST.json`` a checkpoint.

What a commit costs in I/O (one ``os.fsync``, no checkpoint write), what a
read-only open costs (nothing written, nothing fsynced), when a publish
is a checkpoint instead, how an edit replays and where the walk stops, the
directory fsync that makes a checkpoint's rename durable, and the writer
fsync a close skips when nothing is left to make durable.
"""

import json
import os
import stat

import pytest

from repro import DSLog, FaultPlan
from repro.capture.analytic import elementwise_lineage
from repro.storage import manifest as manifest_module
from repro.storage import store as store_module
from repro.storage.manifest import MANIFEST_NAME, load_manifest
from repro.storage.segments import EDIT_MAGIC, SegmentWriter, record_overhead, walk_records
from repro.storage.sharded import shard_index

SHAPE = (4,)
NUM_SHARDS = 4


def relation(a, b):
    return elementwise_lineage(SHAPE, in_name=a, out_name=b)


def pair_on(shard, taken=()):
    """An ``(input, output)`` pair homed on *shard* of a 4-shard catalog."""
    for i in range(1000):
        pair = (f"in{i}", f"out{i}")
        if shard_index(*pair, NUM_SHARDS) == shard and pair not in taken:
            return pair
    raise AssertionError("no pair found")


def published_catalog(root):
    """A 4-shard catalog in which every shard has published: one entry per
    shard, each made durable by its own sync.  Returns the open log and
    the pairs, one per shard."""
    log = DSLog(root, num_shards=NUM_SHARDS, autosync=False)
    pairs = [pair_on(shard) for shard in range(NUM_SHARDS)]
    for a, b in pairs:
        log.define_array(a, SHAPE)
        log.define_array(b, SHAPE)
    for a, b in pairs:
        log.add_lineage(a, b, relation=relation(a, b))
        log.sync()
    return log, pairs


def as_written(manifest):
    """*manifest* as a checkpoint would hold it (JSON has no tuples)."""
    return json.loads(json.dumps(manifest.to_json()))


def files(root):
    """Every file under *root*: size, modification time, inode."""
    return {
        str(path.relative_to(root)): (path.stat().st_size, path.stat().st_mtime_ns, path.stat().st_ino)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture
def io(monkeypatch):
    """Counts every ``os.fsync`` (of directories apart) and every
    ``MANIFEST.json`` write from here on."""
    seen = {"fsync": 0, "dir_fsync": 0, "checkpoints": 0, "atomic_writes": []}
    real_fsync, real_atomic = os.fsync, manifest_module.atomic_write

    def fsync(fd):
        seen["fsync"] += 1
        seen["dir_fsync"] += stat.S_ISDIR(os.fstat(fd).st_mode)
        return real_fsync(fd)

    def atomic_write(path, data):
        seen["atomic_writes"].append((path, seen["dir_fsync"]))
        seen["checkpoints"] += path.name == MANIFEST_NAME
        real_atomic(path, data)
        seen["atomic_writes"][-1] += (seen["dir_fsync"],)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(manifest_module, "atomic_write", atomic_write)
    return seen


class TestIOBudget:
    def test_a_commit_is_one_fsync_and_no_checkpoint(self, tmp_path, io):
        log, pairs = published_catalog(tmp_path / "db")
        for shard in range(NUM_SHARDS):
            a, b = pair_on(shard, taken=pairs)
            log.define_array(a, SHAPE)
            log.define_array(b, SHAPE)
            log.sync()  # the arrays' publish, on the meta shard
            before = dict(io)
            log.add_lineage(a, b, relation=relation(a, b))
            log.sync()
            assert io["fsync"] - before["fsync"] == 1, shard
            assert io["checkpoints"] == before["checkpoints"], shard
            pairs.append((a, b))
        log.close()

    def test_a_fresh_catalog_checkpoints_each_shard_once(self, tmp_path, io):
        """The meta shard publishes its arrays before it holds a table; that
        publish opens the segment its tables then go to, so it is the
        shard's only checkpoint until the close."""
        log = DSLog(tmp_path / "db", num_shards=NUM_SHARDS, autosync=False)
        pairs = [pair_on(shard) for shard in range(NUM_SHARDS)]
        for a, b in pairs:
            log.define_array(a, SHAPE)
            log.define_array(b, SHAPE)
        log.sync()
        for a, b in pairs * 2:
            log.add_lineage(a, b, relation=relation(a, b), replace=True)
            log.sync()
        assert io["checkpoints"] == NUM_SHARDS
        log.close()

    def test_a_read_only_open_writes_nothing(self, tmp_path, io):
        root = tmp_path / "db"
        log, pairs = published_catalog(root)
        log.close()
        before, fsyncs = files(root), io["fsync"]
        reader = DSLog.load(root)
        assert reader.prov_query(list(pairs[1]), [(2,)]).to_cells() == {(2,)}
        reader.close()
        assert io["fsync"] == fsyncs
        assert files(root) == before

    def test_a_read_only_open_over_a_log_tail_writes_nothing(self, tmp_path, io):
        """A log a crashed writer left uncheckpointed is replayed, not
        rewritten: only a store that appends edits checkpoints them."""
        root = tmp_path / "db"
        log, pairs = published_catalog(root)
        a, b = pair_on(0, taken=pairs)
        log.define_array(a, SHAPE)
        log.define_array(b, SHAPE)
        log.add_lineage(a, b, relation=relation(a, b))
        log.sync()
        log.store.shards[0].reset_io()  # no close, no checkpoint
        before, fsyncs = files(root), io["fsync"]
        reader = DSLog.load(root)
        assert reader.prov_query([a, b], [(3,)]).to_cells() == {(3,)}
        reader.close()
        assert io["fsync"] == fsyncs
        assert files(root) == before

    def test_every_atomic_write_is_followed_by_a_directory_fsync(self, tmp_path, io):
        log, _ = published_catalog(tmp_path / "db")
        log.compact()
        log.close()
        assert io["atomic_writes"], "no checkpoint was written"
        for path, dir_fsyncs_before, dir_fsyncs_after in io["atomic_writes"]:
            assert dir_fsyncs_after == dir_fsyncs_before + 1, path


class TestCheckpoints:
    def test_first_write_roll_and_rewrite_checkpoint_edits_do_not(self, tmp_path, io, monkeypatch):
        monkeypatch.setattr(store_module, "DEFAULT_SEGMENT_MAX_BYTES", 600)
        log = DSLog(tmp_path / "db", num_shards=1, autosync=False)
        names = [f"A{i}" for i in range(8)]
        for name in names:
            log.define_array(name, SHAPE)
        shard = log.store.shards[0]
        kinds = []
        for a, b in zip(names, names[1:]):
            segment = shard._writer.path.name if shard._writer else None
            checkpoints = io["checkpoints"]
            log.add_lineage(a, b, relation=relation(a, b))
            log.sync()
            kinds.append((segment != shard._writer.path.name, io["checkpoints"] - checkpoints))
        # a checkpoint exactly when the publish found a new active segment
        assert kinds == [(rolled, int(rolled)) for rolled, _ in kinds]
        assert sum(rolled for rolled, _ in kinds) >= 2  # the first write and a roll
        checkpoints = io["checkpoints"]
        log.compact()
        assert io["checkpoints"] == checkpoints + 1
        assert load_manifest(shard.root).log == {"segment": shard._writer.path.name, "offset": shard._writer.size}
        log.close()

    def test_a_torn_write_makes_the_next_publish_a_checkpoint(self, tmp_path, io):
        plan = FaultPlan().on("segment.write", kind="short_write", at=2)  # the second sync's
        plan.arm()
        log = DSLog(tmp_path / "db", num_shards=1, autosync=False, faults=plan)
        for name in ("A", "B", "C"):
            log.define_array(name, SHAPE)
        log.add_lineage("A", "B", relation=relation("A", "B"))
        log.sync()
        log.add_lineage("B", "C", relation=relation("B", "C"))
        with pytest.raises(OSError):
            log.sync()
        checkpoints = io["checkpoints"]
        log.sync()  # the torn segment takes no more records: a fresh one does
        assert io["checkpoints"] == checkpoints + 1
        shard = log.store.shards[0]
        assert load_manifest(shard.root).to_json() == as_written(shard.manifest)
        log.close()

    def test_close_checkpoints_the_edits_it_appended(self, tmp_path, io):
        root = tmp_path / "db"
        log, pairs = published_catalog(root)
        a, b = pair_on(2, taken=pairs)
        log.define_array(a, SHAPE)
        log.define_array(b, SHAPE)
        log.add_lineage(a, b, relation=relation(a, b))
        log.sync()
        checkpoints = io["checkpoints"]
        log.close()
        assert io["checkpoints"] == checkpoints + 2  # the meta shard and shard 2
        for shard in log.store.shards:
            manifest = load_manifest(shard.root)
            segment = shard.root / manifest.log["segment"]
            assert manifest.log["offset"] == segment.stat().st_size  # no tail to replay


class TestReplay:
    def test_edits_replay_to_the_manifest_in_memory(self, tmp_path):
        root = tmp_path / "db"
        log = DSLog(root, num_shards=1, autosync=False)
        for name in ("A", "B", "C", "D"):
            log.define_array(name, SHAPE)
        log.add_lineage("A", "B", relation=relation("A", "B"))
        log.sync()  # the first write: a checkpoint
        shard = log.store.shards[0]
        log.register_operation("op", ["B"], ["C"], relations={("B", "C"): relation("B", "C")})
        log.sync()
        log.add_lineage("A", "B", relation=relation("A", "B"), replace=True)
        log.define_array("E", (2, 2))
        log.sync()
        log.add_lineage("C", "D", relation=relation("C", "D"))
        log.sync()
        edits = [p for _, p, _ in walk_records(shard.root / shard.manifest.log["segment"], shard.manifest.log["offset"])
                 if p[:4] == EDIT_MAGIC]
        assert len(edits) == 3
        assert load_manifest(shard.root).to_json() == as_written(shard.manifest)
        log.store.shards[0].reset_io()
        reopened = DSLog.load(root)
        assert reopened.catalog.entry("A", "B").version == 2
        assert reopened.catalog.array("E").shape == (2, 2)
        assert [op.op_name for op in reopened.catalog.operations] == ["op"]
        assert reopened.prov_query(["A", "B", "C", "D"], [(1,)]).to_cells() == {(1,)}
        reopened.close()

    def test_a_torn_edit_record_is_a_torn_tail(self, tmp_path):
        root = tmp_path / "db"
        log = DSLog(root, num_shards=1, autosync=False)
        for name in ("A", "B", "C"):
            log.define_array(name, SHAPE)
        log.add_lineage("A", "B", relation=relation("A", "B"))
        log.sync()
        shard = log.store.shards[0]
        published = as_written(shard.manifest)
        log.add_lineage("B", "C", relation=relation("B", "C"))
        log.sync()
        log.store.shards[0].reset_io()
        segment = shard.root / shard.manifest.log["segment"]
        with open(segment, "r+b") as fh:
            fh.truncate(segment.stat().st_size - 3)  # into the last edit record
        torn = load_manifest(shard.root)
        assert torn.to_json() == published
        reopened = DSLog.load(root, autosync=False)
        assert {(e.in_name, e.out_name) for e in reopened.catalog.entries()} == {("A", "B")}
        # the next publish is a checkpoint in a fresh segment: nothing is
        # ever appended after the torn bytes
        reopened.add_lineage("B", "C", relation=relation("B", "C"))
        reopened.sync()
        assert load_manifest(shard.root).to_json() == as_written(reopened.store.shards[0].manifest)
        assert reopened.scrub(repair=True)["shards"][0]["dropped_entries"] == []
        reopened.close()
        assert {(e.in_name, e.out_name) for e in DSLog.load(root).catalog.entries()} == {("A", "B"), ("B", "C")}

    def test_a_flipped_table_byte_hides_no_later_edit(self, tmp_path):
        """A damaged table record past the checkpoint is passed over: the
        edit records after it still replay, and only the damaged entry is
        scrub's to drop."""
        root = tmp_path / "db"
        log = DSLog(root, num_shards=1, autosync=False)
        for name in ("A", "B", "C", "D"):
            log.define_array(name, SHAPE)
        log.add_lineage("A", "B", relation=relation("A", "B"))
        log.sync()  # the checkpoint
        log.add_lineage("B", "C", relation=relation("B", "C"))
        log.sync()
        log.add_lineage("C", "D", relation=relation("C", "D"))
        log.sync()
        ref = log.catalog.entry("B", "C").backward_ref
        log.store.shards[0].reset_io()  # no close, no checkpoint
        with open(root / "shard-00" / ref.segment, "r+b") as fh:
            fh.seek(ref.offset + record_overhead() + ref.length // 2)
            byte = fh.read(1)[0]
            fh.seek(-1, 1)
            fh.write(bytes([byte ^ 0xFF]))
        reopened = DSLog.load(root, autosync=False)
        assert {(e.in_name, e.out_name) for e in reopened.catalog.entries()} == {("A", "B"), ("B", "C"), ("C", "D")}
        report = reopened.scrub(repair=True)["shards"][0]
        assert report["dropped_entries"] == [["B", "C"]]
        reopened.close()
        assert {(e.in_name, e.out_name) for e in DSLog.load(root).catalog.entries()} == {("A", "B"), ("C", "D")}

    def test_an_open_over_no_tail_reads_no_segment_record(self, tmp_path, monkeypatch):
        root = tmp_path / "db"
        log, _ = published_catalog(root)
        log.close()

        def walk(*args):
            raise AssertionError("the open walked a segment")

        monkeypatch.setattr(manifest_module, "walk_records", walk)
        assert len(DSLog.load(root).catalog) == NUM_SHARDS

    def test_compaction_copies_no_edit_record(self, tmp_path):
        root = tmp_path / "db"
        log, pairs = published_catalog(root)
        for i in range(3):
            a, b = pairs[0]
            log.add_lineage(a, b, relation=relation(a, b), replace=True)
            log.sync()
        log.compact()
        for shard in log.store.shards:
            for name in shard.manifest.segments:
                assert not [p for _, p, _ in walk_records(shard.root / name, 0) if p[:4] == EDIT_MAGIC]
        log.close()

    def test_a_version_2_checkpoint_opens_with_no_tail(self, tmp_path, io):
        root = tmp_path / "db"
        log, pairs = published_catalog(root)
        log.close()
        shard_dir = root / "shard-01"
        data = load_manifest(shard_dir).to_json()
        data["format_version"] = 2
        del data["log"]
        (shard_dir / MANIFEST_NAME).write_text(json.dumps(data))
        assert load_manifest(shard_dir).log is None
        reopened = DSLog.load(root, autosync=False)
        assert reopened.prov_query(list(pairs[1]), [(1,)]).to_cells() == {(1,)}
        a, b = pair_on(1, taken=pairs)
        reopened.define_array(a, SHAPE)
        reopened.define_array(b, SHAPE)
        reopened.add_lineage(a, b, relation=relation(a, b))
        checkpoints = io["checkpoints"]
        # each shard's first publish of a session is a checkpoint: the meta
        # shard's (the arrays) and shard 1's, whose log starts there
        reopened.sync()
        assert io["checkpoints"] == checkpoints + 2
        upgraded = json.loads((shard_dir / MANIFEST_NAME).read_text())
        assert upgraded["format_version"] == 3 and upgraded["log"] is not None
        reopened.add_lineage(a, b, relation=relation(a, b), replace=True)
        reopened.sync()  # the second publish is an edit record
        assert io["checkpoints"] == checkpoints + 2
        reopened.close()


class TestWriterFsync:
    def test_close_after_a_sync_skips_the_fsync(self, tmp_path, io):
        writer = SegmentWriter(tmp_path / "segment-000001.seg")
        writer.append(b"record")
        writer.sync()
        fsyncs = io["fsync"]
        writer.sync()  # nothing written since
        writer.close()
        assert io["fsync"] == fsyncs

    def test_a_writer_with_unsynced_bytes_fsyncs_on_close(self, tmp_path, io):
        writer = SegmentWriter(tmp_path / "segment-000001.seg")
        writer.append(b"record")
        writer.sync()
        writer.append(b"another")
        writer.flush_pending()  # in the file, not yet durable
        fsyncs = io["fsync"]
        writer.close()
        assert io["fsync"] == fsyncs + 1

    def test_a_rollover_fsyncs_the_retired_segment(self, tmp_path, io, monkeypatch):
        monkeypatch.setattr(store_module, "DEFAULT_SEGMENT_MAX_BYTES", 100)  # one table fills it
        log = DSLog(tmp_path / "db", num_shards=1, autosync=False)
        for name in ("A", "B", "C"):
            log.define_array(name, SHAPE)
        log.add_lineage("A", "B", relation=relation("A", "B"))
        shard = log.store.shards[0]
        first = shard._writer
        first.flush_pending()  # bytes in the file that no fsync covers
        fsyncs = io["fsync"]
        log.add_lineage("B", "C", relation=relation("B", "C"))  # rolls over
        assert shard._writer is not first
        assert io["fsync"] == fsyncs + 1
        log.close()
