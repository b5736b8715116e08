"""The zero-copy storage fast path: mmap-backed segment readers, coalesced
group-commit writes, and the retire-not-delete protocol under live views.

The load-bearing guarantees:

* ``LineageStore.load_table`` serves records through one cached
  :class:`SegmentReader` per segment — zero per-record opens — and the
  hydrated tables are read-only and narrow, holding no reference to the
  mapped pages they were decoded from;
* ``SegmentWriter`` buffers appends and hands each batch to the OS as one
  write (+ one fsync on ``sync``), while readers that race the buffer get
  the pending bytes flushed on demand;
* compaction may retire (or outright delete) a mapped segment file while
  hydrated tables still hold views into it: the mapping stays alive
  through the tables' buffer chain until the last view is released.
"""

import numpy as np
import pytest

from repro import DSLog
from repro.core.relation import LineageRelation
from repro.storage.segments import (
    SEGMENT_HEADER_SIZE,
    SegmentReader,
    SegmentWriter,
    record_overhead,
    valid_length,
)

OVERHEAD = record_overhead()
# build() makes one-shard catalogs: the whole store is ``log.store.meta``,
# on disk under this subdirectory
STORE = "shard-00"

SHAPE = (8,)


def elementwise(in_name, out_name, shape=SHAPE):
    pairs = [(cell, cell) for cell in np.ndindex(*shape)]
    return LineageRelation.from_pairs(
        pairs, shape, shape, in_name=in_name, out_name=out_name
    )


def build(root, n, **kwargs):
    log = DSLog(root, num_shards=1, autosync=False, **kwargs)
    names = [f"A{i}" for i in range(n + 1)]
    for name in names:
        log.define_array(name, SHAPE)
    for a, b in zip(names, names[1:]):
        log.add_lineage(a, b, relation=elementwise(a, b), op_name=f"op_{a}")
    log.sync()
    return log, names


class TestSegmentReader:
    def test_reads_match_manifest_refs(self, tmp_path):
        path = tmp_path / "seg.seg"
        with SegmentWriter(path) as writer:
            refs = [writer.append(bytes([i]) * (10 + i)) for i in range(5)]
        reader = SegmentReader(path)
        for i, (offset, length) in enumerate(refs):
            payload = reader.read(offset, length)
            assert isinstance(payload, memoryview)
            assert bytes(payload) == bytes([i]) * (10 + i)
        reader.close()

    def test_prefix_mismatch_rejected(self, tmp_path):
        path = tmp_path / "seg.seg"
        with SegmentWriter(path) as writer:
            offset, length = writer.append(b"payload")
            writer.append(b"another-record")  # keeps the bad read in bounds
        reader = SegmentReader(path)
        with pytest.raises(ValueError, match="manifest expected"):
            reader.read(offset, length - 2)
        reader.close()

    def test_remaps_after_growth(self, tmp_path):
        path = tmp_path / "seg.seg"
        writer = SegmentWriter(path)
        o1, l1 = writer.append(b"first-record")
        writer.sync()
        reader = SegmentReader(path)
        assert bytes(reader.read(o1, l1)) == b"first-record"
        mapped_before = reader.mapped_size
        o2, l2 = writer.append(b"second-record-after-map")
        writer.sync()
        assert bytes(reader.read(o2, l2)) == b"second-record-after-map"
        assert reader.mapped_size > mapped_before
        reader.close()
        writer.close()

    def test_truncated_read_raises(self, tmp_path):
        path = tmp_path / "seg.seg"
        with SegmentWriter(path) as writer:
            writer.append(b"only")
        reader = SegmentReader(path)
        with pytest.raises(ValueError, match="truncated"):
            reader.read(SEGMENT_HEADER_SIZE, 10_000)
        reader.close()


class TestCoalescedWrites:
    def test_appends_buffer_until_flush(self, tmp_path):
        path = tmp_path / "seg.seg"
        writer = SegmentWriter(path)
        for i in range(10):
            writer.append(b"x" * 50)
        # only the eagerly-written header has reached the file
        assert path.stat().st_size == SEGMENT_HEADER_SIZE
        assert writer.pending_bytes == 10 * (OVERHEAD + 50)
        assert writer.size == SEGMENT_HEADER_SIZE + 10 * (OVERHEAD + 50)
        flushed = writer.sync()
        assert flushed == 10 * (OVERHEAD + 50)
        assert path.stat().st_size == writer.size
        assert valid_length(path) == writer.size
        # the whole batch went out as ONE coalesced write
        assert writer.coalesced_writes == 1
        assert writer.coalesced_records == 10
        writer.close()

    def test_store_reads_through_pending_batch(self, tmp_path):
        # a reader racing the group-commit buffer (cache evicted before the
        # commit flushed) must still see the appended record
        log, names = build(tmp_path / "db", 3)
        log.define_array("Z", SHAPE)
        entry = log.add_lineage(names[3], "Z", relation=elementwise(names[3], "Z"))
        assert log.store.meta._writer.pending_bytes > 0  # not yet committed
        log.store.cache.clear()
        table = log.catalog.entry(names[3], "Z").backward
        assert table.out_name == "Z"
        assert entry is not None
        log.close()

    @pytest.mark.parametrize("n", [8, 200])
    def test_group_commit_write_stats(self, tmp_path, n):
        log, _names = build(tmp_path / "db", n)
        stats = log.store.write_stats()
        # one record per entry (+ possible reuse-state records), but the
        # single sync coalesced them into very few writes (at n=200, over
        # 60 records per OS write)
        assert stats["coalesced_records"] >= n
        assert stats["coalesced_writes"] <= 3
        log.close()

    def test_unsynced_appends_do_not_survive_a_crash(self, tmp_path):
        # torn batch: appends never flushed are invisible after "crash"
        # (no close); the previously published generation stays intact
        root = tmp_path / "db"
        log, names = build(root, 3)
        log.define_array("Z", SHAPE)
        log.add_lineage(names[3], "Z", relation=elementwise(names[3], "Z"))
        # no sync, no close: drop the store like a killed process would
        segment = root / STORE / log.store.meta.manifest.segments[-1]
        assert valid_length(segment) == segment.stat().st_size
        reopened = DSLog.load(root)
        assert len(reopened.catalog) == 3  # the unsynced entry is gone
        assert reopened.catalog.materialize_all() == 3
        reopened.close()


def int64_inflated_nbytes(table):
    """What *table* would occupy had hydration upcast every interval column
    to int64."""
    total = table.val_kind.nbytes + table.val_ref.nbytes
    for name in ("key_lo", "key_hi", "val_lo", "val_hi"):
        total += getattr(table, name).size * 8
    return total


class TestMmapLifecycle:
    @pytest.mark.parametrize("n, dtype", [(8, np.int8), (30_000, np.int16)])
    def test_hydrated_tables_are_narrow_readonly_views(self, tmp_path, n, dtype):
        log, _names = build(tmp_path / "db", 1, gzip=False)
        # a permutation ProvRC cannot merge: a table of several rows
        log.define_array("Q", (n,))
        log.define_array("P", (n,))
        shuffled = np.stack([np.arange(n), np.random.default_rng(0).permutation(n)], axis=1)
        log.add_lineage(
            "Q", "P", relation=LineageRelation((n,), (n,), shuffled, out_name="P", in_name="Q")
        )
        log.close()
        reopened = DSLog.load(tmp_path / "db", gzip=False)
        table = reopened.catalog.entry("Q", "P").backward
        assert len(table) >= 2
        # the interval columns are decoded in one pass: arrays of their own,
        # narrow and read-only like the views they replaced
        for name in ("key_lo", "key_hi", "val_lo", "val_hi"):
            column = getattr(table, name)
            assert column.dtype == dtype, name
            assert not column.flags.writeable, name
        # the two verbatim columns share one private copy of their bytes:
        # no column's buffer chain reaches the segment mmap, so a resident
        # table holds what the cache charges it and nothing else
        for name in ("val_kind", "val_ref"):
            column = getattr(table, name)
            assert not column.flags.writeable, name
            assert type(column.base) is bytes, name
            assert len(column.base) == table.val_kind.nbytes + table.val_ref.nbytes
        # the cache charges the narrow width, well under the int64 inflation
        reopened.catalog.materialize_all()
        inflated = sum(int64_inflated_nbytes(entry.backward) for entry in reopened.catalog.entries())
        assert reopened.store.cache.stats()["bytes"] <= 0.40 * inflated
        reopened.close()

    def test_one_reader_per_segment(self, tmp_path):
        log, _names = build(tmp_path / "db", 20)
        log.close()
        reopened = DSLog.load(tmp_path / "db")
        reopened.catalog.materialize_all()
        stats = reopened.store.reader_stats()
        assert stats["open_readers"] == len(reopened.store.meta.manifest.segments)
        assert stats["mapped_bytes"] > 0
        reopened.close()

    def test_compact_under_live_views(self, tmp_path):
        # hydrate -> compact (segments deleted) -> the hydrated table's
        # views must still read the original bytes from the retired mapping
        log, names = build(tmp_path / "db", 4, gzip=False)
        table = log.catalog.entry(names[0], names[1]).backward
        snapshot_cols = {
            name: np.array(getattr(table, name))
            for name in ("key_lo", "key_hi", "val_lo", "val_hi")
        }
        old_segments = list(log.store.meta.manifest.segments)
        log.compact()
        for name in old_segments:
            assert not (tmp_path / "db" / STORE / name).exists()
        assert log.store.reader_stats()["open_readers"] == 0
        for name, expected in snapshot_cols.items():
            assert np.array_equal(getattr(table, name), expected)
        # and the table still answers queries from the unlinked mapping
        assert table.decompress() == elementwise(names[0], names[1])
        log.close()

    def test_pinned_snapshot_retires_instead_of_deleting(self, tmp_path):
        log, names = build(tmp_path / "db", 4)
        view = log.snapshot()
        hydrated = view.catalog.entry(names[1], names[2]).backward
        keep = np.array(hydrated.key_lo)
        old_segments = list(log.store.meta.manifest.segments)
        stats = log.compact()[0]
        assert stats["segments_retired"] == len(old_segments)
        for name in old_segments:
            assert (tmp_path / "db" / STORE / name).exists()  # retired, not deleted
        view.close()  # last pin released -> retired files removed
        for name in old_segments:
            assert not (tmp_path / "db" / STORE / name).exists()
        assert np.array_equal(hydrated.key_lo, keep)
        log.close()

    def test_retired_segment_readers_dropped_with_the_files(self, tmp_path):
        # a pinned snapshot resolving a DEAD ref (entry replaced before the
        # compaction, so no remap exists) re-opens a reader for the retired
        # segment; releasing the last pin must drop that reader along with
        # the files, not leak its mapping for the store's lifetime
        log, names = build(tmp_path / "db", 3)
        view = log.snapshot()
        log.add_lineage(names[0], names[1], relation=elementwise(names[0], names[1]),
                        op_name="v2", replace=True)
        log.sync()
        log.compact()  # old segments retired (the snapshot pin is held)
        old = view.catalog.entry(names[0], names[1]).backward  # dead-ref read
        assert old.out_name == names[1]
        retained = log.store.reader_stats()["open_readers"]
        assert retained >= 1
        view.close()  # last pin: retired files AND their readers go away
        live = set(log.store.meta.manifest.segments)
        with log.store.meta._reader_lock:
            assert set(log.store.meta._readers) <= live
        log.close()

    def test_closed_reader_read_raises_file_not_found(self, tmp_path):
        # load_table's compaction-race retry hinges on this exact type
        path = tmp_path / "seg.seg"
        with SegmentWriter(path) as writer:
            offset, length = writer.append(b"payload")
        reader = SegmentReader(path)
        reader.close()
        with pytest.raises(FileNotFoundError):
            reader.read(offset, length)

    def test_sharded_reader_stats_aggregate(self, tmp_path):
        log = DSLog(tmp_path / "db", num_shards=3, autosync=False)
        names = [f"A{i}" for i in range(6)]
        for name in names:
            log.define_array(name, SHAPE)
        for a, b in zip(names, names[1:]):
            log.add_lineage(a, b, relation=elementwise(a, b))
        log.sync()
        assert log.store.write_stats()["coalesced_records"] >= 5  # one record per entry
        log.close()
        reopened = DSLog.load(tmp_path / "db")
        reopened.catalog.materialize_all()
        stats = reopened.store.reader_stats()
        assert stats["open_readers"] >= 2  # entries spread over the shards
        reopened.close()
