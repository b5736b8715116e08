"""Tests for the segment-based lineage store (segments, manifest, cache)."""

import pytest

from repro import DSLog
from repro.capture.analytic import elementwise_lineage
from repro.core.provrc import compress
from repro.storage.manifest import MANIFEST_NAME, load_manifest
from repro.storage import store as store_module
from repro.storage.segments import SegmentWriter, iter_records, read_record
from repro.storage.store import (
    LineageStore,
    StoredLineageEntry,
    TableCache,
    TableRef,
)


STORE = "shard-00"  # a one-shard catalog's whole store lives here


def chain_log(root, n, shape=(6,), **kwargs):
    log = DSLog(root=root, num_shards=1, **kwargs)
    names = [f"A{i:04d}" for i in range(n + 1)]
    for name in names:
        log.define_array(name, shape)
    for a, b in zip(names, names[1:]):
        log.add_lineage(a, b, relation=elementwise_lineage(shape, in_name=a, out_name=b), op_name=f"op_{a}")
    return log, names


class TestSegmentFiles:
    def test_append_and_read_roundtrip(self, tmp_path):
        writer = SegmentWriter(tmp_path / "segment-000001.seg")
        offsets = [writer.append(payload) for payload in (b"alpha", b"bravo", b"x" * 1000)]
        writer.close()
        for (offset, length), payload in zip(offsets, (b"alpha", b"bravo", b"x" * 1000)):
            assert read_record(tmp_path / "segment-000001.seg", offset, length) == payload

    def test_iter_records_in_append_order(self, tmp_path):
        writer = SegmentWriter(tmp_path / "s.seg")
        writer.append(b"one")
        writer.append(b"two")
        writer.close()
        assert [payload for _, payload in iter_records(tmp_path / "s.seg")] == [b"one", b"two"]

    def test_length_mismatch_rejected(self, tmp_path):
        writer = SegmentWriter(tmp_path / "s.seg")
        offset, length = writer.append(b"payload")
        writer.close()
        with pytest.raises(ValueError):
            read_record(tmp_path / "s.seg", offset, length + 1)

    def test_truncated_tail_ignored(self, tmp_path):
        path = tmp_path / "s.seg"
        writer = SegmentWriter(path)
        writer.append(b"complete")
        writer.close()
        # simulate a crash mid-append: a length prefix without its payload
        with open(path, "ab") as fh:
            fh.write(b"\xff\x00\x00\x00partial")
        assert [payload for _, payload in iter_records(path)] == [b"complete"]

    def test_not_a_segment_rejected(self, tmp_path):
        (tmp_path / "bogus.seg").write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_record(tmp_path / "bogus.seg", 6, 4)


class TestTableCache:
    def _table(self, n, name):
        return compress(elementwise_lineage((n,), in_name=name, out_name=name + "_out"))

    def test_hit_miss_accounting(self):
        cache = TableCache(budget_bytes=1 << 20)
        ref = TableRef("s", 0, 10)
        assert cache.get(ref) is None
        table = self._table(8, "A")
        cache.put(ref, table)
        assert cache.get(ref) is table
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_byte_budget_evicts_lru(self):
        tables = [self._table(64, f"T{i}") for i in range(4)]
        per_table = tables[0].nbytes()
        cache = TableCache(budget_bytes=int(per_table * 2.5))
        refs = [TableRef("s", i, 1) for i in range(4)]
        for ref, table in zip(refs, tables):
            cache.put(ref, table)
        assert cache.get(refs[0]) is None  # oldest evicted
        assert cache.get(refs[3]) is not None
        assert cache.stats()["evictions"] >= 1
        assert cache.current_bytes <= cache.budget_bytes

    def test_table_over_the_whole_budget_is_not_retained(self):
        table = self._table(64, "big")
        cache = TableCache(budget_bytes=table.nbytes() - 1)
        ref = TableRef("s", 0, 1)
        cache.put(ref, table)
        assert ref not in cache and cache.get(ref) is None
        assert cache.current_bytes == 0 and cache.stats()["evictions"] == 0


class TestLineageStore:
    def test_append_load_roundtrip(self, tmp_path):
        store = LineageStore(tmp_path / "db")
        table = compress(elementwise_lineage((5,)))
        ref = store.append_table(table)
        store.cache.clear()
        loaded = store.load_table(ref)
        assert loaded.decompress() == table.decompress()
        assert store.tables_deserialized == 1

    def test_cache_serves_repeat_loads(self, tmp_path):
        store = LineageStore(tmp_path / "db")
        ref = store.append_table(compress(elementwise_lineage((5,))))
        store.load_table(ref)
        store.load_table(ref)
        assert store.tables_deserialized == 0  # appended table stayed cached

    def test_segment_rollover(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "DEFAULT_SEGMENT_MAX_BYTES", 256)
        store = LineageStore(tmp_path / "db")
        for i in range(6):
            store.append_table(compress(elementwise_lineage((32,), in_name=f"I{i}", out_name=f"O{i}")))
        assert len(store.manifest.segments) > 1

    def test_gzip_flag_recorded_in_manifest(self, tmp_path):
        store = LineageStore(tmp_path / "db", gzip=False)
        store.sync()
        reopened = LineageStore(tmp_path / "db", gzip=True)
        assert reopened.gzip is False  # on-disk format wins


class TestDurability:
    def test_publish_is_an_edit_record_with_generation(self, tmp_path):
        log, _ = chain_log(tmp_path / "db", 3)
        checkpoint = (tmp_path / "db" / STORE / MANIFEST_NAME).read_bytes()
        first = load_manifest(tmp_path / "db" / STORE).generation
        log.add_lineage(
            "A0000", "A0002", relation=elementwise_lineage((6,), in_name="A0000", out_name="A0002"), op_name="skip"
        )
        # the publish went to the segment as an edit record: the checkpoint
        # is untouched, the published manifest (checkpoint + log) moved on
        assert (tmp_path / "db" / STORE / MANIFEST_NAME).read_bytes() == checkpoint
        published = load_manifest(tmp_path / "db" / STORE)
        assert published.generation > first
        assert published.to_json() == log.store.meta.manifest.to_json()
        assert not (tmp_path / "db" / STORE / (MANIFEST_NAME + ".tmp")).exists()

    def test_unsynced_records_invisible_after_reopen(self, tmp_path):
        log, names = chain_log(tmp_path / "db", 3, autosync=False)
        log.sync()
        # more ingest without a sync: segment bytes exist, manifest does not
        # reference them — a crash here must reopen to the synced state
        log.add_lineage(
            names[0], names[2], relation=elementwise_lineage((6,), in_name=names[0], out_name=names[2])
        )
        log.store.close()
        reopened = DSLog.load(tmp_path / "db")
        assert len(reopened.catalog) == 3
        with pytest.raises(KeyError):
            reopened.catalog.entry(names[0], names[2])

    def test_orphan_segments_removed_on_open(self, tmp_path):
        log, _ = chain_log(tmp_path / "db", 2)
        log.close()
        orphan = tmp_path / "db" / STORE / "segment-999999.seg"
        SegmentWriter(orphan).close()
        assert orphan.exists()
        DSLog.load(tmp_path / "db")
        assert not orphan.exists()


class TestLazyOpen:
    def test_cold_open_deserializes_nothing(self, tmp_path):
        log, names = chain_log(tmp_path / "db", 40, autosync=False)
        log.close()
        reopened = DSLog.load(tmp_path / "db")
        assert len(reopened.catalog) == 40
        assert reopened.store.tables_deserialized == 0
        for entry in reopened.catalog.entries():
            assert isinstance(entry, StoredLineageEntry)

    def test_query_loads_only_path_tables(self, tmp_path):
        log, names = chain_log(tmp_path / "db", 40, autosync=False)
        log.close()
        reopened = DSLog.load(tmp_path / "db")
        result = reopened.prov_query(names[:6], [(3,)])
        assert result.to_cells() == {(3,)}
        assert reopened.store.tables_deserialized == 5

    def test_storage_bytes_without_loading_tables(self, tmp_path):
        log, _ = chain_log(tmp_path / "db", 10, autosync=False)
        expected = log.storage_bytes()
        log.close()
        reopened = DSLog.load(tmp_path / "db")
        assert reopened.storage_bytes() == expected
        assert reopened.store.tables_deserialized == 0

    def test_materialize_all_is_the_eager_path(self, tmp_path):
        log, _ = chain_log(tmp_path / "db", 10, autosync=False)
        log.close()
        reopened = DSLog.load(tmp_path / "db")
        count = reopened.catalog.materialize_all()
        assert count == 10  # one table per entry
        assert reopened.store.tables_deserialized == 10

    def test_lru_budget_bounds_resident_tables(self, tmp_path):
        log, names = chain_log(tmp_path / "db", 30, shape=(64,), autosync=False)
        log.close()
        one_table = compress(elementwise_lineage((64,))).nbytes()
        reopened = DSLog.load(tmp_path / "db", cache_bytes=one_table * 4)
        reopened.catalog.materialize_all()
        [stats] = reopened.store.cache_stats()
        assert stats["evictions"] > 0
        assert stats["bytes"] <= stats["budget_bytes"]
        # evicted tables transparently reload on demand
        assert reopened.prov_query([names[0], names[1]], [(9,)]).to_cells() == {(9,)}


class TestCompaction:
    def test_compact_reclaims_replaced_entries(self, tmp_path):
        log, names = chain_log(tmp_path / "db", 8)
        for _ in range(4):  # churn one edge to build up dead versions
            log.add_lineage(
                names[0], names[1],
                relation=elementwise_lineage((6,), in_name=names[0], out_name=names[1]),
                replace=True,
            )
        before = log.store.segment_bytes()
        stats = log.compact()[0]
        assert stats["reclaimed_bytes"] > 0
        assert log.store.segment_bytes() < before
        # catalog still answers queries and survives a reopen
        assert log.prov_query(names[:3], [(1,)]).to_cells() == {(1,)}
        log.close()
        reopened = DSLog.load(tmp_path / "db")
        assert reopened.prov_query([names[0], names[-1]], [(2,)]).to_cells() == {(2,)}
        assert reopened.catalog.entry(names[0], names[1]).version == 5

    def test_compact_preserves_generation_monotonicity(self, tmp_path):
        log, _ = chain_log(tmp_path / "db", 3)
        generation = load_manifest(tmp_path / "db" / STORE).generation
        log.compact()
        assert load_manifest(tmp_path / "db" / STORE).generation > generation

    def test_ingest_continues_after_compact(self, tmp_path):
        log, names = chain_log(tmp_path / "db", 3)
        log.compact()
        log.define_array("Z", (6,))
        log.add_lineage(names[-1], "Z", relation=elementwise_lineage((6,), in_name=names[-1], out_name="Z"))
        assert log.prov_query([names[0], "Z"], [(0,)]).to_cells() == {(0,)}
        log.close()
        assert DSLog.load(tmp_path / "db").prov_query(
            [names[0], "Z"], [(0,)]
        ).to_cells() == {(0,)}
