"""The sharded multi-writer store: routing, durability, per-shard maintenance."""

import json

import numpy as np
import pytest

from repro import DSLog
from repro.capture.analytic import elementwise_lineage
from repro.storage.sharded import (
    DEFAULT_NUM_SHARDS,
    SHARDS_NAME,
    ShardedLineageStore,
    load_shards_file,
    shard_index,
)
from repro.storage.catalog import LineageConflictError

SHAPE = (4,)


def build_chain(log, n, prefix="A"):
    names = [f"{prefix}{i:03d}" for i in range(n + 1)]
    for name in names:
        log.define_array(name, SHAPE)
    for a, b in zip(names, names[1:]):
        log.add_lineage(a, b, relation=elementwise_lineage(SHAPE, in_name=a, out_name=b), op_name=f"op_{a}")
    return names


class TestShardRouting:
    def test_shard_index_is_stable_and_in_range(self):
        for n in (1, 2, 4, 7):
            idx = shard_index("input", "output", n)
            assert 0 <= idx < n
            assert idx == shard_index("input", "output", n)

    def test_different_pairs_spread_over_shards(self):
        hits = {shard_index(f"a{i}", f"b{i}", 4) for i in range(64)}
        assert hits == {0, 1, 2, 3}

    def test_entries_land_in_their_hash_shard(self, tmp_path):
        log = DSLog(tmp_path / "db", num_shards=4, autosync=False)
        names = build_chain(log, 12)
        log.close()
        for a, b in zip(names, names[1:]):
            home = shard_index(a, b, 4)
            manifest = json.loads(
                (tmp_path / "db" / f"shard-{home:02d}" / "MANIFEST.json").read_text()
            )
            assert [a, b] in [[row["in"], row["out"]] for row in manifest["entries"]]


class TestShardsFile:
    def test_shards_file_written_once(self, tmp_path):
        store = ShardedLineageStore(tmp_path / "db", num_shards=3, gzip=False)
        data = load_shards_file(tmp_path / "db")
        assert data["num_shards"] == 3 and data["gzip"] is False
        store.close()
        # reopening with different parameters: the on-disk layout wins
        reopened = ShardedLineageStore(tmp_path / "db", num_shards=8, gzip=True)
        assert reopened.num_shards == 3 and reopened.gzip is False
        reopened.close()

    def test_load_rejects_foreign_format(self, tmp_path):
        (tmp_path / SHARDS_NAME).write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a"):
            load_shards_file(tmp_path)

    def test_default_shard_count(self, tmp_path):
        log = DSLog(tmp_path / "db")
        assert log.store.num_shards == DEFAULT_NUM_SHARDS
        log.close()


class TestDurability:
    def test_reopen_reproduces_catalog(self, tmp_path):
        log = DSLog(tmp_path / "db", num_shards=4, autosync=False)
        names = build_chain(log, 10)
        log.define_array("OUT", SHAPE)
        log.register_operation(
            "double",
            [names[-1]],
            ["OUT"],
            captures={(names[-1], "OUT"): lambda cell: [cell]},
            input_data={names[-1]: np.arange(4)},
        )
        log.close()

        reopened = DSLog.load(tmp_path / "db")
        assert reopened.backend == "sharded"
        assert len(reopened.catalog) == 11
        assert {e.op_name for e in reopened.catalog.entries()} >= {"op_A000"}
        assert len(reopened.catalog.operations) == 1
        assert reopened.catalog.operations[0].op_name == "double"
        # zero tables deserialized by the cold open (the reuse predictor
        # hydrates lazily, so it must be touched only after this check)
        assert reopened.store.tables_deserialized == 0
        assert reopened.reuse.stats()["base_entries"] == 1
        result = reopened.prov_query([names[0], names[3]], [(2,)])
        assert result.to_cells() == {(2,)}
        reopened.close()

    def test_generation_vector_moves_per_shard(self, tmp_path):
        log = DSLog(tmp_path / "db", num_shards=4, autosync=False)
        log.define_array("x", SHAPE)
        log.define_array("y", SHAPE)
        log.add_lineage("x", "y", relation=elementwise_lineage(SHAPE, in_name="x", out_name="y"))
        log.sync()
        vector = log.store.generation_vector()
        home = shard_index("x", "y", 4)
        assert vector[home] >= 1
        untouched = [g for i, g in enumerate(vector) if i not in (home, 0)]
        assert all(g == 0 for g in untouched)
        log.close()

    def test_replace_versions_and_updates_row_in_place(self, tmp_path):
        log = DSLog(tmp_path / "db", num_shards=2, autosync=False)
        log.define_array("x", SHAPE)
        log.define_array("y", SHAPE)
        log.add_lineage("x", "y", relation=elementwise_lineage(SHAPE, in_name="x", out_name="y"), op_name="first")
        with pytest.raises(LineageConflictError):
            log.add_lineage("x", "y", relation=elementwise_lineage(SHAPE, in_name="x", out_name="y"), op_name="again")
        log.add_lineage(
            "x", "y", relation=elementwise_lineage(SHAPE, in_name="x", out_name="y"), op_name="second", replace=True
        )
        entry = log.catalog.entry("x", "y")
        assert entry.version == 2 and entry.op_name == "second"
        log.close()
        reopened = DSLog.load(tmp_path / "db")
        assert len(reopened.catalog) == 1
        entry = reopened.catalog.entry("x", "y")
        assert entry.version == 2 and entry.op_name == "second"
        home = shard_index("x", "y", reopened.store.num_shards)
        rows = reopened.store.shard(home).manifest.entries
        assert len(rows) == 1  # replaced in place, not appended
        reopened.close()

    def test_four_shards_match_one_shard_answers(self, tmp_path):
        sharded = DSLog(tmp_path / "sharded", num_shards=4, autosync=False)
        single = DSLog(tmp_path / "single", num_shards=1, autosync=False)
        for log in (sharded, single):
            build_chain(log, 8)
            log.close()
        sharded = DSLog.load(tmp_path / "sharded")
        single = DSLog.load(tmp_path / "single")
        assert (sharded.store.num_shards, single.store.num_shards) == (4, 1)
        for path in (["A000", "A001"], ["A002", "A005"], ["A007", "A003"]):
            cells = [(1,), (3,)]
            assert (
                sharded.prov_query(path, cells).to_cells()
                == single.prov_query(path, cells).to_cells()
            )
        assert sharded.lineage_summary()["entries"] == single.lineage_summary()["entries"]
        sharded.close()
        single.close()


class TestPerShardMaintenance:
    def test_compact_single_shard_leaves_others_alone(self, tmp_path):
        log = DSLog(tmp_path / "db", num_shards=3, autosync=False)
        build_chain(log, 12)
        log.sync()
        # replace a few entries to create dead bytes in their home shards
        relation = elementwise_lineage(SHAPE, in_name="A001", out_name="A002")
        log.add_lineage("A001", "A002", relation=relation, replace=True)
        home = shard_index("A001", "A002", 3)
        other = next(i for i in range(3) if i != home)
        before_other = log.store.shard(other).segment_bytes()
        stats = log.compact(shard=home)
        assert set(stats) == {home}
        assert stats[home]["reclaimed_bytes"] > 0
        assert log.store.shard(other).segment_bytes() == before_other
        # catalog still answers after the compaction remap
        assert log.prov_query(["A001", "A002"], [(0,)]).to_cells() == {(0,)}
        log.close()

    def test_compact_all_shards(self, tmp_path):
        log = DSLog(tmp_path / "db", num_shards=2, autosync=False)
        build_chain(log, 6)
        log.sync()
        stats = log.compact()
        assert set(stats) == {0, 1}
        reopened = DSLog.load(tmp_path / "db")
        assert len(reopened.catalog) == 6
        assert reopened.prov_query(["A000", "A001"], [(2,)]).to_cells() == {(2,)}
        reopened.close()
        log.close()

    def test_one_cache_holds_the_whole_budget(self, tmp_path):
        store = ShardedLineageStore(tmp_path / "db", num_shards=4, cache_bytes=4000)
        assert store.cache.budget_bytes == 4000
        assert all(shard.cache is store.cache for shard in store.shards)
        assert [stats["budget_bytes"] for stats in store.cache_stats()] == [4000]
        store.close()

    def test_storage_accounting_sums_shards(self, tmp_path):
        log = DSLog(tmp_path / "db", num_shards=4, autosync=False)
        build_chain(log, 8)
        log.sync()
        assert log.store.segment_bytes() == sum(
            s.segment_bytes() for s in log.store.shards
        )
        assert log.store.live_bytes() > 0
        assert log.storage_bytes() > 0
        log.close()
