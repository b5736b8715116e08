"""``python -m repro.tools.upgrade``: every directory layout an older build
wrote refuses to open with the tool named, upgrades in place, then answers
exactly like the log it was written from; a second run is a no-op; and a
directory the parent commit's ``backend="sharded"`` wrote needs nothing.

The old layouts are built by test-local helpers (no production code writes
them any more): a one-shard store lifted to the root is what
``backend="segment"`` left behind, a ``write_compressed`` loop is the
per-entry layout, and ``rewrite_as_v1`` strips the per-record CRC the way
wire-v1 segments were framed.
"""

import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from repro import DSLog
from repro.core.relation import LineageRelation
from repro.core.serialize import write_compressed
from repro.storage.manifest import load_manifest, save_manifest
from repro.storage.segments import iter_records, scan_segment
from repro.tools.upgrade import main as upgrade_main
from repro.tools.upgrade import upgrade

FIXTURE = Path(__file__).parent / "fixtures" / "parent_sharded"

QUERIES = [
    (["A", "B"], [(0, 0), (4, 2)]),
    (["C", "B", "A"], [(2,), (5,)]),
    (["A", "B", "C", "D"], [(1, 1)]),
    (["D", "C"], [(0,), (3,)]),
    (["D", "A"], [(2,)]),  # graph-planned
]


def rel(pairs, in_shape, out_shape, a, b):
    # from_pairs takes (output cell, input cell) pairs and (out, in) shapes
    return LineageRelation.from_pairs(pairs, out_shape, in_shape, in_name=a, out_name=b)


def populate(log):
    """A 3-hop pipeline with op names, one operation record (with reuse
    state) and one replaced entry, so there is metadata to lose."""
    log.define_array("A", (6, 3))
    log.define_array("B", (6, 3))
    log.define_array("C", (6,))
    log.define_array("D", (6,))
    identity = [(c, c) for c in np.ndindex(6, 3)]
    log.add_lineage("A", "B", relation=rel(identity, (6, 3), (6, 3), "A", "B"), op_name="negative")
    row_sum = [((r,), (r, c)) for r in range(6) for c in range(3)]
    log.add_lineage("B", "C", relation=rel(row_sum, (6, 3), (6,), "B", "C"), op_name="sum_axis1")
    shift = [(((i + 1) % 6,), (i,)) for i in range(6)]
    log.register_operation(
        "shift",
        ["C"],
        ["D"],
        relations={("C", "D"): rel(shift, (6,), (6,), "C", "D")},
        input_data={"C": np.arange(6.0)},
        op_args={"k": 1},
    )
    log.add_lineage(
        "A", "B", relation=rel(identity, (6, 3), (6, 3), "A", "B"), op_name="negative-v2", replace=True
    )
    return log


def answers(log):
    return [log.prov_query(path, cells).to_cells() for path, cells in QUERIES]


@pytest.fixture(scope="module")
def expected():
    return answers(populate(DSLog()))


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def single_store_directory(root):
    """What ``backend="segment"`` wrote: manifest and segments at the root."""
    populate(DSLog(root, num_shards=1)).close()
    for path in (root / "shard-00").iterdir():
        path.rename(root / path.name)
    (root / "shard-00").rmdir()
    (root / "SHARDS.json").unlink()


def per_entry_directory(root, gzip=True):
    """What ``backend="memory"`` with a root wrote: one backward table per
    entry, nothing else."""
    root.mkdir()
    for entry in populate(DSLog()).catalog.entries():
        name = f"{entry.in_name}__{entry.out_name}.provrc" + (".gz" if gzip else "")
        write_compressed(entry.backward, root / name, gzip=gzip)


def rewrite_as_v1(store_dir):
    """Re-frame every segment of one store directory as wire v1 (``u32
    length | payload``, no CRC) and re-point the manifest's offsets."""
    manifest = load_manifest(store_dir)
    for name in manifest.segments:
        path = store_dir / name
        out = bytearray(b"DSEG" + struct.pack("<H", 1))
        moved = {}
        for offset, payload in iter_records(path):
            moved[offset] = len(out)
            out += struct.pack("<I", len(payload)) + payload
        path.write_bytes(bytes(out))
        for ref in manifest.iter_table_refs():
            if ref["segment"] == name:
                ref["offset"] = moved[ref["offset"]]
    save_manifest(store_dir, manifest)


def assert_refused(root):
    with pytest.raises(ValueError, match=r"python -m repro\.tools\.upgrade"):
        DSLog.load(root)


def assert_upgraded(root, expected):
    """Opens, answers like the source log, scrubs clean — and upgrading it
    again changes no byte."""
    log = DSLog.load(root)
    assert answers(log) == expected
    assert log.scrub()["clean"]
    log.close()
    before = tree_bytes(root)
    assert upgrade(root) is False
    assert tree_bytes(root) == before


class TestSingleStoreDirectory:
    def test_refused_then_upgraded_with_metadata_intact(self, tmp_path, expected):
        root = tmp_path / "db"
        single_store_directory(root)
        records = tree_bytes(root)
        assert_refused(root)
        assert tree_bytes(root) == records  # the refusal wrote nothing
        assert upgrade(root) is True
        assert_upgraded(root, expected)
        # by rename: the manifest and every segment byte are the ones written
        assert {f"shard-00/{name}": data for name, data in records.items()} == {
            name: data for name, data in tree_bytes(root).items() if name != "SHARDS.json"
        }
        log = DSLog.load(root)
        assert log.store.num_shards == 1
        entry = log.catalog.entry("A", "B")
        assert (entry.version, entry.op_name) == (2, "negative-v2")
        assert log.catalog.entry("B", "C").op_name == "sum_axis1"
        [record] = log.catalog.operations
        assert (record.op_name, record.op_args, record.entries) == ("shift", {"k": 1}, [("C", "D")])
        assert log.reuse.stats()["base_entries"] == 1  # reuse state came along
        log.close()

    def test_interrupted_run_is_finished_by_the_next(self, tmp_path, expected):
        root = tmp_path / "db"
        single_store_directory(root)
        # crash after the moves, before SHARDS.json
        (root / "shard-00").mkdir()
        for path in list(root.glob("segment-*.seg")) + [root / "MANIFEST.json"]:
            path.rename(root / "shard-00" / path.name)
        assert upgrade(root) is True
        assert_upgraded(root, expected)

    def test_quarantine_directory_moves_with_the_store(self, tmp_path):
        root = tmp_path / "db"
        single_store_directory(root)
        (root / "quarantine").mkdir()
        (root / "quarantine" / "segment-000009.seg.json").write_text("{}")
        upgrade(root)
        assert (root / "shard-00" / "quarantine" / "segment-000009.seg.json").exists()


class TestPerEntryDirectory:
    @pytest.mark.parametrize("gzip", [True, False])
    def test_refused_then_reingested(self, tmp_path, expected, gzip):
        root = tmp_path / "old"
        per_entry_directory(root, gzip=gzip)
        files = sorted(p.name for p in root.iterdir())
        assert_refused(root)
        assert upgrade(root) is True
        assert_upgraded(root, expected)
        log = DSLog.load(root)
        assert log.gzip is gzip
        assert len(log.catalog) == 3
        log.close()
        # the originals are kept, out of the store's way
        assert sorted(p.name for p in (root / "legacy").iterdir()) == files
        assert not (root / "upgrade.tmp").exists()


class TestWireV1Segments:
    def test_v1_in_a_sharded_directory(self, tmp_path, expected):
        root = tmp_path / "db"
        populate(DSLog(root, num_shards=2)).close()
        for shard in ("shard-00", "shard-01"):
            rewrite_as_v1(root / shard)
        assert_refused(root)
        assert upgrade(root) is True
        assert_upgraded(root, expected)
        for segment in root.glob("shard-*/segment-*.seg"):
            scan = scan_segment(segment)  # v2 header, and every record has a CRC that holds
            assert scan["records"] and all(ok for _off, _len, ok in scan["records"])
            assert scan["tail_bytes"] == 0

    def test_v1_in_a_single_store_directory(self, tmp_path, expected):
        root = tmp_path / "db"
        single_store_directory(root)
        rewrite_as_v1(root)
        assert_refused(root)
        assert upgrade(root) is True
        assert_upgraded(root, expected)

    def test_dangling_v1_ref_changes_nothing(self, tmp_path):
        root = tmp_path / "db"
        populate(DSLog(root, num_shards=1)).close()
        rewrite_as_v1(root / "shard-00")
        manifest_path = root / "shard-00" / "MANIFEST.json"
        data = json.loads(manifest_path.read_text())
        data["entries"][0]["backward"]["offset"] += 1
        manifest_path.write_text(json.dumps(data))
        before = manifest_path.read_bytes()
        with pytest.raises(ValueError, match="not a complete record"):
            upgrade(root)
        assert manifest_path.read_bytes() == before
        assert_refused(root)


class TestCurrentLayout:
    def test_directory_written_by_the_parent_commit_opens_unchanged(self, tmp_path):
        """``fixtures/parent_sharded`` was written by ``DSLog(root,
        backend="sharded", num_shards=2)`` at the commit before the
        single-store backend was removed (the same ``populate`` history)."""
        root = tmp_path / "db"
        shutil.copytree(FIXTURE, root)
        before = tree_bytes(root)
        assert upgrade(root) is False
        log = DSLog.load(root)
        assert answers(log) == answers(populate(DSLog()))
        entry = log.catalog.entry("A", "B")
        assert (entry.version, entry.op_name) == (2, "negative-v2")
        assert [op.op_name for op in log.catalog.operations] == ["shift"]
        assert log.scrub()["clean"]
        log.close()
        assert tree_bytes(root) == before


class TestCLI:
    def test_exit_codes(self, tmp_path, capsys):
        root = tmp_path / "db"
        single_store_directory(root)
        assert upgrade_main([str(root)]) == 0
        assert "upgraded" in capsys.readouterr().out
        assert upgrade_main([str(root)]) == 0
        assert "already current" in capsys.readouterr().out

    @pytest.mark.parametrize("make", [lambda p: p.mkdir(), lambda p: None, lambda p: p.write_text("x")])
    def test_not_a_dslog_directory_is_exit_2(self, tmp_path, capsys, make):
        target = tmp_path / "elsewhere"
        make(target)
        assert upgrade_main([str(target)]) == 2
        assert "error:" in capsys.readouterr().err
        if target.is_dir():
            assert list(target.iterdir()) == []  # and nothing was created
