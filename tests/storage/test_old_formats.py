"""Formats older builds wrote: each is refused at open (or, for a table
layout, at its first query) with ``OLD_FORMAT_HINT``, which names the last
commit that reads it, and the refusal writes nothing.  No upgrader ships.

Each refusal is checked on the smallest directory that triggers it and on
a whole older store.  The older formats are built by test-local helpers
(no production code writes them): a one-shard store lifted to the root is
what ``backend="segment"`` left behind, ``write_table_file`` writes the
per-entry layout, ``rewrite_as_v1`` strips the per-record CRC the way
wire-v1 segments were framed, and ``serialize_verbatim`` /
``serialize_row_delta`` are the two table writers before the
``attr-delta`` layout.  ``fixtures/row_delta_sharded`` is a real store of
``row-delta`` tables; ``fixtures/parent_sharded`` is a real store whose
manifest (format 1) holds a forward table ref beside each backward one,
which the reader drops.
"""

import re
import shutil
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DSLog
from repro.core.provrc import compress
from repro.core.reference import query_path_reference
from repro.core.relation import LineageRelation
from repro.core.serialize import (
    _COLUMNS,
    _MAGIC,
    OLD_FORMAT_HINT,
    deserialize_table,
    json_frame,
    parse_json_frame,
    peek_table,
    serialize_table,
    smallest_int_dtype,
)
from repro.storage.manifest import dump_manifest, load_manifest, write_manifest
from repro.storage.segments import EDIT_MAGIC, SEGMENT_MAGIC, SegmentWriter, walk_records
from repro.tools.scrub import main as scrub_main

FIXTURES = Path(__file__).parent / "fixtures"
HINT = re.escape(OLD_FORMAT_HINT)
V1_HEADER = SEGMENT_MAGIC + struct.pack("<H", 1)

QUERIES = [
    (["A", "B"], [(0, 0), (4, 2)]),
    (["C", "B", "A"], [(2,), (5,)]),
    (["A", "B", "C", "D"], [(1, 1)]),
    (["D", "C"], [(0,), (3,)]),
    (["D", "A"], [(2,)]),  # graph-planned
]


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def identity(shape=(4,)):
    pairs = [(c, c) for c in np.ndindex(*shape)]
    return LineageRelation.from_pairs(pairs, shape, shape, in_name="A", out_name="B")


def rel(pairs, in_shape, out_shape, a, b):
    # from_pairs takes (output cell, input cell) pairs and (out, in) shapes
    return LineageRelation.from_pairs(pairs, out_shape, in_shape, in_name=a, out_name=b)


def populate(log):
    """A 3-hop pipeline with op names, one operation record (with reuse
    state) and one replaced entry: the history both fixtures hold."""
    log.define_array("A", (6, 3))
    log.define_array("B", (6, 3))
    log.define_array("C", (6,))
    log.define_array("D", (6,))
    grid = [(c, c) for c in np.ndindex(6, 3)]
    log.add_lineage("A", "B", relation=rel(grid, (6, 3), (6, 3), "A", "B"), op_name="negative")
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
    log.add_lineage("A", "B", relation=rel(grid, (6, 3), (6, 3), "A", "B"), op_name="negative-v2", replace=True)
    return log


def one_entry_store(root):
    """A one-shard store holding ``A -> B``, left open and synced: the
    first publish is the checkpoint, the second an edit record in the log
    behind it."""
    log = DSLog(root, num_shards=1)
    log.define_array("A", (4,))
    log.define_array("B", (4,))
    log.sync()
    log.add_lineage("A", "B", relation=identity())
    log.sync()
    return log


def single_store_directory(root):
    """What ``backend="segment"`` wrote: manifest and segments at the root."""
    populate(DSLog(root, num_shards=1)).close()
    for path in (root / "shard-00").iterdir():
        path.rename(root / path.name)
    (root / "shard-00").rmdir()
    (root / "SHARDS.json").unlink()


def write_table_file(table, path, gzip, writer=None):
    """One table as a standalone ``.provrc[.gz]`` file, the per-entry
    layout: the table's payload by *writer* (the current serializer when
    omitted), zlib-compressed with *gzip*."""
    payload = (writer or serialize_table)(table)
    path.write_bytes(zlib.compress(payload) if gzip else payload)


def per_entry_directory(root, gzip=True, writer=None):
    """What ``backend="memory"`` with a root wrote: one backward table per
    entry, nothing else — by *writer* (one of the older table writers)
    when given."""
    root.mkdir()
    for entry in populate(DSLog()).catalog.entries():
        name = f"{entry.in_name}__{entry.out_name}.provrc" + (".gz" if gzip else "")
        write_table_file(entry.backward, root / name, gzip=gzip, writer=writer)


def as_v1(segment):
    """Stamp wire version 1 into a segment's header."""
    segment.write_bytes(V1_HEADER + segment.read_bytes()[len(V1_HEADER) :])


def table_records(path):
    """``(offset, payload)`` of every table record of a segment: what an
    older build, which logged no manifest edit, wrote."""
    return [(offset, payload) for offset, payload, _ in walk_records(path, 0) if payload[:4] != EDIT_MAGIC]


def rewrite_as_v1(store_dir):
    """Re-frame every segment of one store directory as wire v1 (``u32
    length | payload``, no CRC) and re-point the manifest's offsets."""
    manifest = load_manifest(store_dir)
    manifest.log = None  # the records after a checkpoint move: no log
    for name in manifest.segments:
        path = store_dir / name
        out = bytearray(V1_HEADER)
        moved = {}
        for offset, payload in table_records(path):
            moved[offset] = len(out)
            out += struct.pack("<I", len(payload)) + payload
        path.write_bytes(bytes(out))
        for ref in manifest.iter_table_refs():
            if ref["segment"] == name:
                ref["offset"] = moved[ref["offset"]]
    write_manifest(store_dir, dump_manifest(manifest))


def craft_stream(columns, header_overrides=None, decoded=None):
    """Hand-assemble a table stream in the layouts that list a dtype and a
    shape per column.  *decoded* maps an interval column to the dtype
    string a ``row-delta`` header records."""
    header = {
        "key_side": "output",
        "out_name": "B",
        "in_name": "A",
        "out_shape": [4],
        "in_shape": [4],
        "out_axes": ["b1"],
        "in_axes": ["a1"],
        "columns": {},
    }
    header.update(header_overrides or {})
    payload = bytearray()
    for name in _COLUMNS:
        arr = np.asarray(columns[name])
        header["columns"][name] = {"dtype": arr.dtype.str, "shape": list(arr.shape)}
        if decoded and name in decoded:
            header["columns"][name]["decoded"] = decoded[name]
        payload.extend(np.ascontiguousarray(arr).tobytes())
    return json_frame(_MAGIC, header, bytes(payload))


def _identity_header(table):
    return {
        "key_side": "output",
        "out_name": table.out_name,
        "in_name": table.in_name,
        "out_shape": list(table.out_shape),
        "in_shape": list(table.in_shape),
        "out_axes": list(table.out_axes),
        "in_axes": list(table.in_axes),
    }


def _narrow(array):
    return array.astype(smallest_int_dtype(array), copy=False)


def serialize_verbatim(table):
    """The writer before any layout was named: every column written as it
    is, narrowed, and no ``layout`` field."""
    columns = {name: _narrow(getattr(table, name)) for name in _COLUMNS}
    return craft_stream(columns, _identity_header(table))


def serialize_row_delta(table):
    """The ``"layout": "row-delta"`` writer: row deltas and extents, but
    row-major, under the header that lists a dtype, a shape and a
    ``decoded`` dtype per column."""
    columns = {"val_kind": _narrow(table.val_kind), "val_ref": _narrow(table.val_ref)}
    decoded = {}
    for lo_name, hi_name in (("key_lo", "key_hi"), ("val_lo", "val_hi")):
        lo, hi = _narrow(getattr(table, lo_name)), _narrow(getattr(table, hi_name))
        decoded[lo_name], decoded[hi_name] = lo.dtype.str, hi.dtype.str
        delta = lo.copy()
        np.subtract(lo[1:], lo[:-1], out=delta[1:])
        columns[lo_name], columns[hi_name] = _narrow(delta), _narrow(hi - lo)
    return craft_stream(columns, {**_identity_header(table), "layout": "row-delta"}, decoded)


OLD_WRITERS = [serialize_verbatim, serialize_row_delta]
WRITER_IDS = ["verbatim", "row_delta"]


def rewrite_payloads(store_dir, old_writer):
    """Re-encode every record of one store directory with *old_writer*
    (deflated again when it was) and re-point the manifest's refs."""
    manifest = load_manifest(store_dir)
    manifest.log = None  # the records after a checkpoint move: no log
    for name in manifest.segments:
        path = store_dir / name
        records = table_records(path)
        path.unlink()
        moved = {}
        with SegmentWriter(path) as writer:
            for offset, payload in records:
                old = old_writer(deserialize_table(payload))
                moved[offset] = writer.append(old if payload[:4] == _MAGIC else zlib.compress(old))
        for ref in manifest.iter_table_refs():
            if ref["segment"] == name:
                ref["offset"], ref["length"] = moved[ref["offset"]]
    write_manifest(store_dir, dump_manifest(manifest))


def reheader(data, mutate):
    """*data* with its parsed JSON header passed through *mutate*."""
    header, offset = parse_json_frame(data, _MAGIC)
    mutate(header)
    return json_frame(_MAGIC, header, bytes(data[offset:]))


def assert_refused(root):
    before = tree_bytes(root)
    with pytest.raises(ValueError, match=HINT):
        DSLog.load(root)
    assert tree_bytes(root) == before  # the refusal wrote nothing


class TestRefusedAtOpen:
    def test_root_level_manifest(self, tmp_path):
        # what the single-store backend left: the manifest beside its segments
        (tmp_path / "MANIFEST.json").write_text("{}")
        assert_refused(tmp_path)

    @pytest.mark.parametrize("name", ["A__B.provrc", "A__B.provrc.gz"])
    def test_per_entry_table_file(self, tmp_path, name):
        write_table_file(compress(identity()), tmp_path / name, gzip=name.endswith(".gz"))
        assert_refused(tmp_path)

    def test_wire_v1_segment(self, tmp_path):
        root = tmp_path / "db"
        one_entry_store(root).close()
        [segment] = root.glob("shard-00/segment-*.seg")
        as_v1(segment)
        # the closing checkpoint leaves no log tail to replay: the store's
        # own open is what refuses the segment
        assert load_manifest(segment.parent) is not None
        assert_refused(root)

    def test_wire_v1_log_segment_on_replay(self, tmp_path):
        # the checkpoint's log runs into a v1 segment: the replay refuses it
        # before it walks a record
        root = tmp_path / "db"
        log = one_entry_store(root)
        shutil.copytree(root, tmp_path / "copy")
        log.close()
        shard = tmp_path / "copy" / "shard-00"
        segment = shard / load_manifest(shard).log["segment"]
        as_v1(segment)
        with pytest.raises(ValueError, match=HINT):
            load_manifest(shard)
        assert_refused(tmp_path / "copy")


class TestOlderStores:
    """Whole stores in each older directory layout, with metadata, several
    segments and a replaced entry: refused at open, nothing written."""

    def test_single_store_directory(self, tmp_path):
        root = tmp_path / "db"
        single_store_directory(root)
        assert sorted(p.name for p in root.iterdir() if p.suffix == ".json") == ["MANIFEST.json"]
        assert_refused(root)

    @pytest.mark.parametrize("gzip", [True, False])
    @pytest.mark.parametrize("writer", [None, *OLD_WRITERS], ids=["current", *WRITER_IDS])
    def test_per_entry_directory(self, tmp_path, gzip, writer):
        # the per-entry layout went before attr-delta came: its real files
        # hold the older table layouts
        root = tmp_path / "old"
        per_entry_directory(root, gzip=gzip, writer=writer)
        assert len(list(root.iterdir())) == 3
        assert_refused(root)

    def test_wire_v1_in_a_sharded_directory(self, tmp_path):
        root = tmp_path / "db"
        populate(DSLog(root, num_shards=2)).close()
        for shard in ("shard-00", "shard-01"):
            rewrite_as_v1(root / shard)
            assert all(p.read_bytes()[: len(V1_HEADER)] == V1_HEADER for p in (root / shard).glob("*.seg"))
        assert_refused(root)

    def test_wire_v1_in_a_single_store_directory(self, tmp_path):
        root = tmp_path / "db"
        single_store_directory(root)
        rewrite_as_v1(root)
        assert_refused(root)


class TestOlderTableLayouts:
    """A store whose segments hold tables in an older layout opens (the
    catalog is in the manifest), refuses every query that needs one of
    those tables by name, and scrubs clean without rewriting a byte."""

    @pytest.mark.parametrize("old_writer", OLD_WRITERS, ids=WRITER_IDS)
    @pytest.mark.parametrize("gzip", [True, False])
    def test_store_of_older_tables(self, tmp_path, old_writer, gzip):
        root = tmp_path / "db"
        populate(DSLog(root, num_shards=2, gzip=gzip)).close()
        for store_dir in root.glob("shard-*"):
            rewrite_payloads(store_dir, old_writer)
        before = tree_bytes(root)
        log = DSLog.load(root)
        try:
            assert log.store.tables_deserialized == 0 and len(log.catalog) == 3
            for path, cells in QUERIES:
                with pytest.raises(ValueError, match=HINT):
                    log.prov_query(path, cells)
            report = log.scrub(repair=True)
            assert report["clean"] and not report.get("dropped_entries")
        finally:
            log.close()
        assert tree_bytes(root) == before

    def test_v1_segment_of_older_tables(self, tmp_path):
        # the wire version is checked first: the open refuses
        root = tmp_path / "db"
        populate(DSLog(root, num_shards=1)).close()
        rewrite_payloads(root / "shard-00", serialize_row_delta)
        rewrite_as_v1(root / "shard-00")
        assert_refused(root)

    def test_mixed_layouts_after_compaction(self, tmp_path):
        # compaction copies payloads as opaque bytes: the row-delta tables
        # of the fixture and tables this build wrote share a segment, the
        # new entries answer like the reference and the old ones refuse
        root = tmp_path / "db"
        shutil.copytree(FIXTURES / "row_delta_sharded", root)
        grid = list(np.ndindex(6, 3))
        new = {
            ("D", "E"): rel([((i,), (5 - i,)) for i in range(6)], (6,), (6,), "D", "E"),
            ("B", "F"): rel([((c, r), (r, c)) for r, c in grid], (6, 3), (3, 6), "B", "F"),
            ("F", "G"): rel([((c,), (r, c)) for r, c in np.ndindex(3, 6)], (3, 6), (6,), "F", "G"),
        }
        log = DSLog.load(root)
        for (a, b), relation in new.items():
            log.define_array(b, relation.out_shape)
            log.add_lineage(a, b, relation=relation)
        log.compact()
        log.close()
        assert all(len(list(shard.glob("segment-*.seg"))) == 1 for shard in root.glob("shard-*"))
        log = DSLog.load(root)
        try:
            for (a, b), relation in new.items():
                for cell in np.ndindex(*relation.out_shape):
                    want = query_path_reference([relation], ["backward"], [cell])
                    assert log.prov_query([b, a], [cell]).to_cells() == want, (a, b, cell)
            for path, cells in QUERIES[:2]:
                with pytest.raises(ValueError, match=HINT):
                    log.prov_query(path, cells)
            assert log.scrub()["clean"]
        finally:
            log.close()


class TestRowDeltaStore:
    def test_opens_refuses_to_answer_and_scrub_keeps_every_byte(self, tmp_path):
        root = tmp_path / "db"
        shutil.copytree(FIXTURES / "row_delta_sharded", root)
        before = tree_bytes(root)
        log = DSLog.load(root)
        assert log.store.tables_deserialized == 0 and len(log.catalog) == 3
        with pytest.raises(ValueError, match=HINT):
            log.prov_query(["A", "B"], [(0, 0)])
        # verified by checksum and identity: clean, so nothing is repaired
        report = log.scrub(repair=True)
        assert report["clean"] and not any("layouts" in r for r in report["shards"].values())
        log.close()
        assert tree_bytes(root) == before


def test_forward_refs_of_a_format_1_manifest_are_dropped(tmp_path):
    root = tmp_path / "db"
    shutil.copytree(FIXTURES / "parent_sharded", root)
    log = DSLog.load(root)
    try:
        assert [log.catalog.entry(*pair).version for pair in (("A", "B"), ("B", "C"), ("C", "D"))] == [2, 1, 1]
        # the history both fixtures were written from: identity A -> B
        # (replaced once), row sums B -> C, a cyclic shift C -> D
        assert log.prov_query(["A", "B"], [(0, 0), (4, 2)]).to_cells() == {(0, 0), (4, 2)}
        assert log.prov_query(["C", "B", "A"], [(2,)]).to_cells() == {(2, 0), (2, 1), (2, 2)}
        assert log.prov_query(["D", "C"], [(0,)]).to_cells() == {(5,)}
        log.compact()  # rewrites the segments the forward records sat in
        assert log.scrub()["clean"]
    finally:
        log.close()
    rows = [row for shard in root.glob("shard-*") for row in load_manifest(shard).entries]
    assert len(rows) == 3 and not any("forward" in row for row in rows)


INTERVAL_COLUMNS = ("key_lo", "key_hi", "val_lo", "val_hi")
LEGACY_TABLES = [
    compress(LineageRelation.from_pairs([((i,), (i, j)) for i in range(20) for j in range(3)], (20,), (20, 3))),
    compress(LineageRelation.from_pairs([((i, j), (j, i)) for i, j in np.ndindex(4, 5)], (4, 5), (5, 4))),
]
LEGACY_PAYLOADS = [writer(table) for table in LEGACY_TABLES for writer in OLD_WRITERS]


def listed(rows=10, **over):
    """Columns of a well-formed 1-D, *rows*-row listed-header stream."""
    columns = {name: np.zeros((rows, 1), np.int8) for name in _COLUMNS}
    columns["val_ref"] = columns["val_ref"] - 1
    columns.update(over)
    return columns


DECODED = {name: "|i1" for name in INTERVAL_COLUMNS}


def both_layouts(columns, mutate=lambda header: None):
    """The verbatim and the row-delta stream of *columns*, each with its
    parsed header passed through *mutate*."""
    for overrides, decoded in ((None, None), ({"layout": "row-delta"}, DECODED)):
        yield reheader(craft_stream(columns, overrides, decoded), mutate)


def assert_refused_by_name(data):
    """*data* (an older stream), plain and deflated, is refused with the
    hint before any column is read, and still peeks: scrub's identity check
    reads older tables too."""
    for payload in (data, zlib.compress(data)):
        with pytest.raises(ValueError, match=HINT):
            deserialize_table(payload)
        assert peek_table(payload) == ("A", "B")


class TestOlderPayloads:
    """One older table stream at a time: refused by name, whatever its
    column list says, and peeked by its table fields."""

    @pytest.mark.parametrize("gzip", [True, False])
    @pytest.mark.parametrize("old_writer", OLD_WRITERS, ids=WRITER_IDS)
    @pytest.mark.parametrize("table", LEGACY_TABLES, ids=["row_sum", "transpose"])
    def test_refused_naming_its_layout(self, table, old_writer, gzip):
        old = old_writer(table)
        layout = parse_json_frame(old, _MAGIC)[0].get("layout")
        payload = zlib.compress(old) if gzip else old
        with pytest.raises(ValueError, match=re.escape(f"column layout {layout!r}")) as refusal:
            deserialize_table(payload)
        assert str(refusal.value).endswith(OLD_FORMAT_HINT)
        assert peek_table(payload) == peek_table(serialize_table(table, gzip=gzip))

    def test_well_formed_streams_are_refused(self):
        for data in both_layouts(listed()):
            assert_refused_by_name(data)

    def test_missing_columns(self):
        for data in both_layouts(listed(), lambda h: h["columns"].pop("val_ref")):
            assert_refused_by_name(data)
        for data in both_layouts(listed(), lambda h: h.pop("columns")):
            assert_refused_by_name(data)

    @pytest.mark.parametrize("shape", [["10", 1], [10.0, 1], [-10, -1], [True, 10], "10", None])
    def test_column_shape_is_never_read(self, shape):
        def mutate(header):
            header["columns"]["val_lo"]["shape"] = shape

        for data in both_layouts(listed(), mutate):
            assert_refused_by_name(data)

    @pytest.mark.parametrize("dtype", ["|u1", "<f8", "<U1", "|b1", "nonsense", 1, None, ["|i1"]])
    def test_column_dtype_is_never_read(self, dtype):
        def mutate(header):
            header["columns"]["key_hi"]["dtype"] = dtype

        for data in both_layouts(listed(), mutate):
            assert_refused_by_name(data)

    @pytest.mark.parametrize("decoded", ["<f8", "|u1", None, 8])
    def test_row_delta_decoded_dtype_is_never_read(self, decoded):
        assert_refused_by_name(craft_stream(listed(), {"layout": "row-delta"}, {**DECODED, "val_hi": decoded}))

    def test_column_shapes_that_disagree_with_the_table(self):
        for columns in (
            listed(key_hi=np.zeros((5, 1), np.int8)),  # 10 lows, 5 extents
            listed(val_lo=np.zeros((5, 2), np.int8)),  # two value attributes
            {name: np.asarray(np.int8(0)) for name in _COLUMNS},  # 0-d columns
        ):
            for data in both_layouts(columns):
                assert_refused_by_name(data)

    def test_header_claims_fewer_rows_than_the_payload_holds(self):
        def mutate(header):
            for meta in header["columns"].values():
                meta["shape"] = [3, 1]

        for data in both_layouts(listed(), mutate):
            assert_refused_by_name(data)

    @pytest.mark.parametrize("shape", [[2**40, 1], [2**20, 2**20], [2**62, 2**62]])
    def test_a_huge_listed_shape_is_refused_before_any_allocation(self, shape):
        def mutate(header):
            for meta in header["columns"].values():
                meta["shape"] = shape

        for payload in LEGACY_PAYLOADS:
            data = reheader(payload, mutate)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=HINT):
                    deserialize_table(data)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 64 * len(data) + 256 * 1024, peak

    @pytest.mark.parametrize(
        "field,value",
        [
            ("key_side", "sideways"), ("key_side", None),
            # an input-keyed table: only builds that stored two orientations wrote one
            ("key_side", "input"),
            ("out_name", None), ("in_name", 7),
            ("out_shape", ["100"]), ("in_shape", [-1]), ("in_shape", None), ("out_shape", 100),
            ("out_axes", ["b1", "b2"]), ("in_axes", [1]), ("in_axes", "a1"),
        ],
    )
    def test_malformed_table_fields_are_named(self, field, value):
        # the table fields are validated before the layout is looked at, so
        # a malformed older header is a named corruption to peek and read
        # alike — what scrub reports as damage
        for data in both_layouts(listed(), lambda h: h.update({field: value})):
            for payload in (data, zlib.compress(data)):
                for decode in (deserialize_table, peek_table):
                    with pytest.raises(ValueError, match=f"'{field}'"):
                        decode(payload)


class TestOlderPayloadFuzz:
    """Flips, splices and truncations of older payloads, plain and gzip:
    the reader and ``peek_table`` end in a result or a refusal, never
    another exception, and a reader decode peaks at a small multiple of the
    bytes it was given."""

    @staticmethod
    def reads_or_refuses(data):
        tracemalloc.start()
        try:
            for decode in (deserialize_table, peek_table):
                try:
                    decode(data)
                except (ValueError, zlib.error):
                    pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if data[:4] == _MAGIC:  # a deflated mutant may inflate to any size
            assert peak <= 64 * len(data) + 256 * 1024, peak

    @settings(max_examples=200, deadline=5_000)
    @given(st.sampled_from(LEGACY_PAYLOADS), st.booleans(), st.data())
    def test_byte_flips(self, payload, gzip, data):
        flipped = bytearray(zlib.compress(payload) if gzip else payload)
        for _ in range(data.draw(st.integers(1, 4))):
            flipped[data.draw(st.integers(0, len(flipped) - 1))] ^= data.draw(st.integers(1, 255))
        self.reads_or_refuses(bytes(flipped))

    @settings(max_examples=200, deadline=5_000)
    @given(st.sampled_from(LEGACY_PAYLOADS), st.sampled_from(LEGACY_PAYLOADS), st.data())
    def test_splices_and_truncations(self, first, second, data):
        head = first[: data.draw(st.integers(0, len(first)))]
        self.reads_or_refuses(head)
        self.reads_or_refuses(head + second[data.draw(st.integers(0, len(second))) :])


def older_per_entry(root):
    per_entry_directory(root, gzip=True, writer=serialize_row_delta)


def older_wire_v1(root):
    populate(DSLog(root, num_shards=1)).close()
    rewrite_as_v1(root / "shard-00")


class TestScrubCLI:
    """``python -m repro.tools.scrub`` on a directory an older build wrote:
    exit 2, the hint on stderr, and not a byte written."""

    @pytest.mark.parametrize(
        "make", [single_store_directory, older_per_entry, older_wire_v1], ids=["single_store", "per_entry", "wire_v1"]
    )
    @pytest.mark.parametrize("repair", [False, True], ids=["detect", "repair"])
    def test_older_directory_is_exit_2_naming_the_hint(self, tmp_path, capsys, make, repair):
        root = tmp_path / "db"
        make(root)
        before = tree_bytes(root)
        assert scrub_main([str(root)] + (["--repair"] if repair else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and OLD_FORMAT_HINT in err
        assert tree_bytes(root) == before
