"""``python -m repro.tools.upgrade``: every on-disk format an older build
wrote refuses to open (or, for a table layout, to answer) with the tool
named, upgrades in place, then answers exactly like the log it was written
from; a second run is a no-op; and a directory the parent commit wrote
needs nothing.

The old formats are built by test-local helpers (no production code writes
them any more): a one-shard store lifted to the root is what
``backend="segment"`` left behind, a ``write_compressed`` loop is the
per-entry layout, ``rewrite_as_v1`` strips the per-record CRC the way
wire-v1 segments were framed, and ``serialize_verbatim`` /
``serialize_row_delta`` are the table writers before and after PR 15.
``fixtures/row_delta_sharded`` is a real store of ``row-delta`` tables.
"""

import json
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
from repro.core.compressed import CompressedLineage
from repro.core.provrc import compress
from repro.core.query import CellBoxSet, theta_join
from repro.core.reference import query_path_reference
from repro.core.relation import LineageRelation
from repro.core.serialize import (
    _COLUMNS,
    _MAGIC,
    _peek_header,
    _smallest_int_dtype,
    deserialize_compressed,
    deserialize_table,
    json_frame,
    parse_json_frame,
    peek_table,
    serialize_compressed,
    serialize_compressed_gzip,
    write_compressed,
)
from repro.storage.manifest import load_manifest, save_manifest
from repro.storage.segments import EDIT_MAGIC, SegmentWriter, iter_records, scan_segment
from repro.tools import upgrade as upgrade_module
from repro.tools.upgrade import _current, _read_legacy
from repro.tools.upgrade import main as upgrade_main
from repro.tools.upgrade import upgrade

FIXTURES = Path(__file__).parent / "fixtures"
# written by ``populate(DSLog(root, num_shards=2))`` at the last commit
# whose entries stored a forward table beside the backward one
FIXTURE = FIXTURES / "parent_sharded"
# the same history, written at the commit before the attr-delta layout: its
# six live payloads are "row-delta"
ROW_DELTA_FIXTURE = FIXTURES / "row_delta_sharded"

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


def per_entry_directory(root, gzip=True, writer=None):
    """What ``backend="memory"`` with a root wrote: one backward table per
    entry, nothing else — by *writer* (one of the older table writers)
    when given."""
    root.mkdir()
    for entry in populate(DSLog()).catalog.entries():
        name = f"{entry.in_name}__{entry.out_name}.provrc" + (".gz" if gzip else "")
        if writer is None:
            write_compressed(entry.backward, root / name, gzip=gzip)
        else:
            payload = writer(entry.backward)
            (root / name).write_bytes(zlib.compress(payload) if gzip else payload)


def table_records(path):
    """``(offset, payload)`` of every table record of a segment: what an
    older build, which logged no manifest edit, wrote."""
    return [(offset, payload) for offset, payload in iter_records(path) if payload[:4] != EDIT_MAGIC]


def rewrite_as_v1(store_dir):
    """Re-frame every segment of one store directory as wire v1 (``u32
    length | payload``, no CRC) and re-point the manifest's offsets."""
    manifest = load_manifest(store_dir)
    manifest.log = None  # the records after a checkpoint move: no log
    for name in manifest.segments:
        path = store_dir / name
        out = bytearray(b"DSEG" + struct.pack("<H", 1))
        moved = {}
        for offset, payload in table_records(path):
            moved[offset] = len(out)
            out += struct.pack("<I", len(payload)) + payload
        path.write_bytes(bytes(out))
        for ref in manifest.iter_table_refs():
            if ref["segment"] == name:
                ref["offset"] = moved[ref["offset"]]
    save_manifest(store_dir, manifest)


def craft_stream(columns, header_overrides=None, decoded=None):
    """Hand-assemble a table stream in the layouts that list a dtype and a
    shape per column (so degenerate shapes the constructor rejects can be
    written too).  *decoded* maps an interval column to the dtype string a
    ``row-delta`` header records."""
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
        # record the true shape first: ascontiguousarray promotes 0-d to 1-d
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
    return array.astype(_smallest_int_dtype(array), copy=False)


def serialize_verbatim(table):
    """The writer before any layout was named (before PR 15): every column
    written as it is, narrowed, and no ``layout`` field."""
    columns = {name: _narrow(getattr(table, name)) for name in _COLUMNS}
    return craft_stream(columns, _identity_header(table))


def serialize_row_delta(table):
    """The writer of PRs 15-17 (``"layout": "row-delta"``): row deltas and
    extents like today's, but row-major, under the header that lists a
    dtype, a shape and a ``decoded`` dtype per column."""
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
    save_manifest(store_dir, manifest)


def live_payloads(root):
    """``(gzip, layout)`` of every live record of every shard."""
    found = []
    for store_dir in sorted(root.glob("shard-*")):
        manifest = load_manifest(store_dir)
        records = {}
        for name in manifest.segments:
            records.update({(name, off): p for off, p in iter_records(store_dir / name)})
        for ref in manifest.iter_table_refs():
            payload = records[(ref["segment"], ref["offset"])]
            found.append((payload[:4] != _MAGIC, _peek_header(payload).get("layout")))
    return found


def assert_no_forward_record(root):
    """No manifest row names a forward table and no segment holds one:
    every record of every shard is a backward table."""
    for store_dir in sorted(root.glob("shard-*")):
        manifest = load_manifest(store_dir)
        assert not any("forward" in row for row in manifest.entries)
        for name in manifest.segments:
            for _offset, payload in table_records(store_dir / name):
                peek_table(payload)  # refuses an input-keyed (forward) table


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
    @pytest.mark.parametrize("writer", [None, *OLD_WRITERS], ids=["current", "verbatim", "row_delta"])
    def test_refused_then_reingested(self, tmp_path, expected, gzip, writer):
        # the per-entry layout went before attr-delta came: its real files
        # hold the older table layouts
        root = tmp_path / "old"
        per_entry_directory(root, gzip=gzip, writer=writer)
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


UPGRADE = r"python -m repro\.tools\.upgrade"
INTERVAL_COLUMNS = ("key_lo", "key_hi", "val_lo", "val_hi")


@st.composite
def tables(draw):
    """Tables the constructor accepts but ProvRC would never emit: any row
    order, ``hi`` unrelated to ``lo``, each interval column at its own
    magnitude up to the int64 extremes (so row deltas and extents wrap)."""
    rows = draw(st.sampled_from([0, 1, 2, 9]))
    nkey, nval = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def ints(low, high, width):
        flat = draw(st.lists(st.integers(low, high), min_size=rows * width, max_size=rows * width))
        return np.asarray(flat, np.int64).reshape(rows, width)

    def interval(width):
        bits = draw(st.sampled_from([3, 8, 16, 32, 64]))
        return ints(-(2 ** (bits - 1)), 2 ** (bits - 1) - 1, width)

    kind = ints(0, 1, nval)
    return CompressedLineage(
        "B", "A", (5,) * nkey, (7,) * nval,
        key_lo=interval(nkey), key_hi=interval(nkey),
        val_kind=kind, val_ref=np.where(kind == 1, ints(0, nkey - 1, nval), -1),
        val_lo=interval(nval), val_hi=interval(nval),
    )


def reheader(data, mutate):
    """*data* with its parsed JSON header passed through *mutate*."""
    header, offset = parse_json_frame(data, _MAGIC)
    mutate(header)
    return json_frame(_MAGIC, header, bytes(data[offset:]))


class TestLegacyReader:
    """The upgrader's reader of the two older table layouts hands back the
    columns the current reader does, value for value and dtype for dtype,
    and the rewrite is exactly the current writer's payload."""

    @given(tables(), st.sampled_from(OLD_WRITERS), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_columns_equal_the_current_readers(self, table, old_writer, gzip):
        old = old_writer(table)
        legacy = _read_legacy(old)
        current = deserialize_compressed(serialize_compressed(table))
        for name in _COLUMNS:
            assert getattr(legacy, name).dtype == getattr(current, name).dtype, name
            assert np.array_equal(getattr(legacy, name), getattr(current, name)), name
            assert not getattr(legacy, name).flags.writeable, name
        assert legacy.nbytes() == current.nbytes()
        assert peek_table(old) == peek_table(serialize_compressed(table))
        want = serialize_compressed_gzip(table) if gzip else serialize_compressed(table)
        assert _current(zlib.compress(old) if gzip else old) == want
        assert _current(want) == want  # a current payload passes untouched

    @pytest.mark.parametrize("old_writer", OLD_WRITERS)
    def test_older_payload_queries_identically(self, old_writer):
        rng = np.random.default_rng(5)
        shuffled = [((int(j),), (i,)) for i, j in enumerate(rng.permutation(300))]
        windows = [((i,), (j,)) for i in range(200) for j in range(max(0, i - 2), i + 1)]
        for table in (
            compress(LineageRelation.from_pairs(shuffled, (300,), (300,))),
            compress(LineageRelation.from_pairs([(a, b) for b, a in windows], (200,), (200,))),
        ):
            top = table.key_shape[0] - 1
            query = CellBoxSet(
                table.key_name, table.key_shape,
                np.array([[0], [top // 2]], np.int64), np.array([[top // 3], [top]], np.int64),
            )
            want, got = theta_join(query, table), theta_join(query, _read_legacy(old_writer(table)))
            assert np.array_equal(got.lo, want.lo) and np.array_equal(got.hi, want.hi)

    def test_the_rewrite_shrinks_what_zlib_sees(self):
        # a permutation is all degenerate intervals in ascending key order:
        # the extents are zeros and the key deltas ones
        permutation = np.random.default_rng(5).permutation(300)
        table = compress(LineageRelation.from_pairs([((int(j),), (i,)) for i, j in enumerate(permutation)], (300,), (300,)))
        assert len(serialize_compressed_gzip(table)) < 0.7 * len(zlib.compress(serialize_verbatim(table), 6))
        # a 2-D table ProvRC barely merges (every cell reads itself and two
        # cells a few places away): attribute-major keeps the slow attribute's
        # zeros apart from the fast one's small steps, and the terse header
        # is under half the size
        rng = np.random.default_rng(11)
        shape = (32, 32)
        pairs = []
        for flat in range(32 * 32):
            reads = {flat, *np.clip(flat + rng.integers(-3, 4, 2), 0, 32 * 32 - 1).tolist()}
            out_cell = tuple(int(v) for v in np.unravel_index(flat, shape))
            pairs += [(out_cell, tuple(int(v) for v in np.unravel_index(r, shape))) for r in reads]
        wide = compress(LineageRelation.from_pairs(pairs, shape, shape))
        assert len(wide) > 1500 and wide.key_ndim == 2
        packed = len(serialize_compressed_gzip(wide))
        assert packed < 0.98 * len(zlib.compress(serialize_row_delta(wide), 6))
        assert packed < 0.92 * len(zlib.compress(serialize_row_delta(wide), 4))


class TestLegacyHeaderValidation:
    """The legacy reader validates every header field before acting on it:
    a malformed one is a ``ValueError`` naming it, never a mis-sliced
    table or another exception type."""

    @staticmethod
    def listed(rows=10, **over):
        """Columns of a well-formed 1-D, *rows*-row listed-header stream."""
        columns = {name: np.zeros((rows, 1), np.int8) for name in _COLUMNS}
        columns["val_ref"] = columns["val_ref"] - 1
        columns.update(over)
        return columns

    DECODED = {name: "|i1" for name in INTERVAL_COLUMNS}

    def both_layouts(self, columns, mutate=lambda header: None):
        """The verbatim and the row-delta stream of *columns*, each with its
        parsed header passed through *mutate*."""
        for overrides, decoded in ((None, None), ({"layout": "row-delta"}, self.DECODED)):
            yield reheader(craft_stream(columns, overrides, decoded), mutate)

    def test_well_formed_streams_read(self):
        for data in self.both_layouts(self.listed()):
            assert len(_read_legacy(data)) == 10

    def test_missing_column(self):
        for data in self.both_layouts(self.listed(), lambda h: h["columns"].pop("val_ref")):
            with pytest.raises(ValueError, match="val_ref"):
                _read_legacy(data)
        with pytest.raises(ValueError, match="'columns'"):
            _read_legacy(reheader(craft_stream(self.listed()), lambda h: h.pop("columns")))

    @pytest.mark.parametrize("shape", [["10", 1], [10.0, 1], [-10, -1], [True, 10], "10", None])
    def test_shape_is_not_a_list_of_non_negative_ints(self, shape):
        def mutate(header):
            header["columns"]["val_lo"]["shape"] = shape

        for data in self.both_layouts(self.listed(), mutate):
            with pytest.raises(ValueError, match="val_lo 'shape'"):
                _read_legacy(data)

    @pytest.mark.parametrize("dtype", ["|u1", "<f8", "<U1", "|b1", "nonsense", 1, None, ["|i1"]])
    def test_dtype_is_not_a_signed_integer(self, dtype):
        def mutate(header):
            header["columns"]["key_hi"]["dtype"] = dtype

        for data in self.both_layouts(self.listed(), mutate):
            with pytest.raises(ValueError, match="key_hi dtype"):
                _read_legacy(data)

    @pytest.mark.parametrize("decoded", ["<f8", "|u1", None, 8])
    def test_row_delta_decoded_is_not_a_signed_integer(self, decoded):
        data = craft_stream(self.listed(), {"layout": "row-delta"}, {**self.DECODED, "val_hi": decoded})
        with pytest.raises(ValueError, match="val_hi dtype"):
            _read_legacy(data)

    def test_column_shapes_disagree_with_the_table(self):
        # byte-consistent, so only the shapes can tell: 10 lows, 5 extents
        for data in self.both_layouts(self.listed(key_hi=np.zeros((5, 1), np.int8))):
            with pytest.raises(ValueError, match="key_hi 'shape'"):
                _read_legacy(data)
        # two value attributes where the header's shapes say one
        for data in self.both_layouts(self.listed(val_lo=np.zeros((5, 2), np.int8))):
            with pytest.raises(ValueError, match="val_lo 'shape'"):
                _read_legacy(data)
        # 0-d columns: once decoded as size 0 and every later column read
        # from the wrong offset; now named, never mis-sliced
        scalar = {name: np.asarray(np.int8(0)) for name in _COLUMNS}
        for data in self.both_layouts(scalar):
            with pytest.raises(ValueError, match="key_lo 'shape'"):
                _read_legacy(data)

    def test_header_claims_fewer_rows_than_the_payload_holds(self):
        def mutate(header):
            for meta in header["columns"].values():
                meta["shape"] = [3, 1]

        for data in self.both_layouts(self.listed(), mutate):
            with pytest.raises(ValueError, match="42 bytes left over"):
                _read_legacy(data)

    def test_header_claims_more_than_the_payload_holds(self):
        def mutate(header):
            header["columns"]["val_hi"]["shape"] = [2**40, 1]

        for data in self.both_layouts(self.listed(), mutate):
            with pytest.raises(ValueError, match="val_hi needs 1099511627776 bytes, 10 are left"):
                _read_legacy(data)

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
    def test_table_fields(self, field, value):
        for data in self.both_layouts(self.listed(), lambda h: h.update({field: value})):
            with pytest.raises(ValueError, match=f"'{field}'"):
                _read_legacy(data)

    def test_unknown_layout_and_foreign_refs(self):
        with pytest.raises(ValueError, match="unknown ProvRC column layout 'zigzag'"):
            _read_legacy(craft_stream(self.listed(), {"layout": "zigzag"}))
        for data in self.both_layouts(self.listed(val_kind=np.ones((10, 1), np.int8))):
            with pytest.raises(ValueError, match="corrupt or foreign"):
                _read_legacy(data)  # a relative attribute with ref -1


LEGACY_PAYLOADS = [
    writer(table)
    for table in (
        compress(LineageRelation.from_pairs([((i,), (i, j)) for i in range(20) for j in range(3)], (20,), (20, 3))),
        compress(LineageRelation.from_pairs([((i, j), (j, i)) for i, j in np.ndindex(4, 5)], (4, 5), (5, 4))),
    )
    for writer in OLD_WRITERS
]


class TestLegacyReaderFuzz:
    """Flips, splices and truncations of older payloads, plain and gzip:
    the upgrader's reader ends in a table or a refusal, never another
    exception, and peaks at a small multiple of the bytes it was given."""

    @staticmethod
    def reads_or_refuses(data):
        tracemalloc.start()
        try:
            for decode in (_read_legacy, _current):
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

    @pytest.mark.parametrize("shape", [[2**40, 1], [2**20, 2**20], [2**62, 2**62]])
    def test_a_huge_listed_shape_is_refused_before_any_allocation(self, shape):
        def mutate(header):
            for meta in header["columns"].values():
                meta["shape"] = shape

        for payload in LEGACY_PAYLOADS:
            self.reads_or_refuses(reheader(payload, mutate))
            with pytest.raises(ValueError, match="key_lo needs"):
                _read_legacy(reheader(payload, mutate))


class TestOlderTableLayouts:
    @pytest.mark.parametrize("old_writer", OLD_WRITERS)
    @pytest.mark.parametrize("gzip", [True, False])
    def test_store_of_older_tables_is_rewritten(self, tmp_path, expected, old_writer, gzip):
        root = tmp_path / "db"
        populate(DSLog(root, num_shards=2, gzip=gzip)).close()
        for store_dir in root.glob("shard-*"):
            rewrite_payloads(store_dir, old_writer)
        log = DSLog.load(root)
        with pytest.raises(ValueError, match=UPGRADE):
            answers(log)
        log.close()
        assert upgrade(root) is True
        assert set(live_payloads(root)) == {(gzip, "attr-delta")}  # gzip-ness kept
        assert_upgraded(root, expected)

    def test_v1_segment_of_older_tables(self, tmp_path, expected):
        root = tmp_path / "db"
        populate(DSLog(root, num_shards=1)).close()
        rewrite_payloads(root / "shard-00", serialize_row_delta)
        rewrite_as_v1(root / "shard-00")
        assert_refused(root)
        assert upgrade(root) is True
        assert set(live_payloads(root)) == {(True, "attr-delta")}
        assert_upgraded(root, expected)


def mixed_layout_store(root):
    """The row-delta fixture plus four relations this build writes,
    compacted so each shard is one segment.  Returns ``{(in, out):
    relation}`` for every entry."""
    grid = list(np.ndindex(6, 3))
    relations = {
        ("A", "B"): rel([(c, c) for c in grid], (6, 3), (6, 3), "A", "B"),
        ("B", "C"): rel([((r,), (r, c)) for r, c in grid], (6, 3), (6,), "B", "C"),
        ("C", "D"): rel([(((i + 1) % 6,), (i,)) for i in range(6)], (6,), (6,), "C", "D"),
    }
    new = {
        ("D", "E"): rel([((i,), (5 - i,)) for i in range(6)], (6,), (6,), "D", "E"),
        ("B", "F"): rel([((c, r), (r, c)) for r, c in grid], (6, 3), (3, 6), "B", "F"),
        ("F", "G"): rel([((r, c), ((r + c) % 3, c)) for r, c in np.ndindex(3, 6)], (3, 6), (3, 6), "F", "G"),
        ("G", "H"): rel([((c,), (r, c)) for r, c in np.ndindex(3, 6)], (3, 6), (6,), "G", "H"),
    }
    shutil.copytree(ROW_DELTA_FIXTURE, root)
    log = DSLog.load(root)
    for (a, b), relation in new.items():
        log.define_array(b, relation.out_shape)
        log.add_lineage(a, b, relation=relation)
    log.compact()
    log.close()
    return {**relations, **new}


class TestRowDeltaStore:
    def test_opens_refuses_to_answer_and_scrub_keeps_every_byte(self, tmp_path):
        root = tmp_path / "db"
        shutil.copytree(ROW_DELTA_FIXTURE, root)
        before = tree_bytes(root)
        log = DSLog.load(root)
        assert log.store.tables_deserialized == 0 and len(log.catalog) == 3
        with pytest.raises(ValueError, match=UPGRADE):
            log.prov_query(["A", "B"], [(0, 0)])
        # verified by checksum and identity: clean, so nothing is repaired
        report = log.scrub(repair=True)
        assert report["clean"] and not any("layouts" in r for r in report["shards"].values())
        log.close()
        assert tree_bytes(root) == before

    def test_upgraded_with_metadata_intact(self, tmp_path, expected):
        root = tmp_path / "db"
        shutil.copytree(ROW_DELTA_FIXTURE, root)
        assert set(live_payloads(root)) == {(True, "row-delta")}
        assert upgrade(root) is True
        assert set(live_payloads(root)) == {(True, "attr-delta")}
        assert_no_forward_record(root)
        assert_upgraded(root, expected)
        log = DSLog.load(root)
        entry = log.catalog.entry("A", "B")
        assert (entry.version, entry.op_name) == (2, "negative-v2")
        assert log.reuse.stats()["base_entries"] == 1  # its tables re-pointed too
        log.close()

    def test_interrupted_before_the_publish_is_finished_by_the_next_run(
        self, tmp_path, expected, monkeypatch
    ):
        root = tmp_path / "db"
        shutil.copytree(ROW_DELTA_FIXTURE, root)
        manifests = {p: p.read_bytes() for p in root.glob("shard-*/MANIFEST.json")}

        def crash(*args):
            raise OSError("crash before the manifest publish")

        monkeypatch.setattr(upgrade_module, "save_manifest", crash)
        with pytest.raises(OSError, match="crash"):
            upgrade(root)
        monkeypatch.undo()
        # the fresh segment is on disk, referenced by nothing
        assert {p: p.read_bytes() for p in root.glob("shard-*/MANIFEST.json")} == manifests
        assert len(list(root.glob("shard-00/segment-*.seg"))) == 2
        log = DSLog.load(root)
        with pytest.raises(ValueError, match=UPGRADE):
            answers(log)
        log.close()
        assert upgrade(root) is True
        assert_upgraded(root, expected)  # scrub clean: no orphan left behind

    def test_mixed_layouts_compacted_then_upgraded(self, tmp_path):
        root = tmp_path / "db"
        relations = mixed_layout_store(root)
        # compaction copies payloads as opaque bytes: both layouts now sit
        # side by side in a shard's only segment
        assert {layout for _gzip, layout in live_payloads(root)} == {"row-delta", "attr-delta"}
        assert upgrade(root) is True
        assert {layout for _gzip, layout in live_payloads(root)} == {"attr-delta"}
        log = DSLog.load(root)
        try:
            for (a, b), relation in relations.items():
                for cells, path, direction in (
                    (list(np.ndindex(*relation.out_shape)), [b, a], "backward"),
                    (list(np.ndindex(*relation.in_shape)), [a, b], "forward"),
                ):
                    for cell in cells:
                        want = query_path_reference([relation], [direction], [cell])
                        assert log.prov_query(path, [cell]).to_cells() == want, (path, cell)
            assert log.scrub()["clean"]
        finally:
            log.close()


class TestForwardTables:
    def test_directory_with_forward_tables_drops_them_at_rewrite(self, tmp_path, expected):
        root = tmp_path / "db"
        shutil.copytree(FIXTURE, root)
        rows = [row for shard in root.glob("shard-*") for row in load_manifest(shard).entries]
        assert rows and all("forward" in row for row in rows)
        # the read path ignores them: the log answers before the upgrade
        log = DSLog.load(root)
        assert answers(log) == expected
        log.close()
        assert upgrade(root) is True
        assert_no_forward_record(root)
        assert set(live_payloads(root)) == {(True, "attr-delta")}
        assert_upgraded(root, expected)  # answers unchanged, scrub clean, idempotent
        log = DSLog.load(root)
        entry = log.catalog.entry("A", "B")
        assert (entry.version, entry.op_name) == (2, "negative-v2")
        assert [op.op_name for op in log.catalog.operations] == ["shift"]
        assert log.reuse.stats()["base_entries"] == 1
        log.close()


class TestCurrentLayout:
    def test_directory_this_build_wrote_opens_unchanged(self, tmp_path, expected):
        root = tmp_path / "db"
        populate(DSLog(root, num_shards=2)).close()
        before = tree_bytes(root)
        assert_no_forward_record(root)
        assert upgrade(root) is False
        assert tree_bytes(root) == before
        assert_upgraded(root, expected)


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
