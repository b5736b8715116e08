"""Round-trip and size tests for ProvRC serialization (ProvRC / ProvRC-GZip),
including the dtype-preservation contract: hydrated tables hold read-only
columns at their narrow dtypes, re-serialize to identical bytes, and answer
queries bit-identically to their int64 originals.  The reader reads the one
layout the writer emits and refuses any other with ``OLD_FORMAT_HINT``,
which names the last commit that reads the layouts earlier commits wrote."""

import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import theta_join_reference
from repro.core.compressed import CompressedLineage
from repro.core.provrc import compress
from repro.core.query import CellBoxSet, theta_join
from repro.core.relation import LineageRelation
from repro.core.serialize import (
    OLD_FORMAT_HINT,
    _COLUMNS,
    _MAGIC,
    _minmax,
    _smallest_int_dtype,
    deserialize_compressed,
    deserialize_compressed_gzip,
    json_frame,
    parse_json_frame,
    peek_table,
    read_compressed,
    serialize_compressed,
    serialize_compressed_gzip,
    serialize_table,
    deserialize_table,
    write_compressed,
)


def sample_table():
    pairs = [((i,), (i, j)) for i in range(50) for j in range(4)]
    relation = LineageRelation.from_pairs(pairs, (50,), (50, 4))
    return compress(relation), relation


class TestSerializationRoundTrip:
    def test_plain_roundtrip(self):
        table, relation = sample_table()
        restored = deserialize_compressed(serialize_compressed(table))
        assert restored.out_shape == table.out_shape
        assert restored.in_shape == table.in_shape
        assert restored.decompress() == relation

    def test_gzip_roundtrip(self):
        table, relation = sample_table()
        restored = deserialize_compressed_gzip(serialize_compressed_gzip(table))
        assert restored.decompress() == relation

    def test_axis_names_preserved(self):
        table, _ = sample_table()
        restored = deserialize_compressed(serialize_compressed(table))
        assert restored.out_axes == table.out_axes
        assert restored.in_axes == table.in_axes

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            deserialize_compressed(b"NOPE" + b"\x00" * 16)

    def test_empty_table(self):
        relation = LineageRelation((4,), (4,), np.empty((0, 2)))
        table = compress(relation)
        restored = deserialize_compressed(serialize_compressed(table))
        assert len(restored) == 0


class TestOnDisk:
    def test_write_read_plain(self, tmp_path):
        table, relation = sample_table()
        size = write_compressed(table, tmp_path / "t.provrc")
        assert size == (tmp_path / "t.provrc").stat().st_size
        assert read_compressed(tmp_path / "t.provrc").decompress() == relation

    def test_write_read_gzip_sniffed(self, tmp_path):
        table, relation = sample_table()
        write_compressed(table, tmp_path / "t.provrc.gz", gzip=True)
        assert read_compressed(tmp_path / "t.provrc.gz").decompress() == relation

    def test_compressed_is_much_smaller_than_raw(self, tmp_path):
        # A structured operation must compress far below the raw representation.
        pairs = [((i,), (i,)) for i in range(100_000)]
        relation = LineageRelation.from_pairs(pairs, (100_000,), (100_000,))
        table = compress(relation)
        size = write_compressed(table, tmp_path / "big.provrc")
        assert size < relation.nbytes_raw() / 1000


def _interval_table(magnitude, rows):
    """A backward 1-D table whose interval values reach ``magnitude - 1``
    (so the serializer must pick the matching dtype), mixing absolute and
    relative (delta) value encodings."""
    shape = (int(magnitude),)
    if rows == 0:
        empty = np.empty((0, 1), np.int64)
        return CompressedLineage(
            "B", "A", shape, shape,
            key_lo=empty, key_hi=empty,
            val_kind=np.empty((0, 1), np.int8), val_ref=np.empty((0, 1), np.int16),
            val_lo=empty, val_hi=empty,
        )
    if rows == 1:
        points = np.array([[magnitude - 1]], dtype=np.int64)  # forces the dtype
    else:
        points = np.linspace(0, magnitude - 1, num=rows, dtype=np.int64).reshape(-1, 1)
    kind = np.zeros((rows, 1), np.int64)
    kind[1::2] = 1  # odd rows relative (delta 0 against key attribute 0)
    ref = np.where(kind == 1, 0, -1)
    val_lo = np.where(kind == 1, 0, points)
    return CompressedLineage(
        "B", "A", shape, shape,
        key_lo=points, key_hi=points,
        val_kind=kind, val_ref=ref,
        val_lo=val_lo, val_hi=val_lo,
    )


MAGNITUDES = {
    np.int8: 100,
    np.int16: 30_000,
    np.int32: 2_000_000,
    np.int64: 2**40,
}
INTERVAL_COLUMNS = ("key_lo", "key_hi", "val_lo", "val_hi")


class TestDtypePreservation:
    """Hydration keeps the stored narrow dtypes: no ``astype(int64)``
    inflation, byte-stable re-serialization, identical query results."""

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    @pytest.mark.parametrize("gzip", [False, True])
    @pytest.mark.parametrize("rows", [0, 1, 66_000])
    def test_roundtrip(self, dtype, gzip, rows):
        table = _interval_table(MAGNITUDES[dtype], rows)
        data = serialize_table(table, gzip=gzip)
        hydrated = deserialize_table(data)

        expected = np.dtype(np.int8 if rows == 0 else dtype)
        for name in INTERVAL_COLUMNS:
            column = getattr(hydrated, name)
            assert column.dtype == expected, name
            assert not column.flags.writeable  # views into the payload
            assert np.array_equal(column, getattr(table, name))
        assert hydrated.out_shape == table.out_shape
        assert hydrated.in_shape == table.in_shape

        # the narrow views are charged at their actual footprint
        assert hydrated.nbytes() <= table.nbytes()
        if rows and dtype is not np.int64:
            assert hydrated.nbytes() < table.nbytes()

        # byte-stable: re-serializing the hydrated table reproduces the
        # exact plain payload (no dtype drift between generations)
        assert serialize_compressed(hydrated) == serialize_compressed(table)

        if rows:
            # query results must be bit-identical between the int64
            # original and the narrow hydrated table, and match the oracle
            span = min(int(MAGNITUDES[dtype]) - 1, 50)
            query = CellBoxSet(
                "B", table.key_shape,
                np.array([[0]], np.int64), np.array([[span]], np.int64),
            )
            got = theta_join(query, hydrated)
            want = theta_join(query, table)
            oracle = theta_join_reference(query, hydrated)
            for a, b in ((got, want), (got, oracle)):
                assert np.array_equal(a.lo, b.lo)
                assert np.array_equal(a.hi, b.hi)
            assert got.lo.dtype == np.int64  # box sets stay canonical

    def test_gzip_roundtrip_still_narrow(self):
        table, _relation = sample_table()
        hydrated = deserialize_compressed_gzip(serialize_compressed_gzip(table))
        assert hydrated.key_lo.dtype == np.int8
        assert hydrated.decompress() == _relation

    @staticmethod
    def one_row(val_kind, val_ref):
        """A plain one-row 1-D payload whose stored ``val_kind`` /
        ``val_ref`` bytes are overwritten — a table the constructor would
        refuse, so only the bytes can carry it."""
        zero = np.zeros((1, 1), np.int8)
        table = CompressedLineage(
            "B", "A", (4,), (4,),
            key_lo=zero, key_hi=zero + 3, val_kind=zero, val_ref=zero - 1, val_lo=zero, val_hi=zero,
        )
        data = bytearray(serialize_compressed(table))
        _header, offset = parse_json_frame(data, _MAGIC)
        # every column is one int8 byte: key_lo, key_hi, val_kind, val_ref, ...
        data[offset + 2 : offset + 4] = np.array([val_kind, val_ref], np.int8).tobytes()
        return bytes(data)

    def test_corrupt_val_ref_rejected_on_hydration(self):
        assert len(deserialize_compressed(self.one_row(1, 0))) == 1
        with pytest.raises(ValueError, match="corrupt or foreign"):
            deserialize_compressed(self.one_row(1, 5))  # out of range for a 1-D key

    def test_relative_attr_with_negative_ref_rejected(self):
        # ref -1 is legal on absolute attributes (the serializer's filler)
        # but on a relative one it would silently gather the last key
        # column (negative fancy index wraps) — must be rejected up front
        with pytest.raises(ValueError, match="corrupt or foreign"):
            deserialize_compressed(self.one_row(1, -1))


# every signed dtype's own extremes, so the writer's wrap-around
# subtractions (row deltas, extents) overflow at each width
DTYPE_EXTREMES = [
    bound
    for bits in (8, 16, 32, 64)
    for bound in (-(2 ** (bits - 1)), 2 ** (bits - 1) - 1)
]


@st.composite
def arbitrary_tables(draw):
    """Tables the constructor accepts but ProvRC would never emit: any row
    order, ``hi`` unrelated to ``lo``, negative and out-of-shape indices,
    each interval column at its own magnitude up to the int64 extremes (so
    extents and row deltas overflow and must wrap), one to four attributes
    a side, default or custom axis names."""
    rows = draw(st.sampled_from([0, 1, 2, 3, 40]))
    nkey = draw(st.integers(1, 4))
    nval = draw(st.integers(1, 4))

    def interval_column(width):
        bits = draw(st.sampled_from([3, 8, 16, 32, 64]))
        low, high = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        cells = st.one_of(st.integers(low, high), st.sampled_from([low, 0, high]))
        flat = draw(st.lists(cells, min_size=rows * width, max_size=rows * width))
        return np.asarray(flat, dtype=np.int64).reshape(rows, width)

    kind = np.asarray(
        draw(st.lists(st.integers(0, 1), min_size=rows * nval, max_size=rows * nval)),
        dtype=np.int64,
    ).reshape(rows, nval)
    refs = np.asarray(
        draw(st.lists(st.integers(0, nkey - 1), min_size=rows * nval, max_size=rows * nval)),
        dtype=np.int64,
    ).reshape(rows, nval)
    out_shape, in_shape = (5,) * nkey, (7,) * nval
    custom = draw(st.booleans())
    return CompressedLineage(
        "B", "A", out_shape, in_shape,
        key_lo=interval_column(nkey), key_hi=interval_column(nkey),
        val_kind=kind, val_ref=np.where(kind == 1, refs, -1),
        val_lo=interval_column(nval), val_hi=interval_column(nval),
        out_axes=tuple(f"row{i}" for i in range(len(out_shape))) if custom else None,
        in_axes=tuple(f"col{i}" for i in range(len(in_shape))) if custom else None,
    )


class TestColumnLayout:
    """The stored layout (row deltas of ``lo``, extents for ``hi``, the
    interval columns attribute-major, a terse header) is invisible above
    the serializer: hydration hands back each column value for value at the
    narrowest dtype that holds it."""

    @given(arbitrary_tables(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_is_exact_and_dtype_stable(self, table, gzip):
        hydrated = deserialize_table(serialize_table(table, gzip=gzip))
        for name in _COLUMNS:
            column = getattr(hydrated, name)
            assert np.array_equal(column, getattr(table, name)), name
            assert column.shape == getattr(table, name).shape, name
            assert column.dtype == _smallest_int_dtype(getattr(table, name)), name
            assert column.flags.c_contiguous and not column.flags.writeable, name
        # the two columns no layout transforms are views, not copies
        assert hydrated.val_kind.base is not None and hydrated.val_ref.base is not None
        assert hydrated.out_axes == table.out_axes and hydrated.in_axes == table.in_axes
        assert serialize_compressed(hydrated) == serialize_compressed(table)

    def test_extremes_of_every_dtype_wrap_and_come_back(self):
        # one column per dtype whose rows alternate between its two extremes:
        # every row delta and every extent overflows the dtype it is taken at
        for low, high in zip(DTYPE_EXTREMES[::2], DTYPE_EXTREMES[1::2]):
            lo = np.array([[low, high], [high, low], [low, low], [high, high]], np.int64)
            hi = lo[::-1].copy()
            kind = np.zeros((4, 2), np.int8)
            table = CompressedLineage(
                "B", "A", (9, 9), (9, 9),
                key_lo=lo, key_hi=hi, val_kind=kind, val_ref=kind - 1, val_lo=hi, val_hi=lo,
            )
            hydrated = deserialize_compressed(serialize_compressed(table))
            for name in INTERVAL_COLUMNS:
                assert np.array_equal(getattr(hydrated, name), getattr(table, name)), (name, high)
                assert getattr(hydrated, name).dtype == _smallest_int_dtype(lo), (name, high)

    def test_header_is_terse(self):
        table, _ = sample_table()
        header, _offset = parse_json_frame(serialize_compressed(table), _MAGIC)
        assert header == {
            "layout": "attr-delta",
            "key_side": "output",
            "out_name": table.out_name,
            "in_name": table.in_name,
            "out_shape": [50],
            "in_shape": [50, 4],
            "rows": len(table),
            "stored": [1, 1, 1, 1, 1, 1],
            "decoded": [1, 1, 1, 1],
        }

    def test_interval_columns_are_attribute_major(self):
        # two key attributes, three rows: the payload opens with attribute 0's
        # three row deltas, then attribute 1's, then the extents likewise
        key_lo = np.array([[1, 10], [2, 20], [4, 40]], np.int64)
        kind = np.zeros((3, 1), np.int8)
        table = CompressedLineage(
            "B", "A", (50, 50), (50,),
            key_lo=key_lo, key_hi=key_lo + [[0, 5]], val_kind=kind, val_ref=kind - 1,
            val_lo=kind, val_hi=kind,
        )
        data = serialize_compressed(table)
        _header, offset = parse_json_frame(data, _MAGIC)
        assert list(data[offset : offset + 12]) == [1, 1, 2, 10, 10, 20, 0, 0, 0, 5, 5, 5]

    def tables(self):
        rng = np.random.default_rng(5)
        shuffled = [((int(j),), (i,)) for i, j in enumerate(rng.permutation(300))]
        windows = [((i,), (j,)) for i in range(200) for j in range(max(0, i - 2), i + 1)]
        return [
            sample_table()[0],
            compress(LineageRelation.from_pairs(shuffled, (300,), (300,))),
            compress(LineageRelation.from_pairs([(a, b) for b, a in windows], (200,), (200,))),
            _interval_table(2**40, 1_000),
        ]

    @pytest.mark.parametrize("layout", [None, "row-delta", "zigzag", 4])
    def test_any_other_layout_names_the_upgrader(self, layout):
        data = reheader(serialize_compressed(sample_table()[0]), layout=layout)
        for payload in (data, zlib.compress(data)):
            with pytest.raises(ValueError, match=re.escape(OLD_FORMAT_HINT)):
                deserialize_table(payload)


def reheader(data, mutate=None, **changes):
    """*data* (a plain serialized table) with its parsed JSON header passed
    through *mutate* and top-level fields replaced by *changes* (``None``
    removes one); the column bytes are kept as they are."""
    header, offset = parse_json_frame(data, _MAGIC)
    if mutate is not None:
        mutate(header)
    header.update(changes)
    header = {key: value for key, value in header.items() if value is not None}
    return json_frame(_MAGIC, header, bytes(data[offset:]))


class TestHeaderValidation:
    """The reader validates the header before acting on it: a malformed
    field is one ``ValueError`` naming it — the type scrub and
    the store already handle — never a ``KeyError`` / ``TypeError`` /
    ``UFuncTypeError`` out of the decode, and never a mis-sliced table."""

    def test_header_claims_fewer_rows_than_the_payload_holds(self):
        # 3 of 10 rows: every column behind the first would be mis-sliced
        table = _interval_table(100, 10)
        with pytest.raises(ValueError, match=r"describes 18 column bytes \(3 rows\), 60 follow"):
            deserialize_compressed(reheader(serialize_compressed(table), rows=3))

    def test_header_claims_more_than_the_payload_holds(self):
        data = serialize_compressed(_interval_table(100, 10))
        for damaged in (data[:-1], data + b"\x00", reheader(data, rows=11)):
            with pytest.raises(ValueError, match="column bytes"):
                deserialize_compressed(damaged)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("rows", "10"), ("rows", -1), ("rows", 10.0), ("rows", None),
            ("stored", [1, 1, 1, 1, 1]), ("stored", [1, 1, 1, 1, 1, 3]),
            ("stored", "111111"), ("stored", [1, 1, [1], 1, 1, 1]), ("stored", None),
            ("decoded", [1, 1, 1]), ("decoded", [1, 1, 1, "<f8"]), ("decoded", None),
        ],
    )
    def test_attr_delta_fields(self, field, value):
        data = serialize_compressed(_interval_table(100, 10))
        with pytest.raises(ValueError, match=f"'{field}'"):
            deserialize_compressed(reheader(data, **{field: value}))

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
        data = reheader(serialize_compressed(_interval_table(100, 10)), **{field: value})
        for read in (deserialize_compressed, deserialize_table, peek_table):
            with pytest.raises(ValueError, match=f"'{field}'"):
                read(data)


class TestPeekTable:
    def test_plain_and_gzip(self):
        table, _ = sample_table()
        peeked = (table.in_name, table.out_name)
        assert peek_table(serialize_compressed(table)) == peeked
        assert peek_table(memoryview(serialize_compressed_gzip(table))) == peeked
        # the identity reads whatever the column layout: scrub verifies a
        # payload this build refuses to decode without dropping it
        assert peek_table(reheader(serialize_compressed(table), layout="row-delta")) == peeked

    def test_gzip_inflates_the_header_only(self):
        # a deflate stream that ends right behind the JSON header: inflating
        # the whole record would fail on it, reading the header does not
        table, _ = sample_table()
        plain = serialize_compressed(table)
        (header_len,) = struct.unpack("<I", plain[4:8])
        deflater = zlib.compressobj(6)
        head_only = deflater.compress(plain[: 8 + header_len]) + deflater.flush(zlib.Z_SYNC_FLUSH)
        with pytest.raises(zlib.error):
            zlib.decompress(head_only)
        assert peek_table(head_only) == (table.in_name, table.out_name)

    def test_truncated_and_garbage_rejected(self):
        table, _ = sample_table()
        packed = serialize_compressed_gzip(table)
        for cut in (0, 1, 6, 20):  # inside the zlib header, the prefix, the JSON
            with pytest.raises((ValueError, zlib.error)):
                peek_table(packed[:cut])
        with pytest.raises((ValueError, zlib.error)):
            peek_table(b"\xff" * 64)
        with pytest.raises(ValueError):
            peek_table(zlib.compress(b"NOPE" + b"\x00" * 64))
        with pytest.raises(ValueError):  # a header length of zero
            peek_table(zlib.compress(_MAGIC + struct.pack("<I", 0) + b"{}"))


class TestSmallestDtypeScan:
    def test_single_pass_minmax_matches_two_pass(self):
        rng = np.random.default_rng(7)
        # long enough to span several chunks, with the extremes buried
        # mid-stream so per-chunk reduction order matters
        arr = rng.integers(-1000, 1000, size=200_001)
        arr[123_456] = -(2**33)
        arr[171_717] = 2**35
        assert _minmax(arr) == (int(arr.min()), int(arr.max()))

    @pytest.mark.parametrize(
        "values,expected",
        [
            # every edge of every width, from both sides
            ([0, 127], np.int8),
            ([-128, 0], np.int8),
            ([0, 128], np.int16),
            ([-129, 0], np.int16),
            ([0, 2**15 - 1], np.int16),
            ([-(2**15), 0], np.int16),
            ([0, 2**15], np.int32),
            ([-(2**15) - 1, 0], np.int32),
            ([0, 2**31 - 1], np.int32),
            ([-(2**31), 0], np.int32),
            ([0, 2**31], np.int64),
            ([-(2**31) - 1, 0], np.int64),
            ([0, 2**40], np.int64),
            ([-(2**63), 2**63 - 1], np.int64),
        ],
    )
    def test_boundaries(self, values, expected):
        assert _smallest_int_dtype(np.asarray(values, np.int64)) == np.dtype(expected)

    def test_empty_and_already_int8_skip_the_scan(self):
        assert _smallest_int_dtype(np.empty((0, 3), np.int64)) == np.dtype(np.int8)
        assert _smallest_int_dtype(np.array([1, 2], np.int8)) == np.dtype(np.int8)

    def test_narrow_input_serializes_without_widening(self):
        # already-narrow columns are written as-is (cast skipped): hydrating
        # and re-serializing is byte-stable, proven over a gzip round trip
        table, _ = sample_table()
        plain = serialize_compressed(table)
        hydrated = deserialize_compressed(plain)
        again = deserialize_compressed(serialize_compressed(hydrated))
        assert serialize_compressed(again) == plain


class TestSharedFraming:
    """The shared magic/struct framing helpers behind PRVC, DSEG, BLST and
    the RPC frame: uniform truncation/corruption errors for every format."""

    def test_frame_header_round_trip(self):
        from repro.core.serialize import frame_header, parse_header

        buf = frame_header(b"ABCD", "HIH", 7, 123456, 9) + b"payload"
        fields, offset = parse_header(buf, b"ABCD", "HIH", "test frame")
        assert fields == (7, 123456, 9)
        assert buf[offset:] == b"payload"

    def test_parse_header_truncated(self):
        from repro.core.serialize import frame_header, parse_header

        buf = frame_header(b"ABCD", "I", 42)
        with pytest.raises(ValueError, match="truncated test frame header"):
            parse_header(buf[:-1], b"ABCD", "I", "test frame")
        with pytest.raises(ValueError, match="truncated"):
            parse_header(b"", b"ABCD", "I", "test frame")

    def test_parse_header_bad_magic(self):
        from repro.core.serialize import frame_header, parse_header

        buf = frame_header(b"ABCD", "I", 42)
        with pytest.raises(ValueError, match="not a test frame"):
            parse_header(b"XXXX" + buf[4:], b"ABCD", "I", "test frame")

    def test_json_frame_round_trip(self):
        from repro.core.serialize import json_frame, parse_json_frame

        buf = json_frame(b"JSON", {"k": [1, 2], "n": "x"}, b"\x01\x02")
        header, offset = parse_json_frame(buf, b"JSON", "test frame")
        assert header == {"k": [1, 2], "n": "x"}
        assert buf[offset:] == b"\x01\x02"

    def test_json_frame_header_overruns_buffer(self):
        from repro.core.serialize import json_frame, parse_json_frame

        buf = json_frame(b"JSON", {"k": 1})
        with pytest.raises(ValueError, match="claims"):
            parse_json_frame(buf[:10], b"JSON", "test frame")

    def test_json_frame_corrupt_header(self):
        from repro.core.serialize import parse_json_frame

        garbage = b"JSON" + struct.pack("<I", 4) + b"{{{{"
        with pytest.raises(ValueError, match="corrupt test frame header"):
            parse_json_frame(garbage, b"JSON", "test frame")
        not_an_object = b"JSON" + struct.pack("<I", 2) + b"[]"
        with pytest.raises(ValueError, match="not a JSON object"):
            parse_json_frame(not_an_object, b"JSON", "test frame")

    def test_prvc_truncated_and_corrupt_through_shared_helpers(self):
        # the PRVC reader goes through the shared parser: the same error
        # taxonomy shows up at the table level
        table, _ = sample_table()
        data = serialize_compressed(table)
        with pytest.raises(ValueError, match="not a ProvRC serialized table"):
            deserialize_compressed(b"XXXX" + data[4:])
        with pytest.raises(ValueError):
            deserialize_compressed(data[:6])

    def test_segment_header_through_shared_helpers(self, tmp_path):
        from repro.storage.segments import SegmentWriter, walk_records

        path = tmp_path / "seg-000.seg"
        with SegmentWriter(path) as writer:
            writer.append(b"hello")
            writer.sync()
        raw = path.read_bytes()
        bad = tmp_path / "bad.seg"
        bad.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(ValueError, match="is not a DSLog segment file"):
            list(walk_records(bad, 0))
