"""Serialization of ProvRC tables and the ProvRC-GZip variant.

The on-disk format is a compact self-describing binary: the ``PRVC`` magic,
a ``u32`` length, a JSON header, then the raw little-endian bytes of the six
columnar arrays, each downcast to the smallest integer dtype that can
represent what it holds.  ``ProvRC-GZip`` (the format DSLog uses by
default, Section VII.B) is simply this payload passed through zlib,
mirroring how the paper stacks GZip on top of the main algorithm.  How hard
zlib tries is ``_ZLIB_LEVEL``, one constant for every table.

**Column layout** (``"layout": "attr-delta"``).  ProvRC's own invariants
make three transforms nearly free, and every table gets all of them — one
rule, no per-table choice:

* every ``*_hi`` column is stored as its **extent** ``hi - lo``: zero on
  every row ProvRC could not merge, which is most rows of the tables that
  dominate a store (a 20,000-row ``sort`` table is 20,000 degenerate
  intervals);
* every ``*_lo`` column is stored as its **row delta** along axis 0 (row 0
  against zero): rows are in canonical key order, so key deltas are tiny
  and mostly constant;
* those four interval columns are written **attribute-major** (the bytes
  of the transpose): the slow key attribute's run of zero deltas is not
  interleaved with the fast attribute's steps, so deflate finds its
  matches at distance 1 instead of searching for them.

Deltas and extents are computed with wrap-around arithmetic at the
columns' own narrow dtypes and narrowed once more, so the round trip is
exact over the whole int64 range and neither needs more bits than the
values it encodes.  ``val_kind`` and ``val_ref`` are stored verbatim,
row-major.

**Header.**  What cannot be derived, plus one fixed tag::

    {"layout": "attr-delta", "key_side": "output",
     "out_name": "B", "in_name": "A", "out_shape": [50], "in_shape": [50, 4],
     "rows": 50, "stored": [1, 1, 1, 1, 1, 1], "decoded": [1, 1, 1, 1]}

``"key_side": "output"`` is that tag: every table is keyed on its output
side (the backward orientation; a forward hop is the inverse θ-join over
the same table), and the reader refuses any other value with a
``ValueError`` naming the field — only builds that stored a second,
input-keyed orientation per entry wrote one.

``stored`` is the item size in bytes of the six columns as written, in the
order ``key_lo, key_hi, val_kind, val_ref, val_lo, val_hi`` (the order
their bytes follow in); ``decoded`` the item size each of the four
interval columns decodes to — the dtype it would have been written at
verbatim.  An item size names a signed integer dtype, so no other dtype
can be described.  Every column has ``rows`` rows and as many attributes
as its side of the relation has axes (``out_shape`` for the two key
columns, ``in_shape`` for the four value columns), so the six columns
cannot disagree on a row count.  ``out_axes`` / ``in_axes`` appear only
when they are not the defaults (``b1, b2, ...`` / ``a1, a2, ...``).

This is the one layout the reader reads.  A payload in any other (the
layouts older builds wrote) is a ``ValueError`` ending in
:data:`OLD_FORMAT_HINT`: no upgrader ships, and the hint names the last
commit that does.  The reader validates each header field before acting
on it and raises ``ValueError`` naming the field.

**Hydration** hands back read-only, C-contiguous columns at those narrow
dtypes — no ``astype(int64)`` upcast, so a table stored as int8 is charged
its int8 footprint by :meth:`CompressedLineage.nbytes`, and that footprint
is all an ``attr-delta`` table holds: the four interval columns are
rebuilt in one pass each (``np.add.accumulate`` down the rows for a
``lo``, ``np.add`` for a ``hi``, each attribute's contiguous run scanned
straight into its column of the row-major result) into arrays of their
own, and ``val_kind`` / ``val_ref`` are two views over one copy of their
``rows × nval`` items, so the buffer :func:`deserialize_compressed` was
given (an inflate result, an mmap'd segment record) is referenced by
nothing once the call returns.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Tuple

import numpy as np

from .compressed import CompressedLineage
from .relation import default_axis_names

__all__ = [
    "serialize_compressed",
    "deserialize_compressed",
    "serialize_compressed_gzip",
    "deserialize_compressed_gzip",
    "serialize_table",
    "deserialize_table",
    "frame_header",
    "parse_header",
    "json_frame",
    "parse_json_frame",
    "smallest_int_dtype",
    "OLD_FORMAT_HINT",
]

_MAGIC = b"PRVC"
_WHAT = "ProvRC serialized table"
_COLUMNS = ("key_lo", "key_hi", "val_kind", "val_ref", "val_lo", "val_hi")
_INTERVAL_PAIRS = (("key_lo", "key_hi"), ("val_lo", "val_hi"))
# the one layout writers emit and the reader reads
_LAYOUT = "attr-delta"
_KEY_SIDE = "output"  # fixed header tag: every table is keyed on its output side
# How every refusal of an older on-disk format ends (a table layout, a
# segment wire version, a directory without SHARDS.json): no upgrader is
# kept, so the refusal names the last commit that ships one.
OLD_FORMAT_HINT = (
    "commit 33a91de is the last that reads it: run "
    "`python -m repro.tools.upgrade <root>` there once on the catalog that holds it"
)
# the four dtypes a column is ever stored at or decoded to, by item size —
# what the terse header records of a dtype; little-endian at rest
_INT_DTYPES = {size: np.dtype(f"<i{size}") for size in (1, 2, 4, 8)}

# Deflate effort of ProvRC-GZip, chosen once on whole catalogs (README, PR 18
# table): with attribute-major columns level 4 stores fewer bytes than level 6
# did row-major, in under half the time.  Not tuned per table, by no caller.
_ZLIB_LEVEL = 4


# ----------------------------------------------------------------------
# shared magic/struct framing
# ----------------------------------------------------------------------
# Every binary format in the repo opens the same way: a short ASCII magic
# followed by a little-endian struct of fixed fields — "PRVC"/"BLST" carry
# a u32 JSON-header length, "DSEG" a u16 wire version, the RPC frame a
# (version, length, opcode, request id) tuple.  These two helpers are that
# one idiom, with uniform truncation/corruption errors, so each format
# stops hand-rolling its own slice-and-unpack.

def frame_header(magic: bytes, layout: str, *fields) -> bytes:
    """Pack *magic* + ``struct.pack("<" + layout, *fields)``."""
    return magic + struct.pack("<" + layout, *fields)


def parse_header(data, magic: bytes, layout: str, what: str = "frame") -> Tuple[tuple, int]:
    """Validate *magic* and unpack the fixed header fields behind it.

    *data* is any buffer.  Returns ``(fields, offset)`` where *offset* is
    the first byte past the header.  Raises ``ValueError`` naming *what*
    when the buffer is shorter than the header (truncation) or the magic
    does not match (corruption / wrong format).
    """
    view = memoryview(data)
    size = len(magic) + struct.calcsize("<" + layout)
    if len(view) < size:
        raise ValueError(
            f"truncated {what} header: need {size} bytes, have {len(view)}"
        )
    if bytes(view[: len(magic)]) != magic:
        raise ValueError(
            f"not a {what}: bad magic {bytes(view[:len(magic)])!r} (want {magic!r})"
        )
    return struct.unpack("<" + layout, view[len(magic) : size]), size


def json_frame(magic: bytes, header: dict, payload: bytes = b"") -> bytes:
    """*magic* + u32 header length + compact JSON *header* + *payload* —
    the "PRVC" framing, shared by every JSON-headed format."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return frame_header(magic, "I", len(header_bytes)) + header_bytes + payload


def parse_json_frame(data, magic: bytes, what: str = "frame") -> Tuple[dict, int]:
    """Inverse of :func:`json_frame`: returns ``(header, payload_offset)``.

    Raises ``ValueError`` on a bad magic, a header length that overruns
    the buffer, or JSON that does not decode — every corruption mode maps
    to one exception type the storage/scrub layers already handle.
    """
    view = memoryview(data)
    (header_len,), offset = parse_header(view, magic, "I", what)
    if len(view) < offset + header_len:
        raise ValueError(
            f"truncated {what} header: JSON header claims {header_len} bytes, "
            f"only {len(view) - offset} present"
        )
    try:
        header = json.loads(bytes(view[offset : offset + header_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:  # too deeply nested
        raise ValueError(f"corrupt {what} header: {error}") from None
    if not isinstance(header, dict):
        raise ValueError(f"corrupt {what} header: not a JSON object")
    return header, offset + header_len

# chunk size of the single-pass min/max scan: large enough to amortize the
# numpy call overhead, small enough that each chunk stays in L2 so the max
# reduction re-reads cache-hot bytes instead of making a second memory pass
_MINMAX_CHUNK = 65_536


def _minmax(flat: np.ndarray) -> Tuple[int, int]:
    """Min and max of a flat integer array in one pass over memory.

    Each chunk is reduced for both bounds while its bytes are cache-hot,
    so the array is streamed from memory once instead of twice (``min``
    then ``max`` back to back re-reads everything on large columns).
    """
    if flat.size <= _MINMAX_CHUNK:
        return int(flat.min()), int(flat.max())
    lo = None
    hi = None
    for start in range(0, flat.size, _MINMAX_CHUNK):
        chunk = flat[start : start + _MINMAX_CHUNK]
        clo = chunk.min()
        chi = chunk.max()
        if lo is None or clo < lo:
            lo = clo
        if hi is None or chi > hi:
            hi = chi
    return int(lo), int(hi)


# (min, max, dtype) of each signed width, narrowest first: np.iinfo built per
# candidate cost more than the min/max scan of a small array
_INT_RANGES = tuple(
    (int(np.iinfo(t).min), int(np.iinfo(t).max), np.dtype(t)) for t in (np.int8, np.int16, np.int32, np.int64)
)


def _smallest_int_dtype(array: np.ndarray) -> np.dtype:
    """Pick the narrowest signed integer dtype that can hold *array*."""
    if array.size == 0 or array.dtype == _INT_RANGES[0][2]:
        # int8 is the floor: an empty column (or one already at the floor)
        # needs no value scan at all
        return _INT_RANGES[0][2]
    lo, hi = _minmax(array.reshape(-1))
    for low, high, dtype in _INT_RANGES:
        if low <= lo and hi <= high:
            return dtype
    return _INT_RANGES[-1][2]


# the RPC wire layer narrows result boxes the same way table columns are
# narrowed on disk; one name, one policy
smallest_int_dtype = _smallest_int_dtype


def _narrowed(array: np.ndarray) -> np.ndarray:
    """*array*, C-contiguous, at the narrowest dtype that holds it (no copy
    when it already is — e.g. the columns of a table hydrated from disk)."""
    return np.ascontiguousarray(array.astype(_smallest_int_dtype(array), copy=False))


def serialize_compressed(table: CompressedLineage) -> bytes:
    """Serialize a compressed lineage table to bytes (no general compression)."""
    rows = len(table)
    stored = {"val_kind": _narrowed(table.val_kind), "val_ref": _narrowed(table.val_ref)}
    decoded = []
    for lo_name, hi_name in _INTERVAL_PAIRS:
        lo = _narrowed(getattr(table, lo_name))
        hi = _narrowed(getattr(table, hi_name))
        decoded += [lo.dtype.itemsize, hi.dtype.itemsize]
        # both wrap at the narrow dtype: exact modulo 2**bits, which is all
        # the decode (same arithmetic, same dtype) needs
        delta = lo.copy()
        np.subtract(lo[1:], lo[:-1], out=delta[1:])
        # attribute-major: tobytes() of a transpose lays each attribute's
        # rows end to end
        stored[lo_name] = _narrowed(delta).T
        stored[hi_name] = _narrowed(hi - lo).T
    sizes = []
    payload = bytearray()
    nkey, nval = table.key_ndim, table.value_ndim
    for name, width in zip(_COLUMNS, (nkey, nkey, nval, nval, nval, nval)):
        column = stored[name]
        if column.size != rows * width:
            # the header carries one row count and derives every shape from it
            raise ValueError(
                f"{name} holds {column.size} values, not {rows} rows x {width} attributes"
            )
        sizes.append(column.dtype.itemsize)
        payload += column.astype(_INT_DTYPES[column.dtype.itemsize], copy=False).tobytes()
    header = {
        "layout": _LAYOUT,
        "key_side": _KEY_SIDE,
        "out_name": table.out_name,
        "in_name": table.in_name,
        "out_shape": list(table.out_shape),
        "in_shape": list(table.in_shape),
        "rows": rows,
        "stored": sizes,
        "decoded": decoded,
    }
    if tuple(table.out_axes) != default_axis_names("b", len(table.out_shape)):
        header["out_axes"] = list(table.out_axes)
    if tuple(table.in_axes) != default_axis_names("a", len(table.in_shape)):
        header["in_axes"] = list(table.in_axes)
    return json_frame(_MAGIC, header, payload)


def _corrupt(field: str, problem: str) -> ValueError:
    return ValueError(f"corrupt {_WHAT} header: {field} {problem}")


def _dims(values, field: str) -> int:
    """Product of a list of non-negative ints (1 for the empty list: a
    zero-dimensional column has exactly one element, the empty shape's
    index space being the single empty tuple)."""
    if type(values) is not list:
        raise _corrupt(field, "is not a list")
    count = 1
    for dim in values:
        if type(dim) is not int or dim < 0:
            raise _corrupt(field, f"holds {dim!r}, not a non-negative int")
        count *= dim
    return count


def _axis_names(header: dict, field: str, prefix: str, ndim: int) -> tuple:
    axes = header.get(field)
    if axes is None:  # the terse header names axes only when they are not these
        return default_axis_names(prefix, ndim)
    if type(axes) is not list or len(axes) != ndim:
        raise _corrupt(repr(field), f"does not name the {ndim} axes of its array")
    for axis in axes:
        if type(axis) is not str:
            raise _corrupt(repr(field), f"holds {axis!r}, not a string")
    return tuple(axes)


def _table_fields(header: dict) -> tuple:
    """The validated non-column fields of a table header:
    ``(out_name, in_name, out_shape, in_shape, out_axes, in_axes)``."""
    key_side = header.get("key_side")
    if key_side != _KEY_SIDE:
        raise _corrupt("'key_side'", f"is {key_side!r}, not {_KEY_SIDE!r}")
    out_name, in_name = header.get("out_name"), header.get("in_name")
    if type(out_name) is not str or type(in_name) is not str:
        raise _corrupt("'out_name' / 'in_name'", "is not a string")
    out_shape, in_shape = header.get("out_shape"), header.get("in_shape")
    _dims(out_shape, "'out_shape'")
    _dims(in_shape, "'in_shape'")
    return (
        out_name,
        in_name,
        tuple(out_shape),
        tuple(in_shape),
        _axis_names(header, "out_axes", "b", len(out_shape)),
        _axis_names(header, "in_axes", "a", len(in_shape)),
    )


def _item_dtypes(header: dict, field: str, n: int) -> list:
    sizes = header.get(field)
    if type(sizes) is list and len(sizes) == n:
        try:
            return [_INT_DTYPES[size] for size in sizes]
        except (KeyError, TypeError):
            pass
    raise _corrupt(repr(field), f"is {sizes!r}, not {n} item sizes out of 1, 2, 4, 8")


def _undo_deltas(view, offset, rows, width, stored, decoded):
    """One ``lo``/``hi`` pair of an ``attr-delta`` payload: ``lo =
    cumsum(delta)`` down the rows and ``hi = lo + extent``, from the two
    attribute-major columns at *offset* into C-contiguous ``(rows, width)``
    arrays.  Both wrap at the *decoded* dtypes exactly as the writer's
    subtractions did.  Returns ``(lo, hi, offset behind the extents)``."""
    count = rows * width
    extent_at = offset + count * stored[0].itemsize
    if width == 1:
        # one attribute: attribute-major and row-major are the same bytes
        delta = np.ndarray((rows, 1), stored[0], view, offset)
        extent = np.ndarray((rows, 1), stored[1], view, extent_at)
        lo = np.add.accumulate(delta, axis=0, dtype=decoded[0])
        hi = np.add(lo, extent, dtype=decoded[1])
    else:
        # scan each attribute's contiguous run straight into its strided
        # column of the row-major result: no transposed copy on either side
        delta = np.ndarray((width, rows), stored[0], view, offset)
        extent = np.ndarray((width, rows), stored[1], view, extent_at)
        lo = np.empty((rows, width), decoded[0])
        hi = np.empty((rows, width), decoded[1])
        np.add.accumulate(delta, axis=1, dtype=decoded[0], out=lo.T)
        np.add(lo.T, extent, dtype=decoded[1], out=hi.T)
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi, extent_at + count * stored[1].itemsize


def _read_attr_delta(header: dict, nkey: int, nval: int, view: memoryview, offset: int) -> tuple:
    """The six columns of an ``attr-delta`` payload, decoded straight from
    its terse header.  None of them references *view* afterwards: the four
    interval columns are arrays of their own once the deltas are undone,
    and ``val_kind`` / ``val_ref`` (stored verbatim, ``rows × nval`` items
    each) share one private copy of their bytes — a hydrated table would
    otherwise hold its whole inflated payload, or its mapped record, for
    as long as it is cached."""
    rows = header.get("rows")
    if type(rows) is not int or rows < 0:
        raise _corrupt("'rows'", f"is {rows!r}, not a non-negative int")
    stored = _item_dtypes(header, "stored", 6)
    decoded = _item_dtypes(header, "decoded", 4)
    size = [dtype.itemsize for dtype in stored]
    need = rows * (nkey * (size[0] + size[1]) + nval * (size[2] + size[3] + size[4] + size[5]))
    if need != len(view) - offset:
        raise ValueError(
            f"corrupt {_WHAT}: its header describes {need} column bytes "
            f"({rows} rows), {len(view) - offset} follow it"
        )
    key_lo, key_hi, kind_at = _undo_deltas(view, offset, rows, nkey, stored[0:2], decoded[0:2])
    kind_len = rows * nval * size[2]
    lo_at = kind_at + kind_len + rows * nval * size[3]
    val_lo, val_hi, _end = _undo_deltas(view, lo_at, rows, nval, stored[4:6], decoded[2:4])
    verbatim = bytes(view[kind_at:lo_at])
    return (
        key_lo,
        key_hi,
        np.ndarray((rows, nval), stored[2], verbatim, 0),
        np.ndarray((rows, nval), stored[3], verbatim, kind_len),
        val_lo,
        val_hi,
    )


def deserialize_compressed(data) -> CompressedLineage:
    """Inverse of :func:`serialize_compressed`.

    *data* may be any buffer (``bytes``, ``memoryview``, mmap record).  The
    table's columns are **read-only**, C-contiguous and at the narrow
    dtypes the table was written from — no upcast — and none of them
    references *data*: the four interval columns are undone in one pass
    each (``lo = cumsum(delta)``, then ``hi = lo + extent``) and the two
    verbatim ones share one small copy, so an inflate buffer or a segment
    mmap record passed here is free to go when the call returns.

    The header is validated before it is acted on: item sizes name signed
    integer dtypes, dimensions are non-negative ints, and the six columns
    account for exactly the bytes behind the header.  Every failure is a
    ``ValueError`` naming the field.
    """
    view = memoryview(data)
    header, offset = parse_json_frame(view, _MAGIC, _WHAT)
    fields = _table_fields(header)
    layout = header.get("layout")
    if layout != _LAYOUT:
        raise ValueError(
            f"{_WHAT} in column layout {layout!r}, which this build does not read; "
            + OLD_FORMAT_HINT
        )
    columns = _read_attr_delta(header, len(fields[2]), len(fields[3]), view, offset)
    return CompressedLineage._hydrate(*fields[:4], *columns, *fields[4:])


def serialize_compressed_gzip(table: CompressedLineage) -> bytes:
    """ProvRC-GZip: zlib applied to the ProvRC serialization."""
    return zlib.compress(serialize_compressed(table), _ZLIB_LEVEL)


def deserialize_compressed_gzip(data) -> CompressedLineage:
    return deserialize_compressed(zlib.decompress(data))


def serialize_table(table: CompressedLineage, gzip: bool = False) -> bytes:
    """Serialize one table in either format (the segment-record payload)."""
    return serialize_compressed_gzip(table) if gzip else serialize_compressed(table)


def deserialize_table(data) -> CompressedLineage:
    """Inverse of :func:`serialize_table`, sniffing the format from the
    magic bytes (zlib payloads never start with the ProvRC magic)."""
    view = memoryview(data)
    if bytes(view[:4]) == _MAGIC:
        return deserialize_compressed(data)
    return deserialize_compressed_gzip(data)


def peek_table(data) -> Tuple[str, str]:
    """Decode only ``(in_name, out_name)`` from a serialized
    table payload (plain or gzip), without touching the column bytes: of a
    gzip payload only the header's own bytes are inflated.  The header
    fields are read whatever the column layout, so a payload in a layout
    older builds wrote still peeks.

    The scrub subsystem uses this to verify that the record a manifest ref
    points at really *is* the table the row claims — a checksum proves the
    payload is intact, not that it belongs to this entry.  Raises
    ``ValueError`` (or ``zlib.error``) when the payload is not a table.
    """
    out_name, in_name = _table_fields(_peek_header(data))[:2]
    return in_name, out_name


def _peek_header(data) -> dict:
    """The JSON header of a serialized table payload (plain or gzip),
    unvalidated; of a gzip payload only the header's own bytes are
    inflated."""
    view = memoryview(data)
    if bytes(view[:4]) != _MAGIC:
        # inflate the fixed prefix, then exactly the JSON header it sizes —
        # never the column bytes behind it
        inflater = zlib.decompressobj()
        head = inflater.decompress(view, len(_MAGIC) + 4)
        (header_len,), _ = parse_header(head, _MAGIC, "I", _WHAT)
        if header_len:  # max_length 0 would mean "no limit"
            head += inflater.decompress(inflater.unconsumed_tail, header_len)
        view = memoryview(head)
    return parse_json_frame(view, _MAGIC, _WHAT)[0]

