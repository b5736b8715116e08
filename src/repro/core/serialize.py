"""Serialization of ProvRC tables and the ProvRC-GZip variant.

The on-disk format is a compact self-describing binary: a JSON header
(array names, shapes, axis names, key orientation, column dtypes, the
column ``layout``) followed by the raw bytes of the six columnar arrays,
each downcast to the smallest integer dtype that can represent what it
holds.  ``ProvRC-GZip`` (the format DSLog uses by default, Section VII.B)
is simply this payload passed through zlib, mirroring how the paper stacks
GZip on top of the main algorithm.

**Column layout** (``"layout": "row-delta"``).  ProvRC's own invariants
make two transforms nearly free, and every table gets both — one rule, no
per-table choice:

* every ``*_hi`` column is stored as its **extent** ``hi - lo``: zero on
  every row ProvRC could not merge, which is most rows of the tables that
  dominate a store (a 20,000-row ``sort`` table is 20,000 degenerate
  intervals);
* every ``*_lo`` column is stored as its **row delta** along axis 0 (row 0
  against zero): rows are in canonical key order, so key deltas are tiny
  and mostly constant.

Both are computed with wrap-around arithmetic at the columns' own narrow
dtypes and narrowed once more, so the round trip is exact over the whole
int64 range and neither needs more bits than the values it encodes.
``val_kind`` and ``val_ref`` are stored verbatim.  The header records, per
interval column, the dtype it decodes to (``decoded``) — the dtype the
column would have been written at verbatim.  A payload whose header has no
``layout`` field was written before this layout existed: its columns are
verbatim and hydrate without the decode step.

**Hydration** hands back read-only columns at those narrow dtypes — no
``astype(int64)`` upcast, so a table stored as int8 is charged its int8
footprint by :meth:`CompressedLineage.nbytes`.  ``val_kind`` and
``val_ref`` are ``np.frombuffer`` views straight into the buffer
:func:`deserialize_compressed` was given (``bytes``, ``memoryview``, an
mmap'd segment record), which stays alive for exactly as long as a view
references it; the four interval columns are rebuilt in one pass each
(``np.add.accumulate`` down the rows for a ``lo``, ``np.add`` for a
``hi``) into arrays of their own.  Verbatim (pre-layout) payloads hydrate
as six views.  A gzip store never had views into the segment mmap, only
into the inflate buffer, so there the decode pass replaces nothing; a
``gzip=False`` store trades four mmap views per table for a file two
fifths smaller.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .compressed import CompressedLineage

__all__ = [
    "serialize_compressed",
    "deserialize_compressed",
    "serialize_compressed_gzip",
    "deserialize_compressed_gzip",
    "serialize_table",
    "deserialize_table",
    "write_compressed",
    "read_compressed",
    "read_column_arrays",
    "frame_header",
    "parse_header",
    "json_frame",
    "parse_json_frame",
    "smallest_int_dtype",
]

_MAGIC = b"PRVC"
_COLUMNS = ("key_lo", "key_hi", "val_kind", "val_ref", "val_lo", "val_hi")


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
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"corrupt {what} header: {error}") from None
    if not isinstance(header, dict):
        raise ValueError(f"corrupt {what} header: not a JSON object")
    return header, offset + header_len

# dtype-string -> np.dtype cache: hydration decodes six columns per table
# and np.dtype('<i1') parsing is a measurable share of a small-table decode
_DTYPE_CACHE: Dict[str, np.dtype] = {}


def _dtype_of(spec: str) -> np.dtype:
    dtype = _DTYPE_CACHE.get(spec)
    if dtype is None:
        dtype = _DTYPE_CACHE[spec] = np.dtype(spec)
    return dtype

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


def _smallest_int_dtype(array: np.ndarray) -> np.dtype:
    """Pick the narrowest signed integer dtype that can hold *array*."""
    if array.size == 0 or array.dtype == np.int8:
        # int8 is the floor: an empty column (or one already at the floor)
        # needs no value scan at all
        return np.dtype(np.int8)
    lo, hi = _minmax(array.reshape(-1))
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


# the RPC wire layer narrows result boxes the same way table columns are
# narrowed on disk; one name, one policy
smallest_int_dtype = _smallest_int_dtype


def _narrowed(array: np.ndarray) -> np.ndarray:
    """*array*, C-contiguous, at the narrowest dtype that holds it (no copy
    when it already is — e.g. the columns of a table hydrated from disk)."""
    return np.ascontiguousarray(array.astype(_smallest_int_dtype(array), copy=False))


def serialize_compressed(table: CompressedLineage) -> bytes:
    """Serialize a compressed lineage table to bytes (no general compression)."""
    stored = {"val_kind": table.val_kind, "val_ref": table.val_ref}
    decoded = {}
    for lo_name, hi_name in (("key_lo", "key_hi"), ("val_lo", "val_hi")):
        lo = _narrowed(getattr(table, lo_name))
        hi = _narrowed(getattr(table, hi_name))
        decoded[lo_name], decoded[hi_name] = lo.dtype.str, hi.dtype.str
        # both wrap at the narrow dtype: exact modulo 2**bits, which is all
        # the decode (same arithmetic, same dtype) needs
        delta = lo.copy()
        np.subtract(lo[1:], lo[:-1], out=delta[1:])
        stored[lo_name] = delta
        stored[hi_name] = hi - lo
    columns = {}
    payload = bytearray()
    for name in _COLUMNS:
        cast = _narrowed(stored[name])
        columns[name] = {"dtype": cast.dtype.str, "shape": list(cast.shape)}
        if name in decoded:
            columns[name]["decoded"] = decoded[name]
        payload.extend(cast.tobytes())
    header = {
        "key_side": table.key_side,
        "out_name": table.out_name,
        "in_name": table.in_name,
        "out_shape": list(table.out_shape),
        "in_shape": list(table.in_shape),
        "out_axes": list(table.out_axes),
        "in_axes": list(table.in_axes),
        "layout": "row-delta",
        "columns": columns,
    }
    return json_frame(_MAGIC, header, bytes(payload))


def read_column_arrays(data) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Decode the header and the six columns of a serialized table.

    *data* may be any buffer (``bytes``, ``memoryview``, mmap record).  The
    returned arrays are **read-only** and at the narrow dtypes the table
    was written from — no upcast.  The columns stored verbatim are views
    into that buffer (``np.frombuffer`` with an offset, no slice copy);
    under the ``row-delta`` layout the four interval columns are undone in
    one pass each, ``lo = cumsum(delta)`` then ``hi = lo + extent``.  A
    header without a ``layout`` field is a payload from before the layout
    existed: all six columns are verbatim views.
    A zero-dimensional (scalar-shaped) column has exactly one element: the
    empty shape's index space is the single empty tuple, so its count is the
    empty product 1, not 0.
    """
    view = memoryview(data)
    header, offset = parse_json_frame(view, _MAGIC, "ProvRC serialized table")
    arrays: Dict[str, np.ndarray] = {}
    columns = header["columns"]
    frombuffer = np.frombuffer
    for name in _COLUMNS:
        meta = columns[name]
        dtype = _dtype_of(meta["dtype"])
        shape = meta["shape"]
        count = 1
        for dim in shape:
            count *= dim
        arr = frombuffer(view, dtype=dtype, count=count, offset=offset)
        arrays[name] = arr.reshape(shape)
        offset += count * dtype.itemsize
    layout = header.get("layout")
    if layout is not None:
        if layout != "row-delta":
            raise ValueError(f"unknown ProvRC column layout {layout!r}")
        for lo_name, hi_name in (("key_lo", "key_hi"), ("val_lo", "val_hi")):
            # a running sum down the rows, then one add: both wrap at the
            # decoded dtype exactly as the writer's subtractions did
            lo = np.add.accumulate(
                arrays[lo_name], axis=0, dtype=_dtype_of(columns[lo_name]["decoded"])
            )
            hi = np.add(lo, arrays[hi_name], dtype=_dtype_of(columns[hi_name]["decoded"]))
            lo.flags.writeable = hi.flags.writeable = False
            arrays[lo_name], arrays[hi_name] = lo, hi
    return header, arrays


def deserialize_compressed(data) -> CompressedLineage:
    """Inverse of :func:`serialize_compressed`.

    The table's columns are read-only and narrow (see
    :func:`read_column_arrays`).  Those that are views keep *data* alive
    through their ``base`` chain, so passing a segment mmap here pins its
    pages until the table (and every array derived from those columns) is
    dropped.
    """
    header, arrays = read_column_arrays(data)
    return CompressedLineage._hydrate(
        header["key_side"],
        header["out_name"],
        header["in_name"],
        tuple(header["out_shape"]),
        tuple(header["in_shape"]),
        arrays["key_lo"],
        arrays["key_hi"],
        arrays["val_kind"],
        arrays["val_ref"],
        arrays["val_lo"],
        arrays["val_hi"],
        tuple(header["out_axes"]),
        tuple(header["in_axes"]),
    )


def serialize_compressed_gzip(table: CompressedLineage, level: int = 6) -> bytes:
    """ProvRC-GZip: zlib applied to the ProvRC serialization."""
    return zlib.compress(serialize_compressed(table), level)


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


def peek_table_identity(data) -> Tuple[str, str, str]:
    """Decode only ``(key_side, in_name, out_name)`` from a serialized
    table payload (plain or gzip), without touching the column bytes: of
    a gzip payload only the header's own bytes are inflated.

    The scrub subsystem uses this to verify that the record a manifest ref
    points at really *is* the table the row claims — a checksum proves the
    payload is intact, not that it belongs to this entry.  Raises
    ``ValueError`` (or ``zlib.error``) when the payload is not a table.
    """
    what = "serialized ProvRC table"
    view = memoryview(data)
    if bytes(view[:4]) != _MAGIC:
        # inflate the fixed prefix, then exactly the JSON header it sizes —
        # never the column bytes behind it
        inflater = zlib.decompressobj()
        head = inflater.decompress(view, len(_MAGIC) + 4)
        (header_len,), _ = parse_header(head, _MAGIC, "I", what)
        if header_len:  # max_length 0 would mean "no limit"
            head += inflater.decompress(inflater.unconsumed_tail, header_len)
        view = memoryview(head)
    header, _offset = parse_json_frame(view, _MAGIC, what)
    return header["key_side"], header["in_name"], header["out_name"]


def write_compressed(
    table: CompressedLineage,
    path: Union[str, Path],
    gzip: bool = False,
) -> int:
    """Write a table to disk and return the file size in bytes."""
    data = serialize_compressed_gzip(table) if gzip else serialize_compressed(table)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return len(data)


def read_compressed(path: Union[str, Path], gzip: Optional[bool] = None) -> CompressedLineage:
    """Read a table written by :func:`write_compressed`.

    When *gzip* is ``None`` the format is sniffed from the magic bytes.
    """
    data = Path(path).read_bytes()
    if gzip is None:
        gzip = data[:4] != _MAGIC
    return deserialize_compressed_gzip(data) if gzip else deserialize_compressed(data)
