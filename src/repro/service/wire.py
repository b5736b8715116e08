"""The binary wire protocol of the RPC tier (framing + result payloads).

The HTTP transport pays for its interoperability twice per round trip:
every request re-parses headers, and every result box is JSON-encoded
integer by integer on the server and re-parsed integer by integer in the
client.  This module defines the wire format that removes both costs —
pure encoding/decoding, no sockets (the server and client live in
:mod:`repro.service.rpc`).

Frame anatomy
-------------
Every message in either direction is one *frame*::

    offset  size  field
    0       4     magic  b"DRPC"
    4       2     u16    protocol version (currently 3)
    6       4     u32    payload length in bytes
    10      2     u16    opcode (requests: the operation; responses: the
                         request's opcode, or OP_ERROR for failures)
    12      4     u32    request id (echoed verbatim in the response so a
                         client may pipeline many requests per connection)
    16      -     payload

All integers little-endian; the header is built and checked by the shared
:func:`~repro.core.serialize.frame_header` / :func:`~repro.core.serialize.
parse_header` helpers (the same pair behind the ProvRC, segment and
baseline-store formats).  Request payloads are UTF-8 JSON — exactly the
HTTP body shapes, so both transports share one request parser.  Response
payloads are JSON for the small endpoints and *binary result payloads*
(below) for queries, where the savings live.  A peer speaking another
version is refused at the first frame header, never misread.

Binary result payloads
----------------------
Every query reply — ``OP_QUERY`` and ``OP_QUERY_BATCH`` alike — has one
layout: a single result is a batch of one.  Its header is fixed-size
records read with :class:`struct.Struct`, never a parser::

    reply   b"DRES", u8 block itemsize, f64 elapsed_ms, u32 item count
    item    u8 flags (cached 1, degraded 2, include_boxes 4, include_cells 8,
            error 16), u8 ndim, u32 name bytes, u32 boxes, u64 exact cell
            count, f64 elapsed_ms, u32 cell-listing rows, u16 hop count,
            then ndim × u64 shape, the UTF-8 array name, and per hop:
    hop     u16 from / to name bytes, u64 rows_scanned, u32 boxes_in,
            u32 boxes_out_raw, u32 boxes_out_merged, f64 seconds,
            then the two UTF-8 names

An error item (rare) sets only the error flag and the name length, and
carries its ``{"error": {...}}`` dict as JSON in place of the name.  Box
and row counts are u32: every box they count is held in memory as int64
coordinates; the unmaterialised counts are u64.

One coordinate block follows the last item: every item's box lows, box
highs and optional cell listing, flattened in item order, narrowed
*once* to the smallest signed little-endian integer dtype that holds
them all (:func:`~repro.core.serialize.smallest_int_dtype`, the ProvRC
trick applied to the wire) and written with one ``tobytes``.  The
decoder checks every count against the bytes left before it slices or
allocates by it, and every name's UTF-8 as it reads it, then makes one
``np.frombuffer`` over the block: every ``boxes_lo`` / ``boxes_hi`` /
``cells_array`` is a reshaped, read-only view into that one buffer, made
on first access.  Zero copies, no per-integer work, for a batch as for a
single result.

Of an item, a request changes only two fields: its cached and degraded
flag bits and its ``elapsed_ms``.  Everything else — the rest of the item
record, the shape, the name, the hop records and the item's share of the
coordinate block, narrowed on its own — is a function of the result and
the two ``include_*`` flags alone, kept in a result-cache entry's reply
memo the first time the entry goes out, single or batched.  A later
reply, of one result or of a batch, packs the stamped fields, joins the
kept bytes and widens an item's coordinates only when a batch-mate needs
a wider dtype: the same bytes a fresh encode (no memo) builds.

:class:`RPCResult` wraps a decoded row.  It is mapping-compatible with
the HTTP result dict (``result["count"]``, ``result["boxes"]`` …) so
callers can switch transports without rewriting, and exposes the
ndarray views directly for callers that want them.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, BinaryIO, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.serialize import frame_header, parse_header, smallest_int_dtype

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "FRAME_HEADER_SIZE",
    "MAX_FRAME_BYTES",
    "OPCODES",
    "OP_QUERY",
    "OP_QUERY_BATCH",
    "OP_IMPACT",
    "OP_DEPENDENCIES",
    "OP_SUMMARY",
    "OP_HEALTHZ",
    "OP_METRICS",
    "OP_TRACES",
    "OP_SCRUB",
    "OP_PING",
    "OP_ERROR",
    "ShortRead",
    "encode_frame",
    "parse_frame_header",
    "recv_exact",
    "read_frame",
    "encode_json",
    "decode_json",
    "encode_result",
    "decode_result",
    "encode_batch",
    "decode_batch",
    "RPCResult",
]

WIRE_MAGIC = b"DRPC"
WIRE_VERSION = 3
_HEADER_LAYOUT = "HIHI"  # version, payload length, opcode, request id
FRAME_HEADER_SIZE = len(WIRE_MAGIC) + struct.calcsize("<" + _HEADER_LAYOUT)

# a malformed or hostile length field must not allocate the machine away;
# far above any real catalog response, far below an allocation bomb
MAX_FRAME_BYTES = 1 << 30

OP_QUERY = 1
OP_QUERY_BATCH = 2
OP_IMPACT = 3
OP_DEPENDENCIES = 4
OP_SUMMARY = 5
OP_HEALTHZ = 6
OP_METRICS = 7
OP_TRACES = 8
OP_SCRUB = 9
OP_PING = 10
OP_ERROR = 255  # response-only: payload is the structured error JSON

OPCODES: Dict[int, str] = {
    OP_QUERY: "query",
    OP_QUERY_BATCH: "query_batch",
    OP_IMPACT: "impact",
    OP_DEPENDENCIES: "dependencies",
    OP_SUMMARY: "summary",
    OP_HEALTHZ: "healthz",
    OP_METRICS: "metrics",
    OP_TRACES: "traces",
    OP_SCRUB: "scrub",
    OP_PING: "ping",
    OP_ERROR: "error",
}

_RESULT_MAGIC = b"DRES"
# the fixed records of a reply (the module docstring has their fields)
_REPLY = struct.Struct("<4sBdI")
_ITEM = struct.Struct("<BBIIQdIH")
_HOP_RECORD = struct.Struct("<HHQIIId")
_CACHED, _DEGRADED, _BOXES, _CELLS, _ERROR = 1, 2, 4, 8, 16
# the fields of a decoded result row and of one of its hop rows, by position
_ROW = (
    "array", "shape", "boxes_merged", "count", "hops", "cached", "degraded",
    "elapsed_ms", "include_boxes", "include_cells", "cell_rows", "block_at",
)
_HOP = ("from", "to", "rows_scanned", "boxes_in", "boxes_out_raw", "boxes_out_merged", "seconds")
# what a coordinate block may be stored as, by the header's itemsize
_BLOCK_DTYPES = {size: np.dtype(f"<i{size}") for size in (1, 2, 4, 8)}
# an item's shape record, by its u8 ndim
_SHAPES = [struct.Struct(f"<{ndim}Q") for ndim in range(256)]


class ShortRead(ConnectionError):
    """The peer closed (or a fault truncated) the stream mid-frame."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(opcode: int, request_id: int, payload: bytes = b"") -> bytes:
    """One complete wire frame: header + payload."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return (
        frame_header(
            WIRE_MAGIC, _HEADER_LAYOUT, WIRE_VERSION, len(payload), opcode, request_id
        )
        + payload
    )


def parse_frame_header(data: bytes) -> Tuple[int, int, int]:
    """Validate one frame header; returns ``(opcode, request_id, length)``.

    Raises ``ValueError`` on bad magic, a truncated header, an unsupported
    protocol version, or an implausible length — the connection is beyond
    saving in every case.
    """
    (version, length, opcode, request_id), _ = parse_header(
        data, WIRE_MAGIC, _HEADER_LAYOUT, "RPC frame"
    )
    if version != WIRE_VERSION:
        raise ValueError(
            f"unsupported RPC protocol version {version} (this build speaks "
            f"{WIRE_VERSION})"
        )
    if length > MAX_FRAME_BYTES:
        raise ValueError(
            f"RPC frame claims {length} bytes, above the {MAX_FRAME_BYTES}-byte limit"
        )
    return opcode, request_id, length


def recv_exact(source: Union[socket.socket, BinaryIO], n: int) -> bytes:
    """Read exactly *n* bytes from a stream socket or a buffered binary
    file over one, in chunks of at most 1 MiB — memory follows the bytes
    that arrive, never a length the peer merely declared.

    Raises :class:`ShortRead` if the peer closes first — a clean EOF at a
    frame boundary is the caller's case (*n* bytes expected means we are
    mid-message, so any EOF here is abnormal).
    """
    if n == 0:
        return b""
    read = source.recv if isinstance(source, socket.socket) else source.read
    chunks: List[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = read(min(remaining, 1 << 20))
        if not chunk:
            raise ShortRead(
                f"connection closed mid-frame: wanted {n} bytes, got {n - remaining}"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


def read_frame(source: Union[socket.socket, BinaryIO]) -> Tuple[int, int, bytes]:
    """Read one complete frame from a socket or a buffered binary file over
    one; returns ``(opcode, request_id, payload)``.

    Raises :class:`ShortRead` on EOF inside the frame and ``ValueError``
    on a corrupt header.  An EOF *before any byte* of the header is also a
    :class:`ShortRead` — the caller decides whether that was a graceful
    close (no request in flight) or a failure.
    """
    header = recv_exact(source, FRAME_HEADER_SIZE)
    opcode, request_id, length = parse_frame_header(header)
    return opcode, request_id, recv_exact(source, length)


# built once: ``json.dumps`` with separators builds an encoder per call
_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_json(obj: Any) -> bytes:
    return _JSON_ENCODER.encode(obj).encode("utf-8")


def decode_json(payload: bytes) -> Any:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        raise ValueError(f"corrupt JSON frame payload: {error}") from None


# ----------------------------------------------------------------------
# binary result payloads
# ----------------------------------------------------------------------
def _item_record(result, include_boxes: bool, include_cells: bool, memo: Optional[dict] = None) -> tuple:
    """The static part of one result item: ``(flags, ndim, name bytes,
    boxes, cell count, cell-listing rows, hop count, shape + name + hop
    records, block itemsize, block bytes)``, its coordinates narrowed on
    their own.  Kept in *memo* (a result-cache entry's reply memo;
    ``None`` keeps nothing) under ``("rpc", include_boxes, include_cells)``."""
    key = ("rpc", include_boxes, include_cells)
    record = memo.get(key) if memo is not None else None
    if record is not None:
        return record
    cells = result.cells
    parts: List[np.ndarray] = [cells.lo, cells.hi] if include_boxes else []
    cell_rows = 0
    if include_cells:
        listing = result.to_cells_array()
        cell_rows = len(listing)
        parts.append(listing)
    block = np.concatenate(parts, axis=None) if parts else np.empty(0, np.int8)
    dtype = _BLOCK_DTYPES[smallest_int_dtype(block).itemsize]
    name, ndim = cells.array_name.encode("utf-8"), len(cells.shape)
    tail = [_SHAPES[ndim].pack(*cells.shape), name]
    for h in result.hops:
        source, target = h.array_from.encode("utf-8"), h.array_to.encode("utf-8")
        stats = (h.rows_scanned, h.boxes_in, h.boxes_out_raw, h.boxes_out_merged, h.seconds)
        tail += (_HOP_RECORD.pack(len(source), len(target), *stats), source, target)
    flags = (_BOXES if include_boxes else 0) | (_CELLS if include_cells else 0)
    record = (
        flags, ndim, len(name), len(cells), int(result.count_cells()), cell_rows, len(result.hops),
        b"".join(tail), dtype.itemsize, block.astype(dtype, copy=False).tobytes(),
    )
    if memo is not None:
        memo[key] = record
    return record


def _stamped(result, include_boxes, include_cells, cached, degraded, item_ms, memo=None) -> tuple:
    """One result item of a reply: ``(item record, tail, block itemsize,
    block bytes)``, the record packed with the request's own fields (its
    cached and degraded flags and *item_ms*) around the static ones of
    :func:`_item_record`."""
    flags, ndim, name_size, boxes, count, cell_rows, hop_count, tail, itemsize, block = _item_record(
        result, include_boxes, include_cells, memo
    )
    flags |= (_CACHED if cached else 0) | (_DEGRADED if degraded else 0)
    return _ITEM.pack(flags, ndim, name_size, boxes, count, item_ms, cell_rows, hop_count), tail, itemsize, block


def encode_batch(entries: Sequence[Union[tuple, dict]], elapsed_ms: float = 0.0) -> bytes:
    """One query reply.

    Each entry is either a result — the tuple ``(result, include_boxes,
    include_cells, cached, degraded, elapsed_ms[, memo])`` over a
    :class:`~repro.core.query.QueryResult`, *memo* being its result-cache
    entry's reply memo (:func:`_item_record`) — or a per-item structured
    error dict ``{"error": {"type", "message", "status"}}``.  A result's
    fields are those of :func:`~repro.service.api.result_payload` (its
    hops' ``rows_scanned`` likewise counts the pairs compared), its
    coordinates go to the reply's one block, at the widest of its items'
    dtypes.
    """
    records: List[bytes] = []
    blocks: List[Tuple[int, bytes]] = []
    width = 1
    for entry in entries:
        if isinstance(entry, dict):
            text = encode_json(entry)
            records += (_ITEM.pack(_ERROR, 0, len(text), 0, 0, 0.0, 0, 0), text)
            continue
        record, tail, itemsize, block = _stamped(*entry)
        records += (record, tail)
        blocks.append((itemsize, block))
        if itemsize > width:
            width = itemsize
    dtype = _BLOCK_DTYPES[width]
    coords = [
        block if itemsize == width else np.frombuffer(block, _BLOCK_DTYPES[itemsize]).astype(dtype).tobytes()
        for itemsize, block in blocks
    ]
    return b"".join((_REPLY.pack(_RESULT_MAGIC, width, elapsed_ms, len(entries)), *records, *coords))


def encode_result(
    result,
    include_boxes: bool = True,
    include_cells: bool = False,
    cached: bool = False,
    degraded: bool = False,
    elapsed_ms: float = 0.0,
    memo: Optional[dict] = None,
) -> bytes:
    """An ``OP_QUERY`` reply: the bytes :func:`encode_batch` gives a batch
    of this one result, stamped without the batch's loop."""
    record, tail, itemsize, block = _stamped(
        result, include_boxes, include_cells, cached, degraded, elapsed_ms, memo
    )
    return b"".join((_REPLY.pack(_RESULT_MAGIC, itemsize, elapsed_ms, 1), record, tail, block))


def _overrun(index: int, field: str, value: int, left: int) -> ValueError:
    return ValueError(f"corrupt RPC result: item {index}: {field} = {value} overruns the {left} bytes left")


def decode_batch(payload: bytes) -> Tuple[List[Union["RPCResult", dict]], dict]:
    """Decode a query reply; returns ``(results, meta)`` where each result
    is an :class:`RPCResult` or the per-item error dict, and *meta* carries
    ``batch_size`` / ``elapsed_ms``.

    Every count the records give is checked against the bytes left before
    anything is sliced or allocated by it, and the items must claim
    exactly the values the block holds; a bad field raises ``ValueError``
    naming it.  The arrays are views over *payload*, which backs the
    results' lifetime.
    """
    end = len(payload)
    if end < _REPLY.size:
        raise ValueError(f"truncated RPC result: {end} bytes, the reply header needs {_REPLY.size}")
    magic, itemsize, elapsed_ms, count = _REPLY.unpack_from(payload)
    if magic != _RESULT_MAGIC:
        raise ValueError(f"not an RPC result: bad magic {magic!r} (want {_RESULT_MAGIC!r})")
    dtype = _BLOCK_DTYPES.get(itemsize)
    if dtype is None:
        raise ValueError(f"corrupt RPC result: 'itemsize' = {itemsize} is not a signed integer's")
    # lists grow per record read, never by a count: a hostile count overruns first
    items: List[Union[list, dict]] = []
    at, need, index = _REPLY.size, 0, 0
    try:
        for index in range(count):
            if at + _ITEM.size > end:
                raise _overrun(index, "'items'", count, end - at)
            flags, ndim, name_size, boxes, cell_count, item_ms, cell_rows, hop_count = _ITEM.unpack_from(payload, at)
            at += _ITEM.size
            if flags & _ERROR:
                if at + name_size > end:
                    raise _overrun(index, "'error bytes'", name_size, end - at)
                error = decode_json(payload[at : at + name_size])
                if type(error) is not dict or "error" not in error:
                    raise ValueError(f"corrupt RPC result: item {index}: neither a row nor an error")
                items.append(error)
                at += name_size
                continue
            if ndim == 0:  # no catalog array is 0-d, and an (n, 0) view would back any box count
                raise ValueError(f"corrupt RPC result: item {index}: 'ndim' = 0")
            name_at = at + 8 * ndim
            if name_at + name_size > end:
                raise _overrun(index, "'ndim' + 'name bytes'", 8 * ndim + name_size, end - at)
            shape = list(_SHAPES[ndim].unpack_from(payload, at))
            at = name_at + name_size
            name = payload[name_at:at].decode("utf-8")
            hops = []
            for _ in range(hop_count):
                if at + _HOP_RECORD.size > end:
                    raise _overrun(index, "'hops'", hop_count, end - at)
                hop = _HOP_RECORD.unpack_from(payload, at)
                names = at + _HOP_RECORD.size
                middle = names + hop[0]
                at = middle + hop[1]
                if at > end:
                    raise _overrun(index, "a hop's name bytes", hop[0] + hop[1], end - names)
                hops.append((payload[names:middle].decode("utf-8"), payload[middle:at].decode("utf-8")) + hop[2:])
            include_boxes, include_cells = bool(flags & _BOXES), bool(flags & _CELLS)
            items.append([
                name, shape, boxes, cell_count, hops, bool(flags & _CACHED), bool(flags & _DEGRADED),
                item_ms, include_boxes, include_cells, cell_rows, need,
            ])
            need += ndim * (2 * boxes * include_boxes + cell_rows * include_cells)
    except UnicodeDecodeError:
        raise ValueError(f"corrupt RPC result: item {index}: a name is not UTF-8") from None
    if need * dtype.itemsize != end - at:
        raise ValueError(
            f"corrupt RPC result: the items claim {need} coordinates of {dtype.str}, "
            f"the block holds {end - at} bytes"
        )
    flat = np.frombuffer(payload, dtype, need, at)
    results = [item if type(item) is dict else RPCResult(item, flat) for item in items]
    return results, {"batch_size": len(items), "elapsed_ms": elapsed_ms}


def decode_result(payload: bytes) -> "RPCResult":
    """An ``OP_QUERY`` reply: :func:`decode_batch` of exactly one result."""
    results, _ = decode_batch(payload)
    if len(results) != 1 or type(results[0]) is dict:
        raise ValueError("corrupt RPC result: a query reply holds exactly one result row")
    return results[0]


# the keys of the HTTP result payload, in its order, around boxes / cells
_LEADING = ("array", "shape", "boxes_merged", "count", "hops")
_TRAILING = ("cached", "degraded", "elapsed_ms")
_POSITION = {name: _ROW.index(name) for name in _LEADING + _TRAILING if name != "hops"}


class RPCResult:
    """A decoded binary query result: one row of its reply over the reply's
    coordinate block.

    Exposes the coordinate data as ndarrays (:attr:`boxes_lo` /
    :attr:`boxes_hi` / :attr:`cells_array`, each ``(n, ndim)``, read-only
    views into the reply's one coordinate block at its narrow dtype, so
    every result of a batch shares one base; ``None`` when the request
    left them out) and is **mapping-compatible with the HTTP result
    payload**: ``result["count"]``, ``result["boxes"]``, ``result["hops"]``
    … all answer exactly as the JSON dict does.  The views, and the
    list-shaped forms (boxes, cells, hop dicts), are made on first access:
    the decoder has already checked every count against the block.
    :meth:`to_payload` produces the full HTTP-shaped dict (the
    transport-equivalence contract both test suites pin down).
    """

    __slots__ = ("_row", "_block", "_views", "_boxes", "_cells", "_hops")

    def __init__(self, row: list, block: np.ndarray) -> None:
        self._row = row
        self._block = block
        self._views: Optional[Tuple[Optional[np.ndarray], ...]] = None
        self._boxes: Optional[list] = None
        self._cells: Optional[list] = None
        self._hops: Optional[List[dict]] = None

    def _coordinates(self) -> Tuple[Optional[np.ndarray], ...]:
        """``(boxes_lo, boxes_hi, cells_array)``, views made once."""
        if self._views is None:
            row = self._row
            ndim, at = len(row[1]), row[11]
            lo = hi = listing = None
            if row[8]:
                n = 2 * row[2] * ndim
                boxes = self._block[at : at + n].reshape(2, row[2], ndim)
                lo, hi = boxes[0], boxes[1]  # indexing: unpacking would iterate
                at += n
            if row[9]:
                listing = self._block[at : at + row[10] * ndim].reshape(row[10], ndim)
            self._views = (lo, hi, listing)
        return self._views

    boxes_lo = property(lambda self: self._coordinates()[0])
    boxes_hi = property(lambda self: self._coordinates()[1])
    cells_array = property(lambda self: self._coordinates()[2])

    # -- scalar fields --------------------------------------------------
    array = property(lambda self: self._row[0])
    shape = property(lambda self: self._row[1])
    boxes_merged = property(lambda self: self._row[2])
    count = property(lambda self: self._row[3])
    cached = property(lambda self: self._row[5])
    degraded = property(lambda self: self._row[6])
    elapsed_ms = property(lambda self: self._row[7])

    @property
    def hops(self) -> List[dict]:
        if self._hops is None:
            self._hops = [dict(zip(_HOP, hop)) for hop in self._row[4]]
        return self._hops

    # -- mapping compatibility with the HTTP payload --------------------
    def __getitem__(self, key: str):
        if key == "hops":
            return self.hops
        if key == "boxes" and self.boxes_lo is not None:
            if self._boxes is None:
                self._boxes = [list(pair) for pair in zip(self.boxes_lo.tolist(), self.boxes_hi.tolist())]
            return self._boxes
        if key == "cells" and self.cells_array is not None:
            if self._cells is None:
                self._cells = self.cells_array.tolist()
            return self._cells
        if key in _POSITION:
            return self._row[_POSITION[key]]
        raise KeyError(key)

    def get(self, key: str, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def __contains__(self, key: str) -> bool:
        return key in _POSITION or key == "hops" or (key == "boxes" and self._row[8]) or (
            key == "cells" and self._row[9]
        )

    def keys(self) -> Iterator[str]:
        keys = list(_LEADING)
        if self._row[8]:
            keys.append("boxes")
        if self._row[9]:
            keys.append("cells")
        return iter(keys + list(_TRAILING))

    def to_payload(self) -> dict:
        """The HTTP-shaped result dict (what ``POST /query`` would have
        returned for the same request) — byte-identical modulo timing."""
        return {key: self[key] for key in self.keys()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RPCResult(array={self.array!r}, count={self.count}, "
            f"boxes_merged={self.boxes_merged}, cached={self.cached})"
        )
