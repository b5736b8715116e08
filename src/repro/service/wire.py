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
    4       2     u16    protocol version (currently 1)
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
(below) for queries, where the savings live.

Binary result payloads
----------------------
A query result is one inner :func:`~repro.core.serialize.json_frame`
(magic ``b"DRES"``): a compact JSON header carrying the scalar fields
(array, shape, count, per-hop stats, cached/degraded flags) plus the
dtype/length manifest of the binary section, followed by the raw
little-endian ndarray buffers — box lows, box highs, optionally the
exact cell coordinates — downcast to the smallest integer dtype that
holds their values (:func:`~repro.core.serialize.smallest_int_dtype`,
the ProvRC trick applied to the wire).  The client hydrates each buffer
with one ``np.frombuffer`` view over the received bytes: zero copies,
no per-integer work, and ``boxes_lo`` / ``boxes_hi`` arrive as ready
``(n, ndim)`` ndarrays instead of nested lists.

:class:`RPCResult` wraps a decoded payload.  It is mapping-compatible
with the HTTP result dict (``result["count"]``, ``result["boxes"]`` …)
so callers can switch transports without rewriting, and exposes the
ndarray views directly for callers that want them.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..core.serialize import (
    frame_header,
    json_frame,
    parse_header,
    parse_json_frame,
    smallest_int_dtype,
)

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
WIRE_VERSION = 1
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


def recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly *n* bytes from a stream socket.

    Raises :class:`ShortRead` if the peer closes first — a clean EOF at a
    frame boundary is the caller's case (*n* bytes expected means we are
    mid-message, so any EOF here is abnormal).
    """
    if n == 0:
        return b""
    chunks: List[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ShortRead(
                f"connection closed mid-frame: wanted {n} bytes, got {n - remaining}"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


def read_frame(sock: socket.socket) -> Tuple[int, int, bytes]:
    """Read one complete frame; returns ``(opcode, request_id, payload)``.

    Raises :class:`ShortRead` on EOF inside the frame and ``ValueError``
    on a corrupt header.  An EOF *before any byte* of the header is also a
    :class:`ShortRead` — the caller decides whether that was a graceful
    close (no request in flight) or a failure.
    """
    header = recv_exact(sock, FRAME_HEADER_SIZE)
    opcode, request_id, length = parse_frame_header(header)
    return opcode, request_id, recv_exact(sock, length)


def encode_json(obj: Any) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def decode_json(payload: bytes) -> Any:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"corrupt JSON frame payload: {error}") from None


# ----------------------------------------------------------------------
# binary result payloads
# ----------------------------------------------------------------------
def _buffer_spec(array: np.ndarray) -> Tuple[dict, bytes]:
    """Downcast an ``(n, ndim)`` int64 array to its narrowest dtype and
    return the manifest entry + raw little-endian bytes."""
    n = int(array.shape[0])
    dtype = smallest_int_dtype(array)
    packed = np.ascontiguousarray(array.astype(dtype.newbyteorder("<"), copy=False))
    spec = {"dtype": packed.dtype.str, "n": n, "ndim": int(array.shape[1])}
    return spec, packed.tobytes()


def _hydrate(view: memoryview, spec: dict, offset: int) -> Tuple[np.ndarray, int]:
    """One ``np.frombuffer`` view over the wire bytes — zero-copy."""
    dtype = np.dtype(spec["dtype"])
    n, ndim = int(spec["n"]), int(spec["ndim"])
    size = n * ndim * dtype.itemsize
    if offset + size > len(view):
        raise ValueError(
            f"truncated result payload: buffer needs {size} bytes at offset "
            f"{offset}, frame has {len(view)}"
        )
    array = np.frombuffer(view, dtype=dtype, count=n * ndim, offset=offset)
    return array.reshape(n, ndim), offset + size


def encode_result(
    result,
    include_boxes: bool = True,
    include_cells: bool = False,
    cached: bool = False,
    degraded: bool = False,
    elapsed_ms: float = 0.0,
) -> bytes:
    """Binary form of a :class:`~repro.core.query.QueryResult` — the same
    fields as :func:`~repro.service.api.result_payload`, with the box (and
    optional cell) coordinates as raw ndarray buffers instead of JSON
    (``hops[i]["rows_scanned"]`` likewise counts the pairs compared)."""
    cells = result.cells
    header: Dict[str, Any] = {
        "array": cells.array_name,
        "shape": list(cells.shape),
        "boxes_merged": int(len(cells)),
        "count": int(result.count_cells()),
        "hops": [
            {
                "from": hop.array_from,
                "to": hop.array_to,
                "rows_scanned": hop.rows_scanned,
                "boxes_in": hop.boxes_in,
                "boxes_out_raw": hop.boxes_out_raw,
                "boxes_out_merged": hop.boxes_out_merged,
                "seconds": hop.seconds,
            }
            for hop in result.hops
        ],
        "cached": bool(cached),
        "degraded": bool(degraded),
        "elapsed_ms": float(elapsed_ms),
    }
    buffers: List[bytes] = []
    if include_boxes:
        lo_spec, lo_bytes = _buffer_spec(cells.lo)
        hi_spec, hi_bytes = _buffer_spec(cells.hi)
        header["boxes_lo"] = lo_spec
        header["boxes_hi"] = hi_spec
        buffers += [lo_bytes, hi_bytes]
    if include_cells:
        cell_spec, cell_bytes = _buffer_spec(result.to_cells_array())
        header["cells"] = cell_spec
        buffers.append(cell_bytes)
    return json_frame(_RESULT_MAGIC, header, b"".join(buffers))


def decode_result(payload: bytes) -> "RPCResult":
    """Hydrate one binary result payload into an :class:`RPCResult`.

    The box/cell arrays are ``np.frombuffer`` views over *payload* — no
    copies are made, so the bytes object backs the result's lifetime.
    """
    header, offset = parse_json_frame(payload, _RESULT_MAGIC, "RPC result")
    view = memoryview(payload)
    boxes_lo = boxes_hi = cells = None
    if "boxes_lo" in header:
        boxes_lo, offset = _hydrate(view, header["boxes_lo"], offset)
        boxes_hi, offset = _hydrate(view, header["boxes_hi"], offset)
    if "cells" in header:
        cells, offset = _hydrate(view, header["cells"], offset)
    return RPCResult(header, boxes_lo, boxes_hi, cells)


class RPCResult:
    """A decoded binary query result.

    Exposes the coordinate data as ndarrays (:attr:`boxes_lo` /
    :attr:`boxes_hi` / :attr:`cells_array`, each ``(n, ndim)`` and possibly
    a narrow dtype) and is **mapping-compatible with the HTTP result
    payload**: ``result["count"]``, ``result["boxes"]``, ``result["hops"]``
    … all answer exactly as the JSON dict does, the list-shaped views being
    materialized lazily on first access.  :meth:`to_payload` produces the
    full HTTP-shaped dict (the transport-equivalence contract both test
    suites pin down).
    """

    __slots__ = ("_header", "boxes_lo", "boxes_hi", "cells_array", "_boxes", "_cells")

    def __init__(
        self,
        header: dict,
        boxes_lo: Optional[np.ndarray],
        boxes_hi: Optional[np.ndarray],
        cells: Optional[np.ndarray],
    ) -> None:
        self._header = header
        self.boxes_lo = boxes_lo
        self.boxes_hi = boxes_hi
        self.cells_array = cells
        self._boxes: Optional[list] = None
        self._cells: Optional[list] = None

    # -- scalar fields --------------------------------------------------
    @property
    def array(self) -> str:
        return self._header["array"]

    @property
    def shape(self) -> List[int]:
        return self._header["shape"]

    @property
    def count(self) -> int:
        return self._header["count"]

    @property
    def boxes_merged(self) -> int:
        return self._header["boxes_merged"]

    @property
    def hops(self) -> List[dict]:
        return self._header["hops"]

    @property
    def cached(self) -> bool:
        return self._header["cached"]

    @property
    def degraded(self) -> bool:
        return self._header["degraded"]

    @property
    def elapsed_ms(self) -> float:
        return self._header["elapsed_ms"]

    # -- mapping compatibility with the HTTP payload --------------------
    def _materialize_boxes(self) -> Optional[list]:
        if self._boxes is None and self.boxes_lo is not None:
            self._boxes = [
                [self.boxes_lo[i].tolist(), self.boxes_hi[i].tolist()]
                for i in range(self.boxes_lo.shape[0])
            ]
        return self._boxes

    def _materialize_cells(self) -> Optional[list]:
        if self._cells is None and self.cells_array is not None:
            self._cells = self.cells_array.tolist()
        return self._cells

    def __getitem__(self, key: str):
        if key == "boxes":
            boxes = self._materialize_boxes()
            if boxes is None:
                raise KeyError("boxes")
            return boxes
        if key == "cells":
            cells = self._materialize_cells()
            if cells is None:
                raise KeyError("cells")
            return cells
        return self._header[key]

    def get(self, key: str, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def __contains__(self, key: str) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def keys(self) -> Iterator[str]:
        keys = [k for k in self._header if k not in ("boxes_lo", "boxes_hi", "cells")]
        if self.boxes_lo is not None:
            keys.append("boxes")
        if self.cells_array is not None:
            keys.append("cells")
        return iter(keys)

    def to_payload(self) -> dict:
        """The HTTP-shaped result dict (what ``POST /query`` would have
        returned for the same request) — byte-identical modulo timing."""
        payload = {
            k: v for k, v in self._header.items() if k not in ("boxes_lo", "boxes_hi", "cells")
        }
        boxes = self._materialize_boxes()
        if boxes is not None:
            payload["boxes"] = boxes
        cells = self._materialize_cells()
        if cells is not None:
            payload["cells"] = cells
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RPCResult(array={self.array!r}, count={self.count}, "
            f"boxes_merged={self.boxes_merged}, cached={self.cached})"
        )


_MISSING = object()


# ----------------------------------------------------------------------
# batched results
# ----------------------------------------------------------------------
def encode_batch(
    entries: List[Union[bytes, dict]], elapsed_ms: float = 0.0
) -> bytes:
    """One ``OP_QUERY_BATCH`` response payload.

    Each entry is either an encoded binary result (``bytes``, from
    :func:`encode_result`) or a per-item structured error dict
    ``{"error": {"type", "message", "status"}}``; the manifest records
    which, item payloads are concatenated after the header in order.
    """
    manifest: List[dict] = []
    blobs: List[bytes] = []
    for entry in entries:
        if isinstance(entry, (bytes, bytearray)):
            manifest.append({"length": len(entry)})
            blobs.append(bytes(entry))
        else:
            manifest.append(entry)
    header = {
        "items": manifest,
        "batch_size": len(entries),
        "elapsed_ms": float(elapsed_ms),
    }
    return json_frame(_RESULT_MAGIC, header, b"".join(blobs))


def decode_batch(payload: bytes) -> Tuple[List[Union["RPCResult", dict]], dict]:
    """Decode an ``OP_QUERY_BATCH`` response; returns ``(results, meta)``
    where each result is an :class:`RPCResult` or the per-item error dict,
    and *meta* carries ``batch_size`` / ``elapsed_ms``."""
    header, offset = parse_json_frame(payload, _RESULT_MAGIC, "RPC batch result")
    results: List[Union[RPCResult, dict]] = []
    for item in header["items"]:
        if "length" in item:
            blob = payload[offset : offset + item["length"]]
            offset += item["length"]
            results.append(decode_result(blob))
        else:
            results.append(item)
    meta = {"batch_size": header["batch_size"], "elapsed_ms": header["elapsed_ms"]}
    return results, meta
