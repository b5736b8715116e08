"""The binary wire format in isolation: frame round trips, header
validation (truncation, bad magic, a v1 or v2 peer, hostile lengths),
buffered frame reads, the one result layout (a single result is a batch
of one: struct records plus one narrowed coordinate block of zero-copy
views) across every integer width, crafted records, byte-level fuzzing
of every decoder, and >64 KiB frames."""

import json
import socket
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.query import CellBoxSet, HopStats, QueryResult
from repro.core.serialize import frame_header
from repro.service import wire
from repro.service.api import result_payload
from repro.service.wire import (
    FRAME_HEADER_SIZE,
    OP_PING,
    OP_QUERY,
    RPCResult,
    ShortRead,
    decode_batch,
    decode_json,
    decode_result,
    encode_batch,
    encode_frame,
    encode_json,
    encode_result,
    parse_frame_header,
    read_frame,
    recv_exact,
)


def make_result(boxes, shape=(1 << 40, 1 << 40), array_name="arr"):
    """A QueryResult over the given [(lo_cell, hi_cell), ...] boxes; the
    huge default shape keeps count_cells on the box-arithmetic fast path
    and lets coordinates exercise any integer width."""
    if boxes:
        lo = np.asarray([b[0] for b in boxes], dtype=np.int64).reshape(len(boxes), -1)
        hi = np.asarray([b[1] for b in boxes], dtype=np.int64).reshape(len(boxes), -1)
    else:
        lo = np.empty((0, len(shape)), dtype=np.int64)
        hi = np.empty((0, len(shape)), dtype=np.int64)
    cells = CellBoxSet(array_name, shape, lo, hi)
    return QueryResult(cells=cells, hops=[])


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def test_frame_round_trip():
    frame = encode_frame(OP_QUERY, 7, b"hello")
    opcode, request_id, length = parse_frame_header(frame[:FRAME_HEADER_SIZE])
    assert (opcode, request_id, length) == (OP_QUERY, 7, 5)
    assert frame[FRAME_HEADER_SIZE:] == b"hello"


def test_frame_empty_payload():
    frame = encode_frame(OP_PING, 0)
    assert len(frame) == FRAME_HEADER_SIZE
    assert parse_frame_header(frame) == (OP_PING, 0, 0)


def test_frame_bad_magic():
    frame = b"XXXX" + encode_frame(OP_PING, 0)[4:]
    with pytest.raises(ValueError, match="bad magic"):
        parse_frame_header(frame)


def test_frame_truncated_header():
    frame = encode_frame(OP_PING, 0)
    with pytest.raises(ValueError, match="truncated"):
        parse_frame_header(frame[: FRAME_HEADER_SIZE - 3])


def test_frame_wrong_version():
    bad = bytearray(encode_frame(OP_PING, 0))
    struct.pack_into("<H", bad, 4, 99)
    with pytest.raises(ValueError, match="version 99"):
        parse_frame_header(bytes(bad))


@pytest.mark.parametrize("version", [1, 2])
def test_frame_from_an_older_peer_is_refused(version):
    """Version 1 carried a nested per-result layout, version 2 a JSON reply
    header: a frame of either gets the structured version error, over a
    socket as from bytes, and no byte of its payload is read as a v3
    reply."""
    old = frame_header(wire.WIRE_MAGIC, "HIHI", version, 3, OP_QUERY, 9) + b"{}x"
    assert wire.WIRE_VERSION == 3
    with pytest.raises(ValueError, match=rf"unsupported RPC protocol version {version} \(this build speaks 3\)"):
        parse_frame_header(old)
    a, b = socket_pair()
    try:
        a.sendall(old)
        with pytest.raises(ValueError, match=f"unsupported RPC protocol version {version}"):
            read_frame(b)
    finally:
        a.close()
        b.close()


def test_frame_hostile_length_rejected():
    """A corrupt or hostile length field must be refused before any
    allocation happens."""
    bad = bytearray(encode_frame(OP_PING, 0))
    struct.pack_into("<I", bad, 6, wire.MAX_FRAME_BYTES + 1)
    with pytest.raises(ValueError, match="limit"):
        parse_frame_header(bytes(bad))


def test_request_id_round_trips_at_u32_edge():
    frame = encode_frame(OP_PING, 0xFFFFFFFF, b"")
    assert parse_frame_header(frame)[1] == 0xFFFFFFFF


def socket_pair():
    server, client = socket.socketpair()
    server.settimeout(5)
    client.settimeout(5)
    return server, client


def test_read_frame_over_socket():
    a, b = socket_pair()
    try:
        payload = b"x" * (200 * 1024)  # well past one TCP segment / 64 KiB
        a.sendall(encode_frame(OP_QUERY, 3, payload))
        opcode, request_id, received = read_frame(b)
        assert (opcode, request_id) == (OP_QUERY, 3)
        assert received == payload
    finally:
        a.close()
        b.close()


def test_buffered_reads_keep_the_next_frame():
    """Both RPC ends read through ``makefile("rb")``: one recv may pull in
    several pipelined frames, and each read_frame still returns exactly
    one, whatever its size."""
    a, b = socket_pair()
    frames = [(OP_QUERY, 1, b"small"), (OP_PING, 2, b""), (OP_QUERY, 3, b"z" * (100 * 1024))]
    try:
        a.sendall(b"".join(encode_frame(*frame) for frame in frames))
        with b.makefile("rb") as rfile:
            assert [read_frame(rfile) for _ in frames] == frames
            a.close()
            with pytest.raises(ShortRead):
                read_frame(rfile)
    finally:
        a.close()
        b.close()


def test_recv_exact_short_read():
    a, b = socket_pair()
    try:
        a.sendall(b"abc")
        a.close()
        with pytest.raises(ShortRead, match="wanted 10 bytes, got 3"):
            recv_exact(b, 10)
    finally:
        b.close()


def test_read_frame_eof_mid_payload():
    a, b = socket_pair()
    try:
        frame = encode_frame(OP_QUERY, 1, b"y" * 100)
        a.sendall(frame[: FRAME_HEADER_SIZE + 40])
        a.close()
        with pytest.raises(ShortRead):
            read_frame(b)
    finally:
        b.close()


@pytest.mark.parametrize("buffered", [False, True], ids=["socket", "buffered"])
def test_reader_memory_follows_the_bytes_received_not_the_declared_length(buffered):
    """The RPC twin of the HTTP client's lying ``Content-Length``: a frame
    header claiming :data:`~repro.service.wire.MAX_FRAME_BYTES`, ten body
    bytes, then EOF.  The body is read in chunks of at most 1 MiB, so the
    reader holds about one chunk, never the claimed gigabyte."""
    a, b = socket_pair()
    source = b.makefile("rb") if buffered else b
    try:
        a.sendall(frame_header(wire.WIRE_MAGIC, "HIHI", wire.WIRE_VERSION, wire.MAX_FRAME_BYTES, OP_QUERY, 1))
        a.sendall(b"0123456789")
        a.close()
        tracemalloc.start()
        try:
            with pytest.raises(ShortRead, match="got 10"):
                read_frame(source)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * (1 << 20)
    finally:
        if buffered:
            source.close()
        b.close()


def test_json_payload_round_trip():
    body = {"path": ["a", "b"], "cells": [[1, 2]], "merge": True}
    assert decode_json(encode_json(body)) == body


def test_json_payload_corrupt():
    with pytest.raises(ValueError, match="corrupt JSON"):
        decode_json(b"\xff\xfe not json")




# ----------------------------------------------------------------------
# binary result payloads
# ----------------------------------------------------------------------
def entry(result, include_boxes=True, include_cells=False, cached=False, degraded=False, elapsed_ms=0.0):
    """One result entry of :func:`wire.encode_batch`."""
    return (result, include_boxes, include_cells, cached, degraded, elapsed_ms)


@pytest.mark.parametrize(
    "coord, expected_dtype",
    [
        (100, np.int8),
        (1_000, np.int16),
        (1_000_000, np.int32),
        (1 << 40, np.int64),
    ],
)
def test_result_payload_uses_narrowest_dtype(coord, expected_dtype):
    """The reply's one block is narrowed once, for the union of its
    coordinates: the all-zero lows travel at the highs' width."""
    result = make_result([((0, 0), (coord, coord))])
    decoded = decode_result(encode_result(result))
    assert decoded.boxes_lo.dtype == np.dtype(expected_dtype)
    assert decoded.boxes_hi.dtype == np.dtype(expected_dtype)
    assert decoded.boxes_hi[0].tolist() == [coord, coord]
    assert decoded["boxes"] == [[[0, 0], [coord, coord]]]


def test_batch_narrows_once_for_the_union():
    small = make_result([((1, 2), (3, 4))])
    wide = make_result([((-(1 << 20), 0), (5, 5))])
    results, _ = decode_batch(encode_batch([entry(small), entry(wide)]))
    assert {r.boxes_lo.dtype for r in results} == {np.dtype(np.int32)}
    assert results[0]["boxes"] == [[[1, 2], [3, 4]]]
    assert results[1]["boxes"] == [[[-(1 << 20), 0], [5, 5]]]


def test_result_payload_round_trip_fields():
    result = make_result([((1, 2), (3, 4)), ((10, 10), (12, 12))])
    payload = encode_result(
        result, cached=True, degraded=True, elapsed_ms=1.5, include_cells=True
    )
    decoded = decode_result(payload)
    assert decoded.array == "arr"
    assert decoded.count == result.count_cells()
    assert decoded.boxes_merged == 2
    assert decoded.cached is True
    assert decoded.degraded is True
    assert decoded.elapsed_ms == 1.5
    assert decoded.cells_array.shape[1] == 2
    assert decoded["cells"] == sorted(list(c) for c in result.to_cells())


def test_result_payload_empty_result():
    result = make_result([], shape=(8, 8))
    decoded = decode_result(encode_result(result, include_cells=True))
    assert decoded.count == 0
    assert decoded.boxes_lo.shape == (0, 2)
    assert decoded["boxes"] == []
    assert decoded["cells"] == []


def test_result_payload_without_boxes():
    result = make_result([((0, 0), (1, 1))])
    decoded = decode_result(encode_result(result, include_boxes=False))
    assert decoded.boxes_lo is None
    with pytest.raises(KeyError):
        decoded["boxes"]
    assert decoded.get("boxes") is None
    assert "boxes" not in decoded
    assert decoded["count"] == result.count_cells()


def test_result_payload_zero_copy_views():
    """The decoded arrays must be views over the frame bytes, not copies."""
    result = make_result([((5, 6), (7, 8))])
    payload = encode_result(result, include_cells=True)
    decoded = decode_result(payload)
    for array in (decoded.boxes_lo, decoded.boxes_hi, decoded.cells_array):
        assert array.base.base is payload  # one frombuffer view, no copy
        with pytest.raises(ValueError):
            array[0, 0] = 1  # read-only: backed by the bytes object


def test_result_payload_truncated_buffer():
    result = make_result([((0, 0), (100, 100))])
    payload = encode_result(result)
    with pytest.raises(ValueError, match="block holds"):
        decode_result(payload[:-3])


def test_result_payload_mapping_compatibility():
    """RPCResult must answer exactly like the HTTP result dict."""
    result = make_result([((1, 1), (2, 3)), ((9, 0), (9, 9))])
    http_shape = result_payload(result, include_boxes=True, include_cells=True)
    decoded = decode_result(encode_result(result, include_cells=True))
    for key, value in http_shape.items():
        assert decoded[key] == value
    http_shape.update(cached=False, degraded=False, elapsed_ms=0.0)
    assert json.dumps(decoded.to_payload(), sort_keys=True) == json.dumps(
        http_shape, sort_keys=True
    )
    assert set(decoded.keys()) == set(http_shape.keys())
    assert "error" not in decoded and decoded.get("error") is None


def test_result_payload_large_frame():
    """Many boxes → a payload well past 64 KiB, hydrated intact."""
    n = 20_000
    # disjoint 1-D intervals: int32 coordinates, nothing merges away
    boxes = [((3 * i,), (3 * i + 1,)) for i in range(n)]
    result = make_result(boxes, shape=(1 << 40,))
    payload = encode_result(result)
    assert len(payload) > 64 * 1024
    decoded = decode_result(payload)
    assert decoded.boxes_lo.shape == (n, 1)
    assert decoded.count == 2 * n
    assert decoded.boxes_lo[-1].tolist() == [3 * (n - 1)]
    assert decoded.boxes_hi[-1].tolist() == [3 * (n - 1) + 1]


# ----------------------------------------------------------------------
# batches: one header, one block
# ----------------------------------------------------------------------
ERROR = {"error": {"type": "not-found", "message": "nope", "status": 404}}


def test_batch_round_trip_mixed_entries():
    ok = entry(make_result([((0, 0), (4, 4))]))
    payload = encode_batch([ok, ERROR, ok], elapsed_ms=2.5)
    results, meta = decode_batch(payload)
    assert meta == {"batch_size": 3, "elapsed_ms": 2.5}
    assert isinstance(results[0], RPCResult)
    assert results[1] == ERROR
    assert results[2]["boxes"] == [[[0, 0], [4, 4]]]
    assert results[0].boxes_lo.base is results[2].boxes_hi.base  # one block


def test_batch_empty_is_rejected_upstream_but_encodable():
    results, meta = decode_batch(encode_batch([]))
    assert results == [] and meta["batch_size"] == 0


def test_a_query_reply_holds_exactly_one_result():
    one = entry(make_result([((0, 0), (1, 1))]))
    for entries in ([], [one, one], [ERROR]):
        with pytest.raises(ValueError, match="exactly one result"):
            decode_result(encode_batch(entries))


# ----------------------------------------------------------------------
# crafted records: every count is checked before a byte is sliced
# ----------------------------------------------------------------------
def one_hop() -> bytes:
    """Reply header, one item record, shape (8, 8), name "arr", one hop
    record and its names "a" / "arr", then a block of eight int8 values."""
    result = make_result([((0, 0), (1, 1)), ((4, 4), (7, 7))], shape=(8, 8))
    result.hops.append(HopStats("a", "arr", 3, 1, 2, 2, 0.5))
    return encode_result(result)


ITEM_AT = wire._REPLY.size
NAME_AT = ITEM_AT + wire._ITEM.size + 16  # past the two u64 dims
HOP_AT = NAME_AT + len("arr")
FIELDS = {
    wire._REPLY: ("magic", "itemsize", "elapsed_ms", "items"),
    wire._ITEM: ("flags", "ndim", "name_bytes", "boxes", "count", "elapsed_ms", "cell_rows", "hops"),
    wire._HOP_RECORD: ("from_bytes", "to_bytes", "rows_scanned", "boxes_in", "boxes_out_raw", "boxes_out_merged", "seconds"),
}


def repacked(record, at: int, **fields):
    """A mutation repacking the *record* at offset *at* of a reply with
    *fields* (by name) replaced."""

    def mutate(payload: bytes) -> bytes:
        values = dict(zip(FIELDS[record], record.unpack_from(payload, at)))
        values.update(fields)
        out = bytearray(payload)
        record.pack_into(out, at, *values.values())
        return bytes(out)

    return mutate


def reply(**fields):
    return repacked(wire._REPLY, 0, **fields)


def item(**fields):
    return repacked(wire._ITEM, ITEM_AT, **fields)


def hop(**fields):
    return repacked(wire._HOP_RECORD, HOP_AT, **fields)


def spliced(at: int, data: bytes):
    return lambda payload: payload[:at] + data + payload[at + len(data) :]


def test_a_negative_box_count_is_refused():
    """In v2 a box count of -1 meant "the rest of the buffer" to
    np.frombuffer, and the decoder returned lows and highs cut from garbage
    bytes.  A u32 count cannot be negative; -1's bit pattern claims far
    more coordinates than the block holds."""
    with pytest.raises(ValueError, match="claim 17179869180 coordinates"):
        decode_result(item(boxes=0xFFFFFFFF)(one_hop()))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (reply(magic=b"DRPC"), "bad magic"),
        (reply(itemsize=0), "'itemsize' = 0"),
        (reply(itemsize=3), "'itemsize' = 3"),
        (reply(itemsize=2), "claim 8 coordinates of <i2, the block holds 8 bytes"),
        (reply(items=0), "claim 0 coordinates"),  # the records read as block bytes
        (reply(items=2), "'items' = 2"),
        (reply(items=0xFFFFFFFF), "'items' = 4294967295"),
        (item(ndim=0), "'ndim' = 0"),
        (item(ndim=255), "'ndim'"),
        (item(name_bytes=0xFFFFFFFF), "'name bytes'"),
        (item(boxes=3), "claim 12 coordinates"),  # values missing
        (item(boxes=1), "claim 4 coordinates"),  # values left over
        (item(flags=4 | 8, cell_rows=1_000_000), "claim 2000008 coordinates"),
        (item(hops=2), "'hops' = 2"),
        (item(hops=0xFFFF), "'hops' = 65535"),
        (item(flags=16), "corrupt JSON"),  # an error item: the shape bytes are no JSON
        (item(flags=16, name_bytes=0xFFFFFFFF), "'error bytes'"),
        (hop(from_bytes=0xFFFF), "a hop's name bytes"),
        (hop(to_bytes=40), "a hop's name bytes"),
        (spliced(NAME_AT, b"\xff\xfe\xfd"), "item 0: a name is not UTF-8"),
        (spliced(HOP_AT + wire._HOP_RECORD.size, b"\xc3"), "item 0: a name is not UTF-8"),
        (lambda payload: payload[: wire._REPLY.size - 1], "truncated RPC result"),
        (lambda payload: payload[:-1], "the block holds 7 bytes"),
    ],
)
def test_crafted_headers_are_refused_by_name(mutate, message):
    with pytest.raises(ValueError, match=message):
        decode_batch(mutate(one_hop()))


def error_item(text: bytes) -> bytes:
    return wire._REPLY.pack(b"DRES", 1, 0.0, 1) + wire._ITEM.pack(16, 0, len(text), 0, 0, 0.0, 0, 0) + text


def test_an_error_item_must_be_an_error_dict():
    for text in (b"[]", b'{"oops": 1}', b"7"):
        with pytest.raises(ValueError, match="item 0: neither a row nor an error"):
            decode_batch(error_item(text))
    assert decode_batch(error_item(encode_json(ERROR)))[0] == [ERROR]


def test_a_deeply_nested_header_is_a_value_error():
    """An error item's JSON is the one parsed part of a reply."""
    with pytest.raises(ValueError, match="corrupt JSON"):
        decode_batch(error_item(b"[" * 200_000))


@pytest.mark.parametrize(
    "mutate",
    [
        reply(items=0xFFFFFFFF),
        item(ndim=255),
        item(name_bytes=0xFFFFFFFF),
        item(boxes=0xFFFFFFFF),
        item(flags=4 | 8, cell_rows=0xFFFFFFFF),
        item(hops=0xFFFF),
        item(flags=16, name_bytes=0xFFFFFFFF),
        hop(from_bytes=0xFFFF, to_bytes=0xFFFF),
    ],
)
def test_huge_counts_are_refused_before_any_allocation_sized_by_them(mutate):
    payload = mutate(one_hop())
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            decode_batch(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# ----------------------------------------------------------------------
# round-trip property: one layout for every mix of items
# ----------------------------------------------------------------------
INT64 = (-(1 << 63), (1 << 63) - 1)
# every width's extremes, so a batch's union crosses dtype boundaries
LIMITS = (0, -(1 << 7), (1 << 7) - 1, -(1 << 15), (1 << 15) - 1, -(1 << 31), (1 << 31) - 1, *INT64)


@st.composite
def query_results(draw):
    """A QueryResult of 0-40 boxes of ndim 1-4, each coordinate within a
    few cells of one integer limit (boxes stay tiny, so a cell listing
    is cheap; ``hi + 1`` stays inside int64 for ``to_cells_array``)."""
    ndim = draw(st.integers(1, 4))
    limit = draw(st.sampled_from(LIMITS))
    low, high = max(limit - 6, INT64[0]), min(limit + 6, INT64[1] - 1)
    coords = st.integers(low, high)
    boxes = draw(st.lists(st.tuples(*([coords] * ndim), *([st.integers(0, 2)] * ndim)), max_size=40))
    lo = np.array([box[:ndim] for box in boxes], dtype=np.int64).reshape(-1, ndim)
    hi = [[min(c + extent, high) for c, extent in zip(box[:ndim], box[ndim:])] for box in boxes]
    hi = np.array(hi, dtype=np.int64).reshape(-1, ndim)
    # rows_scanned is u64 on the wire, the three box counts u32
    hop = st.builds(
        HopStats, st.text(max_size=4), st.text(max_size=4), st.integers(0, 1 << 40),
        *([st.integers(0, (1 << 32) - 1)] * 3), st.floats(0, 10, allow_nan=False),
    )
    cells = CellBoxSet(draw(st.text(max_size=6)), (1 << 40,) * ndim, lo, hi)
    # the merge kernel behind count_cells assumes in-bounds coordinates and
    # overflows at the int64 limits; the wire only carries the count, so
    # seed the memo with the brute-force one
    cells._cell_count = len(cells.to_cells())
    return QueryResult(cells=cells, hops=draw(st.lists(hop, max_size=3)))


ERRORS = st.builds(
    lambda kind, message, status: {"error": {"type": kind, "message": message, "status": status}},
    st.sampled_from(["not-found", "bad-request", "timeout"]), st.text(max_size=12), st.integers(400, 599),
)
ENTRIES = st.tuples(
    query_results(), st.booleans(), st.booleans(), st.booleans(), st.booleans(),
    st.floats(0, 1e3, allow_nan=False),
)
BATCHES = st.lists(st.one_of(ENTRIES, ERRORS), max_size=6)


def expected_payload(result, include_boxes, include_cells, cached, degraded, elapsed_ms) -> dict:
    payload = result_payload(result, include_boxes=include_boxes, include_cells=include_cells)
    payload.update(cached=cached, degraded=degraded, elapsed_ms=elapsed_ms)
    return payload


def views(results):
    return [
        array
        for r in results
        if isinstance(r, RPCResult)
        for array in (r.boxes_lo, r.boxes_hi, r.cells_array)
        if array is not None
    ]


@settings(max_examples=150, deadline=None)
@given(BATCHES, st.floats(0, 1e3, allow_nan=False))
@example([], 0.0)
def test_round_trip_property(entries, elapsed_ms):
    payload = encode_batch(entries, elapsed_ms)
    results, meta = decode_batch(payload)
    assert meta == {"batch_size": len(entries), "elapsed_ms": elapsed_ms}
    coords = []
    for sent, got in zip(entries, results):
        if isinstance(sent, dict):
            assert got == sent
            continue
        assert got.to_payload() == expected_payload(*sent)
        # a batch of N is N batches of one
        assert got.to_payload() == decode_result(encode_result(*sent)).to_payload()
        result, include_boxes, include_cells = sent[:3]
        if include_boxes:
            coords += [result.cells.lo, result.cells.hi]
        if include_cells:
            coords.append(result.to_cells_array())
    arrays = views(results)
    assert len({id(array.base) for array in arrays}) <= 1  # one block
    for array in arrays:
        assert array.base.base is payload and not array.flags.writeable
    union = np.concatenate(coords, axis=None) if coords else np.empty(0, np.int64)
    narrowest = next(
        np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
        if union.size == 0 or np.iinfo(t).min <= union.min() and union.max() <= np.iinfo(t).max
    )
    assert {array.dtype for array in arrays} <= {narrowest}


# ----------------------------------------------------------------------
# fuzzing: arbitrary and mutated bytes decode or raise ValueError
# ----------------------------------------------------------------------
def decodes_or_refuses(payload: bytes) -> None:
    """Both result decoders on *payload*: a decoded result must be whole
    (its payload renders) with every array a view no larger than the
    bytes it came from; anything else must be a ValueError."""
    for decode in (decode_batch, decode_result):
        try:
            decoded = decode(payload)
        except ValueError:
            continue
        results = decoded[0] if decode is decode_batch else [decoded]
        for result in results:
            if isinstance(result, RPCResult):
                result.to_payload()
        for array in views(results):
            assert array.base.base is payload and array.nbytes <= len(payload)


def mixed_batch() -> bytes:
    return encode_batch(
        [
            entry(make_result([((0, 0), (1, 1)), ((4, 4), (7, 7))], shape=(8, 8)), include_cells=True),
            ERROR,
            entry(make_result([((-300,), (70_000,))], shape=(1 << 20,)), include_boxes=False),
            entry(make_result([((1, 2, 3), (4, 5, 6))], shape=(1 << 40,) * 3), cached=True),
        ],
        elapsed_ms=1.25,
    )


def test_every_truncation_is_refused():
    payload = mixed_batch()
    for cut in range(len(payload)):
        with pytest.raises(ValueError):
            decode_batch(payload[:cut])
    assert len(decode_batch(payload)[0]) == 4


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=256))
@example(wire._REPLY.pack(b"DRES", 1, 0.0, 0))
@example(wire._REPLY.pack(b"DRES", 8, 0.0, 1) + wire._ITEM.pack(4, 1, 0, 1, 1, 0.0, 0, 0) + bytes(24))
def test_fuzz_random_bytes(payload):
    decodes_or_refuses(payload)
    decodes_or_refuses(b"DRES" + payload)


@settings(max_examples=300, deadline=None)
@given(BATCHES, st.data())
def test_fuzz_byte_flips(entries, data):
    payload = bytearray(encode_batch(entries))
    for _ in range(data.draw(st.integers(1, 4))):
        index = data.draw(st.integers(0, len(payload) - 1))
        payload[index] ^= data.draw(st.integers(1, 255))
    decodes_or_refuses(bytes(payload))


@settings(max_examples=200, deadline=None)
@given(BATCHES, BATCHES, st.data())
def test_fuzz_splices(first, second, data):
    a, b = encode_batch(first), encode_batch(second)
    head = data.draw(st.integers(0, len(a)))
    tail = data.draw(st.integers(0, len(b)))
    decodes_or_refuses(a[:head] + b[tail:])


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=0, max_size=FRAME_HEADER_SIZE + 4), st.integers(0, 0xFFFF), st.integers(0, 0xFFFFFFFF))
def test_fuzz_frame_headers(noise, opcode, request_id):
    valid = bytearray(encode_frame(opcode, request_id, b"x"))
    for index, byte in enumerate(noise[:FRAME_HEADER_SIZE]):
        valid[index] ^= byte  # a mutation of a valid header
    for data in (bytes(noise), bytes(valid)):
        try:
            op, rid, length = parse_frame_header(data)
        except ValueError:
            continue
        assert 0 <= op <= 0xFFFF and 0 <= rid <= 0xFFFFFFFF
        assert 0 <= length <= wire.MAX_FRAME_BYTES
