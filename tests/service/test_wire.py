"""The binary wire format in isolation: frame round trips, header
validation (truncation, bad magic, a v1 peer, hostile lengths), the one
result layout (a single result is a batch of one: rows plus one narrowed
coordinate block of zero-copy views) across every integer width, crafted
headers, byte-level fuzzing of every decoder, and >64 KiB frames."""

import json
import socket
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.query import CellBoxSet, HopStats, QueryResult
from repro.core.serialize import frame_header, json_frame, parse_json_frame
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


def test_frame_from_a_v1_peer_is_refused():
    """Version 1 carried the nested per-result layout: a v1 frame gets the
    structured version error, over a socket as from bytes, and no byte of
    its payload is read as a v2 reply."""
    v1 = frame_header(wire.WIRE_MAGIC, "HIHI", 1, 3, OP_QUERY, 9) + b"{}x"
    assert wire.WIRE_VERSION == 2
    with pytest.raises(ValueError, match=r"unsupported RPC protocol version 1 \(this build speaks 2\)"):
        parse_frame_header(v1)
    a, b = socket_pair()
    try:
        a.sendall(v1)
        with pytest.raises(ValueError, match="unsupported RPC protocol version 1"):
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
# crafted headers: every field is checked before a byte is sliced
# ----------------------------------------------------------------------
def reframed(payload: bytes, mutate) -> bytes:
    """*payload* with its JSON header passed through *mutate*."""
    header, offset = parse_json_frame(payload, b"DRES")
    mutate(header)
    return json_frame(b"DRES", header, payload[offset:])


def two_boxes() -> bytes:
    return encode_result(make_result([((0, 0), (1, 1)), ((4, 4), (7, 7))], shape=(8, 8)))


def set_row(**fields):
    """A header mutation setting the first row's *fields* by name."""

    def mutate(header):
        for name, value in fields.items():
            header["items"][0][wire._ROW.index(name)] = value

    return mutate


def test_a_negative_box_count_is_refused():
    """A box count of -1 used to mean "the rest of the buffer" to
    np.frombuffer: the decoder returned (4, 2) lows and (5, 2) highs cut
    from garbage bytes."""
    with pytest.raises(ValueError, match="'boxes_merged' = -1"):
        decode_result(reframed(two_boxes(), set_row(boxes_merged=-1)))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (set_row(boxes_merged=True), "'boxes_merged' = True"),
        (set_row(boxes_merged=2.0), "'boxes_merged' = 2.0"),
        (set_row(cell_rows=-3), "'cell_rows' = -3"),
        (set_row(count=-1), "'count' = -1"),
        (set_row(shape=[8, -8]), "'shape'"),
        (set_row(shape=[8, True]), "'shape'"),
        (set_row(shape="8x8"), "'shape'"),
        (set_row(hops=[["a", "b", 1]]), "'hops'"),
        (set_row(cached=1), "'cached' = 1"),
        (set_row(include_boxes=None), "'include_boxes' = None"),
        (lambda h: h["items"][0].append(0), "arity: 12 fields"),
        (lambda h: h["items"][0].pop(), "arity: 10 fields"),
        (lambda h: h["items"].append({"oops": 1}), "item 1: neither a row nor an error"),
        (lambda h: h.update(items={"0": []}), "'items'"),
        (lambda h: h.update(dtype="<f8"), "'dtype'"),
        (lambda h: h.update(dtype="<u1"), "'dtype'"),
        (lambda h: h.update(dtype=">i2"), "'dtype'"),
        (lambda h: h.update(dtype=["<i1"]), "'dtype'"),
        (lambda h: h.pop("dtype"), "'dtype'"),
        (lambda h: h.update(dtype="<i2"), "block holds"),  # 16 bytes read as 8 values
        (lambda h: h.update(elapsed_ms="soon"), "'elapsed_ms'"),
        (set_row(boxes_merged=3), "claim 12 coordinates"),  # values missing
        (set_row(boxes_merged=1), "claim 4 coordinates"),  # values left over
        (set_row(include_cells=True, cell_rows=1_000_000), "claim 2000008 coordinates"),
    ],
)
def test_crafted_headers_are_refused_by_name(mutate, message):
    with pytest.raises(ValueError, match=message):
        decode_batch(reframed(two_boxes(), mutate))


def test_a_deeply_nested_header_is_a_value_error():
    with pytest.raises(ValueError, match="corrupt RPC result header"):
        decode_batch(b"DRES" + struct.pack("<I", 200_000) + b"[" * 200_000)


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
    hop = st.builds(
        HopStats, st.text(max_size=4), st.text(max_size=4), *([st.integers(0, 1 << 40)] * 4),
        st.floats(0, 10, allow_nan=False),
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
@example(b"DRES\x02\x00\x00\x00{}")
@example(b"DRES\x0b\x00\x00\x00{\"items\":[]}")
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
