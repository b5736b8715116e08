"""Fuzzing the table decoders: ``deserialize_table``, ``peek_table`` and
``parse_header`` on random bytes, on flips, splices and truncations of
valid plain and gzip payloads, and on crafted headers.  Every outcome is a
table (or a header) or a ``ValueError`` / ``zlib.error`` — never another
exception — and no allocation is sized by an unvalidated field: under
``tracemalloc`` a decode peaks at a small multiple of the bytes it was
given, even when the header claims 2**40 rows.  (Older layouts are refused
by name, never decoded: no reader of them ships.)"""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.compressed import CompressedLineage
from repro.core.provrc import compress
from repro.core.relation import LineageRelation
from repro.core.serialize import (
    _MAGIC,
    deserialize_table,
    json_frame,
    parse_header,
    parse_json_frame,
    peek_table,
    serialize_table,
)

REFUSALS = (ValueError, zlib.error)
# peak traced bytes per input byte: a header's JSON lists become Python
# objects (a 2-byte dimension ``1,`` is an int in a list and in a tuple,
# plus its default axis name), so the parse itself costs tens of times its
# text — what must never happen is an allocation sized by a field's value
MEMORY_MULTIPLE = 64
SLACK = 256 * 1024
# milliseconds per example: generous for payloads this small, so only a
# decode that loops on its input misses it
FUZZ = settings(max_examples=300, deadline=5_000)


def _tables():
    rows = [((i,), (i, j)) for i in range(50) for j in range(4)]
    wide = np.arange(60, dtype=np.int64).reshape(30, 2) * [1, 1000]
    kind = np.zeros((30, 1), np.int64)
    return [
        compress(LineageRelation.from_pairs(rows, (50,), (50, 4))),
        CompressedLineage(
            "B", "A", (30, 70_000), (40,),
            key_lo=wide, key_hi=wide + 7, val_kind=kind, val_ref=kind - 1, val_lo=kind, val_hi=kind + 39,
        ),
        compress(LineageRelation((4,), (4,), np.empty((0, 2)))),
    ]


TABLES = _tables()
PAYLOADS = [serialize_table(table, gzip=gzip) for table in TABLES for gzip in (False, True)]
VALID = st.sampled_from(PAYLOADS)


def peak_of(call):
    """``(outcome, peak traced bytes)`` of *call*; the outcome is what it
    returned or the refusal it raised."""
    tracemalloc.start()
    try:
        try:
            outcome = call()
        except REFUSALS as refusal:
            outcome = refusal
        return outcome, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def decodes_or_refuses(data, plain_size=None):
    """Both decoders on *data*: a table whose columns hold no more values
    than the payload has bytes, or a refusal.  With *plain_size* (the bytes
    the payload stands for once inflated) the decode's peak memory is
    bounded by it too."""
    table, peak = peak_of(lambda: deserialize_table(data))
    if isinstance(table, CompressedLineage):
        stored = sum(getattr(table, name).size for name in ("key_lo", "val_kind", "val_ref", "val_lo"))
        assert stored <= 8 * max(len(data), plain_size or 0)
        assert peek_table(data) == (table.in_name, table.out_name)
    if plain_size is not None:
        assert peak <= MEMORY_MULTIPLE * plain_size + SLACK, peak
    try:
        in_name, out_name = peek_table(data)
    except REFUSALS:
        return
    assert type(in_name) is type(out_name) is str


@FUZZ
@given(st.binary(max_size=300))
@example(_MAGIC + struct.pack("<I", 2) + b"{}")
@example(zlib.compress(_MAGIC + struct.pack("<I", 0xFFFFFFFF) + b"{}"))
def test_random_bytes(data):
    decodes_or_refuses(data)
    decodes_or_refuses(_MAGIC + data, plain_size=len(data) + 4)
    decodes_or_refuses(zlib.compress(_MAGIC + data))


@FUZZ
@given(VALID, st.data())
def test_byte_flips(payload, data):
    flipped = bytearray(payload)
    for _ in range(data.draw(st.integers(1, 4))):
        flipped[data.draw(st.integers(0, len(flipped) - 1))] ^= data.draw(st.integers(1, 255))
    plain = bytes(flipped)[:4] == _MAGIC
    decodes_or_refuses(bytes(flipped), plain_size=len(flipped) if plain else None)


@FUZZ
@given(VALID, VALID, st.data())
def test_splices(first, second, data):
    spliced = first[: data.draw(st.integers(0, len(first)))] + second[data.draw(st.integers(0, len(second))) :]
    decodes_or_refuses(spliced, plain_size=len(spliced) if spliced[:4] == _MAGIC else None)


def test_every_truncation_is_refused():
    for payload in PAYLOADS:
        for cut in range(len(payload)):
            with pytest.raises(REFUSALS):
                deserialize_table(payload[:cut])
        assert len(deserialize_table(payload)) == len(TABLES[PAYLOADS.index(payload) // 2])


def crafted(**changes):
    """The first table's plain payload under a header with *changes*."""
    header, offset = parse_json_frame(PAYLOADS[0], _MAGIC)
    return json_frame(_MAGIC, {**header, **changes}, PAYLOADS[0][offset:])


@pytest.mark.parametrize(
    "changes",
    [
        {"rows": 2**40},
        {"rows": 2**40, "stored": [8] * 6, "decoded": [8] * 4},
        {"rows": -(2**40)},
        {"rows": 2**63},
        {"stored": [3] * 6},
        {"stored": [2**40] * 6},
        {"decoded": [16, 1, 1, 1]},
        {"out_shape": [2**40] * 3, "in_shape": [2**40] * 3},
        {"in_shape": [1] * 10_000},
        {"out_axes": ["b"] * 10_000},
        {"layout": "attr-delta" * 1_000},
    ],
)
def test_crafted_headers_are_refused_within_a_small_multiple_of_the_input(changes):
    for data in (crafted(**changes), zlib.compress(crafted(**changes))):
        outcome, peak = peak_of(lambda: deserialize_table(data))
        assert isinstance(outcome, ValueError), outcome
        assert peak <= MEMORY_MULTIPLE * len(crafted(**changes)) + SLACK, peak


def test_a_gzip_header_length_of_2_to_the_32_inflates_only_what_is_there():
    data = zlib.compress(_MAGIC + struct.pack("<I", 0xFFFFFFFF) + b'{"key_side": "output"}')
    outcome, peak = peak_of(lambda: peek_table(data))
    assert isinstance(outcome, ValueError) and "claims" in str(outcome)
    assert peak <= SLACK


@FUZZ
@given(st.binary(max_size=24), st.sampled_from(["I", "H", "HIH", "IIQ"]))
def test_parse_header_unpacks_or_refuses(data, layout):
    for buffer in (data, _MAGIC + data):
        try:
            fields, offset = parse_header(buffer, _MAGIC, layout, "fuzzed frame")
        except ValueError:
            continue
        assert offset == len(_MAGIC) + struct.calcsize("<" + layout) <= len(buffer)
        assert len(fields) == len(layout)
