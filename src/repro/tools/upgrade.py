"""``python -m repro.tools.upgrade <root>`` — bring a directory an older
build wrote to the one format this build reads (``SHARDS.json`` +
``shard-NN/``, wire-v2 segments, ``attr-delta`` tables).  This module is
the only code that reads the older formats.  One shot, in place,
idempotent; an interrupted run is finished by running it again.

* **Single-store directory** (root-level ``MANIFEST.json`` + segments, the
  former ``backend="segment"``): the files move into ``shard-00/`` by
  rename, manifest last, then ``SHARDS.json`` (one shard) is written
  atomically.  No record byte changes, so entry versions, op names,
  operation records and reuse state carry over as they are.
* **Per-entry directory** (one ``.provrc[.gz]`` backward table per entry,
  which never held op names or operation records): every table is
  re-ingested into a one-shard store staged beside the files and moved
  into place; the old files are kept under ``legacy/``.
* **Forward tables** (every store written while an entry held two
  orientations): each manifest row drops its ``forward`` ref, and every
  segment that held a forward record is rewritten below with its live
  records only, so no forward record survives.
* **Segments the reader cannot serve**, in any shard: wire-v1 segments
  (no per-record checksum) and segments holding a live table in an older
  column layout — ``"layout": "row-delta"`` (the same row deltas and
  extents as today's, row-major, under a header that lists a ``dtype``, a
  ``shape`` and a ``decoded`` dtype per column) or no ``layout`` at all
  (six verbatim columns under that header).  Each such segment's live
  records are rewritten into a fresh v2 segment, older layouts decoded by
  the validating reader below and re-encoded by the current writer
  (plain or gzip as they were); the shard's manifest — its checkpoint and
  the edit records logged after it — is re-pointed (offset and length)
  and published atomically as a checkpoint that starts no log, and only
  then is the old file removed.  A manifest edit record is no live record
  and is not copied.

Exit status: 0 upgraded or already current, 2 not a DSLog directory.
"""

from __future__ import annotations

import argparse
import shutil
import struct
import sys
import zlib
from pathlib import Path
from typing import Dict, Iterator, Tuple

import numpy as np

from ..core.compressed import CompressedLineage
from ..core.serialize import (
    _COLUMNS,
    _LAYOUT,
    _MAGIC,
    _WHAT,
    _corrupt,
    _dims,
    _peek_header,
    _table_fields,
    deserialize_table,
    parse_json_frame,
    serialize_table,
)
from ..dslog import DSLog
from ..storage.manifest import MANIFEST_NAME, load_manifest, save_manifest
from ..storage.scrub import QUARANTINE_DIR
from ..storage.segments import SEGMENT_HEADER_SIZE, SEGMENT_MAGIC, SegmentWriter, read_record
from ..storage.sharded import load_shards_file, write_shards_file

__all__ = ["upgrade", "main"]

_V1_HEADER = SEGMENT_MAGIC + struct.pack("<H", 1)
_V1_PREFIX = struct.Struct("<I")


def _lift_single_store(root: Path) -> None:
    """Root-level store -> ``shard-00/``.  The manifest moves last, so an
    interrupted run still shows its root manifest and is picked up again."""
    shard = root / "shard-00"
    shard.mkdir(exist_ok=True)
    for path in [*sorted(root.glob("segment-*.seg")), root / QUARANTINE_DIR, root / MANIFEST_NAME]:
        if path.exists():
            path.rename(shard / path.name)


def _reingest_per_entry(root: Path, files: list) -> None:
    """``.provrc[.gz]`` files -> a staged one-shard store -> ``shard-00/``."""
    staging = root / "upgrade.tmp"
    if staging.exists():
        shutil.rmtree(staging)  # an interrupted run's half-built store
    gzip = any(path.suffix == ".gz" for path in files)
    with DSLog(staging, gzip=gzip, num_shards=1, autosync=False) as log:
        for path in files:
            # written when those files were: in an older column layout
            backward = deserialize_table(_current(path.read_bytes()))
            log.define_array(backward.in_name, backward.in_shape)
            log.define_array(backward.out_name, backward.out_shape)
            log.catalog.add_compressed(backward)
    (staging / "shard-00").rename(root / "shard-00")
    shutil.rmtree(staging)


def _dtype_of(spec, column: str) -> np.dtype:
    """The signed integer dtype an older header names for *column*."""
    try:
        dtype = np.dtype(spec) if type(spec) is str else None
    except (TypeError, ValueError):
        dtype = None
    if dtype is None or dtype.kind != "i":
        raise _corrupt(f"{column} dtype", f"{spec!r} is not a signed integer")
    return dtype


def _read_legacy(data) -> CompressedLineage:
    """Decode a plain ``row-delta`` or layout-less payload: six row-major
    columns, each with its own dtype and shape in the header (``row-delta``
    stores ``lo`` as row deltas and ``hi`` as extents, each with the dtype
    it decodes to).  Every header field is validated before it is acted on,
    and every failure is a ``ValueError`` naming the field."""
    view = memoryview(data)
    header, offset = parse_json_frame(view, _MAGIC, _WHAT)
    fields = _table_fields(header)
    layout = header.get("layout")
    if layout is not None and layout != "row-delta":
        raise ValueError(f"unknown ProvRC column layout {layout!r}")
    listed = header.get("columns")
    if type(listed) is not dict:
        raise _corrupt("'columns'", "is not an object")
    columns = []
    for name in _COLUMNS:
        meta = listed.get(name)
        if type(meta) is not dict:
            raise _corrupt(f"column {name!r}", "is missing")
        dtype = _dtype_of(meta.get("dtype"), name)
        shape = meta.get("shape")
        count = _dims(shape, f"{name} 'shape'")
        if count * dtype.itemsize > len(view) - offset:
            raise ValueError(
                f"corrupt {_WHAT}: {name} needs {count * dtype.itemsize} bytes, "
                f"{len(view) - offset} are left"
            )
        columns.append(np.frombuffer(view, dtype, count, offset).reshape(shape))
        offset += count * dtype.itemsize
    if offset != len(view):
        raise ValueError(f"corrupt {_WHAT}: {len(view) - offset} bytes left over behind val_hi")
    nkey, nval = len(fields[2]), len(fields[3])
    rows = columns[0].shape[0] if columns[0].ndim == 2 else None
    for name, column, width in zip(_COLUMNS, columns, (nkey, nkey, nval, nval, nval, nval)):
        if column.shape != (rows, width):
            raise _corrupt(f"{name} 'shape'", f"is {list(column.shape)}, not [rows, {width}]")
    if layout == "row-delta":
        for lo_at, hi_at in ((0, 1), (4, 5)):
            delta, extent = columns[lo_at], columns[hi_at]
            # both wrap at the decoded dtype exactly as the writer's
            # subtractions did
            lo_dtype = _dtype_of(listed[_COLUMNS[lo_at]].get("decoded"), _COLUMNS[lo_at])
            hi_dtype = _dtype_of(listed[_COLUMNS[hi_at]].get("decoded"), _COLUMNS[hi_at])
            columns[lo_at] = np.add.accumulate(delta, axis=0, dtype=lo_dtype)
            columns[hi_at] = np.add(columns[lo_at], extent, dtype=hi_dtype)
    for column in columns:
        column.flags.writeable = False
    return CompressedLineage._hydrate(*fields[:4], *columns, *fields[4:])


def _current(payload) -> bytes:
    """*payload* in the column layout this build reads: re-encoded by the
    current writer, plain or gzip as it was, when an older one wrote it."""
    if _peek_header(payload).get("layout") == _LAYOUT:
        return bytes(payload)
    gzip = bytes(payload[:4]) != _MAGIC
    return serialize_table(_read_legacy(zlib.decompress(payload) if gzip else payload), gzip=gzip)


def _is_legacy(path: Path, offset: int, length: int) -> bool:
    """Whether the record at *offset* holds a table in an older layout; a
    record that does not read is scrub's to report, not this tool's."""
    try:
        return _peek_header(read_record(path, offset, length)).get("layout") != _LAYOUT
    except (ValueError, zlib.error):
        return False


def _iter_v1_records(path: Path) -> Iterator[Tuple[int, bytes]]:
    """``(offset, payload)`` of every complete record of a wire-v1 segment
    (``u32 length | payload``, no checksum), stopping at a torn tail."""
    with open(path, "rb") as fh:
        fh.seek(SEGMENT_HEADER_SIZE)
        offset = SEGMENT_HEADER_SIZE
        while True:
            prefix = fh.read(_V1_PREFIX.size)
            if len(prefix) < _V1_PREFIX.size:
                return
            (length,) = _V1_PREFIX.unpack(prefix)
            payload = fh.read(length)
            if len(payload) < length:
                return
            yield offset, payload
            offset += _V1_PREFIX.size + length


def _rewrite_segments(shard: Path) -> bool:
    """Rewrite each of one shard's segments the reader cannot serve —
    wire-v1, or holding a live table in an older column layout — or that
    holds a forward table, as a fresh v2 segment of its live records in the
    current layout; returns whether there were any.  The manifest publish
    is the commit point: before it the new files are unreferenced (a
    second run overwrites them), after it the old files are, and are
    removed."""
    manifest = load_manifest(shard)
    if manifest is None:
        return False
    # a forward table is no live record: dropping its ref here leaves it
    # out of the rewrite of its segment
    forward = {row.pop("forward")["segment"] for row in manifest.entries if "forward" in row}
    live: Dict[str, Dict[int, int]] = {}  # segment -> {record offset: length}
    for ref in manifest.iter_table_refs():
        live.setdefault(ref["segment"], {})[ref["offset"]] = ref["length"]
    renamed = {}  # old segment -> its rewrite
    moved = {}  # (old segment, old record offset) -> (new offset, new length)
    for idx, name in enumerate(manifest.segments):
        path = shard / name
        if not path.exists():
            continue  # a missing segment is scrub's to report
        refs = live.get(name, {})
        with open(path, "rb") as fh:
            v1 = fh.read(SEGMENT_HEADER_SIZE) == _V1_HEADER
        if v1:
            records = ((offset, p) for offset, p in _iter_v1_records(path) if offset in refs)
        elif name in forward or any(
            _is_legacy(path, offset, length) for offset, length in refs.items()
        ):
            records = ((offset, read_record(path, offset, refs[offset])) for offset in sorted(refs))
        else:
            continue
        renamed[name] = f"segment-{manifest.next_segment_id:06d}.seg"
        manifest.next_segment_id += 1
        manifest.segments[idx] = renamed[name]
        (shard / renamed[name]).unlink(missing_ok=True)
        with SegmentWriter(shard / renamed[name]) as writer:
            for offset, payload in records:
                moved[(name, offset)] = writer.append(_current(payload))
    if not renamed and not forward:
        return False
    # the checkpoint below holds every edit the log carried, and records
    # may have moved: it starts no log (the store's next publish does)
    manifest.log = None
    for ref in manifest.iter_table_refs():
        if ref["segment"] in renamed:
            try:
                ref["offset"], ref["length"] = moved[(ref["segment"], ref["offset"])]
            except KeyError:
                raise ValueError(
                    f"{shard / MANIFEST_NAME} references {ref['segment']}@{ref['offset']}, "
                    "which is not a complete record; the old files and the manifest "
                    "are untouched"
                ) from None
            ref["segment"] = renamed[ref["segment"]]
    save_manifest(shard, manifest)
    for name in renamed:
        (shard / name).unlink()
    return True


def upgrade(root: Path) -> bool:
    """Upgrade *root* in place; returns whether anything had to change.
    Raises ``ValueError`` when *root* is not a DSLog directory."""
    if not root.is_dir():
        raise ValueError(f"{root} is not a directory")
    changed = False
    if load_shards_file(root) is None:
        legacy = []
        if (root / MANIFEST_NAME).exists():
            _lift_single_store(root)
        elif not (root / "shard-00" / MANIFEST_NAME).exists():
            # (one that exists is an interrupted run that finished its moves)
            legacy = sorted(root.glob("*.provrc")) + sorted(root.glob("*.provrc.gz"))
            if not legacy:
                raise ValueError(f"{root} is not a DSLog directory")
            _reingest_per_entry(root, legacy)
        # the atomic last step: from here on the directory opens
        write_shards_file(root, 1, load_manifest(root / "shard-00").gzip)
        if legacy:
            (root / "legacy").mkdir()
            for path in legacy:
                path.rename(root / "legacy" / path.name)
        changed = True
    for shard in sorted(root.glob("shard-*")):
        changed |= _rewrite_segments(shard)
    return changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.upgrade",
        description="upgrade an old DSLog directory to the current on-disk layout, in place",
    )
    parser.add_argument("root", help="catalog directory")
    args = parser.parse_args(argv)
    try:
        changed = upgrade(Path(args.root))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.root}: {'upgraded' if changed else 'already current'}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
