"""``python -m repro.tools.upgrade <root>`` — bring a directory an older
build wrote to the one layout this build reads (``SHARDS.json`` +
``shard-NN/``, wire-v2 segments).  One shot, in place, idempotent; an
interrupted run is finished by running it again.

* **Single-store directory** (root-level ``MANIFEST.json`` + segments, the
  former ``backend="segment"``): the files move into ``shard-00/`` by
  rename, manifest last, then ``SHARDS.json`` (one shard) is written
  atomically.  No record byte changes, so entry versions, op names,
  operation records and reuse state carry over as they are.
* **Per-entry directory** (one ``.provrc[.gz]`` backward table per entry,
  which never held op names or operation records): every table is
  re-ingested, its forward orientation rebuilt, into a one-shard store
  staged beside the files and moved into place; the old files are kept
  under ``legacy/``.
* **Wire-v1 segments** (no per-record checksum), in any shard: each is
  rewritten as a fresh v2 segment, the shard's manifest is re-pointed and
  published atomically, and only then is the v1 file removed.

Exit status: 0 upgraded or already current, 2 not a DSLog directory.
"""

from __future__ import annotations

import argparse
import shutil
import struct
import sys
from pathlib import Path
from typing import Iterator, Tuple

from ..core.serialize import read_compressed
from ..dslog import DSLog
from ..service.shards import load_shards_file, write_shards_file
from ..storage.manifest import MANIFEST_NAME, load_manifest, save_manifest
from ..storage.scrub import QUARANTINE_DIR
from ..storage.segments import SEGMENT_HEADER_SIZE, SEGMENT_MAGIC, SegmentWriter

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
            backward = read_compressed(path)
            log.define_array(backward.in_name, backward.in_shape)
            log.define_array(backward.out_name, backward.out_shape)
            log.catalog.add_compressed(backward, DSLog._reorient(backward))
    (staging / "shard-00").rename(root / "shard-00")
    shutil.rmtree(staging)


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


def _rewrite_v1_segments(shard: Path) -> bool:
    """Rewrite one shard's wire-v1 segments as v2 under fresh names;
    returns whether there were any.  The manifest publish is the commit
    point: before it the new files are unreferenced (a second run
    overwrites them), after it the v1 files are, and are removed."""
    manifest = load_manifest(shard)
    if manifest is None:
        return False
    renamed = {}  # v1 segment -> its v2 rewrite
    moved = {}  # (v1 segment, v1 record offset) -> v2 record offset
    for idx, name in enumerate(manifest.segments):
        path = shard / name
        if not path.exists():
            continue  # a missing segment is scrub's to report
        with open(path, "rb") as fh:
            if fh.read(SEGMENT_HEADER_SIZE) != _V1_HEADER:
                continue
        renamed[name] = f"segment-{manifest.next_segment_id:06d}.seg"
        manifest.next_segment_id += 1
        manifest.segments[idx] = renamed[name]
        (shard / renamed[name]).unlink(missing_ok=True)
        with SegmentWriter(shard / renamed[name]) as writer:
            for offset, payload in _iter_v1_records(path):
                moved[(name, offset)] = writer.append(payload)[0]
    if not renamed:
        return False
    for ref in manifest.iter_table_refs():
        if ref["segment"] in renamed:
            try:
                ref["offset"] = moved[(ref["segment"], ref["offset"])]
            except KeyError:
                raise ValueError(
                    f"{shard / MANIFEST_NAME} references {ref['segment']}@{ref['offset']}, "
                    "which is not a complete record; the v1 files and the manifest "
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
        changed |= _rewrite_v1_segments(shard)
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
