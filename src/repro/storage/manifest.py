"""The lineage store manifest: the catalog's durable metadata root.

The manifest records every tracked array, every lineage entry (operation
name, reuse flag, entry version, and the ``(segment, offset, length)``
reference of its backward ProvRC table), every operation record, the
serialized reuse-predictor state, and the list of live segment files.
It is kept as a *checkpoint*, ``MANIFEST.json``, plus a *log* of edit
records in the shard's active segment (the LevelDB/RocksDB MANIFEST-log
pattern).

Durability protocol
-------------------
* A publish is one **edit record**: what changed since the last publish
  (upserted entry rows, new arrays, appended operations, the reuse state
  when it changed, the new generation), appended to the active segment
  after the table records it names.  The segment's one write + ``fsync``
  makes tables and edit durable together: a commit is one append and one
  fsync.  A crash before the fsync leaves unreferenced segment bytes and
  the previous publish intact.
* ``MANIFEST.json`` is a **checkpoint**: the whole manifest plus where its
  log starts (``log``: the active segment, and the offset just past the
  checkpoint).  A publish is written as a checkpoint instead of an edit,
  via a temp file + ``fsync`` + atomic ``os.replace`` + an ``fsync`` of the
  directory, only when the log cannot carry it: no checkpoint names the
  shard's active segment yet (its first write, a segment roll, a
  :meth:`~repro.storage.store.LineageStore.rewrite`), a torn write
  happened since the last publish (zero-padded bytes a walk cannot step
  past), or the store is closed with edit records it appended since its
  checkpoint.  Replay is therefore bounded by one segment.
* :func:`load_manifest` returns the **published** manifest: the
  checkpoint, then every edit record a walk of the log segment from the
  checkpoint offset reaches.  The walk stops at the first record that
  fails its length check or checksum — a torn edit record is a torn tail.
* ``generation`` increases by one per publish, edit or checkpoint, so
  stale copies are detectable and tests can assert on write counts.
* Opening a directory costs O(manifest): when the log segment ends at the
  checkpoint offset, beyond the 6-byte header of each live segment (its
  wire version is checked) no segment bytes are read until a table is
  actually queried.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from .segments import EDIT_MAGIC, check_wire_version, record_overhead, walk_records

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_FORMAT",
    "Manifest",
    "Edit",
    "load_manifest",
    "save_manifest",
    "dump_manifest",
    "dump_edit",
    "write_manifest",
    "atomic_write",
    "tuplify",
]

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT = "dslog-segment-store"
# 2: an entry row holds one table ref (version 1 rows also held a forward
# table's, which ``python -m repro.tools.upgrade`` drops); 3: the checkpoint
# names where its log of edit records starts
MANIFEST_FORMAT_VERSION = 3


@dataclass
class Manifest:
    """In-memory image of ``MANIFEST.json``."""

    generation: int = 0
    gzip: bool = True
    next_segment_id: int = 1
    arrays: Dict[str, List[int]] = field(default_factory=dict)
    entries: List[dict] = field(default_factory=list)
    operations: List[dict] = field(default_factory=list)
    segments: List[str] = field(default_factory=list)
    reuse: Optional[dict] = None
    # where the log of edit records starts: {"segment", "offset"} of the
    # active segment when the checkpoint was written, or None (no log)
    log: Optional[dict] = None
    # what load_manifest found in the log (not serialized): the offset just
    # past the last edit record it applied, and whether bytes that do not
    # walk follow the last record that does
    log_end: int = field(default=0, compare=False)
    log_torn: bool = field(default=False, compare=False)

    def to_json(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "format_version": MANIFEST_FORMAT_VERSION,
            "generation": self.generation,
            "gzip": self.gzip,
            "next_segment_id": self.next_segment_id,
            "arrays": self.arrays,
            "entries": self.entries,
            "operations": self.operations,
            "segments": self.segments,
            "reuse": self.reuse,
            "log": self.log,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Manifest":
        if data.get("format") != MANIFEST_FORMAT:
            raise ValueError(f"not a {MANIFEST_FORMAT} manifest")
        if int(data.get("format_version", 0)) > MANIFEST_FORMAT_VERSION:
            raise ValueError(
                f"manifest format version {data['format_version']} is newer "
                f"than this build supports ({MANIFEST_FORMAT_VERSION})"
            )
        return cls(
            generation=int(data["generation"]),
            gzip=bool(data["gzip"]),
            next_segment_id=int(data.get("next_segment_id", 1)),
            arrays={name: list(shape) for name, shape in data.get("arrays", {}).items()},
            entries=list(data.get("entries", [])),
            operations=list(data.get("operations", [])),
            segments=list(data.get("segments", [])),
            reuse=data.get("reuse"),
            log=data.get("log"),
        )

    def iter_table_refs(self) -> Iterator[dict]:
        """Yield every table-reference dict the manifest holds (entry
        tables plus reuse-state tables) — the live-record set a
        compaction must preserve.  The dicts are yielded by reference so a
        compaction can rewrite them in place before the next save."""
        for row in self.entries:
            yield row["backward"]
        if self.reuse:
            for section in ("base", "dim", "gen"):
                for item in self.reuse.get(section, []):
                    for _key, ref in item.get("tables", []):
                        yield ref


@dataclass
class Edit:
    """What changed in one shard's manifest since its last publish: the
    content of its next edit record.  Writers add to it under the lock
    they mutate the manifest under; operations and the reuse state need
    no bookkeeping (operations are only appended, and a new reuse state is
    a new object)."""

    operations: int = 0  # how many operations the last publish held
    reuse: Optional[dict] = None  # the reuse state the last publish held
    rows: Dict[Tuple[str, str], dict] = field(default_factory=dict)  # upserted, in order
    arrays: List[str] = field(default_factory=list)  # new, in order

    @classmethod
    def since(cls, manifest: "Manifest") -> "Edit":
        """An empty edit: *manifest* as it stands is published."""
        return cls(len(manifest.operations), manifest.reuse)

    def pending(self, manifest: "Manifest") -> bool:
        """Whether *manifest* holds a change no publish carried."""
        return bool(
            self.rows
            or self.arrays
            or len(manifest.operations) != self.operations
            or manifest.reuse is not self.reuse
        )

    def merge(self, later: "Edit") -> "Edit":
        """This edit (one a failed publish took) followed by *later* (what
        writers added since): what the next publish must carry."""
        self.rows.update(later.rows)
        self.arrays += later.arrays
        return self


def dump_edit(manifest: Manifest, edit: Edit) -> bytes:
    """Bump the generation and serialize *edit* as an edit record payload.

    Every field is idempotent (rows upsert, arrays and the reuse state are
    set, operations are placed at their index), so a record that a retried
    publish carries again replays to the same manifest."""
    manifest.generation += 1
    record: Dict[str, Any] = {"generation": manifest.generation}
    if edit.rows:
        record["entries"] = list(edit.rows.values())
    if edit.arrays:
        record["arrays"] = {name: manifest.arrays[name] for name in edit.arrays}
    if len(manifest.operations) != edit.operations:
        record["operations"] = [edit.operations, manifest.operations[edit.operations :]]
    if manifest.reuse is not edit.reuse:
        record["reuse"] = manifest.reuse
    return EDIT_MAGIC + json.dumps(record, separators=(",", ":"), default=_json_safe).encode("utf-8")


def _apply_edit(manifest: Manifest, record: dict, rows: Dict[Tuple[str, str], int]) -> None:
    """Apply one edit record; *rows* indexes ``manifest.entries`` by pair."""
    manifest.generation = int(record["generation"])
    for row in record.get("entries", ()):
        pair = (row["in"], row["out"])
        if pair in rows:
            manifest.entries[rows[pair]] = row
        else:
            rows[pair] = len(manifest.entries)
            manifest.entries.append(row)
    manifest.arrays.update(record.get("arrays", {}))
    if "operations" in record:
        start, operations = record["operations"]
        manifest.operations[start:] = operations
    if "reuse" in record:
        manifest.reuse = record["reuse"]


def _replay(root: Path, manifest: Manifest) -> None:
    """Apply the edit records of the log that follows the checkpoint."""
    log = manifest.log
    if log is None:
        return
    offset = manifest.log_end = int(log["offset"])
    path = root / log["segment"]
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        return  # a missing segment is scrub's to report
    if size == offset:
        return  # no tail: the open reads no segment byte
    check_wire_version(path)  # an older wire version names the upgrader
    rows = {(row["in"], row["out"]): i for i, row in enumerate(manifest.entries)}
    end = offset
    try:
        for at, payload, intact in walk_records(path, offset):
            end = at + record_overhead() + len(payload)
            if intact and payload[: len(EDIT_MAGIC)] == EDIT_MAGIC:
                _apply_edit(manifest, json.loads(payload[len(EDIT_MAGIC) :]), rows)
                manifest.log_end = end
    except ValueError:
        end = -1  # a garbled segment header: damage, scrub's to report
    manifest.log_torn = end != size


def load_manifest(root: Union[str, Path]) -> Optional[Manifest]:
    """Load the published manifest of a store directory — its checkpoint
    and the edit records logged after it — or ``None`` when absent."""
    root = Path(root)
    path = root / MANIFEST_NAME
    if not path.exists():
        return None
    manifest = Manifest.from_json(json.loads(path.read_text(encoding="utf-8")))
    _replay(root, manifest)
    return manifest


def _json_safe(obj: Any) -> Any:
    """Fallback encoder for metadata values: numpy scalars round-trip as
    native numbers; anything else degrades to its repr (lossy but never a
    crash mid-sync)."""
    item = getattr(obj, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return repr(obj)


def dump_manifest(manifest: Manifest) -> str:
    """Bump the generation and serialize the manifest to its JSON text.

    Split out of :func:`save_manifest` so concurrent stores can serialize
    under a mutation lock (the manifest's dicts and row lists must not
    change mid-dump) while the slow part — the fsync'd file write of
    :func:`write_manifest` — runs outside any lock.
    """
    manifest.generation += 1
    return json.dumps(manifest.to_json(), separators=(",", ":"), default=_json_safe)


def atomic_write(path: Path, data: str) -> None:
    """Atomically and durably replace the JSON file *path* with *data*.

    The temp file is fsynced before the rename so a crash can only ever
    observe the old or the new complete file, never a torn one; the
    directory is fsynced after it so the rename itself — and the entry of
    any file created in that directory before it — survives a power loss.
    """
    tmp = path.with_suffix(".json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def write_manifest(root: Union[str, Path], data: str) -> None:
    """Write a checkpoint: atomically replace ``MANIFEST.json`` with
    pre-serialized text."""
    atomic_write(Path(root) / MANIFEST_NAME, data)


def save_manifest(root: Union[str, Path], manifest: Manifest) -> int:
    """Write *manifest* as a checkpoint; returns the new generation."""
    write_manifest(root, dump_manifest(manifest))
    return manifest.generation


def tuplify(obj: Any) -> Any:
    """Recursively convert JSON lists back into the tuples DSLog keys on."""
    if isinstance(obj, list):
        return tuple(tuplify(item) for item in obj)
    return obj
