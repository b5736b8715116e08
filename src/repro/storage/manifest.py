"""The lineage store manifest: the catalog's durable metadata root.

``MANIFEST.json`` is the single source of truth for a segment-backed DSLog
directory.  It records every tracked array, every lineage entry (operation
name, reuse flag, entry version, and the ``(segment, offset, length)``
reference of its backward ProvRC table), every operation record, the
serialized reuse-predictor state, and the list of live segment files.

Durability protocol
-------------------
* Segment records are appended first; the manifest is written *after*, via
  a temp file + ``fsync`` + atomic ``os.replace``.  A crash between the two
  leaves unreferenced segment bytes (harmless garbage) and the previous
  manifest generation intact — reopening always sees a consistent catalog.
* ``generation`` increases by one per save, so stale copies are detectable
  and tests can assert on write counts.
* Opening a directory costs O(manifest): beyond the 6-byte header of each
  live segment (its wire version is checked), no segment bytes are read
  until a table is actually queried.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_FORMAT",
    "Manifest",
    "load_manifest",
    "save_manifest",
    "dump_manifest",
    "write_manifest",
    "atomic_write",
    "tuplify",
]

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT = "dslog-segment-store"
# 2: an entry row holds one table ref (version 1 rows also held a forward
# table's, which ``python -m repro.tools.upgrade`` drops)
MANIFEST_FORMAT_VERSION = 2


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


def load_manifest(root: Union[str, Path]) -> Optional[Manifest]:
    """Load the manifest of a store directory, or ``None`` when absent."""
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        return None
    return Manifest.from_json(json.loads(path.read_text(encoding="utf-8")))


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
    """Atomically replace the JSON file *path* with *data*.

    The temp file is fsynced before the rename so a crash can only ever
    observe the old or the new complete file, never a torn one.
    """
    tmp = path.with_suffix(".json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def write_manifest(root: Union[str, Path], data: str) -> None:
    """Atomically replace ``MANIFEST.json`` with pre-serialized text."""
    atomic_write(Path(root) / MANIFEST_NAME, data)


def save_manifest(root: Union[str, Path], manifest: Manifest) -> int:
    """Atomically persist the manifest; returns the new generation."""
    write_manifest(root, dump_manifest(manifest))
    return manifest.generation


def tuplify(obj: Any) -> Any:
    """Recursively convert JSON lists back into the tuples DSLog keys on."""
    if isinstance(obj, list):
        return tuple(tuplify(item) for item in obj)
    return obj
