"""Scrub-and-repair: the lineage store's fsck.

PR 3's crash-injection tests proved the *manifest protocol* sound — a
crash between segment append and manifest publish can only leave inert
garbage.  What that protocol cannot defend is corruption **inside** sealed
records: bit rot flipping payload bytes, a misdirected write, a short write
tearing a batch, a segment file truncated or deleted outright.
This module detects all of it against the manifest (the authoritative
record index) and, in repair mode, heals with zero valid-record loss:

Corruption classes
------------------
================== ====================================================
``checksum``       record frame intact, payload CRC32 mismatch
``misdirected``    frame and checksum intact but the payload is not this
                   entry's table — the ref points at some other (or no)
                   record: a damaged manifest, since no offset is ever
                   handed out twice (a torn batch's refs are ``truncated``)
``truncated``      manifest ref reaches past the file, or the stored
                   length prefix disagrees with the manifest
``missing``        the referenced segment file does not exist at all
``torn tail``      unparseable bytes after a segment's structurally
                   valid region (a crash or short write mid-append; a
                   torn manifest edit record is one); nothing is appended
                   after them (one writer per file, none after a tear)
``orphan``         a ``segment-*.seg`` file no manifest references
================== ====================================================

A session that writes leaves a new segment per shard it wrote, until a
close or a compaction folds them; scrub checks each like any other.

Repair contract
---------------
* An entry stores one table, its backward ProvRC table, and no second
  copy to rebuild it from: an entry whose record is damaged is dropped
  from the manifest (reported in ``dropped_entries``; the caller drops it
  from the live catalog).  Every other entry keeps its record.
* A damaged **reuse-state table** clears the reuse predictor's persisted
  state — it is advisory (re-learned from future ingests), never worth
  failing a repair over.
* Every still-valid record in a damaged segment is **evacuated** by
  :meth:`LineageStore.rewrite <repro.storage.store.LineageStore.rewrite>`,
  the same step a compaction takes: byte-copied into fresh segments,
  fsynced, then one manifest checkpoint (temp file + fsync + rename +
  directory fsync), then the remap — in-memory lazy entries keep
  resolving, exactly as across a compaction.  The manifest edit records
  of a damaged segment are not copied: no ref names them, and the
  checkpoint holds all they carried.  Only after that publish is the
  damaged file moved whole
  into a ``quarantine/`` sidecar directory next to a small JSON report of
  what was wrong with it, so no corrupt byte is ever silently destroyed.
  Orphan files are quarantined the same way.
* A repair that fails (an I/O error while moving or publishing) raises
  and leaves the manifest, on disk and in memory, as it was; nothing is
  quarantined.

A record is verified by its checksum and its identity (the two table
names its header declares, read by ``peek_table``), never by
decoding its columns: a table in a column layout this build refuses to
read is intact here, and is never quarantined or dropped for its layout.

Entry points: :func:`scrub_store` (one shard directory),
:meth:`repro.storage.sharded.ShardedLineageStore.scrub` (per shard),
:meth:`repro.dslog.DSLog.scrub`, the ``python -m repro.tools.scrub`` CLI,
and the server's ``POST /admin/scrub``.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.serialize import peek_table
from ..obs import log_event
from .segments import CorruptRecordError, read_record, scan_segment
from .store import LineageStore, TableRef

__all__ = ["scrub_store", "QUARANTINE_DIR"]

QUARANTINE_DIR = "quarantine"

def _ref_status(root: Path, ref: TableRef) -> Tuple[str, Optional[bytes]]:
    """Validate one manifest ref against the bytes on disk.

    Returns ``(status, payload)`` where status is ``"ok"``, ``"checksum"``,
    ``"truncated"`` or ``"missing"`` (payload is ``None`` unless ok).
    """
    path = root / ref.segment
    if not path.exists():
        return "missing", None
    try:
        return "ok", read_record(path, ref.offset, ref.length)
    except CorruptRecordError:
        return "checksum", None
    except ValueError:
        return "truncated", None
    except OSError:
        return "truncated", None


def _segment_damage(root: Path, name: str, bad_refs: Dict[str, List[dict]]) -> Optional[dict]:
    """Damage report for one live segment (``None`` when pristine)."""
    path = root / name
    if not path.exists():
        return {"segment": name, "reason": "missing", "torn_bytes": 0}
    try:
        scan = scan_segment(path)
    except ValueError:
        # unreadable header: the whole file is damage
        return {
            "segment": name,
            "reason": "corrupt-header",
            "torn_bytes": path.stat().st_size,
        }
    reasons = []
    bad_here = [r for r in bad_refs.get(name, [])]
    if bad_here:
        reasons.append("corrupt-records")
    if not all(crc_ok for _off, _len, crc_ok in scan["records"]):
        reasons.append("checksum-mismatch")
    if scan["tail_bytes"] > 0:
        # bytes beyond the structurally valid prefix: a torn tail at EOF
        # (no writer appends after a tear)
        reasons.append("torn")
    if not reasons:
        return None
    return {
        "segment": name,
        "reason": "+".join(reasons),
        "torn_bytes": scan["tail_bytes"],
    }


def scrub_store(store: LineageStore, repair: bool = False, serialize_lock=None) -> dict:
    """fsck one :class:`LineageStore` directory; see the module docstring.

    Detection always runs; *repair* additionally quarantines damaged and
    orphan segment files, evacuates their valid records, drops damaged
    entries, and atomically publishes the healed manifest.  The
    caller is responsible for exclusive access (DSLog and the sharded
    store's ``reopen_shard`` hold the appropriate locks).
    """
    root = store.root
    manifest = store.manifest
    # make every appended-but-unflushed record readable before checking it
    if store._writer is not None and store._writer.pending_bytes:
        store._writer.flush_pending()

    report: dict = {
        "root": str(root),
        "repair": bool(repair),
        "repaired": False,
        "segments_checked": 0,
        "records_checked": 0,
        "corrupt_records": [],
        "damaged_segments": [],
        "orphan_segments": [],
        "evacuated_records": 0,
        "dropped_entries": [],
        "reuse_state_dropped": False,
        "quarantined": [],
        "generation": None,
    }

    # ------------------------------------------------------------------
    # detect
    # ------------------------------------------------------------------
    bad_refs: Dict[str, List[dict]] = {}

    def note_bad(ref: TableRef, status: str, kind: str, detail: dict) -> None:
        row = {
            "segment": ref.segment,
            "offset": ref.offset,
            "length": ref.length,
            "class": status,
            "kind": kind,
            **detail,
        }
        report["corrupt_records"].append(row)
        bad_refs.setdefault(ref.segment, []).append(row)

    # entry refs, resolved through any prior remaps
    checked: List[Tuple[dict, str]] = []  # (manifest row, status)
    for row in manifest.entries:
        pair = (row["in"], row["out"])
        ref = store.resolve(TableRef.from_json(row["backward"]))
        status, payload = _ref_status(root, ref)
        report["records_checked"] += 1
        if status == "ok":
            # the checksum proves the payload is intact, not that it belongs
            # to this row: verify the table's own identity (read from the
            # header alone, so a payload in a column layout this build
            # refuses to read is verified, never dropped)
            try:
                identity_ok = peek_table(payload) == pair
            except (ValueError, zlib.error):
                identity_ok = False
            if not identity_ok:
                status = "misdirected"
        if status != "ok":
            note_bad(ref, status, "entry", {"pair": list(pair)})
        checked.append((row, status))

    # reuse-state refs
    reuse_damaged = False
    if manifest.reuse:
        for section in ("base", "dim", "gen"):
            for item in manifest.reuse.get(section, []):
                for _key, ref_dict in item.get("tables", []):
                    ref = store.resolve(TableRef.from_json(ref_dict))
                    status, _payload = _ref_status(root, ref)
                    report["records_checked"] += 1
                    if status != "ok":
                        reuse_damaged = True
                        note_bad(ref, status, "reuse-state", {})

    # per-segment structural damage (torn tails, unreferenced rot)
    for name in list(manifest.segments):
        report["segments_checked"] += 1
        damage = _segment_damage(root, name, bad_refs)
        if damage is not None:
            report["damaged_segments"].append(damage)

    # orphans: segment files no manifest generation references, except
    # those a compaction retired under a snapshot pin (deleted when the
    # last pin is released; until then a snapshot may still read them)
    live = set(manifest.segments) | set(store._retired)
    for path in sorted(root.glob("segment-*.seg")):
        if path.name not in live:
            report["orphan_segments"].append(path.name)

    report["clean"] = not (
        report["corrupt_records"]
        or report["damaged_segments"]
        or report["orphan_segments"]
    )
    log_event(
        "scrub_detect",
        level="info" if report["clean"] else "warning",
        component="scrub",
        root=str(root),
        clean=report["clean"],
        segments_checked=report["segments_checked"],
        records_checked=report["records_checked"],
        corrupt_records=len(report["corrupt_records"]),
        damaged_segments=len(report["damaged_segments"]),
        orphan_segments=len(report["orphan_segments"]),
    )
    if not repair or report["clean"]:
        return report

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------
    damaged_names = [d["segment"] for d in report["damaged_segments"]]

    # drop I/O state first: the active writer may sit on a damaged segment
    store.reset_io()

    # drop the damaged entries, and the whole reuse state if any of its
    # tables is damaged (it is advisory and re-learnable); what is left in
    # a damaged segment is valid, and moves out with the store's one
    # rewrite, which publishes the healed manifest before the damaged
    # files are touched — or, failing, leaves the manifest as it was
    entries, reuse = manifest.entries, manifest.reuse
    manifest.entries = [row for row, status in checked if status == "ok"]
    report["dropped_entries"] = [[row["in"], row["out"]] for row, status in checked if status != "ok"]
    if reuse_damaged:
        manifest.reuse = None
        report["reuse_state_dropped"] = True
    report["evacuated_records"] = sum(
        store.resolve(TableRef.from_json(ref)).segment in damaged_names
        for ref in manifest.iter_table_refs()
    )
    try:
        store.rewrite(damaged_names, serialize_lock=serialize_lock)
    except BaseException:
        manifest.entries, manifest.reuse = entries, reuse
        raise
    report["generation"] = manifest.generation

    # quarantine: move damaged + orphan files aside with a description
    qdir = root / QUARANTINE_DIR
    qdir.mkdir(exist_ok=True)

    def quarantine(name: str, why: dict) -> None:
        src = root / name
        if src.exists():
            src.replace(qdir / name)
        (qdir / f"{name}.json").write_text(
            json.dumps(why, indent=2, sort_keys=True), encoding="utf-8"
        )
        report["quarantined"].append(name)

    for damage in report["damaged_segments"]:
        quarantine(
            damage["segment"],
            {
                "reason": damage["reason"],
                "torn_bytes": damage["torn_bytes"],
                "corrupt_records": bad_refs.get(damage["segment"], []),
            },
        )
    for name in report["orphan_segments"]:
        quarantine(name, {"reason": "orphan"})

    report["repaired"] = True
    log_event(
        "scrub_repair",
        level="warning",
        component="scrub",
        root=str(root),
        evacuated_records=report["evacuated_records"],
        dropped_entries=len(report["dropped_entries"]),
        quarantined=len(report["quarantined"]),
        generation=report["generation"],
    )
    return report
