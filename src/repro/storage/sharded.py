"""The durable lineage store (``ShardedLineageStore``): the one on-disk
layout behind every ``DSLog`` that has a root directory.

A catalog directory fans the entry set out over *N* shard
subdirectories, each a complete single-writer store of its own —
append-only segment files plus a per-shard manifest, a ``MANIFEST.json``
checkpoint and the edit records logged after it in the active segment
(:mod:`repro.storage.store`) — indexed by one root ``SHARDS.json``:

    root/
      SHARDS.json            # shard count + on-disk format (immutable)
      shard-00/              # the *meta shard*: entries hashed here, plus
        MANIFEST.json        # arrays, operation records and reuse state
        segment-000001.seg
      shard-01/
        MANIFEST.json        # entries hashed to shard 1, nothing else
        segment-000001.seg
      ...

An entry's home shard is the stable hash of its ``(input, output)`` pair,
so two writers touching different pairs usually append to different
segment files and publish different manifests — the write path is
partitioned, not merely locked.  ``compact()`` is per shard: one shard can
be compacted while the others keep serving.  Hydrated tables of every
shard live in the root's one :class:`~repro.storage.store.TableCache`,
whose budget is ``cache_bytes`` — not a share of it — and from which a
shard's compaction or reset drops that shard's tables only.
``num_shards=1`` is the single-writer layout: one directory, one manifest,
one lock — for catalogs one thread ingests.  :class:`repro.dslog.DSLog`,
the serving tier (:mod:`repro.service`) and the tools open catalogs
through this module; it imports none of them.

Global catalog metadata — tracked arrays, operation records, the reuse
predictor's state — is not per-pair and lives in the manifest of shard 0,
the *meta shard*.  Reuse-state tables are always appended to the meta
shard (even when an identical table already sits in another shard's
segments) so every ref inside a shard's manifest is shard-local and
per-shard compaction never has to rewrite another shard's files.

Concurrency model
-----------------
* ``meta_lock`` — guards the in-memory catalog dicts, every manifest row
  list and every shard's pending manifest edit.  Held briefly: never
  across table serialization, segment appends, fsyncs or manifest file
  writes.
* one append lock per shard — serializes segment appends and manifest
  publishes of that shard.  Writers to different shards do not contend.
* Lock order is ``reuse-manager lock → shard lock → meta_lock``; no code
  path acquires them in the opposite direction.

:class:`ShardedCatalog` maintains each shard's manifest rows *incrementally*
at apply time (one row dict appended or updated per ingested entry) and
notes each changed row and array in the shard's pending edit, so a publish
serializes what changed since the last one — O(changed rows), never a
rebuild or a dump of every row — and appends it to the segment batch it
makes durable anyway.
"""

from __future__ import annotations

import json
import threading
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from ..core.compressed import CompressedLineage
from ..core.serialize import OLD_FORMAT_HINT, serialize_hydrated
from ..faults import FaultPlan
from ..obs import log_event
from .catalog import Catalog, LineageConflictError, LineageEntry, OperationRecord, _entry_pair
from .manifest import MANIFEST_NAME, atomic_write
from .scrub import scrub_store
from .store import (
    DEFAULT_CACHE_BYTES,
    LineageStore,
    StoredLineageEntry,
    TableCache,
    TableRef,
)

__all__ = [
    "SHARDS_NAME",
    "SHARDS_FORMAT",
    "DEFAULT_NUM_SHARDS",
    "shard_index",
    "load_shards_file",
    "ShardedLineageStore",
    "ShardedCatalog",
]

SHARDS_NAME = "SHARDS.json"
SHARDS_FORMAT = "dslog-sharded-store"
SHARDS_FORMAT_VERSION = 1

DEFAULT_NUM_SHARDS = 4
META_SHARD = 0


def shard_index(in_name: str, out_name: str, num_shards: int) -> int:
    """Stable home shard of an entry pair — crc32 of the two names.

    Deterministic across processes and sessions (unlike ``hash()``, which
    is salted per interpreter), so a reopened catalog routes every pair to
    the shard that already holds it.
    """
    key = f"{in_name}\x00{out_name}".encode("utf-8")
    return zlib.crc32(key) % num_shards


def load_shards_file(root: Union[str, Path]) -> Optional[dict]:
    """Read ``SHARDS.json``, or ``None`` when the directory is not sharded."""
    path = Path(root) / SHARDS_NAME
    if not path.exists():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("format") != SHARDS_FORMAT:
        raise ValueError(f"not a {SHARDS_FORMAT} directory")
    if int(data.get("format_version", 0)) > SHARDS_FORMAT_VERSION:
        raise ValueError(
            f"shards format version {data['format_version']} is newer "
            f"than this build supports ({SHARDS_FORMAT_VERSION})"
        )
    return data


def write_shards_file(root: Path, num_shards: int, gzip: bool) -> None:
    """Create ``SHARDS.json`` atomically (written once, never updated)."""
    data = {
        "format": SHARDS_FORMAT,
        "format_version": SHARDS_FORMAT_VERSION,
        "num_shards": num_shards,
        "gzip": gzip,
    }
    atomic_write(root / SHARDS_NAME, json.dumps(data, separators=(",", ":")))


def _refuse_old_layout(root: Path) -> None:
    """A root without ``SHARDS.json`` must be a new catalog.  Creating one
    over a directory an older build wrote (a root-level manifest, or one
    ``.provrc[.gz]`` file per entry) would leave its lineage unreachable
    beside an empty store, so refuse it by name instead."""
    if (root / MANIFEST_NAME).exists() or any(root.glob("*.provrc*")):
        raise ValueError(f"{root} holds a DSLog layout this build no longer reads; {OLD_FORMAT_HINT}")


class ShardedLineageStore:
    """N single-writer :class:`LineageStore` shards behind one root."""

    def __init__(
        self,
        root: Union[str, Path],
        num_shards: int = DEFAULT_NUM_SHARDS,
        gzip: bool = True,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.faults = faults
        existing = load_shards_file(self.root)
        if existing is not None:
            # the on-disk layout is authoritative, like the manifest's gzip
            self.num_shards = int(existing["num_shards"])
            self.gzip = bool(existing["gzip"])
        else:
            if num_shards < 1:
                raise ValueError("a sharded store needs at least one shard")
            _refuse_old_layout(self.root)
            self.num_shards = int(num_shards)
            self.gzip = gzip
            write_shards_file(self.root, self.num_shards, self.gzip)
        self.cache = TableCache(cache_bytes)
        self.shards: List[LineageStore] = [
            LineageStore(
                self.root / f"shard-{idx:02d}",
                gzip=self.gzip,
                cache=self.cache,
                faults=faults,
                scope=f"shard-{idx:02d}",
            )
            for idx in range(self.num_shards)
        ]
        self.meta_lock = threading.RLock()
        self._shard_locks = [threading.RLock() for _ in range(self.num_shards)]
        self._dirty: Set[int] = set()
        # serializes whole-store maintenance — manifest publishes, reuse
        # export, compaction — against each other (writers never take it);
        # lock order: maintenance → reuse-manager → shard → meta
        self.maintenance_lock = threading.RLock()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_for(self, in_name: str, out_name: str) -> int:
        return shard_index(in_name, out_name, self.num_shards)

    def shard(self, idx: int) -> LineageStore:
        return self.shards[idx]

    @property
    def meta(self) -> LineageStore:
        """The meta shard: arrays, operation records and reuse state."""
        return self.shards[META_SHARD]

    @contextmanager
    def shard_lock(self, idx: int) -> Iterator[None]:
        with self._shard_locks[idx]:
            yield

    # ------------------------------------------------------------------
    # dirty tracking + group publish
    # ------------------------------------------------------------------
    def mark_dirty(
        self, idx: int, row: Optional[dict] = None, array: Optional[str] = None
    ) -> None:
        """Record that shard *idx* has unpublished appends or rows, and
        note in its pending edit the entry *row* it upserted or the *array*
        it added.  The caller must hold ``meta_lock`` (every mutation path
        already does)."""
        self._dirty.add(idx)
        edit = self.shards[idx].edit
        if row is not None:
            edit.rows[row["in"], row["out"]] = row
        if array is not None:
            edit.arrays.append(array)

    def sync_dirty(self) -> Dict[int, int]:
        """Publish every dirty shard's manifest — an edit record, or a
        checkpoint where the log cannot carry it; the group-commit step.

        Returns ``{shard: new generation}``.  Each shard is synced under
        its own append lock (no record may land between the edit's
        serialization and the segment fsync), with ``meta_lock`` held only
        for the in-memory JSON dump.
        """
        with self.maintenance_lock:
            with self.meta_lock:
                dirty = sorted(self._dirty)
                self._dirty.clear()
            published: Dict[int, int] = {}
            for idx in dirty:
                with self._shard_locks[idx]:
                    try:
                        published[idx] = self.shards[idx].sync(serialize_lock=self.meta_lock)
                    except BaseException:
                        # the dirty mark must survive a failed publish, or
                        # this shard (and any not yet reached) would never
                        # republish after a transient fsync/write fault
                        with self.meta_lock:
                            self._dirty.update(d for d in dirty if d not in published)
                        raise
            return published

    def generation_vector(self) -> Tuple[int, ...]:
        """The published manifest generation of every shard, in shard order.
        Snapshot readers pin this vector; two equal vectors denote the same
        durable catalog state."""
        return tuple(shard.manifest.generation for shard in self.shards)

    # ------------------------------------------------------------------
    # snapshot pins
    # ------------------------------------------------------------------
    def pin(self) -> None:
        for shard in self.shards:
            shard.pin()

    def release_pin(self) -> None:
        for shard in self.shards:
            shard.release_pin()

    # ------------------------------------------------------------------
    # meta-shard delegation (reuse-state tables)
    # ------------------------------------------------------------------
    def append_table(self, table: CompressedLineage) -> TableRef:
        """Append a reuse-state table to the meta shard.  Always meta-local
        (even when the table's bytes exist in another shard) so no manifest
        ever holds a cross-shard ref."""
        payload, hydrated = serialize_hydrated(table, gzip=self.gzip)
        with self._shard_locks[META_SHARD]:
            return self.meta.append_payload(payload, table, hydrated)

    def ref_for(self, table: CompressedLineage) -> Optional[TableRef]:
        return self.meta.ref_for(table)

    def load_table(self, ref: TableRef) -> CompressedLineage:
        return self.meta.load_table(ref)

    # ------------------------------------------------------------------
    # accounting + maintenance
    # ------------------------------------------------------------------
    @property
    def tables_deserialized(self) -> int:
        return sum(shard.tables_deserialized for shard in self.shards)

    def segment_bytes(self) -> int:
        return sum(shard.segment_bytes() for shard in self.shards)

    def live_bytes(self) -> int:
        return sum(shard.live_bytes() for shard in self.shards)

    def cache_stats(self) -> List[dict]:
        """The table cache's counters, in the list shape their readers sum
        over (one dict per cache; a root has one)."""
        return [self.cache.stats()]

    def write_stats(self) -> dict:
        """Aggregate group-commit write coalescing over every shard: how
        many OS writes carried how many appended records."""
        totals = {"coalesced_writes": 0, "coalesced_records": 0}
        for shard in self.shards:
            stats = shard.write_stats()
            totals["coalesced_writes"] += stats["coalesced_writes"]
            totals["coalesced_records"] += stats["coalesced_records"]
        return totals

    def torn_epoch(self) -> int:
        """Monotonic count of torn (short) writes across every shard; see
        :meth:`LineageStore.torn_epoch`."""
        return sum(shard.torn_epoch() for shard in self.shards)

    def reader_stats(self) -> dict:
        """Aggregate mmap reader-handle stats over every shard."""
        totals = {"open_readers": 0, "mapped_bytes": 0}
        for shard in self.shards:
            stats = shard.reader_stats()
            totals["open_readers"] += stats["open_readers"]
            totals["mapped_bytes"] += stats["mapped_bytes"]
        return totals

    def compact(self, shard: Optional[int] = None) -> Dict[int, dict]:
        """Compact one shard (or all), each under its own append lock, so
        ingest into *other* shards proceeds while dead bytes are reclaimed.
        The maintenance lock keeps compaction and manifest publishes from
        interleaving (a publish mid-copy could reference moved records)."""
        indices = range(self.num_shards) if shard is None else [shard]
        stats: Dict[int, dict] = {}
        with self.maintenance_lock:
            for idx in indices:
                with self._shard_locks[idx]:
                    stats[idx] = self.shards[idx].compact(serialize_lock=self.meta_lock)
        return stats

    def scrub(self, repair: bool = False, shard: Optional[int] = None) -> dict:
        """fsck every shard (or one): verify manifest-referenced records,
        find torn tails and orphans, and — with ``repair=True`` —
        quarantine and heal (see :mod:`repro.storage.scrub`).  Each shard
        is scrubbed under its own append lock; the maintenance lock keeps
        compaction and manifest publishes out of the way."""
        indices = range(self.num_shards) if shard is None else [shard]
        reports: Dict[int, dict] = {}
        with self.maintenance_lock:
            for idx in indices:
                with self._shard_locks[idx]:
                    reports[idx] = scrub_store(
                        self.shards[idx], repair=repair, serialize_lock=self.meta_lock
                    )
        return {
            "clean": all(rep["clean"] for rep in reports.values()),
            "shards": reports,
        }

    def reopen_shard(self, idx: int) -> dict:
        """Recovery probe for one shard: drop its file handles and its cached
        tables (as a restart would), then scrub-and-repair its directory.
        The shard's :class:`LineageStore` object survives — lazy entries
        hold references to it — with relocated records resolving through
        the remap chain.  Returns the scrub report; raises when the
        shard's I/O is still failing (the circuit breaker's cue to stay
        open)."""
        with self.maintenance_lock:
            with self._shard_locks[idx]:
                shard = self.shards[idx]
                shard.reset_io()
                try:
                    report = scrub_store(
                        shard, repair=True, serialize_lock=self.meta_lock
                    )
                    # prove the shard serves reads again before declaring it
                    # healthy: hydrate one referenced record end to end
                    for row in shard.manifest.entries:
                        shard.load_table(
                            shard.resolve(TableRef.from_json(row["backward"]))
                        )
                        break
                except Exception as exc:
                    log_event(
                        "shard_reopen",
                        level="error",
                        component="shards",
                        shard=idx,
                        outcome="failed",
                        error=str(exc),
                    )
                    raise
                log_event(
                    "shard_reopen",
                    level="info",
                    component="shards",
                    shard=idx,
                    outcome="ok",
                    clean=report["clean"],
                    repaired=report["repaired"],
                )
                return report

    def close(self) -> None:
        with self.maintenance_lock:  # a close may fold segments: as in compact()
            for idx, shard in enumerate(self.shards):
                with self._shard_locks[idx]:
                    shard.close(serialize_lock=self.meta_lock)


class ShardedCatalog(Catalog):
    """A thread-safe :class:`Catalog` partitioned over a sharded store.

    Every mutation keeps the owning shard's manifest rows in step (the row
    dicts appended here are the very objects the manifest serializes) and
    notes them in the shard's pending edit, so publishing a shard never
    rebuilds anything.  Reads — ``array``, ``entry_between``, ``entries``
    — stay lock-free: the dicts only ever grow or replace whole values,
    which is safe under concurrent readers.
    """

    def __init__(self, store: ShardedLineageStore) -> None:
        super().__init__()
        self.store = store
        self._meta_lock = store.meta_lock
        # pair -> manifest row dict (updated in place on replace)
        self._rows: Dict[Tuple[str, str], dict] = {}
        # pairs mid-append: reserved so two writers cannot both pass the
        # conflict check, append, and silently overwrite each other
        self._pending: Set[Tuple[str, str]] = set()
        # ``version`` (the base catalog's one counter) is bumped under
        # ``meta_lock`` the moment a mutation lands in memory, not when it
        # is published: an applied-but-uncommitted entry is already a new
        # generation to the serving tier's result cache, which re-validates
        # a cached answer against the ``token`` of each hop entry — so a
        # writer invalidates exactly the results computed from what it
        # replaced, whichever shard that lives in

    # ------------------------------------------------------------------
    # arrays + operations (meta shard)
    # ------------------------------------------------------------------
    def define_array(self, name, shape):
        with self._meta_lock:
            info = super().define_array(name, shape)
            manifest = self.store.meta.manifest
            if manifest.arrays.get(name) != list(info.shape):
                manifest.arrays[name] = list(info.shape)
                self.store.mark_dirty(META_SHARD, array=name)
            return info

    def add_operation(self, record: OperationRecord) -> None:
        with self._meta_lock:
            super().add_operation(record)
            self.store.meta.manifest.operations.append(
                {
                    "op_name": record.op_name,
                    "in_arrs": list(record.in_arrs),
                    "out_arrs": list(record.out_arrs),
                    "op_args": record.op_args,
                    "reuse_level": record.reuse_level,
                    "entries": [list(pair) for pair in record.entries],
                }
            )
            self.store.mark_dirty(META_SHARD)

    # ------------------------------------------------------------------
    # entries
    # ------------------------------------------------------------------
    def add_compressed(
        self,
        backward: CompressedLineage,
        op_name: Optional[str] = None,
        reused: bool = False,
        replace: bool = False,
    ) -> LineageEntry:
        pair = _entry_pair(backward)
        shard_idx = self.store.shard_for(*pair)
        # serialize (and gzip) outside every lock: this is the CPU-heavy
        # part of an append and must overlap across writer threads
        payload, hydrated = serialize_hydrated(backward, gzip=self.store.gzip)

        with self._meta_lock:
            existing = self._entries.get(pair)
            if (existing is not None or pair in self._pending) and not replace:
                held_by = existing.op_name if existing is not None else "an in-flight ingest"
                raise LineageConflictError(
                    f"lineage between {pair[0]!r} and {pair[1]!r} already stored "
                    f"(op {held_by!r}); pass replace=True to version it"
                )
            self._pending.add(pair)
        try:
            shard = self.store.shard(shard_idx)
            # the shard lock is held across append AND install: were it
            # released in between, a compaction of this shard could slip
            # into the gap and delete the just-written segment before the
            # catalog row referencing it exists
            with self.store.shard_lock(shard_idx):
                backward_ref = shard.append_payload(payload, backward, hydrated)
                with self._meta_lock:
                    # the reservation is released only together with the
                    # install, so no second writer can slip between the two
                    self._pending.discard(pair)
                    existing = self._entries.get(pair)
                    entry = StoredLineageEntry(
                        shard,
                        in_name=pair[0],
                        out_name=pair[1],
                        backward_ref=backward_ref,
                        op_name=op_name,
                        reused=reused,
                        version=existing.version + 1 if existing is not None else 1,
                        token=self.version + 1,
                    )
                    self._entries[pair] = entry
                    row = {
                        "in": entry.in_name,
                        "out": entry.out_name,
                        "op_name": entry.op_name,
                        "reused": entry.reused,
                        "version": entry.version,
                        "backward": backward_ref.to_json(),
                    }
                    old_row = self._rows.get(pair)
                    if old_row is not None:
                        # same dict object the shard manifest's entry list holds
                        old_row.clear()
                        old_row.update(row)
                        row = old_row
                    else:
                        shard.manifest.entries.append(row)
                        self._rows[pair] = row
                    self.version = entry.token
                    self.store.mark_dirty(shard_idx, row=row)
        except BaseException:
            # on append failure the reservation must not wedge the pair
            with self._meta_lock:
                self._pending.discard(pair)
            raise
        return entry

    def install_lazy_entry(self, entry: StoredLineageEntry, row: dict) -> None:
        """Register a manifest-hydrated entry without touching its tables.
        *row* must be the manifest's own row dict so replaces update it."""
        pair = (entry.in_name, entry.out_name)
        with self._meta_lock:
            entry.token = self.version + 1
            self._entries[pair] = entry
            self._rows[pair] = row
            self.version = entry.token

    def drop_entries(self, pairs) -> None:
        """Forget entries whose manifest rows a repair already removed."""
        with self._meta_lock:
            for pair in pairs:
                self._entries.pop(pair, None)
                self._rows.pop(pair, None)
            self.version += 1

    def entry_shard(self, pair: Tuple[str, str]) -> int:
        return self.store.shard_for(*pair)
