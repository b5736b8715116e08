"""The durable, segment-based lineage store (``LineageStore``).

One ``LineageStore`` is one shard directory of a durable ``DSLog``
(:mod:`repro.storage.sharded` puts N of them behind one root): many
ProvRC tables packed into append-only segment files
(:mod:`repro.storage.segments`), indexed by one manifest — a JSON
checkpoint plus a log of edit records in the active segment
(:mod:`repro.storage.manifest`) — read back *lazily* through a
size-aware table cache with a hard byte budget (one cache per root, shared
by its shards).

Design points
-------------
* **O(manifest) open** — the catalog hydrates lazy
  :class:`StoredLineageEntry` objects from manifest rows; no table is
  deserialized until a query touches an entry.
  ``LineageStore.tables_deserialized`` counts actual decodes so tests and
  benchmarks can prove it.
* **One table per entry** — the backward ProvRC table, keyed on the
  output; a forward query is the inverse θ-join over it, so no forward
  table is ever written or rebuilt.  Storage accounting
  (``storage_bytes``) counts that table, the paper's long-term storage
  metric.
* **One writer per segment file** — a :class:`SegmentWriter` creates its
  file and is the only handle that ever writes it, so an offset handed out
  once is never handed out again.  A missing, full or torn writer means a
  fresh segment: a session that writes opens one per shard it writes, and
  a :meth:`~LineageStore.close` that finds more than
  :data:`MAX_SMALL_SEGMENTS` below the roll size folds them into one.
* **Crash safety** — a publish appends one manifest edit record after the
  table records it names, and one write + fsync makes both durable.  A
  checkpoint (``MANIFEST.json``) is swapped in atomically in two cases:
  the last checkpoint does not name the active segment, or :meth:`close`
  follows logged edits.  Unreferenced segment bytes are inert garbage
  until :meth:`LineageStore.compact` moves the live records out and
  deletes the old files.  Records move in one place,
  :meth:`LineageStore.rewrite` (compaction and scrub-repair both call it),
  in the MANIFEST order: copy the live records into fresh files, fsync,
  publish one checkpoint, dispose of the inputs last.  A rewrite that fails
  before its checkpoint lands leaves the manifest — on disk and in memory —
  and every file it names exactly as they were.
* **A byte budget that is a bound** — materialized tables live in
  :class:`TableCache`, never more than ``cache_bytes`` of them: eviction
  is GreedyDual-Size (small tables, which cost as much to miss per byte
  held as nothing else, outlast large ones; untouched tables age out), a
  table larger than the whole budget is handed to its caller and not
  kept, and whatever was dropped is re-read from its segment on next
  use, so catalogs larger than memory stay queryable.
* **Narrow hydration** — records are served by per-segment mmap readers
  (:class:`~repro.storage.segments.SegmentReader`, one handle per segment
  for the store's lifetime) as views into the mapped pages, and
  ``deserialize_table`` decodes them into read-only narrow-dtype column
  arrays of the table's own.  The cache charges each table exactly those
  arrays (``nbytes()``), and that is all a resident table holds: neither
  the inflated payload nor the mapped record outlives the decode, so
  compaction can retire a mapped segment whatever is hydrated.
* **Coalesced appends** — the active ``SegmentWriter`` buffers appends
  and hands each batch, its manifest edit record last, to the OS as one
  write + one fsync at ``sync()`` (the group-commit step), instead of two
  writes and a flush per record.
"""

from __future__ import annotations

import contextlib
import heapq
import threading
from pathlib import Path
from typing import Dict, Hashable, List, NamedTuple, Optional, Tuple, Union

from ..core.compressed import CompressedLineage
from ..core.serialize import deserialize_table, serialize_table
from ..faults import FaultPlan
from ..obs import REGISTRY, log_event
from .manifest import Edit, Manifest, dump_edit, dump_manifest, load_manifest, write_manifest
from .segments import SegmentReader, SegmentWriter, check_wire_version

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_SEGMENT_MAX_BYTES",
    "MAX_SMALL_SEGMENTS",
    "TableRef",
    "TableCache",
    "StoredLineageEntry",
    "LineageStore",
]

DEFAULT_CACHE_BYTES = 256 * 1024 * 1024
# a segment file this large is rolled over: the next append opens a new one
DEFAULT_SEGMENT_MAX_BYTES = 16 * 1024 * 1024
# a close that finds more segments than this below the roll size folds them
MAX_SMALL_SEGMENTS = 4

_CACHE_HITS = REGISTRY.counter(
    "dslog_table_cache_hits_total", "Table cache lookups served from memory"
)
# process-wide resident table bytes, maintained as inc/dec deltas because
# every TableCache (one per open store root) feeds the same series
_CACHE_BYTES = REGISTRY.gauge(
    "dslog_table_cache_bytes", "Materialized table bytes resident across all caches"
)
_MANIFEST_PUBLISHES = REGISTRY.counter(
    "dslog_manifest_publishes_total",
    "Manifest publishes, edit records and checkpoints (durability points)",
)


def _held(lock: Optional[threading.RLock]):
    """*lock* as a context manager, or one that holds nothing."""
    return lock if lock is not None else contextlib.nullcontext()


class TableRef(NamedTuple):
    """Address of one serialized table inside a segment file."""

    segment: str
    offset: int
    length: int

    def to_json(self) -> dict:
        return {"segment": self.segment, "offset": self.offset, "length": self.length}

    @classmethod
    def from_json(cls, data: dict) -> "TableRef":
        return cls(str(data["segment"]), int(data["offset"]), int(data["length"]))


class _Resident:
    """One cached table: its charge, its store's scope, and its current
    eviction priority (``seq`` names the one heap entry that is live)."""

    __slots__ = ("table", "nbytes", "credit", "scope", "priority", "seq")

    def __init__(self, table: CompressedLineage, nbytes: int, scope: Optional[str]) -> None:
        self.table = table
        self.nbytes = nbytes
        self.credit = 1.0 / max(nbytes, 1)
        self.scope = scope
        self.priority = 0.0
        self.seq = 0


class TableCache:
    """Materialized tables under a hard in-memory byte budget — one cache
    per store root, shared by every shard under it.

    ``current_bytes`` never exceeds ``budget_bytes``: a table larger than
    the whole budget is served to its caller and not retained, and an
    admitted table evicts until the total fits (itself included, if it
    ranks lowest).  Replacement is GreedyDual-Size with unit cost (Cao &
    Irani, USITS 1997): a table's priority is ``floor + 1 / nbytes``, set
    on admission and again on every hit; the lowest priority goes first and
    ``floor`` rises to it, so what was not touched since ages out while a
    stream of large tables cannot flush the many small ones.  Hydration
    cost is affine in size here, so ``1 / nbytes`` orders tables as
    measured cost over size would, without a clock.  The order is a heap
    with lazy deletion (a re-ranked table's older entries are skipped when
    popped, and the heap is rebuilt before stale entries can outnumber live
    ones), so a hit is O(1) while ``floor`` stands still and an eviction
    O(log n) amortised.

    Keys are opaque; *scope* tags an entry with the shard it came from so
    that shard can drop its own tables (``clear(scope)``) and nobody
    else's.

    Thread-safe: the concurrent lineage service reads tables from worker,
    reader and snapshot threads at once — every access holds a short mutex.
    """

    def __init__(self, budget_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.budget_bytes = int(budget_bytes)
        self._items: Dict[Hashable, _Resident] = {}
        self._heap: List[Tuple[float, int, Hashable]] = []
        self._floor = 0.0
        self._seq = 0
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: Hashable) -> bool:
        """Residency probe: no counter moves, no priority is refreshed."""
        with self._lock:
            return key in self._items

    def _reheap(self) -> None:
        self._heap = [(item.priority, item.seq, key) for key, item in self._items.items()]
        heapq.heapify(self._heap)

    def _rank(self, key: Hashable, item: _Resident, priority: float) -> None:
        """Give *item* a new priority and the heap entry that carries it
        (its older entries are now stale).  Called with the lock held."""
        self._seq += 1
        item.priority = priority
        item.seq = self._seq
        if len(self._heap) > 2 * len(self._items) + 16:
            self._reheap()
        else:
            heapq.heappush(self._heap, (priority, item.seq, key))

    def get(self, key: Hashable) -> Optional[CompressedLineage]:
        with self._lock:
            item = self._items.get(key)
            if item is None:
                self.misses += 1
                return None
            priority = self._floor + item.credit
            if priority > item.priority:
                self._rank(key, item, priority)
            self.hits += 1
            _CACHE_HITS.inc()
            return item.table

    def put(self, key: Hashable, table: CompressedLineage, scope: Optional[str] = None) -> None:
        nbytes = table.nbytes()
        evicted_bytes = 0
        with self._lock:
            if nbytes > self.budget_bytes or key in self._items:
                return
            item = self._items[key] = _Resident(table, nbytes, scope)
            self._rank(key, item, self._floor + item.credit)
            self.current_bytes += nbytes
            while self.current_bytes > self.budget_bytes:
                priority, seq, victim = heapq.heappop(self._heap)
                old = self._items.get(victim)
                if old is None or old.seq != seq:
                    continue  # dropped, or re-ranked since this entry was pushed
                del self._items[victim]
                self._floor = priority
                self.current_bytes -= old.nbytes
                self.evictions += 1
                evicted_bytes += old.nbytes
        _CACHE_BYTES.inc(nbytes - evicted_bytes)

    def clear(self, scope: Optional[str] = None) -> None:
        """Drop the tables tagged *scope*; every table when it is ``None``."""
        with self._lock:
            kept = {} if scope is None else {
                key: item for key, item in self._items.items() if item.scope != scope
            }
            kept_bytes = sum(item.nbytes for item in kept.values())
            dropped = self.current_bytes - kept_bytes
            self._items = kept
            self._reheap()
            self.current_bytes = kept_bytes
        _CACHE_BYTES.dec(dropped)

    def stats(self) -> dict:
        with self._lock:
            return {
                "tables": len(self._items),
                "bytes": self.current_bytes,
                "budget_bytes": self.budget_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class StoredLineageEntry:
    """A catalog entry whose tables live in segments until first touched.

    Duck-typed against :class:`~repro.storage.catalog.LineageEntry`
    (``in_name`` / ``out_name`` / ``op_name`` / ``reused`` / ``version`` /
    ``token`` / ``backward`` / ``is_resident`` / ``storage_bytes``);
    ``backward`` is a property that pulls the table through the store's
    cache on access.
    """

    __slots__ = ("store", "in_name", "out_name", "op_name", "reused", "version",
                 "token", "backward_ref")

    def __init__(
        self,
        store: "LineageStore",
        in_name: str,
        out_name: str,
        backward_ref: TableRef,
        op_name: Optional[str] = None,
        reused: bool = False,
        version: int = 1,
        token: int = 0,
    ) -> None:
        self.store = store
        self.in_name = in_name
        self.out_name = out_name
        self.backward_ref = backward_ref
        self.op_name = op_name
        self.reused = reused
        self.version = version
        self.token = token  # set by the catalog that installs the entry

    @property
    def backward(self) -> CompressedLineage:
        return self.store.load_table(self.backward_ref)

    @property
    def forward_ref(self) -> TableRef:
        """Read-only alias of :attr:`backward_ref`, the one table's ref:
        the frozen benchmark harness still reads this name.  It goes with
        the next edit of ``bench/``."""
        return self.backward_ref

    def table_keyed_on(self, array_name: str) -> CompressedLineage:
        """:attr:`backward`, under the name (and argument) the frozen
        benchmark harness still calls.  It goes with the next edit of
        ``bench/``."""
        return self.backward

    def is_resident(self) -> bool:
        """Whether :attr:`backward` would be served from the table cache
        (a probe: it loads nothing and counts as no cache lookup)."""
        return self.store.cache_key(self.backward_ref) in self.store.cache

    def storage_bytes(self, gzip: bool = True) -> int:
        """Long-term (backward) footprint.  When the requested format is the
        one on disk this is just the manifest-recorded record length — no
        table bytes are touched."""
        if gzip == self.store.gzip:
            return self.backward_ref.length
        return len(serialize_table(self.backward, gzip=gzip))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StoredLineageEntry({self.in_name}->{self.out_name}, "
            f"segment={self.backward_ref.segment})"
        )


class LineageStore:
    """Segment files + manifest for one catalog directory, read through a
    table cache: *cache* when the store is one shard of several sharing
    theirs, a default-budget cache of its own otherwise."""

    def __init__(
        self,
        root: Union[str, Path],
        gzip: bool = True,
        cache: Optional[TableCache] = None,
        faults: Optional[FaultPlan] = None,
        scope: Optional[str] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # fault-injection plan threaded into every segment writer/reader this
        # store opens; scope names the store's failure domain (shard name)
        self.faults = faults
        self.scope = scope if scope is not None else self.root.name
        existing = load_manifest(self.root)
        if existing is not None:
            self.manifest = existing
            self.gzip = existing.gzip  # the on-disk format is authoritative
            for name in existing.segments:
                check_wire_version(self.root / name)
        else:
            self.manifest = Manifest(gzip=gzip)
            self.gzip = gzip
        self.cache = cache if cache is not None else TableCache()
        self.tables_deserialized = 0
        self._writer: Optional[SegmentWriter] = None
        # mmap-backed reader per segment, opened lazily on first read and
        # kept for the store's lifetime: hydration costs zero syscalls after
        # the first touch, and record payloads are served as views into the
        # mapped pages (the zero-copy fast path)
        self._readers: Dict[str, SegmentReader] = {}
        self._reader_lock = threading.Lock()
        # refs invalidated by compaction resolve through this chain for the
        # rest of the session (the manifest itself is rewritten in place)
        self._remap: Dict[TableRef, TableRef] = {}
        # snapshot pins: while any reader holds a pin, compaction retires old
        # segment files instead of deleting them, so refs the reader resolved
        # before the compaction stay readable from the original bytes
        self._pin_lock = threading.Lock()
        self._pins = 0
        self._retired: List[str] = []
        # group-commit write accounting, carried across writer rollovers
        self._closed_coalesced_writes = 0
        self._closed_coalesced_records = 0
        self._closed_torn_writes = 0
        # the manifest log: what changed since the last publish (writers add
        # to it under the lock they mutate the manifest under), and how many
        # edit records this store appended since its last checkpoint
        self.edit = Edit.since(self.manifest)
        self._logged = 0
        self._drop_orphan_segments()

    # ------------------------------------------------------------------
    # segment management
    # ------------------------------------------------------------------
    def _segment_path(self, name: str) -> Path:
        return self.root / name

    def _new_segment_name(self) -> str:
        name = f"segment-{self.manifest.next_segment_id:06d}.seg"
        self.manifest.next_segment_id += 1
        return name

    def _drop_orphan_segments(self) -> None:
        """Remove segment files no manifest generation references (leftovers
        of a crash between writing fresh segments and swapping the manifest)."""
        live = set(self.manifest.segments)
        for path in self.root.glob("segment-*.seg"):
            if path.name not in live:
                path.unlink()

    def _retire_writer(self) -> None:
        """Close the active writer, folding its write counters into the
        store-lifetime totals."""
        if self._writer is None:
            return
        self._writer.close()
        self._closed_coalesced_writes += self._writer.coalesced_writes
        self._closed_coalesced_records += self._writer.coalesced_records
        self._closed_torn_writes += self._writer.torn_writes
        self._writer = None

    def write_stats(self) -> dict:
        """Cumulative group-commit write coalescing stats: how many OS
        writes carried how many appended records."""
        writes = self._closed_coalesced_writes
        records = self._closed_coalesced_records
        writer = self._writer
        if writer is not None:
            writes += writer.coalesced_writes
            records += writer.coalesced_records
        return {"coalesced_writes": writes, "coalesced_records": records}

    def torn_epoch(self) -> int:
        """Monotonic count of torn writes this store has suffered: short
        writes, and writers dropped with bytes unflushed or unsynced.

        A torn write destroys appended-but-unflushed bytes whose offsets
        manifest rows may already reference; the ingest pipeline compares
        this epoch around each apply so it never acknowledges a ticket
        whose record bytes may have been destroyed mid-flight."""
        torn = self._closed_torn_writes
        writer = self._writer
        if writer is not None:
            torn += writer.torn_writes
        return torn

    def _drop_writer(self) -> None:
        """Retire the active writer without flushing or fsyncing: what it
        buffers or wrote unsynced is lost, as in a crash, a torn write."""
        if self._writer is not None:
            self._writer.abandon()
        self._retire_writer()  # the handle is closed: this folds the counters

    def _fresh_writer(self, names: List[str]) -> SegmentWriter:
        """Retire the active writer and open a new segment file in its
        place, listing the file's name in *names* first."""
        self._retire_writer()
        names.append(self._new_segment_name())
        self._writer = SegmentWriter(
            self._segment_path(names[-1]), faults=self.faults, scope=self.scope
        )
        return self._writer

    def _active_writer(self) -> SegmentWriter:
        """The writer appends go to; a missing, full or torn one means a
        fresh segment (a segment file is never reopened for writing)."""
        writer = self._writer
        if writer is None or writer.size >= DEFAULT_SEGMENT_MAX_BYTES or writer.torn_writes:
            writer = self._fresh_writer(self.manifest.segments)
        return writer

    # ------------------------------------------------------------------
    # table I/O
    # ------------------------------------------------------------------
    def append_table(self, table: CompressedLineage) -> TableRef:
        """Serialize one table into the active segment; returns its ref.

        The ref is also remembered on the table object itself
        (``_segment_ref``) so a later reuse-state export can reference the
        already-written bytes instead of appending a duplicate record.
        """
        payload = serialize_table(table, gzip=self.gzip)
        return self.append_payload(payload, table=table)

    def append_payload(
        self, payload: bytes, table: Optional[CompressedLineage] = None
    ) -> TableRef:
        """Append pre-serialized table bytes to the active segment.

        The concurrent ingest pipeline serializes (and gzips) tables outside
        the per-shard append lock and hands only the finished payload to the
        store, so the lock covers nothing but the file append itself.
        """
        writer = self._active_writer()
        offset, length = writer.append(payload)
        ref = TableRef(writer.path.name, offset, length)
        if table is not None:
            table._segment_ref = ref
            table._segment_owner = self
            self.cache.put(self.cache_key(ref), table, self.scope)
        return ref

    def ref_for(self, table: CompressedLineage) -> Optional[TableRef]:
        """The segment ref this table was written at (or loaded from), if
        any, resolved through any compactions since.  A ref minted by a
        *different* store (another shard of a sharded catalog) is not
        returned — its ``(segment, offset)`` coordinates mean nothing in
        this store's directory."""
        if getattr(table, "_segment_owner", None) is not self:
            return None
        ref = getattr(table, "_segment_ref", None)
        return self.resolve(ref) if ref is not None else None

    def resolve(self, ref: TableRef) -> TableRef:
        """Follow the compaction remap chain to the ref's current address."""
        while ref in self._remap:
            ref = self._remap[ref]
        return ref

    def cache_key(self, ref: TableRef) -> Tuple[str, TableRef]:
        """What the table at *ref* is cached under: refs are shard-local,
        the cache is not."""
        return self.scope, self.resolve(ref)

    def _reader_for(self, segment: str) -> SegmentReader:
        """The cached mmap reader of one segment (opened on first use)."""
        with self._reader_lock:
            reader = self._readers.get(segment)
            if reader is None:
                reader = SegmentReader(
                    self._segment_path(segment), faults=self.faults, scope=self.scope
                )
                self._readers[segment] = reader
            return reader

    def _drop_readers(self, segments: List[str]) -> None:
        """Release the cached readers of retired/deleted segments.  Hydrated
        tables hold copies, so only a record caught mid-read still views a
        mapping, which survives through that view until it is dropped."""
        with self._reader_lock:
            for name in segments:
                reader = self._readers.pop(name, None)
                if reader is not None:
                    reader.close()

    def reader_stats(self) -> dict:
        with self._reader_lock:
            return {
                "open_readers": len(self._readers),
                "mapped_bytes": sum(r.mapped_size for r in self._readers.values()),
            }

    def load_table(self, ref: TableRef) -> CompressedLineage:
        attempts = 0
        while True:
            key = self.cache_key(ref)
            resolved = key[1]
            table = self.cache.get(key)
            if table is not None:
                return table
            writer = self._writer
            if (
                writer is not None
                and writer.path.name == resolved.segment
                and writer.pending_bytes
            ):
                # the record may still sit in the writer's coalescing
                # buffer (appended, not yet group-committed): hand the
                # batch to the OS so the mapping can see it
                writer.flush_pending()
            try:
                payload = self._reader_for(resolved.segment).read(
                    resolved.offset, resolved.length
                )
            except FileNotFoundError:
                # an unpinned reader can race a compaction: it resolved the
                # ref before the remap was published, then the old segment
                # was deleted (and its mmap dropped).  The remap is
                # installed BEFORE the deletion, so re-resolving now must
                # land on the relocated record.
                attempts += 1
                if attempts > 3:
                    raise
                continue
            table = deserialize_table(payload)
            self.tables_deserialized += 1
            table._segment_ref = resolved
            table._segment_owner = self
            self.cache.put(key, table, self.scope)
            return table

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def sync(self, serialize_lock: Optional[threading.RLock] = None) -> int:
        """Publish: append one manifest edit record after the records
        appended since the last publish, and make them durable with the
        segment's one write + fsync — or, when the last checkpoint does not
        name the active segment (a fresh one, opened here if there is no
        writer), write a checkpoint (:meth:`_checkpoint`).  Returns the new
        generation.

        *serialize_lock*, when given, is held only while the edit or the
        checkpoint is serialized — concurrent writers mutate the manifest
        and :attr:`edit` under the same lock, and a dict resized mid-dump
        raises — and released before any file I/O, which needs no lock.
        """
        writer = self._active_writer()
        log = self.manifest.log
        if log is None or log["segment"] != writer.path.name:
            return self._checkpoint(serialize_lock)
        with _held(serialize_lock):
            edit, self.edit = self.edit, Edit.since(self.manifest)
            payload = dump_edit(self.manifest, edit)
        try:
            if self.faults is not None:
                self.faults.check("manifest.write", self.scope)
            writer.append(payload)
            writer.sync()
        except BaseException:
            with _held(serialize_lock):
                self.edit = edit.merge(self.edit)
            raise
        if writer.torn_writes:
            # a reader's flush tore the batch mid-publish, edit record and
            # all: the publish is a checkpoint in a fresh segment
            self._active_writer()
            return self._checkpoint(serialize_lock)
        self._logged += 1
        _MANIFEST_PUBLISHES.inc()
        return self.manifest.generation

    def _checkpoint(self, serialize_lock: Optional[threading.RLock] = None) -> int:
        """Publish the whole manifest as ``MANIFEST.json``, its log starting
        just past it in the active segment (no log without a writer): fsync
        the appended records, then write the checkpoint atomically.  A
        failure leaves the manifest's log position and :attr:`edit` as they
        were."""
        writer = self._writer
        log = None
        if writer is not None:
            writer.sync()
            log = {"segment": writer.path.name, "offset": writer.size}
        manifest, saved = self.manifest, self.manifest.log
        with _held(serialize_lock):
            edit, self.edit = self.edit, Edit.since(manifest)
            manifest.log = log
            data = dump_manifest(manifest)
        try:
            if self.faults is not None:
                self.faults.check("manifest.write", self.scope)
            write_manifest(self.root, data)
        except BaseException:
            with _held(serialize_lock):
                self.edit = edit.merge(self.edit)
                manifest.log = saved
            raise
        self._logged = 0
        _MANIFEST_PUBLISHES.inc()
        return manifest.generation

    def close(self, serialize_lock: Optional[threading.RLock] = None) -> None:
        """Release the store's files.  A store that holds no unpublished
        change first folds its segments below the roll size into one when
        there are more than :data:`MAX_SMALL_SEGMENTS` (a fold that fails
        changes nothing, :meth:`rewrite`, and waits for a later close), or
        else checkpoints after logged edits, so the next open replays no log."""
        try:
            if not self.edit.pending(self.manifest):
                paths = [self._segment_path(name) for name in self.manifest.segments]
                small = [p.name for p in paths if p.exists() and p.stat().st_size < DEFAULT_SEGMENT_MAX_BYTES]
                if len(small) > MAX_SMALL_SEGMENTS:
                    try:
                        self._move_out(small, serialize_lock)  # its publish is a checkpoint
                        return
                    except (OSError, ValueError) as exc:
                        log_event("segment_fold", level="warning", component="store", shard=self.scope, error=str(exc))
                if self._logged:
                    self._checkpoint(serialize_lock)
        finally:
            self._retire_writer()
            with self._reader_lock:
                for reader in self._readers.values():
                    reader.close()
                self._readers = {}
            with self._pin_lock:
                if self._pins == 0:
                    self._delete_retired()
            # release this store's tables and their share of the resident-bytes
            # gauge (compaction repopulates the cache lazily after its own close)
            self.cache.clear(self.scope)

    def reset_io(self) -> None:
        """Drop every open file handle and cached table, as a process
        restart would: best-effort close of the active writer (a final
        flush or fsync that fails against a broken disk is *swallowed* —
        the bytes count as lost, exactly like a crash, a torn write, and
        the dangling refs are scrub's to find), all mmap readers closed, its
        cached tables dropped.  The store stays usable: the next append
        opens a fresh segment, readers reopen lazily.
        """
        try:
            self._retire_writer()
        except OSError:
            self._drop_writer()
        with self._reader_lock:
            for reader in self._readers.values():
                reader.close()
            self._readers = {}
        self.cache.clear(self.scope)

    # ------------------------------------------------------------------
    # snapshot pins
    # ------------------------------------------------------------------
    def pin(self) -> None:
        """Hold compaction's segment-file deletion until :meth:`release_pin`."""
        with self._pin_lock:
            self._pins += 1

    def release_pin(self) -> None:
        with self._pin_lock:
            if self._pins <= 0:
                raise RuntimeError("release_pin() without a matching pin()")
            self._pins -= 1
            if self._pins == 0:
                self._delete_retired()

    def _delete_retired(self) -> None:
        """Delete segment files a compaction retired while pins were held.
        Called with ``_pin_lock`` held.  Readers re-opened for the retired
        files in the meantime (a pinned snapshot resolving a dead, unmapped
        ref) are dropped with them — otherwise each retired segment would
        pin its mapping and fd for the store's lifetime."""
        self._drop_readers(self._retired)
        for name in self._retired:
            path = self._segment_path(name)
            if path.exists():
                path.unlink()
        self._retired = []

    # ------------------------------------------------------------------
    # accounting + compaction
    # ------------------------------------------------------------------
    def segment_bytes(self) -> int:
        """Bytes currently occupied by all live segment files."""
        total = 0
        for name in self.manifest.segments:
            path = self._segment_path(name)
            if path.exists():
                total += path.stat().st_size
        if self._writer is not None:
            # the active writer may be ahead of the filesystem metadata
            total = max(total, self._writer.size)
        return total

    def live_bytes(self) -> int:
        """Payload bytes reachable from the manifest (live records only)."""
        return sum(ref["length"] for ref in self.manifest.iter_table_refs())

    def rewrite(
        self, segments: List[str], serialize_lock: Optional[threading.RLock] = None
    ) -> int:
        """Move the live records of *segments* into fresh segment files and
        publish the manifest that names those instead; returns how many
        records were copied.  The files of *segments* are left for the
        caller to delete, retire or quarantine.

        The one code path that moves records, in the MANIFEST order:

        1. read and checksum-verify every live record of *segments*;
        2. append them, byte for byte, to fresh files the manifest does not
           name yet, and fsync;
        3. re-point the refs, swap the segment list, publish a checkpoint
           (an edit record cannot carry a new segment list);
        4. install the remap, so refs resolved before the call keep
           resolving (lazy entries, snapshots, readers mid-flight).

        If anything fails before the publish lands, the in-memory manifest
        is restored and the fresh files are removed: the manifest, on disk
        and in memory, is exactly as it was.  The last fresh file stays the
        active writer.
        """
        moving = set(segments)
        self._retire_writer()  # buffered records must reach the file first
        torn = self._closed_torn_writes
        moves: Dict[TableRef, List[dict]] = {}
        for ref_dict in self.manifest.iter_table_refs():
            ref = self.resolve(TableRef.from_json(ref_dict))
            if ref.segment in moving:
                moves.setdefault(ref, []).append(ref_dict)
        manifest = self.manifest
        saved = (manifest.segments, manifest.next_segment_id, manifest.generation)
        before = [(ref_dict, dict(ref_dict)) for group in moves.values() for ref_dict in group]
        fresh: List[str] = []
        mapping: Dict[TableRef, TableRef] = {}
        try:
            payloads = [self._reader_for(ref.segment).read(ref.offset, ref.length) for ref in moves]
            writer = None
            for ref, payload in zip(moves, payloads):
                if writer is None or writer.size >= DEFAULT_SEGMENT_MAX_BYTES:
                    writer = self._fresh_writer(fresh)
                offset, length = writer.append(payload)
                mapping[ref] = TableRef(fresh[-1], offset, length)
            del payloads  # views into the old segments' mappings
            for ref, group in moves.items():
                for ref_dict in group:
                    ref_dict.update(mapping[ref].to_json())
            manifest.segments = [name for name in saved[0] if name not in moving] + fresh
            self._checkpoint(serialize_lock)  # fsyncs the last fresh file first
        except BaseException:
            self._drop_writer()
            # a torn write into a fresh file destroyed no record a row names
            self._closed_torn_writes = torn
            for name in fresh:
                self._segment_path(name).unlink(missing_ok=True)
            for ref_dict, old in before:
                ref_dict.update(old)
            manifest.segments, manifest.next_segment_id, manifest.generation = saved
            raise
        # the remap goes in BEFORE the caller disposes of the old files: a
        # reader that resolves a stale ref from here on lands on the new
        # address, and one caught mid-read when an old file disappears
        # re-resolves through it (load_table's retry loop).  Dropping the
        # old mmap readers is safe either way: hydrated tables hold copies,
        # and a record caught mid-read keeps its mapping alive itself
        self._remap.update(mapping)
        self._drop_readers(segments)
        self.cache.clear(self.scope)
        return len(mapping)

    def _move_out(self, segments: List[str], serialize_lock: Optional[threading.RLock]) -> Tuple[int, bool]:
        """:meth:`rewrite` *segments*, then delete their files, or retire them
        while pins are held.  Returns the records copied and whether retired."""
        copied = self.rewrite(segments, serialize_lock=serialize_lock)
        with self._pin_lock:
            retired = self._pins > 0
            if retired:
                self._retired.extend(segments)
            else:
                for name in segments:
                    self._segment_path(name).unlink(missing_ok=True)
        return copied, retired

    def compact(self, serialize_lock: Optional[threading.RLock] = None) -> dict:
        """Move every live record into fresh segments (:meth:`rewrite`),
        then delete the old files.  Returns a stats dict (bytes
        before/after, records copied).  A failed compaction raises and
        leaves the manifest and the files it names as they were.

        While snapshot readers hold pins (:meth:`pin`), the old segment
        files are *retired* instead of deleted: refs resolved before the
        compaction remain readable from the original bytes until the last
        pin is released, at which point the retired files are removed.
        """
        bytes_before = self.segment_bytes()
        old_segments = list(self.manifest.segments)
        copied, retired = self._move_out(old_segments, serialize_lock)
        return {
            "records_copied": copied,
            "segments_before": len(old_segments),
            "segments_after": len(self.manifest.segments),
            "bytes_before": bytes_before,
            "bytes_after": self.segment_bytes(),
            "reclaimed_bytes": bytes_before - self.segment_bytes(),
            "segments_retired": len(old_segments) if retired else 0,
        }
