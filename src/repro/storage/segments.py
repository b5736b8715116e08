"""Append-only segment files: the byte-level layer of the lineage store.

A segment is a flat file holding many ProvRC tables as length-prefixed,
checksummed records:

    +--------+---------+------------+-----------+---------+ ...
    | "DSEG" | u16 = 2 | u32 length | u32 crc32 | payload | ...
    +--------+---------+------------+-----------+---------+ ...

The CRC32 of the payload lets a reader tell *bit rot inside a sealed
record* — flipped bytes, a misdirected write — from the torn-tail and
truncation cases the length prefix already catches.  Wire version 1 (no
checksum) is retired: ``python -m repro.tools.upgrade`` rewrites such
files as version 2, and nothing here reads them.

Records are only ever appended; a record becomes *live* when the manifest
(:mod:`repro.storage.manifest`) references its ``(segment, offset, length)``
triple and *dead* when no manifest reference remains.  Readers never need
a segment-level index: the manifest is the index, and anything it does not
point at is garbage to be reclaimed by
:meth:`repro.storage.store.LineageStore.compact`.  ``length`` is always
the *payload* length; :func:`record_overhead` bytes of framing (prefix +
checksum) precede it.

Records are of two kinds.  A *table* record's payload is a serialized
ProvRC table (gzip or ``PRVC`` framed).  An *edit* record's payload starts
with :data:`EDIT_MAGIC`: it is one publish of the manifest, appended to
the shard's active segment and made durable by the same write + fsync as
the tables it names.  Nothing references an edit record; the manifest
finds its edits by walking the segment from its checkpoint
(:func:`walk_records`), and a compaction, which copies referenced records
only, leaves them behind with the other dead bytes.

Corruption classes and their exceptions:

* a length prefix that disagrees with the manifest, or bytes missing at
  the end of the file → ``ValueError`` (truncation / torn tail);
* a CRC mismatch → :class:`CorruptRecordError`;
* both are repairable by the scrub subsystem
  (:mod:`repro.storage.scrub`), which quarantines the bad bytes and
  salvages or rebuilds everything else.

Fault injection: writers and readers accept a
:class:`~repro.faults.FaultPlan` (plus a *scope* naming their failure
domain, e.g. ``"shard-01"``) and call it at the ``segment.write`` /
``segment.fsync`` / ``segment.read`` / ``segment.mmap`` sites, so every
recovery path above is exercisable deterministically.

Two fast paths live here:

* :class:`SegmentWriter` **coalesces appends**: records accumulate in a
  pending buffer and reach the file as one ``write`` (plus one ``fsync``
  on :meth:`~SegmentWriter.sync`) per batch — the storage half of the
  service's group commit.  Offsets are assigned at ``append`` time, so
  manifest rows can be built before the bytes are flushed.
* :class:`SegmentReader` **maps the segment** and serves records as
  ``memoryview`` slices into the mapped pages — no per-record ``open``,
  header re-validation, ``seek`` or read copies.  The CRC check streams
  the mapped bytes once per hydration (reads are cached above this
  layer), keeping the zero-copy property for the payload itself.
"""

from __future__ import annotations

import errno
import mmap
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..core.serialize import frame_header, parse_header
from ..faults import FaultPlan, InjectedFault
from ..obs import REGISTRY

_SEG_FLUSHES = REGISTRY.counter(
    "dslog_segment_flushes_total", "Coalesced batch writes that reached the OS"
)
_SEG_FLUSH_BYTES = REGISTRY.counter(
    "dslog_segment_flush_bytes_total", "Bytes handed to the OS by coalesced writes"
)
_SEG_FSYNCS = REGISTRY.counter(
    "dslog_segment_fsyncs_total", "fsync durability barriers on segment files"
)

__all__ = [
    "SEGMENT_MAGIC",
    "SEGMENT_VERSION",
    "SEGMENT_HEADER_SIZE",
    "EDIT_MAGIC",
    "CorruptRecordError",
    "SegmentWriter",
    "SegmentReader",
    "read_record",
    "iter_records",
    "valid_length",
    "scan_segment",
    "walk_records",
    "record_overhead",
    "check_wire_version",
]

SEGMENT_MAGIC = b"DSEG"
SEGMENT_VERSION = 2
SEGMENT_HEADER_SIZE = len(SEGMENT_MAGIC) + 2
_FRAME = struct.Struct("<II")  # payload length, payload crc32
# the payload prefix of an edit record; a table payload starts with the
# gzip magic or b"PRVC"
EDIT_MAGIC = b"DSME"


def _check_header(data: bytes, path: Path) -> None:
    """Validate the 6-byte header: the magic and the one supported version."""
    try:
        (version,), _offset = parse_header(data, SEGMENT_MAGIC, "H", "DSLog segment file")
    except ValueError as error:
        raise ValueError(f"{path} is not a DSLog segment file: {error}") from None
    if version != SEGMENT_VERSION:
        raise ValueError(
            f"{path} has segment version {version}, this build reads only "
            f"{SEGMENT_VERSION}; run `python -m repro.tools.upgrade` on the "
            "catalog directory once"
        )


def check_wire_version(path: Union[str, Path]) -> None:
    """Open-time guard: raise (naming the upgrader) when *path* is a
    well-formed segment of a wire version this build does not read.  A
    store that opened lazily over such a file would otherwise hand it to
    scrub, which can only see every record in it as damage.  A missing
    file or a garbled header *is* damage, and stays scrub's to report."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(SEGMENT_HEADER_SIZE)
    except FileNotFoundError:
        return
    if len(header) == SEGMENT_HEADER_SIZE and header.startswith(SEGMENT_MAGIC):
        _check_header(header, Path(path))


def record_overhead() -> int:
    """Bytes of per-record framing before the payload (prefix + crc)."""
    return _FRAME.size


class CorruptRecordError(ValueError):
    """A record's payload bytes do not match its stored CRC32."""

    def __init__(self, path, offset: int, stored: int, actual: int) -> None:
        super().__init__(
            f"{path}: record at offset {offset} fails its checksum "
            f"(stored 0x{stored:08x}, computed 0x{actual:08x})"
        )
        self.path = Path(path)
        self.offset = offset


class SegmentWriter:
    """Appends length-prefixed, checksummed records to one segment file,
    coalescing batches of appends into single writes.

    ``append`` only extends the in-memory pending buffer (assigning the
    record its final offset); ``flush_pending`` hands the whole batch to
    the OS as one write, and ``sync`` adds the fsync — so a group commit
    costs one syscall pair per segment regardless of batch size.  The
    file's 6-byte header is the exception: it is written eagerly at
    creation so the file is identifiable on disk from the first moment a
    manifest could name it.

    Thread-safe: appends arrive under the owning store's append lock, but
    ``flush_pending`` may also be called by a *reader* that needs bytes
    not yet handed to the OS (see ``LineageStore.load_table``), so the
    pending buffer is guarded by its own mutex.

    *faults*/*scope*: injection points ``segment.write`` (inside
    ``flush_pending``; a ``short_write`` rule leaves a torn batch prefix
    on disk, exactly like a crash mid-write) and ``segment.fsync``
    (inside ``sync``, before the fsync — bytes are in the OS but not
    durable, the retryable window).
    """

    def __init__(
        self,
        path: Union[str, Path],
        faults: Optional[FaultPlan] = None,
        scope: Optional[str] = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.faults = faults
        self.scope = scope
        existing = self.path.stat().st_size if self.path.exists() else 0
        if existing:
            with open(self.path, "rb") as fh:
                _check_header(fh.read(SEGMENT_HEADER_SIZE), self.path)
        self._fh = open(self.path, "ab")
        self._lock = threading.Lock()
        self._pending: List[bytes] = []
        self._pending_bytes = 0
        self.coalesced_writes = 0  # flushes that reached the OS
        self.coalesced_records = 0  # records covered by those flushes
        self.torn_writes = 0  # short writes that destroyed pending bytes
        self._pending_records = 0
        # bytes reached the file that no fsync of this handle covers yet; a
        # file opened again may hold such bytes from an earlier handle
        self._unsynced = True
        if existing == 0:
            self._fh.write(frame_header(SEGMENT_MAGIC, "H", SEGMENT_VERSION))
            self._fh.flush()
            self._size = SEGMENT_HEADER_SIZE
        else:
            self._size = existing

    @property
    def size(self) -> int:
        """Logical file size in bytes, pending buffer included (records are
        appended at this offset)."""
        return self._size

    @property
    def pending_bytes(self) -> int:
        """Bytes appended but not yet written to the file."""
        return self._pending_bytes

    def append(self, payload: bytes) -> Tuple[int, int]:
        """Buffer one record; returns ``(offset, payload length)``.

        The offset addresses the record's length prefix, so a reader can
        verify the prefix and the payload checksum against the
        manifest's recorded length before trusting the payload bytes.  The
        bytes reach the file on the next ``flush_pending``/``sync`` — one
        coalesced write per batch.
        """
        with self._lock:
            offset = self._size
            self._pending.append(_FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF))
            self._pending.append(payload)
            self._pending_bytes += _FRAME.size + len(payload)
            self._pending_records += 1
            self._size = offset + _FRAME.size + len(payload)
            return offset, len(payload)

    def flush_pending(self) -> int:
        """Write the pending batch to the OS as one coalesced write;
        returns the number of bytes written (0 when nothing was pending).

        Fault semantics: an ``error``/``enospc`` rule fires *before* any
        byte is written — the pending buffer is kept and the flush is
        retryable.  A ``short_write`` rule writes a prefix of the batch,
        drops the rest (the bytes are gone, as after a crash), and raises
        — the torn state the scrub subsystem repairs.
        """
        with self._lock:
            if not self._pending:
                return 0
            buffer = b"".join(self._pending)
            if self.faults is not None:
                partial = self.faults.short_write("segment.write", self.scope, len(buffer))
                if partial is not None:
                    # a torn write: a prefix reaches the file, the rest is
                    # gone — scrub's territory.  The dropped region is
                    # padded with zeros so the promised offsets (already
                    # referenced by manifest rows) are never reassigned to
                    # later records: a dangling ref must read garbage, not
                    # some other entry's valid bytes.
                    self._fh.write(buffer[:partial])
                    self._fh.write(b"\x00" * (len(buffer) - partial))
                    self._fh.flush()
                    self._unsynced = True
                    self._pending = []
                    self._pending_bytes = 0
                    self._pending_records = 0
                    self.torn_writes += 1
                    raise InjectedFault(
                        "segment.write",
                        self.scope,
                        errno.EIO,
                        f"injected short write at segment.write ({self.scope}): "
                        f"{partial}/{len(buffer)} bytes reached {self.path.name}",
                    )
            self._fh.write(buffer)
            self._fh.flush()
            self._unsynced = True
            self._pending = []
            self._pending_bytes = 0
            self.coalesced_writes += 1
            self.coalesced_records += self._pending_records
            self._pending_records = 0
        _SEG_FLUSHES.inc()
        _SEG_FLUSH_BYTES.inc(len(buffer))
        return len(buffer)

    def sync(self) -> int:
        """Force appended records to stable storage: one write of the whole
        pending batch, then one fsync — none when no byte reached the file
        since this handle's last fsync.  Returns the bytes flushed."""
        flushed = self.flush_pending()
        if not self._unsynced:
            return flushed
        if self.faults is not None:
            self.faults.check("segment.fsync", self.scope)
        os.fsync(self._fh.fileno())
        self._unsynced = False
        _SEG_FSYNCS.inc()
        return flushed

    def close(self) -> None:
        """Sync and close.  The sync matters on segment rollover: a
        manifest may be published (and old segments deleted by a
        compaction) while this file is no longer the active writer, so its
        records must already be durable when the handle is dropped."""
        if not self._fh.closed:
            self.sync()
            self._fh.close()

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SegmentReader:
    """Serves one segment's records as zero-copy views into mapped pages.

    The segment header is validated once at open; each ``read`` validates
    the record's length prefix against the manifest-recorded length (same
    contract as :func:`read_record`), verifies the payload CRC, and
    returns a ``memoryview`` into the mapping — no syscalls, no
    payload copy.  The mapping is refreshed lazily when a requested record
    lies beyond the mapped size (the file has grown since the last map).

    Lifecycle: ``close`` drops the reader's own reference to the mapping;
    if hydrated tables still hold views into it, the mapping simply stays
    alive through their ``base`` chain until the last view is released
    (``mmap.close`` refuses to tear down an exported buffer).  Deleting
    the underlying file is likewise safe on POSIX — mapped pages outlive
    the directory entry — which is what lets compaction retire a segment
    out from under live readers.
    """

    def __init__(
        self,
        path: Union[str, Path],
        faults: Optional[FaultPlan] = None,
        scope: Optional[str] = None,
    ) -> None:
        self.path = Path(path)
        self.faults = faults
        self.scope = scope
        if faults is not None:
            faults.check("segment.mmap", scope)
        self._fh = open(self.path, "rb")
        _check_header(self._fh.read(SEGMENT_HEADER_SIZE), self.path)
        self._lock = threading.Lock()
        self._mm: "mmap.mmap" = None
        self._mapped = 0
        self._remap_locked()

    def _remap_locked(self) -> None:
        size = os.fstat(self._fh.fileno()).st_size
        # the old mapping (if any) is only dereferenced, never closed:
        # outstanding views keep it alive, and GC reclaims it afterwards
        self._mm = mmap.mmap(self._fh.fileno(), size, access=mmap.ACCESS_READ)
        self._mapped = size

    @property
    def mapped_size(self) -> int:
        return self._mapped

    def read(self, offset: int, length: int) -> memoryview:
        """One record's payload as a zero-copy view, prefix- and
        checksum-validated.

        Raises ``FileNotFoundError`` when the reader was closed (a
        compaction dropped it concurrently): ``close`` and ``read`` hold
        the same lock, so a ``None`` mapping here reliably means closed,
        and the store's retry loop re-resolves through the remap exactly
        as it did for a deleted file under the per-call read path.
        Raises :class:`CorruptRecordError` on a checksum mismatch — bit
        rot inside a sealed record, the scrub subsystem's territory.
        """
        if self.faults is not None:
            self.faults.check("segment.read", self.scope)
        end = offset + _FRAME.size + length
        with self._lock:
            if self._mm is None:
                raise FileNotFoundError(f"{self.path}: segment reader closed")
            if end > self._mapped:
                self._remap_locked()
                if end > self._mapped:
                    raise ValueError(
                        f"{self.path}: truncated record payload at offset {offset}"
                    )
            stored, crc_stored = _FRAME.unpack_from(self._mm, offset)
            if stored != length:
                raise ValueError(
                    f"{self.path}: record at offset {offset} has length {stored}, "
                    f"manifest expected {length}"
                )
            payload = memoryview(self._mm)[offset + _FRAME.size : end]
            crc_actual = zlib.crc32(payload) & 0xFFFFFFFF
            if crc_stored != crc_actual:
                raise CorruptRecordError(self.path, offset, crc_stored, crc_actual)
            return payload

    def close(self) -> None:
        """Release the reader's handles.  Outstanding record views stay
        valid: an exported mapping cannot be closed, so it is dropped to
        the views' reference chain instead."""
        with self._lock:
            if self._mm is not None:
                try:
                    self._mm.close()
                except BufferError:
                    pass  # live views pin the pages; GC closes the map later
                self._mm = None
            if not self._fh.closed:
                self._fh.close()


def read_record(path: Union[str, Path], offset: int, length: int) -> bytes:
    """Read one record's payload, validating the stored length prefix and
    the payload checksum."""
    path = Path(path)
    with open(path, "rb") as fh:
        _check_header(fh.read(SEGMENT_HEADER_SIZE), path)
        fh.seek(offset)
        framing = fh.read(_FRAME.size)
        if len(framing) != _FRAME.size:
            raise ValueError(f"{path}: truncated record framing at offset {offset}")
        stored, crc_stored = _FRAME.unpack(framing)
        if stored != length:
            raise ValueError(
                f"{path}: record at offset {offset} has length {stored}, "
                f"manifest expected {length}"
            )
        payload = fh.read(length)
        if len(payload) != length:
            raise ValueError(f"{path}: truncated record payload at offset {offset}")
        crc_actual = zlib.crc32(payload) & 0xFFFFFFFF
        if crc_stored != crc_actual:
            raise CorruptRecordError(path, offset, crc_stored, crc_actual)
        return payload


def _walk(path: Union[str, Path], start: int = SEGMENT_HEADER_SIZE) -> Iterator[Tuple[int, int, bytes]]:
    """Yield ``(offset, stored crc, payload)`` for every structurally
    complete record from *start* (a record boundary) on, in append order.
    A trailing partial record (a crash mid-append) ends the walk silently —
    those bytes are by definition not referenced by any manifest."""
    path = Path(path)
    with open(path, "rb") as fh:
        _check_header(fh.read(SEGMENT_HEADER_SIZE), path)
        offset = max(start, SEGMENT_HEADER_SIZE)
        fh.seek(offset)
        while True:
            framing = fh.read(_FRAME.size)
            if len(framing) < _FRAME.size:
                return
            length, crc = _FRAME.unpack(framing)
            payload = fh.read(length)
            if len(payload) < length:
                return
            yield offset, crc, payload
            offset += _FRAME.size + length


def valid_length(path: Union[str, Path]) -> int:
    """Length of the segment's *structurally* valid prefix: the offset just
    past the last complete record.  Bytes beyond it are a dangling tail —
    a crash mid-append — that no manifest can reference; recovery keeps
    them inert (new appends land after the physical end of file) and
    compaction drops them with the rest of the dead bytes.  Checksums are
    deliberately not verified here (see :func:`scan_segment` for the full
    fsck pass): a flipped byte mid-file does not end the valid prefix."""
    end = SEGMENT_HEADER_SIZE
    for offset, _crc, payload in _walk(path):
        end = offset + _FRAME.size + len(payload)
    return end


def iter_records(path: Union[str, Path]) -> Iterator[Tuple[int, bytes]]:
    """Yield every ``(offset, payload)`` in a segment, in append order,
    stopping silently at a torn tail.  Checksums are not verified (callers
    that care run :func:`scan_segment`)."""
    for offset, _crc, payload in _walk(path):
        yield offset, payload


def walk_records(path: Union[str, Path], start: int) -> Iterator[Tuple[int, bytes, bool]]:
    """Yield ``(offset, payload, checksum ok)`` of each record from *start*
    (a manifest checkpoint's log offset) on, in append order.  The walk
    ends at the end of the file or at the first record whose frame runs
    past it — a torn tail, past which nothing is reachable.  A record whose
    checksum fails (a flipped byte) does not end it: its length still says
    where the next record starts, so one damaged table hides no later
    record."""
    for offset, crc, payload in _walk(path, start):
        yield offset, payload, crc == (zlib.crc32(payload) & 0xFFFFFFFF)


def scan_segment(path: Union[str, Path]) -> Dict[str, object]:
    """Full fsck pass over one segment: structure *and* checksums.

    Returns a dict with the ``file_size``, the ``valid_prefix`` offset
    (same contract as :func:`valid_length`), ``tail_bytes`` beyond it, and
    ``records`` — one ``(offset, length, crc_ok)`` triple per complete
    record in append order.  The scrub subsystem drives its whole repair
    plan off this.
    """
    path = Path(path)
    records: List[Tuple[int, int, bool]] = []
    end = SEGMENT_HEADER_SIZE
    for offset, crc, payload in _walk(path):
        records.append((offset, len(payload), crc == (zlib.crc32(payload) & 0xFFFFFFFF)))
        end = offset + _FRAME.size + len(payload)
    file_size = path.stat().st_size
    return {
        "file_size": file_size,
        "valid_prefix": end,
        "tail_bytes": file_size - end,
        "records": records,
    }
