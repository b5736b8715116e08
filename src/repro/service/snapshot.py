"""Snapshot-isolated read-only catalog views (``SnapshotDSLog``).

``DSLog.snapshot()`` / ``LineageService.snapshot()`` hand out a
:class:`SnapshotDSLog`: a frozen, point-in-time view of the catalog that
answers the full read API — ``prov_query`` (including graph-planned
two-array paths), ``impact`` / ``dependencies`` / ``lineage_summary``,
``storage_bytes`` — while writers, group commits and background compaction
keep running on the live log.

Isolation protocol
------------------
* The catalog metadata (array dict, entry dict, operation list) is copied
  under the store's mutation lock, so the view is a *consistent cut*:
  every entry it holds was fully installed, and nothing installed later is
  visible.  Entry objects themselves are immutable once installed
  (a ``replace=True`` re-ingest installs a *new* object), so sharing them
  with the live catalog is safe.
* Table bytes are still read lazily through the live store's table cache.
  Each backing store is **pinned** (:meth:`LineageStore.pin`) for the
  snapshot's lifetime: a compaction that runs while the snapshot is open
  retires its old segment files instead of deleting them, so refs the
  snapshot resolved before the compaction stay readable until the last
  pin is released.  Closing the snapshot releases the pins (and with them
  any retired files).  Tables the snapshot hydrated before that point are
  mmap-backed views into the retired segments; they remain valid even
  after the files are unlinked, because each table pins its mapping
  through the columns' buffer chain until the last view is dropped.
* ``generation_vector`` records the published per-shard manifest
  generations at snapshot time (empty for a memory log) — two snapshots
  with equal vectors and equal catalog versions saw the same durable
  state.

Any mutating call on the view raises :class:`SnapshotReadOnlyError`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Tuple

from ..dslog import DSLog
from ..reuse.signatures import ReuseManager
from ..storage.catalog import Catalog

__all__ = ["SnapshotReadOnlyError", "SnapshotDSLog", "take_snapshot"]


class SnapshotReadOnlyError(RuntimeError):
    """A mutating DSLog call was made on a snapshot view."""


def _read_only(name: str):
    def method(self, *args, **kwargs):
        raise SnapshotReadOnlyError(
            f"{name}() is not available on a snapshot: this is a read-only "
            "view pinned at a point in time; mutate the live DSLog instead"
        )

    method.__name__ = name
    return method


class SnapshotDSLog(DSLog):
    """A read-only DSLog over a frozen copy of another log's catalog.

    Constructed by :func:`take_snapshot`; shares the source's stores for
    lazy table reads (pinned against compaction) but never mutates them.
    """

    def __init__(
        self,
        catalog: Catalog,
        source: DSLog,
        generation_vector: Tuple[int, ...],
    ) -> None:
        # deliberately does NOT call DSLog.__init__: a snapshot opens no
        # stores and owns no directory — it borrows the source's
        self.root = source.root
        self.gzip = source.gzip
        self.reuse_confirmations = source.reuse_confirmations
        self.autosync = False
        self.store = source.store
        self.catalog = catalog
        self.generation_vector = generation_vector
        self.catalog_version = catalog.version
        self._reuse = ReuseManager(confirmations_required=source.reuse_confirmations)
        self._reuse_init_lock = threading.Lock()
        self._reuse_synced_count = None
        self._pending_reuse_state = None
        self._graph = None
        self._graph_lock = threading.Lock()
        self._query_box_cache = OrderedDict()
        self._query_box_lock = threading.Lock()
        self._closed = False
        self._pin_release = None

    # ------------------------------------------------------------------
    # the read API (prov_query, impact, dependencies, lineage_summary,
    # storage_bytes, graph) is inherited unchanged — it only reads
    # self.catalog, which is frozen
    # ------------------------------------------------------------------
    define_array = _read_only("define_array")
    add_lineage = _read_only("add_lineage")
    register_operation = _read_only("register_operation")
    sync = _read_only("sync")
    compact = _read_only("compact")
    scrub = _read_only("scrub")

    def _apply_repair(self, report: dict) -> None:
        """Nothing to apply: the view is a frozen cut of the catalog; the
        live log forgets what a repair removed."""

    def snapshot(self) -> "SnapshotDSLog":
        """Snapshotting a snapshot returns itself (it is already frozen)."""
        return self

    def close(self) -> None:
        """Release the snapshot's store pins (idempotent).  Retired segment
        files a compaction deferred for this snapshot are deleted once the
        last pin drops."""
        if self._closed:
            return
        self._closed = True
        if self._pin_release is not None:
            self._pin_release()
            self._pin_release = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SnapshotDSLog(entries={len(self.catalog)}, "
            f"generations={self.generation_vector})"
        )


def _frozen_copy(catalog: Catalog) -> Catalog:
    frozen = Catalog()
    frozen.arrays = dict(catalog.arrays)
    frozen._entries = dict(catalog._entries)
    frozen.operations = list(catalog.operations)
    frozen.version = catalog.version
    return frozen


def take_snapshot(log: DSLog) -> SnapshotDSLog:
    """Build a :class:`SnapshotDSLog` of *log*'s current catalog state.

    The copy happens under the durable store's mutation lock so concurrent
    writers cannot produce a torn cut; a memory log is single-writer,
    where a plain copy is already consistent (and there is nothing to pin).
    """
    store = log.store
    if store is None:
        return SnapshotDSLog(_frozen_copy(log.catalog), log, ())
    with store.meta_lock:
        frozen = _frozen_copy(log.catalog)
        generations = store.generation_vector()
        store.pin()
    view = SnapshotDSLog(frozen, log, generations)
    view._pin_release = store.release_pin
    return view
