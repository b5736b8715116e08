"""DSLog: the lineage storage, query and reuse manager (the paper's system).

This module exposes the public API described in Section III of the paper:

* :meth:`DSLog.define_array` — declare a tracked array with a shape.
* :meth:`DSLog.add_lineage` — ingest the lineage between two arrays, either
  from an explicit :class:`~repro.core.relation.LineageRelation` or from a
  capture callable (``capture(out_cell) -> input cells``).
* :meth:`DSLog.register_operation` — ingest the lineage of a whole operation
  (one relation per input/output array pair), with optional automatic reuse
  of previously captured lineage (``base_sig`` / ``dim_sig`` / ``gen_sig``).
* :meth:`DSLog.prov_query` — forward/backward lineage queries along a path
  of arrays, answered in situ over the compressed tables.  A two-array path
  with no directly stored entry is resolved automatically through the
  lineage graph (shortest stored path(s), unioned when several tie).
* :meth:`DSLog.impact` / :meth:`DSLog.dependencies` /
  :meth:`DSLog.lineage_summary` — graph analytics over the whole catalog.

Lineage is compressed with ProvRC on ingest and never decompressed for
query processing.

Storage
-------
Without a *root* the catalog lives in RAM.  With one it lives in the
durable store (:mod:`repro.storage.sharded`): tables are appended to
segment files, all metadata (op names, operation records, reuse-predictor
state) rides in atomic manifests, and reopening a directory is
O(manifest) — tables materialize lazily, through one table cache bounded
by ``cache_bytes``, on first query.  The store partitions entries over N
shard directories keyed by a stable hash of each entry's ``(input,
output)`` pair: per-shard segment files, manifests, locks and compaction,
which is what the concurrent lineage service (:class:`repro.service.LineageService`) ingests
into from many writer threads at once; ``num_shards=1`` is the plain
single-writer layout.  :meth:`DSLog.snapshot` hands out a read-only,
snapshot-isolated view pinned at the current catalog state.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .service.server import LineageServer

from .core.compressed import CompressedLineage
from .core.query import CellBoxSet, QueryResult, execute_chains
from .core.relation import LineageRelation
from .faults import FaultPlan
from .graph import LineageGraph
from .reuse.signatures import OperationSignature, ReuseManager
from .storage.catalog import ArrayInfo, Catalog, LineageEntry, OperationRecord
from .storage.sharded import DEFAULT_NUM_SHARDS, ShardedCatalog, ShardedLineageStore
from .storage.store import (
    DEFAULT_CACHE_BYTES,
    StoredLineageEntry,
    TableRef,
)

__all__ = ["DSLog"]

# query box memo entries (cell lists and slices alike): room for a serving
# pool of a few hundred re-issued queries, evicted least recently used
QUERY_BOX_MEMO_ENTRIES = 256
# a slice query's memo key part, per slice
_SLICE_BOUNDS = operator.attrgetter("start", "stop", "step")

Cell = Tuple[int, ...]
CaptureFn = Callable[[Cell], Iterable[Cell]]


class DSLog:
    """The DSLog lineage index.

    Parameters
    ----------
    root:
        Directory of the durable store; ``None`` keeps the catalog in RAM.
    gzip:
        Whether on-disk tables use the ProvRC-GZip format (the default in
        the paper's prototype).  For an existing directory the recorded
        format wins.
    reuse_confirmations:
        The ``m`` parameter of the automatic reuse predictor.
    cache_bytes:
        Byte budget of the durable store's table cache: hydrated tables
        of all shards together never exceed it (a table larger than the
        whole budget is read for its query and not kept).
    autosync:
        When true (default), a durable log publishes a new manifest
        generation after every ``add_lineage`` / ``register_operation``
        call.  Bulk ingest should pass ``False`` and call :meth:`sync` (or
        :meth:`close`) once at the end; the concurrent service always runs
        with ``False`` and group-commits.
    num_shards:
        Shard count of a new durable directory (an existing directory's
        ``SHARDS.json`` wins); ``1`` is the single-writer layout.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        gzip: bool = True,
        reuse_confirmations: int = 1,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        autosync: bool = True,
        num_shards: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        *,
        backend: Optional[str] = None,
    ) -> None:
        # ``backend`` is not a choice (see the property); callers that still
        # name the value *root* implies are accepted, any other is refused
        if backend not in (None, "memory" if root is None else "sharded"):
            raise ValueError(
                f"backend={backend!r} does not go with root={root!r}: a root "
                "means the durable store, no root means memory"
            )
        self.root = Path(root) if root is not None else None
        self.gzip = gzip
        self.faults = faults
        self.reuse_confirmations = int(reuse_confirmations)
        self.autosync = autosync
        self._reuse: Optional[ReuseManager] = None
        self._reuse_init_lock = threading.Lock()
        self._reuse_synced_count: Optional[int] = None
        self._pending_reuse_state: Optional[dict] = None
        self._graph: Optional[LineageGraph] = None
        self._graph_lock = threading.Lock()
        # (array, cells) -> converted CellBoxSet, least recently used first;
        # content-keyed (immutable tuples), so repeated queries skip the
        # cell-to-box conversion
        self._query_box_cache: "OrderedDict[tuple, CellBoxSet]" = OrderedDict()
        self._query_box_lock = threading.Lock()

        if self.root is None:
            self.store: Optional[ShardedLineageStore] = None
            self.catalog: Catalog = Catalog()
            self._reuse = ReuseManager(confirmations_required=self.reuse_confirmations)
        else:
            self.store = ShardedLineageStore(
                self.root,
                num_shards=num_shards if num_shards is not None else DEFAULT_NUM_SHARDS,
                gzip=gzip,
                cache_bytes=cache_bytes,
                faults=faults,
            )
            self.gzip = self.store.gzip
            self.catalog = ShardedCatalog(self.store)
            self._hydrate_from_shards()

    @property
    def backend(self) -> str:
        """``"sharded"`` when the catalog lives in the durable store,
        ``"memory"`` when it does not; follows from ``store``."""
        return "memory" if self.store is None else "sharded"

    # ------------------------------------------------------------------
    # lazy state (durable store)
    # ------------------------------------------------------------------
    @property
    def reuse(self) -> ReuseManager:
        """The reuse predictor, hydrated from the manifest on first touch
        (so a cold open stays O(manifest) even for reuse-heavy catalogs).
        First-touch construction is guarded by a lock: concurrent service
        workers racing the hydration would otherwise each build a manager
        and silently discard one's observations."""
        if self._reuse is None:
            with self._reuse_init_lock:
                if self._reuse is None:
                    manager = ReuseManager(confirmations_required=self.reuse_confirmations)
                    if self._pending_reuse_state:
                        manager.import_state(
                            self._pending_reuse_state,
                            lambda ref: self.store.load_table(TableRef.from_json(ref)),
                        )
                    self._reuse = manager
        return self._reuse

    def _hydrate_from_shards(self) -> None:
        """Rebuild catalog metadata from every shard's manifest: arrays,
        operation records and reuse state from the meta shard, lazy entries
        from each home shard.  No table bytes are read.

        Operation records are replayed through the *base* catalog methods
        (not the sharded overrides) because the meta manifest already holds
        their rows — re-appending them would duplicate every record on the
        next publish.
        """
        meta = self.store.meta.manifest
        for name, shape in meta.arrays.items():
            Catalog.define_array(self.catalog, name, tuple(shape))
        for shard_idx, shard in enumerate(self.store.shards):
            for row in shard.manifest.entries:
                self.catalog.install_lazy_entry(
                    StoredLineageEntry(
                        shard,
                        in_name=row["in"],
                        out_name=row["out"],
                        backward_ref=TableRef.from_json(row["backward"]),
                        op_name=row.get("op_name"),
                        reused=bool(row.get("reused", False)),
                        version=int(row.get("version", 1)),
                    ),
                    row,
                )
        for row in meta.operations:
            Catalog.add_operation(
                self.catalog,
                OperationRecord(
                    op_name=row["op_name"],
                    in_arrs=tuple(row["in_arrs"]),
                    out_arrs=tuple(row["out_arrs"]),
                    op_args=dict(row.get("op_args", {})),
                    reuse_level=row.get("reuse_level"),
                    entries=[tuple(pair) for pair in row.get("entries", [])],
                ),
            )
        self._pending_reuse_state = meta.reuse

    # ------------------------------------------------------------------
    # array + lineage definition
    # ------------------------------------------------------------------
    def define_array(self, name: str, shape: Sequence[int]) -> ArrayInfo:
        """Declare a tracked array (the ``Array(name, shape)`` API call)."""
        return self.catalog.define_array(name, tuple(shape))

    def add_lineage(
        self,
        in_arr: str,
        out_arr: str,
        relation: Optional[LineageRelation] = None,
        capture: Optional[CaptureFn] = None,
        op_name: Optional[str] = None,
        replace: bool = False,
    ) -> LineageEntry:
        """Ingest lineage between two tracked arrays (the ``Lineage`` API call)."""
        in_info = self.catalog.array(in_arr)
        out_info = self.catalog.array(out_arr)
        if relation is None:
            if capture is None:
                raise ValueError("either a relation or a capture callable is required")
            relation = LineageRelation.from_capture(
                capture,
                out_shape=out_info.shape,
                in_shape=in_info.shape,
                out_name=out_arr,
                in_name=in_arr,
            )
        else:
            relation = self._renamed(relation, in_arr, out_arr, in_info, out_info)
        entry = self.catalog.add_relation(relation, op_name=op_name, replace=replace)
        self._maybe_sync()
        return entry

    @staticmethod
    def _renamed(
        relation: LineageRelation,
        in_arr: str,
        out_arr: str,
        in_info: ArrayInfo,
        out_info: ArrayInfo,
    ) -> LineageRelation:
        if relation.in_shape != in_info.shape or relation.out_shape != out_info.shape:
            raise ValueError(
                "relation shapes do not match the declared array shapes: "
                f"{relation.in_shape}->{relation.out_shape} vs "
                f"{in_info.shape}->{out_info.shape}"
            )
        return LineageRelation(
            out_shape=relation.out_shape,
            in_shape=relation.in_shape,
            rows=relation.rows,
            out_name=out_arr,
            in_name=in_arr,
            out_axes=relation.out_axes,
            in_axes=relation.in_axes,
        )

    # ------------------------------------------------------------------
    # operation registration with reuse
    # ------------------------------------------------------------------
    def register_operation(
        self,
        op_name: str,
        in_arrs: Sequence[str],
        out_arrs: Sequence[str],
        relations: Optional[Mapping[Tuple[str, str], LineageRelation]] = None,
        captures: Optional[Mapping[Tuple[str, str], CaptureFn]] = None,
        input_data: Optional[Mapping[str, np.ndarray]] = None,
        op_args: Optional[Mapping[str, Any]] = None,
        reuse: bool = True,
        replace: bool = False,
    ) -> OperationRecord:
        """Register one executed operation and ingest (or reuse) its lineage.

        ``relations`` and/or ``captures`` provide the lineage for each
        ``(input array, output array)`` pair; when *reuse* is enabled and a
        matching signature exists, the capture step is bypassed entirely.
        ``input_data`` (name → ndarray) is needed for ``base_sig`` matching;
        when omitted, only shape-based signatures are considered.
        """
        in_arrs = tuple(in_arrs)
        out_arrs = tuple(out_arrs)
        in_shapes = [self.catalog.array(name).shape for name in in_arrs]
        out_shapes = [self.catalog.array(name).shape for name in out_arrs]

        if input_data is not None:
            signature = OperationSignature.build(
                op_name,
                [np.asarray(input_data[name]) for name in in_arrs],
                out_shapes,
                op_args=op_args,
            )
        else:
            signature = OperationSignature(
                op_name=op_name,
                input_fingerprints=tuple("" for _ in in_arrs),
                in_shapes=tuple(in_shapes),
                out_shapes=tuple(out_shapes),
                op_args=OperationSignature.build(op_name, [], [], op_args).op_args,
            )

        record = OperationRecord(
            op_name=op_name,
            in_arrs=in_arrs,
            out_arrs=out_arrs,
            op_args=dict(op_args or {}),
        )

        # Reuse mappings are keyed positionally ((input index, output index))
        # so that lineage captured under one set of array names can populate
        # an operation applied to differently named arrays.
        reused_tables: Optional[Dict[Tuple[int, int], CompressedLineage]] = None
        if reuse:
            decision = self.reuse.lookup(signature)
            if decision.reused:
                reused_tables = decision.tables
                record.reuse_level = decision.level

        stored: Dict[Tuple[int, int], CompressedLineage] = {}
        for in_idx, in_name in enumerate(in_arrs):
            for out_idx, out_name in enumerate(out_arrs):
                pair = (in_name, out_name)
                position = (in_idx, out_idx)
                if reused_tables is not None and position in reused_tables:
                    entry = self._store_reused(
                        reused_tables[position], pair, op_name, replace=replace
                    )
                else:
                    relation = self._capture_pair(
                        pair, relations, captures, in_arrs, out_arrs
                    )
                    if relation is None:
                        continue
                    entry = self.catalog.add_relation(
                        relation, op_name=op_name, replace=replace
                    )
                stored[position] = entry.backward
                record.entries.append(pair)

        if reused_tables is None and stored and reuse:
            self.reuse.observe(signature, stored)
        self.catalog.add_operation(record)
        self._maybe_sync()
        return record

    def _store_reused(self, source: CompressedLineage, pair, op_name, replace=False) -> LineageEntry:
        in_name, out_name = pair
        backward = CompressedLineage(
            out_name=out_name,
            in_name=in_name,
            out_shape=self.catalog.array(out_name).shape,
            in_shape=self.catalog.array(in_name).shape,
            key_lo=source.key_lo.copy(),
            key_hi=source.key_hi.copy(),
            val_kind=source.val_kind.copy(),
            val_ref=source.val_ref.copy(),
            val_lo=source.val_lo.copy(),
            val_hi=source.val_hi.copy(),
            out_axes=source.out_axes,
            in_axes=source.in_axes,
        )
        return self.catalog.add_compressed(
            backward, op_name=op_name, reused=True, replace=replace
        )

    def _capture_pair(self, pair, relations, captures, in_arrs, out_arrs):
        in_name, out_name = pair
        relation = None
        if relations is not None and pair in relations:
            relation = relations[pair]
        elif captures is not None and pair in captures:
            relation = LineageRelation.from_capture(
                captures[pair],
                out_shape=self.catalog.array(out_name).shape,
                in_shape=self.catalog.array(in_name).shape,
                out_name=out_name,
                in_name=in_name,
            )
        elif relations and len(in_arrs) == 1 and len(out_arrs) == 1:
            # A single-pair operation whose relations dict is keyed under
            # some other pair used to be accepted blindly; that silently
            # ingested lineage between the wrong arrays.  Reject it.
            raise ValueError(
                f"relations are keyed {sorted(relations)!r}, but the "
                f"operation's only (input, output) pair is {pair!r}; key the "
                "relation under that pair"
            )
        if relation is None:
            return None
        return self._renamed(
            relation, in_name, out_name, self.catalog.array(in_name), self.catalog.array(out_name)
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def prov_query(
        self,
        path: Sequence[str],
        query_cells: Union[Iterable[Cell], CellBoxSet, Sequence[slice]],
        merge: bool = True,
    ) -> QueryResult:
        """Lineage query along a path of arrays (``prov_query`` in the paper).

        ``path[0]`` is the array the query cells refer to; the result
        contains the linked cells of ``path[-1]``.  Forward and backward
        queries are expressed purely by the order of the path.

        A two-array path with no directly stored entry is planned through
        the lineage graph: the query runs along the shortest stored path(s)
        between the two arrays, and when several equally short paths exist
        (e.g. a diamond DAG) the per-path results are unioned.
        """
        if len(path) < 2:
            raise ValueError("a query path needs at least two arrays")
        for name in path:
            self.catalog.array(name)  # raises KeyError for unknown arrays
        paths = self.plan_paths(path)
        query = self._as_box_set(path[0], query_cells)
        chains = [self.hop_tables(p) for p in paths]
        return QueryResult.union(execute_chains(chains, [query] * len(paths), merge=merge), merge=merge)

    def plan_paths(self, path: Sequence[str]) -> List[List[str]]:
        """Resolve a query path to the hop list(s) to execute: the path as
        given, except that a two-array path with no stored entry is
        planned through the lineage graph instead — every shortest stored
        path, and a ``KeyError`` when there is none."""
        if len(path) == 2:
            try:
                self.catalog.entry_between(path[0], path[1])
            except KeyError:
                planned = self.graph.shortest_paths(path[0], path[1])
                if not planned:
                    raise KeyError(
                        f"no lineage stored between {path[0]!r} and {path[1]!r}"
                    ) from None
                return planned
        return [list(path)]

    def hop_tables(self, path: Sequence[str]) -> List[CompressedLineage]:
        """The backward table of every hop of *path*, whichever way the
        hop runs (``core.query`` joins a forward hop inversely).  Entries
        are looked up per call, so the only references that keep a
        hydrated table alive are the caller's and the store's
        byte-budgeted ``TableCache``."""
        return [
            self.catalog.entry_between(first, second)[0].backward
            for first, second in zip(path, path[1:])
        ]

    @property
    def graph(self) -> LineageGraph:
        """The lineage graph of the current catalog.

        Built once, then maintained *incrementally*: each access folds any
        entries added since the last one into the existing adjacency index
        (:meth:`LineageGraph.refresh`), keyed on the catalog's generation
        counter — an unchanged catalog costs one comparison, a changed one
        costs O(new entries), never a full rebuild.
        """
        with self._graph_lock:
            if self._graph is None:
                self._graph = LineageGraph(self.catalog)
            else:
                self._graph.refresh()
            return self._graph

    def impact(self, name: str) -> Dict[str, int]:
        """Arrays transitively derived from *name*, with hop distances."""
        return self.graph.impact(name)

    def dependencies(self, name: str) -> Dict[str, int]:
        """Arrays *name* transitively depends on, with hop distances."""
        return self.graph.dependencies(name)

    def lineage_summary(self) -> dict:
        """Aggregate statistics of the whole lineage graph."""
        return self.graph.lineage_summary()

    def _as_box_set(self, array_name: str, query_cells) -> CellBoxSet:
        if isinstance(query_cells, CellBoxSet):
            self.catalog.array(array_name)  # raises KeyError for unknown arrays
            if query_cells.array_name != array_name:
                raise ValueError(
                    f"query targets array {query_cells.array_name!r} but the path starts at {array_name!r}"
                )
            return query_cells
        if not isinstance(query_cells, (list, tuple, np.ndarray)):
            query_cells = list(query_cells)
        if isinstance(query_cells, np.ndarray):
            return CellBoxSet.from_cells(array_name, self.catalog.array(array_name).shape, query_cells)
        slices = len(query_cells) and isinstance(query_cells[0], slice)
        # memoize the conversion by content: the key is an immutable copy of
        # the cells (of a slice, its start, stop and step), so re-issued
        # queries (dashboards, benchmark rounds) skip the conversion without
        # any staleness risk; a memoized box set is frozen, so what a reader
        # derives from it (the result cache's key) may be kept with it.  An
        # array's shape never changes, so a hit needs no catalog lookup.
        try:
            if slices:
                key = (array_name, "slices", tuple(map(_SLICE_BOUNDS, query_cells)))
            else:
                key = (array_name, tuple(query_cells))
            with self._query_box_lock:
                box_set = self._query_box_cache.get(key)
                if box_set is not None:
                    self._query_box_cache.move_to_end(key)
                    return box_set
        except (TypeError, AttributeError):  # unhashable cells (lists), or not all slices: no caching
            key = None
        shape = self.catalog.array(array_name).shape
        if slices:
            box_set = CellBoxSet.from_slices(array_name, shape, query_cells)
        else:
            box_set = CellBoxSet.from_cells(array_name, shape, query_cells)
        if key is not None:
            box_set.freeze()
            with self._query_box_lock:
                self._query_box_cache[key] = box_set
                if len(self._query_box_cache) > QUERY_BOX_MEMO_ENTRIES:
                    self._query_box_cache.popitem(last=False)
        return box_set

    # ------------------------------------------------------------------
    # storage accounting and persistence
    # ------------------------------------------------------------------
    def storage_bytes(self, gzip: Optional[bool] = None) -> int:
        """Total size of the long-term (backward) tables."""
        return self.catalog.storage_bytes(gzip=self.gzip if gzip is None else gzip)

    def _maybe_sync(self) -> None:
        if self.autosync:
            self.sync()

    def sync(self) -> Optional[int]:
        """Group-commit step of a durable log (``None`` on a memory log):
        refresh the meta shard's reuse state when it changed, then publish
        each *dirty* shard's manifest (rows are maintained incrementally
        at ingest, so nothing is rebuilt).  Returns the sum of the
        generation vector (a monotone progress counter).

        Safe to call from several threads (the committer and an explicit
        ``compact()``/``flush()`` caller): the store's maintenance lock
        serializes whole publishes against each other and against
        compaction, the manifest assignment happens under ``meta_lock``,
        and per-shard publishes under each shard's append lock.
        """
        if self.store is None:
            return None
        with self.store.maintenance_lock:
            reuse = self._reuse
            if reuse is not None and self._reuse_synced_count != reuse.mutation_count:
                count = reuse.mutation_count
                state = reuse.export_state(self._save_reuse_table)
                with self.store.meta_lock:
                    self.store.meta.manifest.reuse = state
                    self.store.mark_dirty(0)
                self._reuse_synced_count = count
            self.store.sync_dirty()
            return sum(self.store.generation_vector())

    def _save_reuse_table(self, table: CompressedLineage) -> dict:
        ref = self.store.ref_for(table)
        if ref is None:
            ref = self.store.append_table(table)
        return ref.to_json()

    def compact(self, shard: Optional[int] = None) -> dict:
        """Rewrite live records into fresh segments and drop dead bytes
        (replaced entry versions, unreferenced crash leftovers).  Returns
        a ``{shard index: stats}`` dict (pass *shard* to compact one shard
        while the others keep serving)."""
        if self.store is None:
            raise RuntimeError("compact() requires a durable log (one opened with a root)")
        self.sync()
        stats = self.store.compact(shard=shard)
        self._pending_reuse_state = self.store.meta.manifest.reuse
        return stats

    def scrub(self, repair: bool = False) -> dict:
        """fsck the durable catalog: verify every manifest-referenced
        record (structure and checksums), find torn tails and orphan
        segments; with ``repair=True``, quarantine the damage, evacuate
        every valid record and drop from the catalog each entry whose one
        table is damaged (see :mod:`repro.storage.scrub`).  Returns
        ``{"clean": ..., "shards": {index: report}}``."""
        if self.store is None:
            raise RuntimeError("scrub() requires a durable log (one opened with a root)")
        with self.store.maintenance_lock:  # no publish between repair and reset
            report = self.store.scrub(repair=repair)
            for shard_report in report["shards"].values():
                self._apply_repair(shard_report)
        return report

    def _apply_repair(self, report: dict) -> None:
        """Bring the live log in line with one shard's repair report: forget
        the entries it dropped from their manifest (an in-memory entry left
        behind would keep resolving its damaged record) and, when it dropped
        the reuse state, the live reuse manager too, so the next touch
        rehydrates from the manifest's now-empty state instead of
        republishing refs to quarantined records."""
        if report["dropped_entries"]:
            self.catalog.drop_entries([tuple(pair) for pair in report["dropped_entries"]])
            self._graph = None
        if report["reuse_state_dropped"]:
            with self._reuse_init_lock:
                self._reuse = None
                self._reuse_synced_count = None
                self._pending_reuse_state = self.store.meta.manifest.reuse

    def serve(
        self,
        port: Optional[int] = 0,
        host: str = "127.0.0.1",
        cache_entries: Optional[int] = None,
        start: bool = True,
        rpc_port: Optional[int] = None,
    ) -> "LineageServer":
        """Expose this catalog over the network on a background thread.

        Returns a :class:`~repro.service.server.LineageServer` with a
        listener per port: the JSON HTTP API on *port*, the framed binary
        protocol on *rpc_port*, both over one executor and result cache.
        A port of ``None`` leaves that wire out; ``0`` picks a free port
        (read it, or the URL / RPC address, off the server).  Pass
        ``start=False`` to get an unstarted server for ``serve_forever()``
        in a dedicated process.
        """
        from .service.query import DEFAULT_CACHE_ENTRIES
        from .service.server import LineageServer

        server = LineageServer(
            self,
            host=host,
            port=port,
            rpc_port=rpc_port,
            cache_entries=DEFAULT_CACHE_ENTRIES if cache_entries is None else cache_entries,
        )
        return server.start() if start else server

    def snapshot(self) -> "DSLog":
        """A read-only, snapshot-isolated view of the catalog as of now.

        The view holds a consistent copy of the catalog metadata (arrays,
        entries, operation records) pinned at the current per-shard
        generation vector; ingest and compaction on this log never change
        what the view's queries see.  Close the view (or use it as a
        context manager) to release its pins so compaction can reclaim
        retired segment files.
        """
        from .service.snapshot import take_snapshot

        return take_snapshot(self)

    def close(self) -> None:
        """Flush pending state and release file handles (durable logs)."""
        if self.store is not None:
            self.sync()
            self.store.close()

    def __enter__(self) -> "DSLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @classmethod
    def load(cls, root: Union[str, Path], gzip: bool = True, **kwargs) -> "DSLog":
        """Re-open a DSLog directory written by a previous session:
        O(manifest), with op names, operation records and reuse state
        intact, and table bytes left on disk until first query.  An empty
        or missing directory opens as a new, empty durable catalog.

        A directory in a layout older builds wrote (a root-level manifest,
        one ``.provrc[.gz]`` file per entry, wire-v1 segments) raises a
        ``ValueError`` naming the last commit that reads it; so does the
        first query of a table stored in an older column layout.
        """
        return cls(root=root, gzip=gzip, **kwargs)
