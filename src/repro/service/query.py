"""The scale-out query executor (``QueryExecutor``) and its result cache.

PR 3 made the *write* path concurrent; this module is the read-side
counterpart: one executor object that plans a ``prov_query`` / ``impact`` /
``dependencies`` request against the catalog, fans the per-shard work out
over a thread pool, and fronts everything with a generation-keyed LRU so a
hot query never re-runs the θ-join chain at all.

Execution pipeline
------------------
1. **Plan** — an explicit multi-hop path resolves hop-by-hop through
   ``entry_between``; a two-array path with no direct entry is planned by
   the lineage graph (shortest stored path(s), diamond paths unioned).
2. **Fan out** — every backing store is snapshot-pinned (compaction retires
   rather than deletes segments while the query reads), then the hop
   tables are prefetched *per shard* on the thread pool: shards are
   independent single-writer stores, so their segment reads, gunzips and
   deserializations overlap instead of queueing behind one another.  With
   several planned paths, the θ-join chains themselves also run in
   parallel, one task per path.
3. **Merge** — per-path :class:`~repro.core.query.QueryResult`\\ s are
   combined with the existing ``QueryResult.union``.

Result cache
------------
:class:`ResultCache` is an LRU keyed on the *query-box digest* — a stable
hash of the path, the query boxes and the merge flag — whose entries are
validated against a *dependency vector*: the ``(shard, version)`` pairs the
result was computed from.  The catalog keeps one applied-mutation counter
per shard (:meth:`~repro.storage.catalog.Catalog.shard_version_vector`), so

* a **direct path query** depends only on the home shards of its hop
  entries: writers invalidate exactly the shards they touched, and ingest
  into any other shard leaves the cached result valid;
* a **graph-planned query** (and ``impact`` / ``dependencies`` /
  ``lineage_summary``) depends on the whole edge set, so it is keyed on
  the full vector — any shard's write invalidates it, which is the only
  correct answer when a new entry can create a shorter path.

A memory log (and a snapshot view) is one shard: its vector is the
catalog's single generation counter, i.e. any write invalidates.

The dependency vector is read *before* entries are resolved (the same
read-version-first protocol as ``DSLog.prov_query``): a writer landing
mid-execution makes the cached entry validate as stale on the next lookup
rather than ever serving a result fresher than its key claims.

Degraded serving
----------------
Invalidated cache entries are kept (marked stale by their dependency
vector) rather than deleted, because they are the *degraded* answer: each
shard is wrapped in a :class:`~repro.faults.CircuitBreaker`, and when a
query's home shard has a tripped breaker, the executor serves the last
known result for that exact query — flagged ``degraded=True`` in the
returned :class:`QueryOutcome` — instead of touching the failing disk.
With no stale result to fall back on it raises the structured
:class:`~repro.faults.ShardUnavailable`, never a hang or a bare
``OSError``.  A half-open breaker lets exactly one query probe recovery:
the shard is reopened-with-scrub
(:meth:`~repro.service.shards.ShardedLineageStore.reopen_shard`), and the
breaker closes only when that heal succeeds.

Deadlines: ``query(..., deadline=seconds)`` (or the constructor-wide
``default_deadline``) bounds the pooled per-shard prefetch and per-path
execution; a shard that stalls past the budget raises
:class:`~repro.faults.DeadlineExceeded` (and counts against its breaker)
instead of wedging the request.  The sequential executor (``max_workers=1``)
runs everything inline and cannot enforce deadlines.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..core.query import QueryResult, execute_path, execute_path_batch
from ..faults import CircuitBreaker, DeadlineExceeded, ShardUnavailable
from ..obs import DEFAULT_SIZE_BUCKETS, REGISTRY, tracing
from ..storage.segments import CorruptRecordError

__all__ = [
    "ResultCache",
    "QueryExecutor",
    "QueryOutcome",
    "DEFAULT_CACHE_ENTRIES",
]

DEFAULT_CACHE_ENTRIES = 256

_QUERIES = REGISTRY.counter(
    "dslog_queries_total", "Queries planned and executed (cache misses included)"
)
_RESULT_HITS = REGISTRY.counter(
    "dslog_result_cache_hits_total", "Result-cache lookups served fresh"
)
_RESULT_MISSES = REGISTRY.counter(
    "dslog_result_cache_misses_total", "Result-cache lookups that re-ran the query"
)
_RESULT_INVALIDATIONS = REGISTRY.counter(
    "dslog_result_cache_invalidations_total",
    "Cached results found stale against the shard version vector",
)
_RESULT_STALE_SERVES = REGISTRY.counter(
    "dslog_result_cache_stale_serves_total",
    "Stale cached results served degraded behind a tripped breaker",
)
_DEADLINE_MISSES = REGISTRY.counter(
    "dslog_query_deadline_misses_total", "Queries that ran out of deadline budget"
)
_PREFETCH_SECONDS = REGISTRY.histogram(
    "dslog_prefetch_seconds",
    "Per-shard hop-table hydration latency during query fan-out",
    labelnames=("shard",),
)
_BATCH_SIZE = REGISTRY.histogram(
    "dslog_query_batch_size",
    "Queries per executor batch (query_batch calls, coalesced or explicit)",
    buckets=DEFAULT_SIZE_BUCKETS,
)


class QueryOutcome(NamedTuple):
    """What :meth:`QueryExecutor.query` returns.

    ``result`` is the :class:`~repro.core.query.QueryResult`; ``cached``
    says whether it came from the result cache; ``degraded`` marks a
    stale cache entry served because the query's home shard is behind a
    tripped circuit breaker (the freshness contract is then "last known
    answer", not "current generation").
    """

    result: Any
    cached: bool
    degraded: bool

# (shard index, applied-version) pairs a cached result was computed from
DepVector = Tuple[Tuple[int, int], ...]


class ResultCache:
    """LRU of query results keyed on digest, validated by shard versions.

    Thread-safe: the HTTP server's handler threads and the executor's own
    pool all go through here.  An entry *hits* only when every shard it
    depends on still has the version it was computed at; a stale entry is
    counted as an invalidation but **kept** — it is the degraded answer
    :meth:`lookup_stale` serves while the shard that could refresh it is
    behind a tripped breaker.  (A recompute overwrites it in place; LRU
    eviction reclaims it like any other entry.)
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        self.max_entries = int(max_entries)
        self._items: "OrderedDict[bytes, Tuple[DepVector, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.stale_hits = 0

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def __len__(self) -> int:
        return len(self._items)

    def lookup(self, key: bytes, live_versions: Dict[int, int]) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; *live_versions* maps shard → current
        applied version (shards absent from the map never invalidate)."""
        if not self.enabled:
            return False, None
        with self._lock:
            item = self._items.get(key)
            if item is None:
                self.misses += 1
                _RESULT_MISSES.inc()
                return False, None
            deps, value = item
            for shard, version in deps:
                if live_versions.get(shard, version) != version:
                    # stale: miss, but keep the entry — it is the degraded
                    # fallback should this query's shard become unavailable
                    self.invalidations += 1
                    self.misses += 1
                    _RESULT_INVALIDATIONS.inc()
                    _RESULT_MISSES.inc()
                    return False, None
            self._items.move_to_end(key)
            self.hits += 1
            _RESULT_HITS.inc()
            return True, value

    def lookup_stale(self, key: bytes) -> Tuple[bool, Any]:
        """Return the entry under *key* regardless of dependency freshness
        — the degraded-serving path.  ``(False, None)`` when the query was
        never cached (or already evicted)."""
        if not self.enabled:
            return False, None
        with self._lock:
            item = self._items.get(key)
            if item is None:
                return False, None
            self._items.move_to_end(key)
            self.stale_hits += 1
            _RESULT_STALE_SERVES.inc()
            return True, item[1]

    def store(self, key: bytes, deps: DepVector, value: Any) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._items[key] = (deps, value)
            self._items.move_to_end(key)
            while len(self._items) > self.max_entries:
                self._items.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._items.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._items),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "stale_hits": self.stale_hits,
            }


class QueryExecutor:
    """Plan, fan out and cache read queries over a DSLog catalog.

    Parameters
    ----------
    log:
        Any :class:`~repro.dslog.DSLog` (memory or durable; a snapshot
        view works too).  The executor only reads.
    max_workers:
        Thread-pool width for per-shard prefetch, per-path execution and
        :meth:`map_queries`.  ``1`` disables parallelism (the sequential
        baseline the serving benchmark compares against).  Defaults to
        ``min(8, max(2, os.cpu_count()))``.
    cache_entries:
        Capacity of the :class:`ResultCache`; ``0`` disables caching.
    default_deadline:
        Seconds each query may spend in pooled prefetch/execution before
        :class:`~repro.faults.DeadlineExceeded`; ``None`` (default) means
        unbounded.  Per-call ``deadline`` overrides it.
    breaker_failures / breaker_reset_after:
        Per-shard circuit-breaker tuning: consecutive faults before a
        shard is declared unavailable, and seconds before a half-open
        recovery probe is allowed.
    """

    def __init__(
        self,
        log,
        max_workers: Optional[int] = None,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        default_deadline: Optional[float] = None,
        breaker_failures: int = 3,
        breaker_reset_after: float = 30.0,
    ) -> None:
        if max_workers is None:
            max_workers = min(8, max(2, os.cpu_count() or 1))
        self.log = log
        self.max_workers = max(1, int(max_workers))
        self.cache = ResultCache(cache_entries)
        self.default_deadline = default_deadline
        self.breaker_failures = int(breaker_failures)
        self.breaker_reset_after = float(breaker_reset_after)
        # per-shard breakers, created on a shard's first recorded fault
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._pool = (
            ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="lineage-query"
            )
            if self.max_workers > 1
            else None
        )
        self._closed = False
        self._stats_lock = threading.Lock()
        self.queries = 0
        self.parallel_loads = 0
        self.parallel_paths = 0
        self.degraded_serves = 0
        self.deadline_misses = 0
        self.shard_reopens = 0
        self.batches = 0
        self.batched_queries = 0

    # ------------------------------------------------------------------
    # circuit breakers
    # ------------------------------------------------------------------
    def _breaker(self, shard: int) -> CircuitBreaker:
        with self._breaker_lock:
            breaker = self._breakers.get(shard)
            if breaker is None:
                breaker = CircuitBreaker(
                    failures=self.breaker_failures,
                    reset_after=self.breaker_reset_after,
                    scope=f"shard-{shard:02d}",
                )
                self._breakers[shard] = breaker
            return breaker

    def breaker_stats(self) -> Dict[int, dict]:
        """Per-shard breaker state (shards with no recorded fault and no
        gate check yet are simply absent) — surfaced by ``/healthz``."""
        with self._breaker_lock:
            return {shard: br.stats() for shard, br in self._breakers.items()}

    def _home_shards(self, paths: Sequence[Sequence[str]]) -> Set[int]:
        """The shards a planned query will read from.  Each hop is
        resolved to its *stored* orientation first: shard routing hashes
        the ``(input, output)`` pair, so a backward hop queried as
        ``(out, in)`` would otherwise name the wrong shard (and a cached
        result keyed on it would survive a replace of its entry)."""
        catalog = self.log.catalog
        shards: Set[int] = set()
        for path in paths:
            for first, second in zip(path, path[1:]):
                entry, _ = catalog.entry_between(first, second)
                shards.add(catalog.entry_shard((entry.in_name, entry.out_name)))
        return shards

    def _fault_shard(self, exc: BaseException, shards: Set[int]) -> int:
        """Attribute a fault to the shard it came from: the exception's
        own scope/shard/path metadata when present, else the query's only
        home shard, else the lowest (deterministic) candidate."""
        shard = getattr(exc, "shard", None)
        if isinstance(shard, int):
            return shard
        for hint in (getattr(exc, "scope", None), getattr(exc, "path", None)):
            if hint is None:
                continue
            name = hint if isinstance(hint, str) else hint.parent.name
            if isinstance(name, str) and name.startswith("shard-"):
                try:
                    return int(name.split("-", 1)[1])
                except ValueError:
                    pass
        return min(shards) if shards else 0

    def _maybe_probe(self, shard: int) -> None:
        """Claim a half-open breaker's single recovery probe and attempt
        reopen-with-scrub; success closes the breaker, failure re-opens it
        (restarting the reset clock)."""
        breaker = self._breakers.get(shard)
        if breaker is None or not breaker.try_probe():
            return
        try:
            if self.log.store is not None:
                self.log.store.reopen_shard(shard)
                # the repair may have rebuilt records at addresses the remap
                # chain cannot reach (misdirected refs alias valid records);
                # re-point the in-memory entries at the healed manifest rows
                self.log.refresh_entry_refs()
            breaker.record_success()
            with self._stats_lock:
                self.shard_reopens += 1
        except Exception:
            breaker.record_failure()

    # ------------------------------------------------------------------
    # dependency vectors
    # ------------------------------------------------------------------
    def _live_versions(self) -> Dict[int, int]:
        """Current applied version of every shard."""
        return dict(enumerate(self.log.catalog.shard_version_vector()))

    def _full_deps(self, live: Dict[int, int]) -> DepVector:
        return tuple(sorted(live.items()))

    def _path_deps(self, live: Dict[int, int], shards: Set[int]) -> DepVector:
        """Dependency vector of a direct path: its :meth:`_home_shards`
        only — the precision that lets writers invalidate exactly the
        shards they touched."""
        return tuple((shard, live[shard]) for shard in sorted(shards))

    # ------------------------------------------------------------------
    # digests
    # ------------------------------------------------------------------
    @staticmethod
    def _digest(kind: str, *parts: bytes) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        h.update(kind.encode("utf-8"))
        for part in parts:
            h.update(b"\x1f")
            h.update(part)
        return h.digest()

    def _query_digest(self, path: Sequence[str], box_set, merge: bool) -> bytes:
        return self._digest(
            "prov_query",
            "\x00".join(path).encode("utf-8"),
            repr(box_set.shape).encode("utf-8"),
            box_set.lo.tobytes(),
            box_set.hi.tobytes(),
            b"1" if merge else b"0",
        )

    # ------------------------------------------------------------------
    # the read API
    # ------------------------------------------------------------------
    def query(
        self,
        path: Sequence[str],
        query_cells,
        merge: bool = True,
        deadline: Optional[float] = None,
    ) -> QueryOutcome:
        """Run one lineage query; returns a :class:`QueryOutcome`
        (``result, cached, degraded`` — index ``[0]``/``[1]`` keeps the
        old 2-tuple call sites working).

        Semantics match :meth:`DSLog.prov_query` exactly (including graph
        planning of two-array paths); the differences are the cache in
        front, the parallel fan-out behind, and the failure envelope: a
        *deadline* (seconds; ``default_deadline`` when omitted) bounds the
        pooled fan-out with :class:`~repro.faults.DeadlineExceeded`, and a
        query whose home shard is faulting serves its last cached answer
        flagged degraded (or raises the structured
        :class:`~repro.faults.ShardUnavailable`) instead of hanging.
        """
        return self._query(path, query_cells, merge, parallel=True, deadline=deadline)

    def prov_query(self, path: Sequence[str], query_cells, merge: bool = True) -> QueryResult:
        """:meth:`query` without the outcome flags — drop-in for ``DSLog.prov_query``."""
        return self.query(path, query_cells, merge=merge)[0]

    def map_queries(self, requests: Sequence[Tuple[Sequence[str], Any]]):
        """Run a batch of ``(path, query_cells)`` requests, fanned out over
        the pool (one task per query, each executed sequentially inside its
        task so batch tasks never wait on nested pool slots).  Returns
        results in order."""
        self._check_open()
        if self._pool is None or len(requests) <= 1:
            return [self._query(path, cells, True, parallel=True)[0] for path, cells in requests]
        futures = [
            self._pool.submit(self._query, path, cells, True, False)
            for path, cells in requests
        ]
        return [future.result()[0] for future in futures]

    # ------------------------------------------------------------------
    # batched execution
    # ------------------------------------------------------------------
    def query_batch(
        self,
        requests: Sequence[Tuple[Sequence[str], Any]],
        merge: bool = True,
        deadline: Optional[float] = None,
    ) -> List[Any]:
        """Run a batch of ``(path, query_cells)`` requests through shared
        kernel passes; returns one entry per request, in order — a
        :class:`QueryOutcome` on success, or the exception that request
        alone raised (unknown array, planning failure, unavailable shard
        with nothing cached).  One bad request never fails the batch.

        The batch pipeline amortizes everything the per-request path pays
        per query: the dependency-version read and snapshot pin happen
        once, cache hits peel off before any kernel work, the remaining
        misses are grouped by resolved hop path, each path group's tables
        are prefetched right before its join, and each group executes as a
        *single* blocked θ-join pass per hop
        (:func:`~repro.core.query.execute_path_batch`) with per-query
        result segmentation — results are bit-identical to running the
        requests one at a time.  Fresh results are installed in
        the result cache per query, exactly as single execution would.
        """
        self._check_open()
        requests = list(requests)
        if not requests:
            return []
        _BATCH_SIZE.observe(len(requests))
        with self._stats_lock:
            self.batches += 1
            self.batched_queries += len(requests)
        trace = tracing.current_trace()
        if trace is not None:
            trace.set_tag("batch_size", len(requests))
        if deadline is None:
            deadline = self.default_deadline
        deadline_at = time.monotonic() + deadline if deadline is not None else None

        outcomes: List[Any] = [None] * len(requests)
        live = self._live_versions()
        # phase 1: validate, digest and peel cache hits off the batch
        pending: List[Tuple[int, List[str], Any, bytes]] = []
        for i, request in enumerate(requests):
            try:
                path, query_cells = request
                path = list(path)
                if len(path) < 2:
                    raise ValueError("a query path needs at least two arrays")
                for name in path:
                    self.log.catalog.array(name)  # KeyError for unknown arrays
                box_set = self.log._as_box_set(path[0], query_cells)
                key = self._query_digest(path, box_set, merge)
            except Exception as error:  # noqa: BLE001 - per-item containment
                outcomes[i] = error
                continue
            hit, value = self.cache.lookup(key, live)
            if hit:
                outcomes[i] = QueryOutcome(value, True, False)
            else:
                pending.append((i, path, box_set, key))
        if trace is not None:
            trace.set_tag("batch_misses", len(pending))
        if not pending:
            return outcomes

        _QUERIES.inc(len(pending))
        with self._stats_lock:
            self.queries += len(pending)

        # phase 2: group the misses by resolved hop path(s)
        groups: Dict[Any, Tuple[List[List[str]], bool, List[Tuple[int, Any, bytes]]]] = {}
        for i, path, box_set, key in pending:
            try:
                paths, direct = self._plan(path)
            except Exception as error:  # noqa: BLE001 - per-item containment
                outcomes[i] = error
                continue
            group_key = (tuple(tuple(p) for p in paths), direct)
            group = groups.get(group_key)
            if group is None:
                group = (paths, direct, [])
                groups[group_key] = group
            group[2].append((i, box_set, key))

        # phase 3: one snapshot pin; one prefetch + one kernel pass per group
        pin = self._pin_stores()
        try:
            for paths, direct, items in groups.values():
                self._execute_group(
                    paths, direct, items, merge, live, deadline_at, outcomes
                )
        finally:
            if pin is not None:
                pin()
        return outcomes

    def prov_query_batch(
        self, requests: Sequence[Tuple[Sequence[str], Any]], merge: bool = True
    ) -> List[QueryResult]:
        """:meth:`query_batch` without the outcome flags: one
        :class:`~repro.core.query.QueryResult` per request, in order.
        Unlike the containment semantics of :meth:`query_batch`, a failed
        request raises (the first failure, after the batch ran)."""
        outcomes = self.query_batch(requests, merge=merge)
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return [outcome.result for outcome in outcomes]

    def _execute_group(
        self,
        paths: List[List[str]],
        direct: bool,
        items: List[Tuple[int, Any, bytes]],
        merge: bool,
        live: Dict[int, int],
        deadline_at: Optional[float],
        outcomes: List[Any],
    ) -> None:
        """Execute one path group of a batch: breaker-gate its home shards,
        prefetch its tables, run the batched θ-join chain(s), install
        per-query cache entries.
        Failures degrade each of the group's queries individually."""
        try:
            shards = self._home_shards(paths)
        except Exception as error:  # noqa: BLE001 - per-item containment
            for i, _box_set, key in items:
                outcomes[i] = error
            return
        blocked = {s for s in shards if not self._breaker_allows(s)}
        if blocked:
            for i, _box_set, key in items:
                outcomes[i] = self._degrade_item(key, blocked)
            return
        deps = self._path_deps(live, shards) if direct else self._full_deps(live)
        box_sets = [box_set for _, box_set, _ in items]
        try:
            # per group, not per batch: hydrating every group's tables up
            # front lets a cache smaller than the batch's working set evict
            # them before their joins run, which then load them again
            self._prefetch_tables(paths, deadline_at=deadline_at)
            self._remaining(deadline_at, None)  # refuse doomed kernel work
            with tracing.span(
                "batch-join", paths=len(paths), queries=len(items)
            ):
                per_path = [
                    execute_path_batch(self._resolve_tables(p), box_sets, merge=merge)
                    for p in paths
                ]
                if len(per_path) == 1:
                    results = per_path[0]
                else:
                    results = [
                        QueryResult.union([r[j] for r in per_path], merge=merge)
                        for j in range(len(items))
                    ]
        except DeadlineExceeded as exc:
            _DEADLINE_MISSES.inc()
            with self._stats_lock:
                self.deadline_misses += 1
            shard = exc.shard if exc.shard is not None else self._fault_shard(exc, shards)
            self._breaker(shard).record_failure()
            for i, _box_set, key in items:
                outcomes[i] = self._degrade_item(key, {shard}, cause=exc)
            return
        except (OSError, CorruptRecordError) as exc:
            shard = self._fault_shard(exc, shards)
            self._breaker(shard).record_failure()
            for i, _box_set, key in items:
                outcomes[i] = self._degrade_item(key, {shard}, cause=exc)
            return
        for shard in shards:
            breaker = self._breakers.get(shard)
            if breaker is not None:
                breaker.record_success()
        for (i, _box_set, key), result in zip(items, results):
            self.cache.store(key, deps, result)
            outcomes[i] = QueryOutcome(result, False, False)

    def _degrade_item(self, key: bytes, blocked: Set[int], cause=None):
        """Per-item :meth:`_degrade`: returns the degraded
        :class:`QueryOutcome`, or the exception (instead of raising) so a
        batch can carry per-item failures."""
        try:
            return self._degrade(key, blocked, cause=cause)
        except BaseException as error:  # noqa: BLE001 - per-item containment
            return error

    def _query(
        self,
        path: Sequence[str],
        query_cells,
        merge: bool,
        parallel: bool,
        deadline: Optional[float] = None,
    ) -> QueryOutcome:
        """The one cache + plan + fan-out pipeline behind every query entry
        point; *parallel* toggles the pool fan-out (False inside batch
        tasks, which already run on the pool)."""
        self._check_open()
        path = list(path)
        if len(path) < 2:
            raise ValueError("a query path needs at least two arrays")
        for name in path:
            self.log.catalog.array(name)  # raises KeyError for unknown arrays
        box_set = self.log._as_box_set(path[0], query_cells)
        key = self._query_digest(path, box_set, merge)

        # read the dependency versions BEFORE resolving entries (see the
        # module docstring: a mid-execution writer must make the cached
        # entry stale, never fresher than its key)
        live = self._live_versions()
        hit, value = self.cache.lookup(key, live)
        trace = tracing.current_trace()
        if hit:
            if trace is not None:
                trace.set_tag("cache", "hit")
            return QueryOutcome(value, True, False)
        if trace is not None:
            trace.set_tag("cache", "miss")
            trace.set_tag("path_len", len(path))

        _QUERIES.inc()
        with self._stats_lock:
            self.queries += 1
        if deadline is None:
            deadline = self.default_deadline
        deadline_at = time.monotonic() + deadline if deadline is not None else None

        pin = self._pin_stores()
        try:
            with tracing.span("plan") as plan_span:
                paths, direct = self._plan(path)
                shards = self._home_shards(paths)
                plan_span.set_tag("paths", len(paths))
                plan_span.set_tag("shards", sorted(shards))

            # breaker gate: a tripped home shard means the failing disk is
            # not touched at all — serve the stale answer or refuse cleanly
            blocked = {s for s in shards if not self._breaker_allows(s)}
            if blocked:
                return self._degrade(key, blocked)

            deps = self._path_deps(live, shards) if direct else self._full_deps(live)
            try:
                result = self._execute_paths(
                    paths, box_set, merge, parallel=parallel, deadline_at=deadline_at
                )
            except DeadlineExceeded as exc:
                _DEADLINE_MISSES.inc()
                with self._stats_lock:
                    self.deadline_misses += 1
                shard = exc.shard if exc.shard is not None else self._fault_shard(exc, shards)
                self._breaker(shard).record_failure()
                return self._degrade(key, {shard}, cause=exc)
            except (OSError, CorruptRecordError) as exc:
                shard = self._fault_shard(exc, shards)
                self._breaker(shard).record_failure()
                return self._degrade(key, {shard}, cause=exc)
            for shard in shards:
                breaker = self._breakers.get(shard)
                if breaker is not None:
                    breaker.record_success()
        finally:
            if pin is not None:
                pin()
        with tracing.span("cache-install"):
            self.cache.store(key, deps, result)
        return QueryOutcome(result, False, False)

    def _breaker_allows(self, shard: int) -> bool:
        """Gate one home shard: closed passes; half-open triggers (at most)
        one reopen-with-scrub probe and passes only if it healed."""
        breaker = self._breakers.get(shard)
        if breaker is None or breaker.allows():
            return True
        self._maybe_probe(shard)
        breaker = self._breakers.get(shard)
        return breaker is None or breaker.allows()

    def _degrade(self, key: bytes, blocked: Set[int], cause=None) -> QueryOutcome:
        """Serve the stale cached answer for an unavailable-shard query,
        or raise structured :class:`~repro.faults.ShardUnavailable` /
        re-raise the underlying fault when there is nothing to serve."""
        stale_hit, stale = self.cache.lookup_stale(key)
        if stale_hit:
            trace = tracing.current_trace()
            if trace is not None:
                trace.set_tag("cache", "stale")
                trace.set_tag("degraded", True)
            with self._stats_lock:
                self.degraded_serves += 1
            return QueryOutcome(stale, True, True)
        if cause is not None:
            raise cause
        shard = min(blocked)
        raise ShardUnavailable(
            f"shard {shard} is unavailable (circuit breaker open) and this "
            f"query has no cached result to degrade to",
            shard=shard,
        )

    def impact(self, name: str) -> Dict[str, int]:
        """Cached :meth:`DSLog.impact` (keyed on the full shard vector —
        any new entry can extend the closure)."""
        return self._graph_cached("impact", name, lambda: self.log.impact(name))

    def dependencies(self, name: str) -> Dict[str, int]:
        """Cached :meth:`DSLog.dependencies`."""
        return self._graph_cached(
            "dependencies", name, lambda: self.log.dependencies(name)
        )

    def lineage_summary(self) -> dict:
        """Cached :meth:`DSLog.lineage_summary`."""
        return self._graph_cached("summary", "", self.log.lineage_summary)

    def graph_edges(self):
        """Cached edge list of the lineage DAG (sorted ``(in, out)`` pairs)."""
        return self._graph_cached("edges", "", lambda: self.log.graph.edges())

    def _graph_cached(self, kind: str, name: str, compute):
        self._check_open()
        key = self._digest(kind, name.encode("utf-8"))
        live = self._live_versions()
        hit, value = self.cache.lookup(key, live)
        if hit:
            return value
        value = compute()
        self.cache.store(key, self._full_deps(live), value)
        return value

    # ------------------------------------------------------------------
    # planning + fan-out
    # ------------------------------------------------------------------
    def _plan(self, path: List[str]) -> Tuple[List[List[str]], bool]:
        """Resolve the hop list(s): ``(paths, direct)`` where *direct* means
        the user's own path is executable as stored (its cache key may then
        depend on the hop entries' home shards only)."""
        if len(path) == 2:
            try:
                self.log.catalog.entry_between(path[0], path[1])
            except KeyError:
                planned = self.log.graph.shortest_paths(path[0], path[1])
                if not planned:
                    raise KeyError(
                        f"no lineage stored between {path[0]!r} and {path[1]!r}"
                    ) from None
                return planned, False
        return [path], True

    def _resolve_tables(self, path: Sequence[str]) -> list:
        catalog = self.log.catalog
        return [
            catalog.entry_between(first, second)[0].table_keyed_on(first)
            for first, second in zip(path, path[1:])
        ]

    @staticmethod
    def _remaining(deadline_at: Optional[float], shard: Optional[int]) -> Optional[float]:
        """Seconds left in the budget; raises when already exhausted."""
        if deadline_at is None:
            return None
        remaining = deadline_at - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded("query deadline exceeded", shard=shard)
        return remaining

    def _prefetch_tables(
        self, paths: Sequence[Sequence[str]], deadline_at: Optional[float] = None
    ) -> None:
        """Hydrate the hop tables that are not resident, grouped by home
        shard.

        Lazy entries hydrate through their shard's segment reader and LRU
        cache.  When two or more shards have tables to load, each shard's
        group goes to the pool so their reads + gunzips overlap while one
        shard's own reads stay sequential (one file cursor, one cache) —
        the per-shard fan-out of the serving tier.  One cold shard has
        nothing to overlap with: its tables hydrate on the calling thread
        when the join resolves them (which then holds them — loading them
        here as well would let a tight cache evict one before its hop).
        With every table resident there is nothing to do at all, so the
        common warm query pays no thread round trip.

        With a deadline, cold shards always go to the pool and each is
        awaited against the remaining budget: one slow/stalled shard raises
        :class:`~repro.faults.DeadlineExceeded` naming it, instead of
        wedging the whole query.
        """
        if self._pool is None:
            return  # sequential executor: loads happen in-line, unbounded
        catalog = self.log.catalog
        # home shard -> its tables still to hydrate (the residency probe
        # moves no cache counter)
        by_shard: Dict[int, List[Tuple[Any, str]]] = {}
        for path in paths:
            for first, second in zip(path, path[1:]):
                entry, _ = catalog.entry_between(first, second)
                shard = catalog.entry_shard((entry.in_name, entry.out_name))
                tasks = by_shard.setdefault(shard, [])
                if not entry.is_resident(first):
                    tasks.append((entry, first))

        def load(shard: int, tasks: List[Tuple[Any, str]]) -> None:
            started = time.monotonic()
            with tracing.span("prefetch-shard", shard=shard, tables=len(tasks)):
                for entry, keyed_on in tasks:
                    entry.table_keyed_on(keyed_on)
            _PREFETCH_SECONDS.labels(shard=str(shard)).observe(
                time.monotonic() - started
            )

        cold = [shard for shard, tasks in by_shard.items() if tasks]
        pooled = cold if len(cold) >= 2 or deadline_at is not None else []
        futures = {
            self._pool.submit(tracing.wrap_context(load), shard, by_shard[shard]): shard
            for shard in pooled
        }
        if futures:
            with self._stats_lock:
                self.parallel_loads += len(futures)
        try:
            if tracing.current_trace() is not None:
                # trace contract: one prefetch-shard span per home shard; a
                # shard that stayed off the pool records an empty one (its
                # tables load at the join, traced or not)
                for shard, tasks in by_shard.items():
                    if shard not in pooled:
                        with tracing.span("prefetch-shard", shard=shard, tables=len(tasks)):
                            pass
            for future, shard in futures.items():
                try:
                    future.result(timeout=self._remaining(deadline_at, shard))
                except TimeoutError as exc:
                    if isinstance(exc, DeadlineExceeded):
                        raise
                    raise DeadlineExceeded(
                        f"shard {shard} did not hydrate within the deadline",
                        shard=shard,
                    ) from None
        finally:
            for future in futures:
                future.cancel()  # not-yet-started loads of a doomed query

    def _execute_paths(
        self,
        paths: List[List[str]],
        box_set,
        merge: bool,
        parallel: bool,
        deadline_at: Optional[float] = None,
    ) -> QueryResult:
        if parallel:
            with tracing.span("prefetch"):
                self._prefetch_tables(paths, deadline_at=deadline_at)
        with tracing.span("join", paths=len(paths)):
            if parallel and self._pool is not None and len(paths) > 1:
                futures = [
                    self._pool.submit(
                        tracing.wrap_context(self._execute_one), p, box_set, merge
                    )
                    for p in paths
                ]
                with self._stats_lock:
                    self.parallel_paths += len(futures)
                try:
                    results = [
                        future.result(timeout=self._remaining(deadline_at, None))
                        for future in futures
                    ]
                except TimeoutError as exc:
                    if isinstance(exc, DeadlineExceeded):
                        raise
                    raise DeadlineExceeded(
                        "query deadline exceeded", shard=None
                    ) from None
            else:
                results = [self._execute_one(p, box_set, merge) for p in paths]
            return QueryResult.union(results, merge=merge)

    def _execute_one(self, path: Sequence[str], box_set, merge: bool) -> QueryResult:
        return execute_path(self._resolve_tables(path), box_set, merge=merge)

    def _pin_stores(self):
        """Snapshot-pin the backing store(s) for the query's lifetime so a
        concurrent compaction retires (rather than deletes) segment files
        this query may still read.  Returns the release callable."""
        store = self.log.store
        if store is None:
            return None
        store.pin()
        return store.release_pin

    # ------------------------------------------------------------------
    # lifecycle + stats
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the query executor is closed")

    def stats(self) -> dict:
        with self._stats_lock:
            return {
                "queries": self.queries,
                "max_workers": self.max_workers,
                "parallel_loads": self.parallel_loads,
                "parallel_paths": self.parallel_paths,
                "degraded_serves": self.degraded_serves,
                "deadline_misses": self.deadline_misses,
                "shard_reopens": self.shard_reopens,
                "batches": self.batches,
                "batched_queries": self.batched_queries,
                "cache": self.cache.stats(),
                "breakers": self.breaker_stats(),
            }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        self.cache.clear()

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
