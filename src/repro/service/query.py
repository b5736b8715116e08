"""The scale-out query executor (``QueryExecutor``) and its result cache.

PR 3 made the *write* path concurrent; this module is the read-side
counterpart: one executor object that plans ``prov_query`` requests against
the catalog, runs a whole batch of them as one plan of θ-join chains, and
fronts everything with a generation-keyed LRU so a hot query never re-runs
the chain at all.  (The graph queries — ``impact``, ``dependencies``, the
summary — are :class:`~repro.dslog.DSLog`'s own; nothing here caches them.)

The read pipeline
-----------------
There is one, and it answers a *list* of requests; :meth:`QueryExecutor.query`
is that pipeline on a list of one (re-raising its item's error) and
:meth:`QueryExecutor.query_batch` is the batch counters plus the pipeline.

1. **Validate, digest, look up** — the catalog version is read first (see
   below), then each request is checked (path length, known arrays, cells →
   boxes) and digested — once per ``(path, merge)`` for the frozen box set
   ``DSLog`` memoizes its conversion as, every time for a caller's
   ``CellBoxSet`` — and result-cache hits are answered on the spot.  A
   request that fails here, or at any later step, fails alone: its slot in
   the answer carries the exception.
2. **Plan and gate** — the misses are grouped by path and each group is
   planned once (a repeated miss is planned and joined with its first
   copy, whose outcome it takes).  An explicit multi-hop path resolves
   hop-by-hop through ``entry_between``; a two-array path with no direct
   entry is planned by the lineage graph (shortest stored path(s),
   diamond paths unioned).  Planning is :class:`~repro.dslog.DSLog`'s
   (``plan_paths``) — the same code ``DSLog.prov_query`` runs.  Each
   group's home shards then pass their circuit breakers.  A planning
   error or a tripped breaker is that group's alone.
3. **Resolve and join, one plan per batch** — every backing store is
   snapshot-pinned (compaction retires rather than deletes segments while
   the pipeline reads), and each *distinct* hop entry of the whole batch
   is resolved once and held for the join: resident tables from the table
   cache, the others hydrated shard by shard on the calling thread — or,
   under a deadline, each cold shard on the thread pool, awaited against
   the remaining budget.  A shard whose hydration faults fails every group
   that touches it and counts once against its breaker.  Then one
   :func:`~repro.core.query.execute_chains` call runs every planned path
   of every request: one kernel pass per (table, direction) the batch
   crosses, whatever request or path brought a query there, each result
   bit-identical to running alone; a request's planned paths are combined
   with ``QueryResult.union``.  A single query is this step on a batch of
   one.
4. **Install** — each fresh result goes into the result cache under its
   own digest, as the :class:`QueryOutcome` a hit returns, with the planned
   paths and the tokens of their hop entries,
   and with an empty *reply memo*: the dict a transport keeps the static
   bytes of this result's single-query reply in, once it has encoded them.
   The memo lives exactly as long as its cache entry — a hit, a restamp
   and a stale ``degraded`` serve reuse it, a recompute installs a fresh
   one, an eviction drops it.

Result cache
------------
:class:`ResultCache` is an LRU keyed on the *query-box digest* — a stable
hash of the path, the query boxes and the merge flag — whose entries depend
on exactly what they were computed from: the lineage *entries* of their
hops.  Every catalog install gives its entry a ``token`` no other install
in the process shares, and the catalog keeps one generation counter
(``catalog.version``) that every mutation bumps.  A cached result records
the request path, the planned paths with the token of every hop, and the
version it was last validated at:

* an unchanged version is a hit on one integer compare;
* otherwise the path is planned and its hops resolved again (microseconds,
  once per cached result per catalog change, outside the cache mutex).  The
  same planned paths over the same tokens restamp the result and hit: a
  write costs the readers only what it changed.  Anything else — a replaced
  or dropped hop, a new edge that shortens or widens a graph-planned path —
  is an invalidation.

Memory logs, one-shard and N-shard stores get the same precision from the
same code; a snapshot view's frozen catalog never leaves the first case.

The version is read *before* entries are resolved, and the tokens installed
with a result are those of the entry objects whose tables the join used: a
writer landing mid-execution makes the cached entry validate as stale on
the next lookup rather than ever serving a result fresher than its key
claims.

Degraded serving
----------------
Invalidated cache entries are kept rather than deleted, because they are
the *degraded* answer: each
shard is wrapped in a :class:`~repro.faults.CircuitBreaker`, and when a
query's home shard has a tripped breaker, the executor serves the last
known result for that exact query — flagged ``degraded=True`` in the
returned :class:`QueryOutcome` — instead of touching the failing disk.
With no stale result to fall back on it raises the structured
:class:`~repro.faults.ShardUnavailable`, never a hang or a bare
``OSError``.  A half-open breaker lets exactly one query probe recovery:
the shard is reopened-with-scrub
(:meth:`~repro.storage.sharded.ShardedLineageStore.reopen_shard`), and the
breaker closes only when that heal succeeds.

Deadlines: a call's ``deadline=seconds`` puts each cold shard's hydration
on the pool, awaited against the budget, and is re-checked before the
join; a shard that stalls past the budget raises
:class:`~repro.faults.DeadlineExceeded` (and counts against its breaker)
instead of wedging the request.  Without a deadline there is no read to
abandon, and concurrent requests already overlap their loads on their own
threads: every table hydrates on the calling thread.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..core.query import QueryResult, execute_chains
from ..faults import CircuitBreaker, DeadlineExceeded, ShardUnavailable
from ..obs import REGISTRY, tracing
from ..storage.segments import CorruptRecordError

__all__ = [
    "ResultCache",
    "QueryExecutor",
    "QueryOutcome",
    "DEFAULT_CACHE_ENTRIES",
]

DEFAULT_CACHE_ENTRIES = 256
# result-cache keys kept per frozen query box set, one per (path, merge):
# a query's cells are re-sent along a few paths, not along every path
_KEYS_PER_BOX_SET = 16

# what hydrating a shard's tables can raise: the shard's fault, not the batch's
_SHARD_FAULTS = (OSError, CorruptRecordError)

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
    "Cached results found stale against the lineage entries they were computed from",
)
_RESULT_STALE_SERVES = REGISTRY.counter(
    "dslog_result_cache_stale_serves_total",
    "Stale cached results served degraded behind a tripped breaker",
)
_PREFETCH_SECONDS = REGISTRY.histogram(
    "dslog_prefetch_seconds",
    "Per-shard hop-table hydration latency during query fan-out",
    labelnames=("shard",),
)


class QueryOutcome(NamedTuple):
    """What :meth:`QueryExecutor.query` returns.

    ``result`` is the :class:`~repro.core.query.QueryResult`; ``cached``
    says whether it came from the result cache; ``degraded`` marks a
    stale cache entry served because the query's home shard is behind a
    tripped circuit breaker (the freshness contract is then "last known
    answer", not "current generation").  ``memo`` is the reply memo of
    the result's cache entry (``None`` with the cache disabled): a
    transport may keep what no request changes of its encoded reply there,
    keyed by its own name (see the module docstring).
    """

    result: Any
    cached: bool
    degraded: bool
    memo: Optional[dict] = None


class ResultCache:
    """LRU of query results keyed on digest, validated per lineage entry.

    Thread-safe: the server's handler threads all go through here.  An
    item is ``(value, path, deps, version)``: the request path, what
    resolving it gave when the value was computed (the planned paths and
    the token of every hop) and the catalog version it was last validated
    at.  It *hits* while resolving
    the path would still give ``deps``; a stale item is counted as an
    invalidation but **kept** — it is the degraded answer
    :meth:`lookup_stale` serves while the shard that could refresh it is
    behind a tripped breaker.  (A recompute overwrites it in place; LRU
    eviction reclaims it like any other entry.)
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        self.max_entries = int(max_entries)
        self._items: "OrderedDict[bytes, Tuple[Any, Any, Any, int]]" = OrderedDict()
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

    def lookup(
        self, key: bytes, version: int, resolve: Callable[[Any], Any]
    ) -> Tuple[bool, Any]:
        """Return ``(hit, value)``.  *version* is the catalog's, read before
        this call; ``resolve(path)`` gives what a result for *path* depends
        on in the catalog now (or raises when it has no answer any more)."""
        if not self.enabled:
            return False, None
        with self._lock:
            item = self._items.get(key)
            if item is None:
                self.misses += 1
                _RESULT_MISSES.inc()
                return False, None
            value, path, deps, stamp = item
            if stamp == version:
                self._items.move_to_end(key)
                self.hits += 1
                _RESULT_HITS.inc()
                return True, value
        # the catalog changed since this item was last validated: resolve
        # its path again, outside the mutex — once per item per change
        try:
            valid = resolve(path) == deps
        except Exception:  # noqa: BLE001 - a hop is gone: not what was cached
            valid = False
        with self._lock:
            if not valid:
                # stale: miss, but keep the entry — it is the degraded
                # fallback should this query's shard become unavailable
                self.invalidations += 1
                self.misses += 1
                _RESULT_INVALIDATIONS.inc()
                _RESULT_MISSES.inc()
                return False, None
            if self._items.get(key) is item:
                self._items[key] = (value, path, deps, version)
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
            return True, item[0]

    def store(self, key: bytes, value: Any, version: int, path, deps) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._items[key] = (value, path, deps, version)
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
    cache_entries:
        Capacity of the :class:`ResultCache`; ``0`` disables caching.

    The pool that hydrates the cold shards of a query with a deadline is
    ``min(8, max(2, os.cpu_count()))`` threads wide; each shard's circuit
    breaker has :class:`~repro.faults.CircuitBreaker`'s defaults.
    """

    def __init__(self, log, cache_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        self.log = log
        self.max_workers = min(8, max(2, os.cpu_count() or 1))
        self.cache = ResultCache(cache_entries)
        # per-shard breakers, created on a shard's first recorded fault
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="lineage-query"
        )
        self._closed = False
        self._stats_lock = threading.Lock()
        self.queries = 0
        self.parallel_loads = 0
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
                breaker = CircuitBreaker(scope=f"shard-{shard:02d}")
                self._breakers[shard] = breaker
            return breaker

    def breaker_stats(self) -> Dict[int, dict]:
        """Per-shard breaker state (shards with no recorded fault and no
        gate check yet are simply absent) — surfaced by ``/healthz``."""
        with self._breaker_lock:
            return {shard: br.stats() for shard, br in self._breakers.items()}

    def _plan(self, path: Sequence[str]) -> Tuple[List[List[str]], List[List[Any]]]:
        """Plan *path* and resolve every hop of every planned path to its
        catalog entry: ``(paths, entries)``, ``entries[p][h]`` linking
        ``paths[p][h]`` and ``paths[p][h + 1]`` in either direction."""
        paths = self.log.plan_paths(path)
        between = self.log.catalog.entry_between
        return paths, [
            [between(first, second)[0] for first, second in zip(p, p[1:])] for p in paths
        ]

    @staticmethod
    def _computed_from(paths: List[List[str]], entries: List[List[Any]]):
        """What the result cache compares: the planned paths and the token
        of every hop entry."""
        return paths, [[entry.token for entry in hops] for hops in entries]

    def _dependencies(self, path: Sequence[str]):
        """What a result for *path* would be computed from now."""
        return self._computed_from(*self._plan(path))

    def _maybe_probe(self, shard: int) -> None:
        """Claim a half-open breaker's single recovery probe and attempt
        reopen-with-scrub; success closes the breaker, failure re-opens it
        (restarting the reset clock)."""
        breaker = self._breakers.get(shard)
        if breaker is None or not breaker.try_probe():
            return
        try:
            if self.log.store is not None:
                with self.log.store.maintenance_lock:  # no publish between repair and reset
                    self.log._apply_repair(self.log.store.reopen_shard(shard))
            breaker.record_success()
            with self._stats_lock:
                self.shard_reopens += 1
        except Exception:
            breaker.record_failure()

    # ------------------------------------------------------------------
    # digests
    # ------------------------------------------------------------------
    @staticmethod
    def _query_digest(path: Sequence[str], box_set, merge: bool) -> bytes:
        h = hashlib.blake2b(b"prov_query", digest_size=16)
        for part in (
            "\x00".join(path).encode("utf-8"),
            repr(box_set.shape).encode("utf-8"),
            box_set.lo.tobytes(),
            box_set.hi.tobytes(),
            b"1" if merge else b"0",
        ):
            h.update(b"\x1f")
            h.update(part)
        return h.digest()

    def _query_key(self, path: Tuple[str, ...], box_set, merge: bool) -> bytes:
        """A request's result-cache key: its digest, kept in a frozen box
        set's ``derived`` dict (``DSLog``'s memoized conversions are
        frozen) per ``(path, merge)``, so a repeated query is hashed once.
        Any other box set may have changed in place since the last call:
        it is digested every time."""
        derived = box_set.derived
        if derived is None:
            return self._query_digest(path, box_set, merge)
        key = derived.get((path, merge))
        if key is None:
            if len(derived) >= _KEYS_PER_BOX_SET:
                derived.clear()
            key = derived[path, merge] = self._query_digest(path, box_set, merge)
        return key

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
        (``result, cached, degraded, memo`` — index ``[0]``/``[1]`` keeps
        the old 2-tuple call sites working).

        Semantics match :meth:`DSLog.prov_query` exactly (including graph
        planning of two-array paths); the differences are the cache in
        front, the per-shard prefetch behind, and the failure envelope: a
        *deadline* (seconds; unbounded when omitted) bounds the
        pooled prefetch with :class:`~repro.faults.DeadlineExceeded`, and a
        query whose home shard is faulting serves its last cached answer
        flagged degraded (or raises the structured
        :class:`~repro.faults.ShardUnavailable`) instead of hanging.
        """
        self._check_open()
        (outcome,) = self._answer([(path, query_cells)], merge, deadline)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

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

        A batch is one plan: the catalog-version read and snapshot pin
        happen once, requests sharing a path are planned once, each
        distinct hop table hydrates once, and every (table, direction)
        the batch crosses is joined in *one* kernel pass over all the
        queries that reach it, whatever path they came from — results are
        bit-identical to running the requests one at a time, and each
        fresh result is installed in the result cache under its own key.
        A repeated request is joined once; each copy is its own cache
        lookup and gets the first copy's outcome.
        """
        self._check_open()
        requests = list(requests)
        if not requests:
            return []
        with self._stats_lock:
            self.batches += 1
            self.batched_queries += len(requests)
        trace = tracing.current_trace()
        if trace is not None:
            trace.set_tag("batch_size", len(requests))
        return self._answer(requests, merge, deadline)

    # ------------------------------------------------------------------
    # the pipeline
    # ------------------------------------------------------------------
    def _answer(
        self,
        requests: Sequence[Tuple[Sequence[str], Any]],
        merge: bool,
        deadline: Optional[float],
    ) -> List[Any]:
        """The one read pipeline (see the module docstring): one
        :class:`QueryOutcome` or exception per request, in order."""
        outcomes: List[Any] = [None] * len(requests)
        # read the catalog version BEFORE resolving entries: a writer
        # landing mid-execution must make the cached entry stale, never
        # fresher than its key
        version = self.log.catalog.version
        # the misses by path: one (request indices, box set, cache key) per key
        groups: Dict[Tuple[str, ...], List[Tuple[List[int], Any, bytes]]] = {}
        by_key: Dict[bytes, Tuple[List[int], Any, bytes]] = {}
        hits = misses = 0
        array, as_box_set, lookup = self.log.catalog.array, self.log._as_box_set, self.cache.lookup
        for i, request in enumerate(requests):
            try:
                path, query_cells = request
                path = tuple(path)
                if len(path) < 2:
                    raise ValueError("a query path needs at least two arrays")
                for name in path:
                    array(name)  # KeyError for unknown arrays
                box_set = as_box_set(path[0], query_cells)
                key = self._query_key(path, box_set, merge)
            except Exception as error:  # noqa: BLE001 - per-item containment
                outcomes[i] = error
                continue
            hit, value = lookup(key, version, self._dependencies)
            if hit:
                outcomes[i] = value  # the hit outcome _execute_misses installs
                hits += 1
            else:
                item = by_key.get(key)
                if item is None:
                    item = by_key[key] = ([], box_set, key)
                    groups.setdefault(path, []).append(item)
                item[0].append(i)
                misses += 1
        trace = tracing.current_trace()
        if trace is not None:
            if hits or misses:  # a refused request never reached the cache
                trace.set_tag("cache", "miss" if misses else "hit")
            trace.set_tag("batch_misses", misses)
        if not misses:
            return outcomes

        _QUERIES.inc(misses)
        with self._stats_lock:
            self.queries += misses
        deadline_at = time.monotonic() + deadline if deadline is not None else None
        pin = self._pin_stores()
        try:
            self._execute_misses(groups, merge, version, deadline_at, outcomes)
        finally:
            if pin is not None:
                pin()
        return outcomes

    def _execute_misses(
        self,
        groups: Dict[Tuple[str, ...], List[Tuple[List[int], Any, bytes]]],
        merge: bool,
        version: int,
        deadline_at: Optional[float],
        outcomes: List[Any],
    ) -> None:
        """Answer the batch's misses as one plan (steps 2-4 of the module
        docstring), writing each request's outcome into *outcomes*."""
        catalog = self.log.catalog
        trace = tracing.current_trace()
        planned = []  # (path, items, paths, entries, shards) of each gated group
        for path, items in groups.items():
            if trace is not None:
                trace.set_tag("path_len", len(path))
            try:
                with tracing.span("plan") as plan_span:
                    paths, entries = self._plan(path)
                    # home shards by *stored* pair: routing hashes the
                    # (input, output) pair, whichever way the hop is queried
                    shards = {catalog.entry_shard((e.in_name, e.out_name)) for hops in entries for e in hops}
                    plan_span.set_tag("paths", len(paths))
                    plan_span.set_tag("shards", sorted(shards))
            except Exception as error:  # noqa: BLE001 - per-group containment
                for copies, _, _ in items:
                    for i in copies:
                        outcomes[i] = error
                continue
            # breaker gate: a tripped home shard means the failing disk is
            # not touched at all — serve the stale answer or refuse cleanly
            blocked = {s for s in shards if not self._breaker_allows(s)}
            if blocked:
                self._fail_group(items, blocked, None, outcomes)
                continue
            planned.append((path, items, paths, entries, shards))
        # each distinct entry once; the batch holds these tables until its
        # join is done
        hops = {id(entry): entry for _, _, _, entries, _ in planned
                for of_path in entries for entry in of_path}
        with tracing.span("prefetch", tables=len(hops)):
            tables, failed = self._resolve_tables(hops, deadline_at)
        live = []
        for group in planned:
            faulted = failed.keys() & group[4]
            if faulted:
                self._fail_group(group[1], {min(faulted)}, failed[min(faulted)], outcomes)
            else:
                live.append(group)
        if live:
            try:
                self._remaining(deadline_at, None)  # refuse doomed kernel work
            except DeadlineExceeded as exc:
                for group in live:
                    failed.setdefault(min(group[4]), exc)
                    self._fail_group(group[1], {min(group[4])}, exc, outcomes)
                live = []
        for shard in failed:
            self._breaker(shard).record_failure()
        if not live:
            return
        chains, queries, n_paths, n_items = [], [], 0, 0
        for _, items, _, entries, _ in live:
            of_paths = [[tables[id(entry)] for entry in of_path] for of_path in entries]
            n_paths, n_items = n_paths + len(of_paths), n_items + len(items)
            for _, box_set, _ in items:
                chains.extend(of_paths)
                queries.extend([box_set] * len(of_paths))
        join_stats: Dict[str, int] = {}
        with tracing.span("join", paths=n_paths, queries=n_items, streams=len(queries)) as join_span:
            streams = execute_chains(chains, queries, merge=merge, stats=join_stats)
            join_span.set_tag("passes", join_stats["passes"])
        done = 0
        with tracing.span("cache-install"):
            for path, items, paths, entries, shards in live:
                for shard in shards:
                    breaker = self._breakers.get(shard)
                    if breaker is not None:
                        breaker.record_success()
                # the tokens of the entry objects the join read, never a
                # second look at the catalog: a replace that landed
                # meanwhile must find this result stale
                deps = self._computed_from(paths, entries)
                for copies, _, key in items:
                    result = QueryResult.union(streams[done : done + len(paths)], merge=merge)
                    done += len(paths)
                    memo = {} if self.cache.enabled else None
                    self.cache.store(key, QueryOutcome(result, True, False, memo), version, path, deps)
                    for i in copies:
                        outcomes[i] = QueryOutcome(result, False, False, memo)

    def _fail_group(self, items: List[Tuple[List[int], Any, bytes]], blocked: Set[int],
                    exc: Optional[BaseException], outcomes: List[Any]) -> None:
        """Shards *blocked* stopped a group (a tripped breaker, or the fault
        *exc*): each request, every copy, degrades or carries the fault."""
        if isinstance(exc, DeadlineExceeded):
            with self._stats_lock:
                self.deadline_misses += 1
        for copies, _, key in items:
            for i in copies:
                outcomes[i] = self._degrade(key, blocked, cause=exc)

    def _breaker_allows(self, shard: int) -> bool:
        """Gate one home shard: closed passes; half-open triggers (at most)
        one reopen-with-scrub probe and passes only if it healed."""
        breaker = self._breakers.get(shard)
        if breaker is None or breaker.allows():
            return True
        self._maybe_probe(shard)
        breaker = self._breakers.get(shard)
        return breaker is None or breaker.allows()

    def _degrade(self, key: bytes, blocked: Set[int], cause=None):
        """The answer of a query whose home shard is unavailable: its stale
        cached result flagged degraded, or — returned, for the pipeline to
        hand to that request alone — the underlying fault, or a structured
        :class:`~repro.faults.ShardUnavailable` when there is neither."""
        stale_hit, stale = self.cache.lookup_stale(key)
        if stale_hit:
            trace = tracing.current_trace()
            if trace is not None:
                trace.set_tag("cache", "stale")
                trace.set_tag("degraded", True)
            with self._stats_lock:
                self.degraded_serves += 1
            return stale._replace(degraded=True)
        if cause is not None:
            return cause
        shard = min(blocked)
        return ShardUnavailable(
            f"shard {shard} is unavailable (circuit breaker open) and this "
            f"query has no cached result to degrade to",
            shard=shard,
        )

    # ------------------------------------------------------------------
    # fan-out
    # ------------------------------------------------------------------
    @staticmethod
    def _remaining(deadline_at: Optional[float], shard: Optional[int]) -> Optional[float]:
        """Seconds left in the budget; raises when already exhausted."""
        if deadline_at is None:
            return None
        remaining = deadline_at - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded("query deadline exceeded", shard=shard)
        return remaining

    def _resolve_tables(
        self,
        hops: Dict[int, Any],
        deadline_at: Optional[float] = None,
    ) -> Tuple[Dict[int, Any], Dict[int, BaseException]]:
        """The backward table of every entry in *hops* (``id(entry)`` to
        entry) — resolved exactly once, and held by the caller for its
        join: the table cache is hard-bounded and may keep nothing of what
        is loaded here.

        A resident table is a cache ``get``.  The others hydrate through
        their shard's segment reader, grouped by home shard, on the calling
        thread: a query pays no pool round trip.

        With a deadline, each cold shard's group goes to the pool and is
        awaited against the remaining budget: a slow/stalled shard fails
        with :class:`~repro.faults.DeadlineExceeded` naming it, instead of
        wedging the whole batch.

        Returns ``(tables, failed)``: the tables by ``id(entry)``, and the
        fault of each home shard whose hydration failed (its entries may
        have no table); the other shards' tables are all there.
        """
        catalog = self.log.catalog
        tables: Dict[int, Any] = {}
        # home shard -> its entries still to hydrate, as (id, entry); the
        # residency probe moves no cache counter
        by_shard: Dict[int, List[Tuple[int, Any]]] = {}
        failed: Dict[int, BaseException] = {}
        for key, entry in hops.items():
            shard = catalog.entry_shard((entry.in_name, entry.out_name))
            tasks = by_shard.setdefault(shard, [])
            if entry.is_resident():
                try:  # an eviction racing the probe makes this a hydration
                    tables[key] = entry.backward
                except _SHARD_FAULTS as exc:
                    failed[shard] = exc
            else:
                tasks.append((key, entry))

        def load(shard: int) -> None:
            tasks = by_shard[shard]
            started = time.monotonic()
            with tracing.span("prefetch-shard", shard=shard, tables=len(tasks)):
                for key, entry in tasks:
                    tables[key] = entry.backward
            if tasks:
                _PREFETCH_SECONDS.labels(shard=str(shard)).observe(
                    time.monotonic() - started
                )

        pooled = []  # only a deadline needs a load it can stop waiting for
        if deadline_at is not None:
            pooled = [shard for shard, tasks in by_shard.items() if tasks]
        futures = {
            self._pool.submit(tracing.wrap_context(load), shard): shard for shard in pooled
        }
        if futures:
            with self._stats_lock:
                self.parallel_loads += len(futures)
        traced = tracing.current_trace() is not None
        try:
            for shard, tasks in by_shard.items():
                # trace contract: one prefetch-shard span per home shard,
                # warm ones included
                if shard not in pooled and (tasks or traced):
                    try:
                        load(shard)
                    except _SHARD_FAULTS as exc:
                        failed[shard] = exc
            for future, shard in futures.items():
                try:
                    future.result(timeout=self._remaining(deadline_at, shard))
                except TimeoutError as exc:
                    failed[shard] = exc if isinstance(exc, DeadlineExceeded) else DeadlineExceeded(
                        f"shard {shard} did not hydrate within the deadline", shard=shard
                    )
                except _SHARD_FAULTS as exc:
                    failed[shard] = exc
        finally:
            for future in futures:
                future.cancel()  # not-yet-started loads of a doomed batch
        return tables, failed

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
        self._pool.shutdown(wait=True)
        self.cache.clear()

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
