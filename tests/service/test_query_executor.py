"""QueryExecutor + ResultCache: correctness, fan-out and the invalidation
contract (a write invalidates exactly the results computed from the lineage
entries it replaced)."""

import pytest

from repro import DSLog
from repro.core.relation import LineageRelation
from repro.service.query import QueryExecutor, ResultCache
from repro.storage.sharded import shard_index

SHAPE = (6, 6)


def identity(in_name, out_name):
    pairs = [((i, j), (i, j)) for i in range(SHAPE[0]) for j in range(SHAPE[1])]
    return LineageRelation.from_pairs(
        pairs, SHAPE, SHAPE, in_name=in_name, out_name=out_name
    )


def build_chain(log, names):
    for name in names:
        log.define_array(name, SHAPE)
    for a, b in zip(names, names[1:]):
        log.add_lineage(a, b, relation=identity(a, b))


@pytest.fixture(params=["memory", "sharded"])
def log(request, tmp_path):
    if request.param == "memory":
        log = DSLog()
    else:
        log = DSLog(tmp_path / "db", num_shards=4)
    build_chain(log, ["a", "b", "c"])
    yield log
    log.close()


QUERY = [(1, 1), (2, 3), (4, 4)]


def test_executor_matches_dslog(log):
    with QueryExecutor(log) as ex:
        for path in (["a", "b"], ["a", "b", "c"], ["c", "b", "a"]):
            assert ex.query(path, QUERY).result.to_cells() == log.prov_query(path, QUERY).to_cells()


def test_sequential_equals_parallel(log):
    # without a deadline tables hydrate on the calling thread; with one,
    # every cold shard hydrates on the pool
    with QueryExecutor(log, cache_entries=0) as ex:
        sequential = ex.query(["a", "c"], QUERY).result.to_cells()
        if log.store is not None:
            log.store.cache.clear()
        assert ex.query(["a", "c"], QUERY, deadline=60.0).result.to_cells() == sequential


def test_planned_diamond_union(log):
    # a -> b -> c exists; add a second parallel branch a -> x -> c so the
    # two-array query (a, c) plans both paths and unions them
    log.define_array("x", SHAPE)
    log.add_lineage("a", "x", relation=identity("a", "x"))
    log.add_lineage("x", "c", relation=identity("x", "c"))
    with QueryExecutor(log) as ex:
        expected = log.prov_query(["a", "c"], QUERY).to_cells()
        assert ex.query(["a", "c"], QUERY).result.to_cells() == expected


def test_cache_hit_and_flag(log):
    with QueryExecutor(log) as ex:
        result, cached, degraded, memo = ex.query(["a", "b"], QUERY)
        assert not cached and not degraded and memo == {}
        again, cached, degraded, again_memo = ex.query(["a", "b"], QUERY)
        assert cached and not degraded and again_memo is memo  # the entry's reply memo
        assert again.to_cells() == result.to_cells()
        stats = ex.stats()["cache"]
        assert stats["hits"] == 1 and stats["entries"] >= 1


def test_cache_disabled(log):
    with QueryExecutor(log, cache_entries=0) as ex:
        assert ex.query(["a", "b"], QUERY)[1] is False
        assert ex.query(["a", "b"], QUERY)[1] is False
        assert ex.stats()["cache"]["entries"] == 0


def test_unknown_array_raises(log):
    with QueryExecutor(log) as ex:
        with pytest.raises(KeyError):
            ex.query(["a", "nope"], QUERY)
        with pytest.raises(ValueError):
            ex.query(["a"], QUERY)


def _pairs_in_distinct_shards(num_shards):
    """Two (in, out) name pairs with different crc32 home shards."""
    base = ("a", "b")
    target = shard_index(*base, num_shards)
    for i in range(1000):
        other = (f"u{i}", f"v{i}")
        if shard_index(*other, num_shards) != target:
            return base, other
    raise AssertionError("no distinct-shard pair found")


def test_write_invalidates_only_touched_entries(tmp_path):
    log = DSLog(tmp_path / "db", num_shards=4)
    (a, b), (u, v) = _pairs_in_distinct_shards(4)
    home = shard_index(a, b, 4)
    c, d = next(
        pair
        for pair in ((f"c{i}", f"d{i}") for i in range(1000))
        if shard_index(*pair, 4) == home
    )
    for name in (a, b, u, v, c, d):
        log.define_array(name, SHAPE)
    log.add_lineage(a, b, relation=identity(a, b))
    log.add_lineage(u, v, relation=identity(u, v))

    with QueryExecutor(log) as ex:
        ex.query([a, b], QUERY)
        assert ex.query([a, b], QUERY)[1] is True

        # a write to another pair must not invalidate this result, whether
        # it lands in another shard or in the queried pair's own
        log.add_lineage(u, v, relation=identity(u, v), replace=True)
        assert ex.query([a, b], QUERY)[1] is True
        log.add_lineage(c, d, relation=identity(c, d))
        assert ex.query([a, b], QUERY)[1] is True
        assert ex.stats()["cache"]["invalidations"] == 0

        # a write to the queried pair itself must
        log.add_lineage(a, b, relation=identity(a, b), replace=True)
        assert ex.query([a, b], QUERY)[1] is False
        assert ex.stats()["cache"]["invalidations"] == 1
    log.close()


def shift(in_name, out_name):
    """Output (i, j) reads input (i, (j+1) mod cols) — distinguishable from
    :func:`identity` so a replace visibly changes query results."""
    rows, cols = SHAPE
    pairs = [((i, j), (i, (j + 1) % cols)) for i in range(rows) for j in range(cols)]
    return LineageRelation.from_pairs(
        pairs, SHAPE, SHAPE, in_name=in_name, out_name=out_name
    )


def test_backward_path_invalidated_by_replace(tmp_path):
    """Regression: shard routing hashes the *stored* (in, out) orientation,
    but a backward query names the pair in reverse order — the dependency
    vector must key on the stored orientation's home shard or a replace of
    the entry leaves a stale cached result being served."""
    a = b = None
    for i in range(1000):
        a, b = f"m{i}", f"n{i}"
        if shard_index(a, b, 4) != shard_index(b, a, 4):
            break
    assert shard_index(a, b, 4) != shard_index(b, a, 4)
    log = DSLog(tmp_path / "db", num_shards=4)
    log.define_array(a, SHAPE)
    log.define_array(b, SHAPE)
    log.add_lineage(a, b, relation=identity(a, b))
    with QueryExecutor(log) as ex:
        before = ex.query([b, a], QUERY).result.to_cells()
        assert ex.query([b, a], QUERY)[1] is True

        log.add_lineage(a, b, relation=shift(a, b), replace=True)
        result, cached, _degraded, _memo = ex.query([b, a], QUERY)
        assert cached is False
        assert result.to_cells() == log.prov_query([b, a], QUERY).to_cells()
        assert result.to_cells() != before
    log.close()


def test_planned_query_turns_over_when_the_plan_does(tmp_path):
    # a graph-planned (two-array, no direct entry) result depends on the
    # plan as well as on its hops: a new entry that creates a shorter or
    # an additional equally short path must invalidate it
    log = DSLog(tmp_path / "db", num_shards=4)
    build_chain(log, ["a", "b", "c"])
    with QueryExecutor(log) as ex:
        before = ex.query(["a", "c"], QUERY).result.to_cells()
        assert ex.query(["a", "c"], QUERY)[1] is True

        log.define_array("x", SHAPE)
        log.add_lineage("a", "x", relation=identity("a", "x"))
        log.add_lineage("x", "c", relation=identity("x", "c"))
        result, cached, _degraded, _memo = ex.query(["a", "c"], QUERY)
        assert cached is False
        assert result.to_cells() == before  # identity chains: same cells, two paths
    log.close()


def test_memory_backend_invalidates_per_entry():
    log = DSLog()
    build_chain(log, ["a", "b"])
    with QueryExecutor(log) as ex:
        before = ex.query(["a", "b"], QUERY).result.to_cells()
        assert ex.query(["a", "b"], QUERY)[1] is True
        # a memory log gets the sharded store's precision from the same
        # code: a write that touches no hop of the query keeps the hit
        log.define_array("z", SHAPE)
        log.add_lineage("a", "z", relation=identity("a", "z"))
        assert ex.query(["a", "b"], QUERY)[1] is True
        assert ex.stats()["cache"]["invalidations"] == 0

        log.add_lineage("a", "b", relation=shift("a", "b"), replace=True)
        result, cached, _degraded, _memo = ex.query(["a", "b"], QUERY)
        assert cached is False
        assert result.to_cells() == log.prov_query(["a", "b"], QUERY).to_cells()
        assert result.to_cells() != before


def test_replace_landing_mid_query_leaves_a_stale_entry_never_a_wrong_one(log, monkeypatch):
    # the writer strikes while the (b, c) hop is being resolved.  Whichever
    # generation the answer in flight is of, what it installs must name the
    # entries it was joined from: the next lookup finds it stale
    path = ["a", "b", "c"]
    old = log.prov_query(path, QUERY).to_cells()
    target = log.catalog.entry("b", "c")
    # the hop read is ``entry.backward``: a property of a stored entry, a
    # field of an in-memory one (shadowed here by a property that keeps it)
    stored = type(target).__dict__.get("backward")
    struck = []

    def strike_then_resolve(entry):
        if entry is target and not struck:
            struck.append((entry.in_name, entry.out_name))
            log.add_lineage("b", "c", relation=shift("b", "c"), replace=True)
        return stored.fget(entry) if stored is not None else entry.__dict__["backward"]

    def keep(entry, table):
        entry.__dict__["backward"] = table

    monkeypatch.setattr(type(target), "backward", property(strike_then_resolve, keep), raising=False)
    with QueryExecutor(log) as ex:
        in_flight = ex.query(path, QUERY)
        assert struck == [("b", "c")] and not in_flight.cached
        new = log.prov_query(path, QUERY).to_cells()
        assert new != old and in_flight.result.to_cells() in (old, new)
        after = ex.query(path, QUERY)
        assert after.cached is False
        assert after.result.to_cells() == new
        assert ex.query(path, QUERY).cached is True


def _never_resolved(path):
    raise AssertionError("an unchanged catalog version must hit without resolving")


def test_result_cache_lru_eviction():
    cache = ResultCache(max_entries=2)
    for i, key in enumerate((b"k1", b"k2", b"k3")):
        cache.store(key, i, 1, ("a", "b"), "deps")
    assert cache.lookup(b"k1", 1, _never_resolved) == (False, None)  # evicted, oldest
    assert cache.lookup(b"k2", 1, _never_resolved) == (True, 1)  # now the newest
    cache.store(b"k4", 3, 1, ("a", "b"), "deps")
    assert cache.lookup(b"k3", 1, _never_resolved) == (False, None)
    assert cache.lookup(b"k2", 1, _never_resolved) == (True, 1)
    assert cache.stats()["evictions"] == 2


def test_result_cache_version_mismatch_keeps_stale_entry():
    cache = ResultCache(max_entries=4)
    current = {("a", "b"): "tokens-1"}
    resolved = []

    def resolve(path):
        resolved.append(path)
        return current[path]

    cache.store(b"k", "value", 1, ("a", "b"), "tokens-1")
    assert cache.lookup(b"k", 1, _never_resolved) == (True, "value")
    # the catalog moved, the hops did not: one resolve restamps the entry
    assert cache.lookup(b"k", 2, resolve) == (True, "value")
    assert cache.lookup(b"k", 2, _never_resolved) == (True, "value")
    assert resolved == [("a", "b")]
    # a hop was replaced, then dropped (resolving raises): both are misses
    current[("a", "b")] = "tokens-2"
    assert cache.lookup(b"k", 3, resolve) == (False, None)
    del current[("a", "b")]
    assert cache.lookup(b"k", 3, resolve) == (False, None)
    assert cache.stats()["invalidations"] == 2
    assert cache.stats()["hits"] == 3
    # the stale value is retained for degraded serving, not dropped
    assert len(cache) == 1
    assert cache.lookup_stale(b"k") == (True, "value")
    assert cache.stats()["stale_hits"] == 1


def test_closed_executor_rejects_queries(log):
    ex = QueryExecutor(log)
    ex.close()
    with pytest.raises(RuntimeError):
        ex.query(["a", "b"], QUERY)
    with pytest.raises(RuntimeError):
        ex.query_batch([(["a", "b"], QUERY), (["b", "c"], QUERY)])


# ----------------------------------------------------------------------
# batched execution
# ----------------------------------------------------------------------
import threading  # noqa: E402

import numpy as np  # noqa: E402

from repro.service.query import QueryOutcome  # noqa: E402


def test_readers_racing_a_replacing_writer_never_keep_a_stale_answer(log):
    """More reader threads than cores look one query up while a writer
    replaces one of its hops (and defines unrelated arrays) as fast as it
    can.  Every answer is one of the two generations', and once the writer
    stops, the cache serves the last one — a restamp or an install that
    lost a race would leave the other."""
    import sys
    import time

    path = ["a", "b", "c"]
    relations = [identity("b", "c"), shift("b", "c")]
    legal = []
    for relation in relations:
        log.add_lineage("b", "c", relation=relation, replace=True)
        legal.append(log.prov_query(path, QUERY).to_cells())
    assert legal[0] != legal[1]
    done = threading.Event()
    wrong = []

    def write():
        try:
            for i in range(60):
                log.define_array(f"unrelated{i}", SHAPE)
                log.add_lineage("b", "c", relation=relations[i % 2], replace=True)
        finally:
            done.set()

    def read():
        deadline = time.monotonic() + 30
        while not done.is_set() and time.monotonic() < deadline:
            cells = ex.query(path, QUERY).result.to_cells()
            if cells not in legal:
                wrong.append(cells)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with QueryExecutor(log) as ex:
            threads = [threading.Thread(target=read) for _ in range(6)]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not wrong
            assert ex.query(path, QUERY).result.to_cells() == legal[1]
            assert ex.query(path, QUERY).cached
    finally:
        sys.setswitchinterval(interval)


def test_batch_matches_individual(log):
    """query_batch over mixed paths is bit-identical to one query at a
    time — the executor-level face of the kernel equivalence tests."""
    requests = [
        (["a", "b"], QUERY),
        (["a", "b", "c"], QUERY),
        (["c", "b", "a"], [(0, 0)]),
        (["a", "b"], [(5, 5)]),
    ]
    with QueryExecutor(log, cache_entries=0) as ex:
        batched = ex.query_batch(requests)
        for (path, cells), got in zip(requests, batched):
            want = ex.query(path, cells).result
            assert got.result.cells.array_name == want.cells.array_name
            assert np.array_equal(got.result.cells.lo, want.cells.lo)
            assert np.array_equal(got.result.cells.hi, want.cells.hi)


def test_batch_mixed_cached_uncached_unknown(log):
    """One batch mixing a cache hit, a miss and an unknown array: the hit
    peels off before the kernel, the miss executes, and the bad request
    comes back as its own exception — never a whole-batch failure."""
    with QueryExecutor(log) as ex:
        warm = ex.query(["a", "b"], QUERY)  # prime the cache
        assert not warm.cached
        outcomes = ex.query_batch(
            [
                (["a", "b"], QUERY),
                (["a", "b", "c"], QUERY),
                (["a", "nope"], QUERY),
            ]
        )
        assert isinstance(outcomes[0], QueryOutcome) and outcomes[0].cached
        assert isinstance(outcomes[1], QueryOutcome) and not outcomes[1].cached
        assert isinstance(outcomes[2], KeyError)
        # the miss was installed: a second batch is all cache hits
        again = ex.query_batch([(["a", "b", "c"], QUERY)])
        assert again[0].cached


def test_batch_all_cached_skips_kernel(log):
    with QueryExecutor(log) as ex:
        ex.query(["a", "c"], QUERY)
        before = ex.stats()["queries"]
        outcomes = ex.query_batch([(["a", "c"], QUERY)] * 3)
        assert all(o.cached for o in outcomes)
        assert ex.stats()["queries"] == before  # no kernel work counted


def test_batch_empty_and_stats(log):
    with QueryExecutor(log) as ex:
        assert ex.query_batch([]) == []
        ex.query_batch([(["a", "b"], QUERY)])
        stats = ex.stats()
        assert stats["batches"] == 1
        assert stats["batched_queries"] == 1


def test_a_failed_request_does_not_fail_its_batch(log):
    # query_batch never raises for a request: each failure is returned in
    # its own slot, and the requests after it are still answered
    with QueryExecutor(log) as ex:
        missing, short, good = ex.query_batch(
            [(["nope", "b"], QUERY), (["a"], QUERY), (["a", "b"], QUERY)]
        )
        assert isinstance(missing, KeyError) and isinstance(short, ValueError)
        assert good.result.to_cells() == log.prov_query(["a", "b"], QUERY).to_cells()


def test_batch_racing_replace_and_compaction(tmp_path):
    """Batches racing replace=True rewrites plus compaction churn must keep
    returning consistent results — the batch pins one snapshot for all of
    its queries, so segment retirement can't yank tables mid-pass."""
    log = DSLog(tmp_path / "db", num_shards=4)
    build_chain(log, ["a", "b", "c"])
    expected = log.prov_query(["a", "b", "c"], QUERY).count_cells()
    stop = threading.Event()
    errors = []

    def churn():
        while not stop.is_set():
            try:
                log.add_lineage("a", "b", relation=identity("a", "b"), replace=True)
                log.compact()
            except Exception as error:  # pragma: no cover - fail below
                errors.append(error)
                return

    thread = threading.Thread(target=churn)
    thread.start()
    try:
        with QueryExecutor(log, cache_entries=0) as ex:
            for _ in range(15):
                results = [outcome.result for outcome in ex.query_batch(
                    [(["a", "b", "c"], QUERY), (["c", "b", "a"], QUERY)]
                )]
                assert [r.count_cells() for r in results] == [expected, expected]
    finally:
        stop.set()
        thread.join()
        log.close()
    assert not errors
