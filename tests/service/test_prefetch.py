"""``QueryExecutor._resolve_tables``: the pool is for deadlines, not for
every query.  Resident tables cost no thread hop, cold shards hydrate on
the calling thread, and a deadline puts every cold shard on the pool so a
stall is a ``DeadlineExceeded`` naming the shard.  Whatever the route,
each hop's table is loaded once and the join runs on that object — the
table cache may keep none of them."""

import time

import pytest

from repro import DeadlineExceeded, DSLog, FaultPlan, QueryExecutor
from repro.capture.analytic import elementwise_lineage
from repro.obs import tracing
from repro.storage.sharded import shard_index

SHAPE = (4,)
QUERY = [(1,)]
NUM_SHARDS = 2


def two_shard_paths(count):
    """*count* disjoint name chains ``x -> y -> z`` whose hops are homed on
    shard 0 and shard 1."""
    paths = []
    for i in range(10_000):
        names = [f"x{i}", f"y{i}", f"z{i}"]
        homes = [shard_index(a, b, NUM_SHARDS) for a, b in zip(names, names[1:])]
        if homes == [0, 1]:
            paths.append(names)
            if len(paths) == count:
                return paths
    raise AssertionError("not enough paths found")


def two_shard_path():
    return two_shard_paths(1)[0]


class Harness:
    """A two-shard catalog, an uncached executor and a count of pool submits."""

    def __init__(self, root):
        self.plan = FaultPlan()
        self.log = DSLog(
            root, num_shards=NUM_SHARDS, autosync=False, faults=self.plan
        )
        self.path = two_shard_path()
        for name in self.path:
            self.log.define_array(name, SHAPE)
        for a, b in zip(self.path, self.path[1:]):
            self.log.add_lineage(a, b, relation=elementwise_lineage(SHAPE, in_name=a, out_name=b))
        self.log.sync()
        self.executor = QueryExecutor(self.log, cache_entries=0)
        self.submits = 0
        submit = self.executor._pool.submit

        def counting_submit(*args, **kwargs):
            self.submits += 1
            return submit(*args, **kwargs)

        self.executor._pool.submit = counting_submit

    def evict(self, *shards):
        for shard in shards:
            self.log.store.cache.clear(scope=f"shard-{shard:02d}")

    def resident(self):
        """Per hop: is its table in the table cache?"""
        catalog = self.log.catalog
        return [
            catalog.entry_between(a, b)[0].is_resident()
            for a, b in zip(self.path, self.path[1:])
        ]

    def close(self):
        self.executor.close()
        self.log.close()


@pytest.fixture
def harness(tmp_path):
    h = Harness(tmp_path / "db")
    yield h
    h.close()


def test_resident_tables_never_reach_the_pool(harness):
    assert harness.resident() == [True, True]
    for deadline in (None, 5.0):
        outcome = harness.executor.query(harness.path, QUERY, deadline=deadline)
        assert outcome.result.to_cells() == {(1,)}
    assert harness.submits == 0
    assert harness.executor.stats()["parallel_loads"] == 0


def test_two_cold_shards_hydrate_on_the_calling_thread(harness):
    harness.evict(0, 1)
    assert harness.resident() == [False, False]
    assert harness.executor.query(harness.path, QUERY).result.to_cells() == {(1,)}
    assert harness.submits == 0
    assert harness.executor.stats()["parallel_loads"] == 0
    assert harness.resident() == [True, True]


def test_one_cold_shard_hydrates_on_the_calling_thread(harness):
    harness.evict(1)
    assert harness.resident() == [True, False]
    assert harness.executor.query(harness.path, QUERY).result.to_cells() == {(1,)}
    assert harness.submits == 0
    assert harness.executor.stats()["parallel_loads"] == 0
    assert harness.resident() == [True, True]


def test_one_cold_shard_with_a_deadline_is_awaited_against_the_budget(harness):
    # within budget: the cold shard alone goes to the pool
    harness.evict(1)
    outcome = harness.executor.query(harness.path, QUERY, deadline=5.0)
    assert outcome.result.to_cells() == {(1,)}
    assert harness.submits == 1
    assert harness.executor.stats()["parallel_loads"] == 1
    # stalled: the deadline fires and names the shard, the warm one untouched
    harness.evict(1)
    harness.plan.on("segment.read", scope="shard-01", kind="stall", every=1, seconds=0.5)
    harness.plan.arm()
    try:
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded) as excinfo:
            harness.executor.query(harness.path, QUERY, deadline=0.05)
        assert time.monotonic() - start < 0.5  # did not ride out the stall
    finally:
        harness.plan.disarm()
    assert excinfo.value.shard == 1
    assert harness.submits == 2
    assert harness.executor.stats()["deadline_misses"] == 1


def test_residency_probe_moves_no_cache_counter(harness):
    harness.evict(1)
    [before] = harness.log.store.cache_stats()
    assert harness.resident() == [True, False]
    assert harness.log.store.cache_stats() == [before]
    # the warm hop is one hit, the cold one the one counted miss: telling
    # them apart cost no lookup of its own
    harness.executor.query(harness.path, QUERY)
    [after] = harness.log.store.cache_stats()
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"] + 1
    assert harness.resident() == [True, True]


@pytest.mark.parametrize("cold", [(), (1,), (0, 1)])
def test_traced_query_records_one_span_per_home_shard(harness, cold):
    harness.evict(*cold)
    trace = tracing.start_trace("test")
    try:
        harness.executor.query(harness.path, QUERY)
    finally:
        trace.finish()
        tracing._CURRENT.set(None)
    shard_spans = [s for s in trace.as_dict()["spans"] if s["name"] == "prefetch-shard"]
    # the span says how many tables the shard had to hydrate
    assert {s["tags"]["shard"]: s["tags"]["tables"] for s in shard_spans} == {
        shard: int(shard in cold) for shard in (0, 1)
    }


def test_traced_resolve_loads_what_an_untraced_one_does(harness):
    # a cold shard stays off the pool with a trace active as well
    harness.evict(1)
    trace = tracing.start_trace("test")
    _, [entries] = harness.executor._plan(harness.path)
    try:
        tables, failed = harness.executor._resolve_tables({id(entry): entry for entry in entries})
    finally:
        trace.finish()
        tracing._CURRENT.set(None)
    assert not failed
    assert [tables[id(entry)].in_name for entry in entries] == harness.path[:2]
    assert harness.resident() == [True, True]
    assert harness.submits == 0


def test_batch_larger_than_the_cache_hydrates_each_table_once(tmp_path):
    # three path groups, two tables each, and a table cache too small to
    # keep any of them: a join that went back to the cache for the tables
    # its prefetch loaded would hydrate every one a second time
    paths = two_shard_paths(3)
    log = DSLog(
        tmp_path / "db", num_shards=NUM_SHARDS, autosync=False,
        cache_bytes=NUM_SHARDS,  # two bytes: no table fits
    )
    for path in paths:
        for name in path:
            log.define_array(name, SHAPE)
        for a, b in zip(path, path[1:]):
            log.add_lineage(a, b, relation=elementwise_lineage(SHAPE, in_name=a, out_name=b))
    log.sync()
    log.store.cache.clear()
    with QueryExecutor(log, cache_entries=0) as executor:
        before = sum(s["misses"] for s in log.store.cache_stats())
        outcomes = executor.query_batch([(path, QUERY) for path in paths])
        hydrations = sum(s["misses"] for s in log.store.cache_stats()) - before
    assert [o.result.to_cells() for o in outcomes] == [{(1,)}] * len(paths)
    assert hydrations == 2 * len(paths)
    log.close()


def test_single_query_over_the_budget_hydrates_each_table_once(tmp_path):
    # the single-query twin: both shards cold (both loads run on the
    # calling thread) and both tables over budget (the cache keeps neither)
    path = two_shard_path()
    log = DSLog(
        tmp_path / "db", num_shards=NUM_SHARDS, autosync=False,
        cache_bytes=NUM_SHARDS,
    )
    for name in path:
        log.define_array(name, SHAPE)
    for a, b in zip(path, path[1:]):
        log.add_lineage(a, b, relation=elementwise_lineage(SHAPE, in_name=a, out_name=b))
    log.sync()
    assert len(log.store.cache) == 0
    with QueryExecutor(log, cache_entries=0) as executor:
        [before] = log.store.cache_stats()
        outcome = executor.query(path, QUERY)
        [after] = log.store.cache_stats()
        assert executor.stats()["parallel_loads"] == 0
    assert outcome.result.to_cells() == {(1,)}
    assert after["misses"] - before["misses"] == 2
    assert after["hits"] == before["hits"]
    assert after["bytes"] == 0 and len(log.store.cache) == 0
    log.close()
