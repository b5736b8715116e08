"""A batch is one plan: whatever paths its requests take, each distinct hop
table hydrates once and each (table, direction) is joined in one kernel
pass, and every request still gets exactly the answer it gets alone.

* Randomised: catalogs with a chain, a fork and a diamond, and batches that
  mix both directions, overlapping sub-paths, graph-planned two-array paths
  (a diamond's is a union), paths that go empty midway, duplicates and bad
  requests.  Every outcome equals the request run alone — boxes bit for
  bit, ``HopStats`` counts equal — and its cells equal
  ``query_path_reference`` over the uncompressed relations.
* Counted: one kernel pass per (entry, direction), one decode per distinct
  entry with a table cache that keeps nothing, and the trace tags that
  report both.
* Faults: a shard whose reads fail stops only the requests that need it,
  and its breaker counts the batch once.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.query as query_mod
from repro import DSLog, FaultPlan, QueryExecutor, ShardUnavailable
from repro.core.reference import query_path_reference
from repro.core.relation import LineageRelation
from repro.obs import tracing
from repro.storage.sharded import shard_index

SHAPE = (4,)
CELLS = [(c,) for c in range(SHAPE[0])]
# a chain A -> B -> C -> D -> F, a fork at B (B -> E), and a diamond
# B -> {C, E} -> D, so B..D is a two-path union when graph-planned
EDGES = [("A", "B"), ("B", "C"), ("C", "D"), ("D", "F"), ("B", "E"), ("E", "D")]
NAMES = sorted({name for edge in EDGES for name in edge})
EXPLICIT = [
    ["A", "B", "C", "D", "F"], ["F", "D", "C", "B", "A"],  # the whole chain, both ways
    ["B", "C", "D"], ["C", "D"], ["D", "C", "B"], ["C", "B"],  # overlapping sub-paths
    ["A", "B", "E", "D", "F"], ["F", "D", "E", "B"], ["E", "B", "C"],  # the fork
    ["C", "B", "C"], ["D", "E", "D", "C"],  # paths that revisit an entry
]
PLANNED = [["B", "D"], ["D", "B"], ["A", "D"], ["F", "A"], ["A", "F"]]
BAD = [["A", "nope"], ["A"], ["A", "C", "D"], ["F", "A", "B"]]


def relation(src, dst, pairs):
    return LineageRelation.from_pairs(pairs, SHAPE, SHAPE, in_name=src, out_name=dst)


def reference(relations, log, path, cells):
    """The brute-force answer over every path the planner runs."""
    found = set()
    for planned in log.plan_paths(path):
        hops = [
            ((a, b), "forward") if (a, b) in relations else ((b, a), "backward")
            for a, b in zip(planned, planned[1:])
        ]
        found |= query_path_reference(
            [relations[pair] for pair, _ in hops], [d for _, d in hops], cells
        )
    return found


def comparable(outcome):
    if isinstance(outcome, BaseException):
        return type(outcome)
    result = outcome.result
    hops = [
        (h.array_from, h.array_to, h.rows_scanned, h.boxes_in, h.boxes_out_raw, h.boxes_out_merged)
        for h in result.hops
    ]
    cells = result.cells
    return cells.array_name, cells.shape, cells.lo.tolist(), cells.hi.tolist(), hops


PAIRS = st.lists(st.tuples(st.sampled_from(CELLS), st.sampled_from(CELLS)), max_size=6)
REQUEST = st.tuples(
    st.sampled_from(EXPLICIT + PLANNED + BAD),
    st.lists(st.sampled_from(CELLS), max_size=3),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(PAIRS, min_size=len(EDGES), max_size=len(EDGES)),
    st.lists(REQUEST, min_size=1, max_size=14),
    st.booleans(),
)
def test_mixed_batch_answers_like_each_request_alone(edge_pairs, requests, merge):
    # sparse random relations: some paths die midway, some cells have no lineage
    relations = {(a, b): relation(a, b, pairs) for (a, b), pairs in zip(EDGES, edge_pairs)}
    log = DSLog()
    for name in NAMES:
        log.define_array(name, SHAPE)
    for (a, b), rel in relations.items():
        log.add_lineage(a, b, relation=rel)
    dupes = requests[:2]
    requests = requests + dupes  # duplicates ride along
    with QueryExecutor(log, cache_entries=0) as ex:
        batch = ex.query_batch(requests, merge=merge)
        for (path, cells), outcome in zip(requests, batch):
            try:
                alone = ex.query(path, cells, merge=merge)
            except Exception as error:  # noqa: BLE001 - compared by type
                alone = error
            assert comparable(outcome) == comparable(alone), path
            if not isinstance(alone, BaseException):
                assert outcome.result.to_cells() == reference(relations, log, path, cells)
    assert [comparable(o) for o in batch[len(requests) - len(dupes) :]] == [
        comparable(o) for o in batch[: len(dupes)]
    ]


# ----------------------------------------------------------------------
# counts: kernel passes, decodes, trace tags
# ----------------------------------------------------------------------
def identity(src, dst):
    return relation(src, dst, [(cell, cell) for cell in CELLS])


def build(log, edges):
    for name in sorted({n for edge in edges for n in edge}):
        log.define_array(name, SHAPE)
    for a, b in edges:
        log.add_lineage(a, b, relation=identity(a, b))


@pytest.fixture
def counted_passes(monkeypatch):
    """Every kernel pass as ``(stored pair, inverse)``."""
    passes = []
    kernel = query_mod._theta_join_batch_raw

    def counted(table, lo, hi, qid, inverse=False, stats=None):
        passes.append(((table.in_name, table.out_name), inverse))
        return kernel(table, lo, hi, qid, inverse, stats)

    monkeypatch.setattr(query_mod, "_theta_join_batch_raw", counted)
    return passes


def test_an_entry_crossed_by_k_paths_gets_one_pass_per_direction(counted_passes):
    log = DSLog()
    build(log, EDGES)
    # (A, B) is crossed backward from B by four different paths and forward
    # by three; (B, C) both ways by several; the planned B..D is a diamond
    requests = [
        (["B", "A"], [(1,)]),
        (["C", "B", "A"], [(2,)]),
        (["D", "C", "B", "A"], [(3,)]),
        (["F", "D", "E", "B", "A"], [(0,)]),
        (["A", "B"], [(1,)]),
        (["A", "B", "C"], [(2,)]),
        (["A", "B", "E", "D"], [(3,)]),
        (["B", "D"], [(0,)]),
    ]
    with QueryExecutor(log, cache_entries=0) as ex:
        outcomes = ex.query_batch(requests)
        batch_passes = list(counted_passes)
        counted_passes.clear()
        alone = [ex.query(path, cells) for path, cells in requests]
    assert [comparable(o) for o in outcomes] == [comparable(o) for o in alone]
    assert sorted(batch_passes) == sorted(set(batch_passes))  # no node twice
    assert batch_passes.count((("A", "B"), False)) == 1
    assert batch_passes.count((("A", "B"), True)) == 1
    # alone, every hop of every planned path is a pass of its own
    assert len(counted_passes) == sum(len(o.result.hops) for o in alone)
    assert len(batch_passes) < len(counted_passes)


def test_each_distinct_entry_decodes_once_with_a_cache_that_keeps_nothing(tmp_path):
    log = DSLog(tmp_path / "db", num_shards=2, autosync=False, cache_bytes=2)
    build(log, EDGES)
    log.sync()
    log.store.cache.clear()
    requests = [(path, [(1,)]) for path in EXPLICIT + PLANNED]
    entries = {
        log.catalog.entry_between(a, b)[0].token
        for path, _ in requests
        for planned in log.plan_paths(path)
        for a, b in zip(planned, planned[1:])
    }
    with QueryExecutor(log, cache_entries=0) as ex:
        before = log.store.tables_deserialized
        outcomes = ex.query_batch(requests)
        assert log.store.tables_deserialized - before == len(entries)
        assert len(log.store.cache) == 0
        for (path, cells), outcome in zip(requests, outcomes):
            assert comparable(outcome) == comparable(ex.query(path, cells))
    log.close()


def test_join_and_prefetch_spans_report_the_plan(counted_passes):
    log = DSLog()
    build(log, EDGES)
    requests = [
        (["C", "B", "A"], [(1,)]),
        (["B", "A"], [(2,)]),
        (["B", "D"], [(3,)]),  # planned: two streams
        (["A", "nope"], [(0,)]),  # refused before planning
    ]
    trace = tracing.start_trace("test")
    try:
        with QueryExecutor(log, cache_entries=0) as ex:
            ex.query_batch(requests)
    finally:
        trace.finish()
        tracing._CURRENT.set(None)
    spans = trace.as_dict()["spans"]
    [join] = [s for s in spans if s["name"] == "join"]
    [prefetch] = [s for s in spans if s["name"] == "prefetch"]
    assert join["tags"]["queries"] == 3
    assert join["tags"]["streams"] == 4
    assert join["tags"]["passes"] == len(counted_passes) == len(set(counted_passes))
    # (B, C) and (A, B) serve the explicit paths; the diamond adds three
    assert prefetch["tags"]["tables"] == 5


# ----------------------------------------------------------------------
# fault containment
# ----------------------------------------------------------------------
def pair_on(shard, prefix):
    for i in range(10_000):
        a, b = f"{prefix}{i}_in", f"{prefix}{i}_out"
        if shard_index(a, b, 2) == shard:
            return a, b
    raise AssertionError("no pair found")


def test_a_faulted_shard_stops_only_the_requests_that_need_it(tmp_path):
    plan = FaultPlan()
    log = DSLog(tmp_path / "db", num_shards=2, autosync=False, faults=plan)
    (u, v), (w, x) = pair_on(0, "u"), pair_on(0, "w")
    (p, q), (r, s) = pair_on(1, "p"), pair_on(1, "r")
    build(log, [(u, v), (w, x), (p, q), (r, s)])
    log.sync()
    with QueryExecutor(log) as ex:
        primed = ex.query([p, q], [(1,)])
        # invalidate the primed answer, then make shard 1's disk unreadable
        log.add_lineage(p, q, relation=identity(p, q), replace=True)
        log.sync()
        plan.on("segment.read", scope="shard-01", kind="error", every=1)
        plan.on("segment.mmap", scope="shard-01", kind="error", every=1)
        log.store.cache.clear(scope="shard-01")
        plan.arm()
        requests = [
            ([u, v], [(1,)]),  # shard 0
            ([p, q], [(1,)]),  # shard 1, stale answer cached
            ([v, u], [(2,)]),  # shard 0
            ([r, s], [(3,)]),  # shard 1, never cached
            ([s, r], [(0,)]),  # shard 1, never cached
            ([w, x], [(2,)]),  # shard 0
            ([u, v, w], [(1,)]),  # a planning error: no entry links v and w
        ]
        try:
            outcomes = ex.query_batch(requests)
        finally:
            plan.disarm()
        assert ex.breaker_stats()[1]["consecutive_failures"] == 1
        assert 0 not in ex.breaker_stats() or ex.breaker_stats()[0]["consecutive_failures"] == 0
    fresh = [outcomes[i] for i in (0, 2, 5)]
    assert all(not o.cached and not o.degraded for o in fresh)
    assert [o.result.to_cells() for o in fresh] == [{(1,)}, {(2,)}, {(2,)}]
    degraded = outcomes[1]
    assert degraded.degraded and degraded.result.to_cells() == primed.result.to_cells()
    for outcome in (outcomes[3], outcomes[4]):
        assert isinstance(outcome, (OSError, ShardUnavailable)), outcome
    assert isinstance(outcomes[6], KeyError)
    log.close()


def test_a_tripped_breaker_gates_only_its_groups(tmp_path):
    log = DSLog(tmp_path / "db", num_shards=2, autosync=False)
    (u, v), (p, q) = pair_on(0, "u"), pair_on(1, "p")
    build(log, [(u, v), (p, q)])
    log.sync()
    with QueryExecutor(log, cache_entries=0) as ex:
        for _ in range(3):  # the breaker trips on its third consecutive fault
            ex._breaker(1).record_failure()
        ok, refused = ex.query_batch([([u, v], [(1,)]), ([p, q], [(1,)])])
    assert ok.result.to_cells() == {(1,)} and not ok.degraded
    assert isinstance(refused, ShardUnavailable) and refused.shard == 1
    log.close()
