"""The result cache under random write histories: always the uncached
answer, and stale only where a write reached.

A drawn history of ``add_lineage`` (new edges and ``replace=True`` of
stored ones), ``register_operation`` and ``define_array`` steps is applied
to a memory log and a four-shard log.  The arrays form a DAG over a stored
chain ``N0 → N1 → N2 → N3``, so a new edge can make a graph-planned
two-array query shorter (``N0 → N2``) or give it a second equally short
path (a diamond, whose answer is a union).  After every step every
one-hop, explicit multi-hop (forward, backward, mixed) and graph-planned
query is asked through ``query`` and ``query_batch`` of a caching executor,
and its boxes must equal those of a ``cache_entries=0`` executor and the
cells of ``query_path_reference`` over the uncompressed relations.

The ``cached`` flag is checked against a model of what each answer was
computed from — the planned paths and how often each hop's pair had been
ingested: a step that touched no hop of a cached query (and did not change
its plan) leaves it ``cached=True``; one that did makes it a miss, counted
as an invalidation.
"""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import DSLog
from repro.core.reference import query_path_reference
from repro.core.relation import LineageRelation
from repro.service.query import QueryExecutor

SHAPE = (4,)
NAMES = [f"N{i}" for i in range(5)]
CHAIN = NAMES[:4]
CELLS = {name: [((i + 1) % 4,), (3,)] for i, name in enumerate(NAMES)}
PAIRS = st.lists(st.tuples(st.tuples(st.integers(0, 3)), st.tuples(st.integers(0, 3))), max_size=8)


@st.composite
def edge_step(draw):
    # edges only ever point from a lower to a higher index: a DAG, and no
    # pair is ever stored in both orientations
    i, j = sorted(draw(st.lists(st.integers(0, len(NAMES) - 1), min_size=2, max_size=2, unique=True)))
    return (draw(st.sampled_from(["add", "op"])), NAMES[i], NAMES[j], draw(PAIRS))


HISTORY = st.lists(
    st.one_of(edge_step(), st.tuples(st.just("define"), st.integers(0, 3))),
    min_size=1,
    max_size=5,
)
IDENTITY = [((i,), (i,)) for i in range(4)]
SHIFT = [((i,), ((i + 1) % 4,)) for i in range(4)]


def relation(src, dst, pairs):
    return LineageRelation.from_pairs(pairs, SHAPE, SHAPE, in_name=src, out_name=dst)


class Model:
    """The uncompressed relations, and how often each pair was ingested."""

    def __init__(self):
        self.relations = {}
        self.ingests = {}

    def ingest(self, src, dst, pairs):
        self.relations[(src, dst)] = relation(src, dst, pairs)
        self.ingests[(src, dst)] = self.ingests.get((src, dst), 0) + 1

    def hop(self, a, b):
        """``(pair, direction)`` of the stored entry linking *a* and *b*."""
        return ((a, b), "forward") if (a, b) in self.relations else ((b, a), "backward")

    def linked(self, a, b):
        return (a, b) in self.relations or (b, a) in self.relations

    def plan(self, path):
        """The paths a query along *path* runs: itself, or for a two-array
        path with no entry every shortest chain of edges — along them if
        there is one, else against them."""
        if len(path) > 2 or self.linked(*path):
            return [tuple(path)]
        src, dst = path
        for edges in (set(self.relations), {(b, a) for a, b in self.relations}):
            frontier = [(src,)]
            while frontier:
                done = [p for p in frontier if p[-1] == dst]
                if done:
                    return done
                frontier = [p + (b,) for p in frontier for a, b in edges if a == p[-1]]
        return []

    def answer(self, path, cells):
        found = set()
        for planned in self.plan(path):
            hops = [self.hop(a, b) for a, b in zip(planned, planned[1:])]
            found |= query_path_reference(
                [self.relations[pair] for pair, _ in hops], [d for _, d in hops], cells
            )
        return found

    def computed_from(self, path):
        return {
            planned: tuple(self.ingests[self.hop(a, b)[0]] for a, b in zip(planned, planned[1:]))
            for planned in self.plan(path)
        }

    def requests(self):
        oriented = [(a, b) for a, b in self.relations] + [(b, a) for a, b in self.relations]
        paths = [[a, b] for a, b in oriented]
        paths += [[a, b, c] for a, b in oriented for b2, c in oriented if b2 == b and c != a]
        paths += [CHAIN, CHAIN[::-1]]
        paths += [
            [a, b] for a in NAMES for b in NAMES
            if a != b and not self.linked(a, b) and self.plan([a, b])
        ]
        return [(path, CELLS[path[0]]) for path in paths]


class Side:
    def __init__(self, root):
        self.log = DSLog(root, num_shards=4, autosync=False) if root else DSLog()
        self.cached = QueryExecutor(self.log, cache_entries=1024)
        self.uncached = QueryExecutor(self.log, cache_entries=0)
        self.steps = 0

    def apply(self, step):
        self.steps += 1
        if step[0] == "define":
            self.log.define_array(f"Z{step[1]}", SHAPE)
            return
        kind, src, dst, pairs = step
        replace = (src, dst) in {(e.in_name, e.out_name) for e in self.log.catalog.entries()}
        if kind == "add":
            self.log.add_lineage(src, dst, relation=relation(src, dst, pairs), replace=replace)
        else:
            self.log.register_operation(
                f"op{self.steps}", [src], [dst],
                relations={(src, dst): relation(src, dst, pairs)}, reuse=False, replace=replace,
            )

    def close(self):
        self.cached.close()
        self.uncached.close()
        self.log.close()


def boxes(result):
    return result.cells.array_name, result.cells.lo.tolist(), result.cells.hi.tolist()


def check(sides, model, seen):
    requests = model.requests()
    expected = [model.answer(path, cells) for path, cells in requests]
    now = [model.computed_from(path) for path, _ in requests]
    fresh = [seen.get(tuple(path)) == deps for (path, _), deps in zip(requests, now)]
    stale = sum(tuple(path) in seen and not hit for (path, _), hit in zip(requests, fresh))
    for side in sides:
        invalidations = side.cached.stats()["cache"]["invalidations"]
        for (path, cells), want, hit in zip(requests, expected, fresh):
            got = side.cached.query(path, cells)
            assert got.cached is hit and not got.degraded, (path, seen.get(tuple(path)))
            assert got.result.to_cells() == want, path
            assert boxes(got.result) == boxes(side.uncached.query(path, cells).result), path
        assert side.cached.stats()["cache"]["invalidations"] == invalidations + stale
        batch = side.cached.query_batch(requests)
        assert all(outcome.cached for outcome in batch)
        assert [outcome.result.to_cells() for outcome in batch] == expected
        assert [boxes(o.result) for o in batch] == [
            boxes(o.result) for o in side.uncached.query_batch(requests)
        ]
    seen.update((tuple(path), deps) for (path, _), deps in zip(requests, now))


@settings(max_examples=20, deadline=None)
@given(history=HISTORY)
@example(
    history=[
        ("define", 0),                    # touches no query at all
        ("add", "N0", "N2", IDENTITY),    # (N0, N3) now plans through N2: shorter
        ("op", "N1", "N3", SHIFT),        # ... and through N1 as well: a diamond
        ("add", "N1", "N3", IDENTITY),    # one arm of the diamond replaced
        ("add", "N0", "N3", SHIFT),       # a direct entry: no longer planned
    ]
)
def test_cached_answers_are_the_uncached_ones_and_stale_only_where_written(history):
    with tempfile.TemporaryDirectory() as tmp:
        sides = [Side(None), Side(Path(tmp) / "sharded")]
        model, seen = Model(), {}
        try:
            for side in sides:
                for name in NAMES:
                    side.log.define_array(name, SHAPE)
            for src, dst in zip(CHAIN, CHAIN[1:]):
                model.ingest(src, dst, SHIFT)
                for side in sides:
                    side.apply(("add", src, dst, SHIFT))
            check(sides, model, seen)
            for step in history:
                if step[0] != "define":
                    model.ingest(*step[1:])
                for side in sides:
                    side.apply(step)
                check(sides, model, seen)
        finally:
            for side in sides:
                side.close()


def test_the_example_history_exercises_shorter_and_diamond_plans():
    model = Model()
    for src, dst in zip(CHAIN, CHAIN[1:]):
        model.ingest(src, dst, SHIFT)
    assert model.plan(["N0", "N3"]) == [("N0", "N1", "N2", "N3")]
    model.ingest("N0", "N2", IDENTITY)
    assert model.plan(["N0", "N3"]) == [("N0", "N2", "N3")]
    model.ingest("N1", "N3", SHIFT)
    assert sorted(model.plan(["N0", "N3"])) == [("N0", "N1", "N3"), ("N0", "N2", "N3")]
    assert sorted(model.plan(["N3", "N0"])) == [("N3", "N1", "N0"), ("N3", "N2", "N0")]
