"""One random history, three stores, one oracle.

A drawn history of define / add / ``replace=True`` / sync / compact /
close+``DSLog.load`` steps is applied side by side to a memory log, a
one-shard durable log and a four-shard durable log.  After every step,
every stored one- and two-hop path is asked through ``DSLog.prov_query``,
``QueryExecutor.query`` and ``QueryExecutor.query_batch`` on each of the
three, and every answer must equal ``query_path_reference`` over the
uncompressed relations.  The executors live as long as their log object
does, so a result cached before a mutation must be seen stale after it.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DSLog
from repro.core.reference import query_path_reference
from repro.core.relation import LineageRelation
from repro.service.query import QueryExecutor

SHAPES = {"X0": (4,), "X1": (3, 2), "X2": (5,), "X3": (2, 2)}
NAMES = sorted(SHAPES)


@st.composite
def add_step(draw):
    src, dst = draw(st.permutations(NAMES))[:2]
    in_shape, out_shape = SHAPES[src], SHAPES[dst]
    pairs = draw(
        st.lists(
            st.tuples(
                st.tuples(*(st.integers(0, d - 1) for d in out_shape)),
                st.tuples(*(st.integers(0, d - 1) for d in in_shape)),
            ),
            max_size=12,
        )
    )
    return ("add", src, dst, pairs)


HISTORY = st.lists(
    st.one_of(add_step(), st.sampled_from([("sync",), ("compact",), ("reopen",)])),
    min_size=1,
    max_size=7,
)


class Side:
    """One log under test plus the executor reading it."""

    def __init__(self, root, num_shards):
        self.root, self.num_shards = root, num_shards
        self.log = DSLog(root, num_shards=num_shards, autosync=False) if root else DSLog()
        self.executor = QueryExecutor(self.log)

    def apply(self, step, model):
        kind = step[0]
        if kind == "add":
            _, src, dst, pairs = step
            for name in (src, dst):  # define on first use (idempotent after)
                self.log.define_array(name, SHAPES[name])
            relation = LineageRelation.from_pairs(
                pairs, SHAPES[dst], SHAPES[src], in_name=src, out_name=dst
            )
            self.log.add_lineage(src, dst, relation=relation, replace=(src, dst) in model)
        elif self.root is None:
            return  # sync / compact / reopen mean nothing to a memory log
        elif kind == "sync":
            self.log.sync()
        elif kind == "compact":
            self.log.compact()
        elif kind == "reopen":
            self.close()
            self.log = DSLog.load(self.root, autosync=False)
            assert self.log.store.num_shards == self.num_shards
            self.executor = QueryExecutor(self.log)

    def close(self):
        self.executor.close()
        self.log.close()


def stored_paths(model):
    """Every one-hop path (both directions) and every two-hop path through
    stored entries, each with its ``(relation, direction)`` hops."""
    hops = {}
    for (src, dst), relation in model.items():
        hops[(src, dst)] = (relation, "forward")
        hops[(dst, src)] = (relation, "backward")
    paths = [([a, b], [hop]) for (a, b), hop in hops.items()]
    for (a, b), first in hops.items():
        for (b2, c), second in hops.items():
            if b2 == b and c != a:
                paths.append(([a, b, c], [first, second]))
    return paths


def check(sides, model, cells_of):
    requests, expected = [], []
    for path, hops in stored_paths(model):
        # the same cells every time a path is asked: a later step re-issues
        # the exact query an earlier one cached
        cells = cells_of[path[0]]
        requests.append((path, cells))
        relations, directions = zip(*hops)
        expected.append(query_path_reference(relations, directions, cells))
    for side in sides:
        label = f"num_shards={side.num_shards}"
        for (path, cells), want in zip(requests, expected):
            assert side.log.prov_query(path, cells).to_cells() == want, (label, path)
            assert side.executor.query(path, cells).result.to_cells() == want, (label, path)
        batch = side.executor.query_batch(requests)
        assert [outcome.result.to_cells() for outcome in batch] == expected, label


@settings(max_examples=25, deadline=None)
@given(HISTORY, st.integers(0, 2**16))
def test_every_store_answers_like_the_oracle(history, seed):
    rng = np.random.default_rng(seed)
    cells_of = {
        name: [tuple(int(rng.integers(0, d)) for d in shape) for _ in range(3)]
        for name, shape in SHAPES.items()
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = [Side(None, None), Side(Path(tmp) / "one", 1), Side(Path(tmp) / "four", 4)]
        model = {}
        try:
            for step in history:
                if step[0] == "add" and (step[2], step[1]) in model:
                    continue  # both orientations of one pair: ambiguous by design
                for side in sides:
                    side.apply(step, model)
                if step[0] == "add":
                    _, src, dst, pairs = step
                    model[(src, dst)] = LineageRelation.from_pairs(
                        pairs, SHAPES[dst], SHAPES[src], in_name=src, out_name=dst
                    )
                check(sides, model, cells_of)
        finally:
            for side in sides:
                side.close()
        # what the history left on disk is what a fresh session sees
        for side in sides[1:]:
            reopened = Side(side.root, side.num_shards)
            try:
                versions = {
                    pair: reopened.log.catalog.entry(*pair).version for pair in model
                }
                assert versions == {
                    pair: sides[0].log.catalog.entry(*pair).version for pair in model
                }
                check([reopened], model, cells_of)
            finally:
                reopened.close()
