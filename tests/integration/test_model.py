"""One stateful model of the lineage store: every store, every way in, both
wires, one oracle.

:class:`LineageModel` is a Hypothesis ``RuleBasedStateMachine``.  Its state
is the uncompressed relations, what each entry's installs were (version,
reuse flag) and a planner model that knows every shortest stored path; its
oracle is :func:`~repro.core.reference.query_path_reference` over those
relations.  Three *sides* take every write:

* ``memory`` — ``DSLog()``;
* ``one-shard`` — ``DSLog(root, num_shards=1, autosync=False)``;
* ``sharded`` — a four-shard log written through a ``LineageService``
  while ``faults.clock`` is frozen, so its tickets turn durable only at the
  ``commit`` rule (the committer's first window is due at once: the write
  that finds it open is flushed on the spot).  The ``fixture`` start opens
  this side on an upgraded copy of ``tests/tools/fixtures/parent_sharded``
  (two shards) and replays the history it was written from into the other
  two.

Each side is read through ``DSLog.prov_query``, a caching
``QueryExecutor``, a ``cache_entries=0`` executor and, on the sharded side,
both wires of one ``LineageServer(port=0, rpc_port=0)``.

Rules: define; add (new and ``replace=True``); ``register_operation`` with
reuse on repeated shapes (a repeat stores the first call's table); a
self-loop every side refuses with its catalog unchanged; sync; compact;
``scrub(repair=True)`` of an undamaged store; close + ``DSLog.load``;
snapshot; commit; trip and heal one shard's breakers; query and
query_batch with ``merge`` drawn (cells or slices, valid or not); the graph
endpoints.  After every rule:

* every reader returns the oracle's cells, every entry has the model's
  version, and an open snapshot answers as of when it was taken;
* ``cached`` and the caching executor's counters are what the model
  predicts (a result is fresh while its planned paths and the installs of
  their hops are unchanged), and a stale answer comes back only flagged
  ``degraded=True``, from a shard whose breaker is open;
* the sharded side's tickets are durable exactly up to the last commit.

The query_batch rule also holds each batch to its requests run alone, bit
for bit (boxes, ``HopStats`` counts, error types), and both wires to each
other, word for word.  Histories the model shrank are pinned in
``PINNED`` and replayed on every run.
"""

import itertools
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro import DSLog, LineageService, QueryExecutor, ShardUnavailable, faults
from repro.core.query import CellBoxSet
from repro.core.reference import query_path_reference
from repro.core.relation import LineageRelation
from repro.service.rpc import RPCClient
from repro.service.server import LineageClient, LineageServer, LineageServerError
from repro.storage.sharded import shard_index
from repro.tools.upgrade import upgrade

FIXTURE = Path(__file__).parents[1] / "tools" / "fixtures" / "parent_sharded"
FRESH = {"X0": (4,), "X1": (3, 2), "X2": (4,), "X3": (2, 3)}
EXTRA = [("Y0", (4,)), ("Y1", (3, 2)), ("Y2", (5,))]
CACHE = 4096  # no eviction: the model cannot observe eviction order
TRIPS = 3  # a breaker opens on its third consecutive fault
ERRORS = {KeyError: (404, "not-found"), ValueError: (400, "bad-request"),
          ShardUnavailable: (503, "shard-unavailable")}
ROWS = st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=16)
# a request: (walk the stored graph?, array indices, cells as flat indices
# or one [start, stop) slice of the first axis)
REQUEST = st.tuples(
    st.booleans(),
    st.lists(st.integers(0, 15), min_size=1, max_size=4),
    st.one_of(st.lists(st.integers(0, 63), max_size=3), st.tuples(st.integers(0, 5), st.integers(0, 6))),
)


def cell_of(shape, flat):
    return tuple(int(c) for c in np.unravel_index(flat % int(np.prod(shape)), shape))


def comparable(outcome):
    """An outcome or result, bit for bit, minus what a hop's kernel pass
    shares with its batch (``seconds``, ``join_blocks``); an exception: its
    type."""
    if isinstance(outcome, BaseException):
        return type(outcome)
    result = getattr(outcome, "result", outcome)
    hops = [(h.array_from, h.array_to, h.rows_scanned, h.boxes_in, h.boxes_out_raw, h.boxes_out_merged)
            for h in result.hops]
    cells = result.cells
    return cells.array_name, cells.shape, cells.lo.tolist(), cells.hi.tolist(), hops


def stable(reply):
    """A wire reply minus what differs between two executions."""
    if isinstance(reply, (list, tuple)):
        return [stable(item) for item in reply] if isinstance(reply, list) else reply
    payload = reply if isinstance(reply, dict) else reply.to_payload()
    payload = {k: v for k, v in payload.items() if k not in ("elapsed_ms", "cached")}
    if "hops" in payload:
        payload["hops"] = [{k: v for k, v in hop.items() if k != "seconds"} for hop in payload["hops"]]
    return payload


def box_cells(boxes):
    return {tuple(int(v) for v in np.add(lo, offset))
            for lo, hi in boxes for offset in np.ndindex(*np.subtract(hi, lo) + 1)}


def closure(name, edges):
    """Hop distances from *name* along *edges* (``LineageGraph._closure``)."""
    dist, frontier, depth = {name: 0}, [name], 0
    while frontier:
        depth += 1
        frontier = sorted({b for a, b in edges if a in frontier and b not in dist})
        dist.update((b, depth) for b in frontier)
    del dist[name]
    return dist


def counters(executor):
    stats = executor.stats()
    cache = {k: stats["cache"][k] for k in ("hits", "misses", "invalidations", "stale_hits")}
    return dict(cache, queries=stats["queries"])


def ask(query, *args, **kwargs):
    """``query(*args, **kwargs)``, its exception returned rather than raised."""
    try:
        return query(*args, **kwargs)
    except Exception as error:  # noqa: BLE001 - compared by type
        return error


def over_wire(client, name, body):
    try:
        return client.call(name, body)
    except LineageServerError as error:
        return error.status, error.kind, error.message


class Request:
    """One request resolved against the model: the path, the query as the
    executor takes it, its cells, and the cache key the model expects."""

    def __init__(self, model, spec):
        walk, indices, query = spec
        names = sorted(model.shapes)
        if walk:  # a walk over stored entries, revisits allowed
            path = [names[indices[0] % len(names)]]
            for i in indices[1:]:
                linked = sorted(b for b in names if model.linked(path[-1], b))
                if linked:
                    path.append(linked[i % len(linked)])
        else:  # anything, an unknown array included
            path = [(names + ["ghost"])[i % (len(names) + 1)] for i in indices]
        self.path, self.error = path, None
        if len(path) < 2:
            self.error = ValueError
        elif "ghost" in path:
            self.error = KeyError
        if self.error is not None:
            self.query, self.cells, self.body = [], set(), {"path": path, "cells": []}
            return
        shape = model.shapes[path[0]]
        if isinstance(query, tuple):
            start, stop = query
            self.query = [slice(start, stop)]
            boxes = CellBoxSet.from_slices(path[0], shape, self.query)
            self.body = {"path": path, "slices": [[start, stop]] + [None] * (len(shape) - 1)}
            axes = [range(*self.query[0].indices(shape[0]))] + [range(d) for d in shape[1:]]
            self.cells = set(itertools.product(*axes))
        else:
            self.query = [cell_of(shape, flat) for flat in query]
            boxes = CellBoxSet.from_cells(path[0], shape, self.query)
            self.body = {"path": path, "cells": [list(cell) for cell in self.query]}
            self.cells = set(self.query)
        self.key = (tuple(path), boxes.lo.tobytes(), boxes.hi.tobytes())


class Side:
    """One store under test, how it is written, and its readers."""

    def __init__(self, name, root=None, num_shards=1, log=None):
        self.name, self.root, self.num_shards = name, root, num_shards
        if log is None:
            log = DSLog(root, num_shards=num_shards, autosync=False) if root else DSLog()
        self.log, self.service = log, LineageService(log=log, workers=1) if name == "sharded" else None
        self.cached = QueryExecutor(self.log, cache_entries=CACHE)
        self.uncached = QueryExecutor(self.log, cache_entries=0)
        self.server = self.clients = None
        if self.service is not None:
            self.server = LineageServer(self.log, port=0, rpc_port=0, cache_entries=CACHE).start()
            self.clients = [LineageClient.connect(self.server.url), RPCClient.connect(self.server.rpc_address)]
        self.snapshot = None

    def write(self, kind, *args, **kwargs):
        """One write; a refused one raises here.  The service's ticket is
        returned once applied (durable comes at the next commit)."""
        if self.service is None:
            method = self.log.add_lineage if kind == "add" else self.log.register_operation
            return method(*args, **kwargs)
        submit = self.service.submit_lineage if kind == "add" else self.service.submit
        ticket = submit(*args, **kwargs)
        self.service._queue.join()  # a worker applied it (or failed it)
        if ticket.failed:
            ticket.result(0)
        return ticket

    def close(self):
        if self.snapshot is not None:
            self.snapshot[0].close()
            self.snapshot = None
        for client in self.clients or ():
            client.close()
        if self.server is not None:
            self.server.close()
        self.cached.close()
        self.uncached.close()
        (self.service or self.log).close()


class LineageModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="dslog-model-"))
        self.sides = []
        self.clock, self.now = faults.clock, 1000.0
        faults.clock = lambda: self.now
        self.shapes, self.relations, self.versions, self.reused = {}, {}, {}, {}
        self.installs, self.reuse_bases = 0, {}
        self.pending, self.committed, self.window_open = [], [], True
        self.seen, self.counters, self.tripped = {}, {}, {}

    # -- state the rules share ------------------------------------------
    def linked(self, a, b):
        return (a, b) in self.relations or (b, a) in self.relations

    def hop(self, a, b):
        return ((a, b), "forward") if (a, b) in self.relations else ((b, a), "backward")

    def plan(self, path):
        """``DSLog.plan_paths``: the path itself, or for a two-array path
        with no entry every shortest chain of edges — along them if there
        is one, else against them; ``None`` when nothing connects."""
        if len(path) > 2 or self.linked(*path):
            if all(self.linked(a, b) for a, b in zip(path, path[1:])):
                return [tuple(path)]
            return None
        src, dst = path
        for edges in (set(self.relations), {(b, a) for a, b in self.relations}):
            frontier = [(src,)]
            while frontier:
                done = [p for p in frontier if p[-1] == dst]
                if done:
                    return done
                frontier = [p + (b,) for p in frontier for a, b in edges if a == p[-1] and b not in p]
        return None

    def answer(self, path, cells):
        found = set()
        for planned in self.plan(path):
            hops = [self.hop(a, b) for a, b in zip(planned, planned[1:])]
            found |= query_path_reference([self.relations[p] for p, _ in hops], [d for _, d in hops], cells)
        return found

    def deps(self, path):
        """What a result for *path* is computed from: the planned paths and
        the install of every hop (``None`` when it cannot be planned)."""
        planned = self.plan(path)
        if planned is None:
            return None
        return tuple((p, tuple(self.versions[self.hop(a, b)[0]][1] for a, b in zip(p, p[1:]))) for p in planned)

    def stored_requests(self):
        """Every one-hop path both ways and every planned two-array path,
        each with fixed cells: a later step re-asks what an earlier cached."""
        names = sorted(self.shapes)
        paths = [[a, b] for a in names for b in names if a != b and self.plan([a, b])]
        return [Request(self, (False, [names.index(n) for n in path], [1, 5])) for path in paths]

    # -- starts ---------------------------------------------------------
    def open_sides(self, sharded_log=None, num_shards=4):
        self.sides = [
            Side("memory"),
            Side("one-shard", self.tmp / "one", 1),
            Side("sharded", self.tmp / "sharded", num_shards, log=sharded_log),
        ]
        for side in self.sides:
            self.reset_readers(side)

    def reset_readers(self, side):
        for reader in ("cached", "uncached", "server"):
            self.seen[side.name, reader] = {}
            self.counters[side.name, reader] = dict.fromkeys(
                ("queries", "hits", "misses", "invalidations", "stale_hits"), 0)
        self.tripped[side.name] = set()

    @initialize(start=st.sampled_from(["fresh", "fixture"]))
    def begin(self, start):
        if start == "fresh":
            self.open_sides()
            for name, shape in FRESH.items():
                self.define(name, shape)
            return
        root = self.tmp / "sharded"
        shutil.copytree(FIXTURE, root)
        assert upgrade(root) is True
        self.open_sides(DSLog.load(root, autosync=False), num_shards=2)
        self.replay_fixture_history()

    def replay_fixture_history(self):
        """What ``parent_sharded`` was written from: a three-hop pipeline,
        one operation record with reuse state, one replaced entry."""
        for name, shape in (("A", (6, 3)), ("B", (6, 3)), ("C", (6,)), ("D", (6,))):
            self.define(name, shape)
        identity = [(c, c) for c in np.ndindex(6, 3)]
        row_sum = [((r,), (r, c)) for r in range(6) for c in range(3)]
        shift = [(((i + 1) % 6,), (i,)) for i in range(6)]
        for src, dst, pairs, replace in (("A", "B", identity, False), ("B", "C", row_sum, False),
                                         ("C", "D", shift, None), ("A", "B", identity, True)):
            relation = self.relation(src, dst, pairs)
            if replace is None:
                kwargs = dict(relations={(src, dst): relation}, input_data={"C": np.arange(6.0)}, op_args={"k": 1})
                for side in self.sides[:2]:
                    side.log.register_operation("shift", [src], [dst], **kwargs)
            else:
                for side in self.sides[:2]:
                    side.log.add_lineage(src, dst, relation=relation, replace=replace)
            self.install(src, dst, relation)

    # -- writes ---------------------------------------------------------
    def define(self, name, shape):
        for side in self.sides:
            (side.service or side.log).define_array(name, shape)
        self.shapes[name] = shape

    def relation(self, src, dst, pairs):
        return LineageRelation.from_pairs(pairs, self.shapes[dst], self.shapes[src], in_name=src, out_name=dst)

    def install(self, src, dst, relation, reused=False):
        self.installs += 1
        version = self.versions.get((src, dst), (0, 0))[0] + 1
        self.relations[src, dst] = relation
        self.versions[src, dst] = (version, self.installs)
        self.reused[src, dst] = reused

    def pair(self, src, dst):
        names = sorted(self.shapes)
        a, b = names[src % len(names)], names[dst % len(names)]
        if a == b:
            b = names[(dst + 1) % len(names)]
        return (b, a) if (b, a) in self.relations else (a, b)

    def write(self, kind, *args, **kwargs):
        for side in self.sides:
            ticket = side.write(kind, *args, **kwargs)
            if side.service is not None:
                self.pending.append(ticket)
                if self.window_open:  # the first window is due at once
                    self.commit()
                    self.window_open = False

    @rule(k=st.integers(0, len(EXTRA) - 1))
    def define_array(self, k):
        self.define(*EXTRA[k])

    @rule(src=st.integers(0, 15), dst=st.integers(0, 15), rows=ROWS)
    def add(self, src, dst, rows):
        src, dst = self.pair(src, dst)
        pairs = [(cell_of(self.shapes[dst], o), cell_of(self.shapes[src], i)) for o, i in rows]
        relation = self.relation(src, dst, pairs)
        self.write("add", src, dst, relation=relation, replace=(src, dst) in self.relations)
        self.install(src, dst, relation)

    @rule(src=st.integers(0, 15), dst=st.integers(0, 15), rows=ROWS)
    def register_reused(self, src, dst, rows):
        """``register_operation(reuse=True)`` under one name per shape
        pair: the first call is captured, a repeat reuses its table."""
        src, dst = self.pair(src, dst)
        op = f"op{self.shapes[src]}->{self.shapes[dst]}"
        pairs = [(cell_of(self.shapes[dst], o), cell_of(self.shapes[src], i)) for o, i in rows]
        base = self.reuse_bases.setdefault(op, pairs)
        self.write("op", op, [src], [dst], relations={(src, dst): self.relation(src, dst, pairs)},
                   reuse=True, replace=(src, dst) in self.relations)
        self.install(src, dst, self.relation(src, dst, base), reused=base is not pairs)

    @rule(k=st.integers(0, 15), as_operation=st.booleans())
    def self_loop(self, k, as_operation):
        name = sorted(self.shapes)[k % len(self.shapes)]
        relation = LineageRelation.from_pairs([], self.shapes[name], self.shapes[name], in_name=name, out_name=name)
        for side in self.sides:
            version = side.log.catalog.version
            with pytest.raises(ValueError, match=name):
                if as_operation:
                    side.write("op", "loop", [name], [name], relations={(name, name): relation})
                else:
                    side.write("add", name, name, relation=relation)
            assert side.log.catalog.version == version

    @rule()
    def sync(self):
        for side in self.sides[1:]:
            side.log.sync()

    @rule()
    def compact(self):
        for side in self.sides[1:]:
            (side.service or side.log).compact()

    @rule()
    def scrub(self):
        for side in self.sides[1:]:
            report = side.log.scrub(repair=True)
            assert report["clean"], report
            assert not any(shard["dropped_entries"] for shard in report["shards"].values())

    @rule()
    def commit(self):
        self.sides[2].service.flush(timeout=30)
        for ticket in self.pending:
            assert ticket.done and not ticket.failed
        self.committed += self.pending
        self.pending = []

    @rule()
    def reopen(self):
        """Close + ``DSLog.load`` on the durable sides: new readers, and a
        new service whose first window is due at once."""
        for i, side in enumerate(self.sides[1:], 1):
            side.close()
            log = DSLog.load(side.root, autosync=False)
            assert log.store.num_shards == side.num_shards
            self.sides[i] = Side(side.name, side.root, side.num_shards, log=log)
            self.reset_readers(self.sides[i])
        self.committed += self.pending
        self.pending, self.window_open = [], True

    @rule()
    def snapshot(self):
        for side in self.sides:
            if side.snapshot is not None:
                side.snapshot[0].close()
            asked = [(r, self.answer(r.path, r.cells)) for r in self.stored_requests()]
            side.snapshot = ((side.service or side.log).snapshot(), asked)

    @rule(shard=st.integers(0, 3))
    def trip(self, shard):
        for side in self.sides:
            if shard < side.num_shards:  # the executors whose cache the model predicts
                for executor in [side.cached] + ([side.server.executor] if side.server else []):
                    for _ in range(TRIPS):
                        executor._breaker(shard).record_failure()
                self.tripped[side.name].add(shard)

    @precondition(lambda self: any(self.tripped.values()))
    @rule()
    def heal(self):
        """Let the breakers' window pass: the next query through an open
        breaker probes (reopen + scrub) and closes it.  Everything is made
        durable first, as the moved clock ends the commit window too."""
        self.sides[1].log.sync()
        self.commit()
        self.now += 31.0
        self.window_open = True
        for tripped in self.tripped.values():
            tripped.clear()

    # -- reads ----------------------------------------------------------
    def predict(self, side, reader, requests, merge):
        """What *reader* of *side* answers: per request ``("error", type)``
        or ``(cells, cached, degraded)``, counting what its cache counts."""
        seen, count = self.seen[side.name, reader], self.counters[side.name, reader]
        caching = reader != "uncached"
        before, expected = dict(seen), []
        for request in requests:
            if request.error is not None:
                expected.append(("error", request.error))
                continue
            key, deps = request.key + (merge,), self.deps(request.path)
            old = before.get(key) if caching else None
            if old is not None and old[0] == deps:
                count["hits"] += 1
                expected.append((old[1], True, False))
                continue
            count["queries"] += 1
            count["misses"] += caching
            count["invalidations"] += old is not None
            if deps is None:
                expected.append(("error", KeyError))
                continue
            shards = {shard_index(*self.hop(a, b)[0], side.num_shards) for p, _ in deps for a, b in zip(p, p[1:])}
            if caching and shards & self.tripped[side.name]:
                count["stale_hits"] += old is not None
                expected.append((old[1], True, True) if old else ("error", ShardUnavailable))
                continue
            cells = self.answer(request.path, request.cells)
            if caching:
                seen[key] = (deps, cells)
            expected.append((cells, False, False))
        return expected

    @staticmethod
    def check(outcome, want, where):
        if want[0] == "error":
            assert isinstance(outcome, want[1]), (where, outcome)
        else:
            assert not isinstance(outcome, BaseException), (where, outcome)
            assert (outcome.result.to_cells(), outcome.cached, outcome.degraded) == want, where

    def check_wires(self, side, name, requests, bodies, merge):
        """Both wires answer alike, word for word, and as the model says."""
        replies = [over_wire(client, name, bodies) for client in side.clients]
        assert stable(replies[0]) == stable(replies[1]), (name, bodies)
        if not requests:  # an empty batch is refused whole
            assert replies[0][:2] == (400, "bad-request")
        for reply in replies:
            want = self.predict(side, "server", requests, merge)
            items = reply if name == "query_batch" else [reply]
            for item, expected in zip(items, want):
                if expected[0] == "error":
                    status = item["error"] if isinstance(item, dict) and "error" in item else None
                    got = (status["status"], status["type"]) if status else item[:2]
                    assert got == ERRORS[expected[1]], (bodies, item)
                    continue
                assert (item["cached"], item["degraded"]) == expected[1:], bodies
                assert item["count"] == len(expected[0]), bodies
                if "boxes" in item:
                    assert box_cells(item["boxes"]) == expected[0], bodies
                if "cells" in item:
                    assert {tuple(c) for c in item["cells"]} == expected[0], bodies

    @rule(spec=REQUEST, merge=st.booleans(), singleton=st.booleans(), include=st.tuples(st.booleans(), st.booleans()))
    def query(self, spec, merge, singleton, include):
        request = Request(self, spec)
        for side in self.sides:
            outcomes = []
            for reader in ("cached", "uncached"):
                executor = getattr(side, reader)
                if singleton:
                    (outcome,) = executor.query_batch([(request.path, request.query)], merge=merge)
                else:
                    outcome = ask(executor.query, request.path, request.query, merge=merge)
                (want,) = self.predict(side, reader, [request], merge)
                self.check(outcome, want, (side.name, reader, request.path))
                outcomes.append(outcome)
            direct = ask(side.log.prov_query, request.path, request.query, merge=merge)
            assert comparable(direct) == comparable(outcomes[1]), (side.name, request.path)
            if side.clients:
                body = dict(request.body, merge=merge, include_boxes=include[0], include_cells=include[1])
                self.check_wires(side, "query", [request], body, merge)

    @rule(specs=st.lists(REQUEST, min_size=1, max_size=8), merge=st.booleans(), deadline=st.sampled_from([None, 60.0]))
    def query_batch(self, specs, merge, deadline):
        requests = [Request(self, spec) for spec in specs]
        requests += requests[:2]  # duplicates ride along
        pairs = [(r.path, r.query) for r in requests]
        for side in self.sides:
            for reader in ("cached", "uncached"):
                batch = getattr(side, reader).query_batch(pairs, merge=merge, deadline=deadline)
                want = self.predict(side, reader, requests, merge)
                for outcome, expected, request in zip(batch, want, requests):
                    self.check(outcome, expected, (side.name, reader, request.path))
            # the uncached batch against each of its requests alone
            alone = [ask(side.uncached.query, path, query, merge=merge) for path, query in pairs]
            assert [comparable(o) for o in batch] == [comparable(o) for o in alone], side.name
            if side.clients:
                bodies = {"queries": [dict(r.body, merge=merge) for r in requests]}
                self.check_wires(side, "query_batch", requests, bodies, merge)
                self.check_wires(side, "query_batch", [], {"queries": []}, merge)

    @rule(k=st.integers(0, 15), arg=st.sampled_from(["name", "none", "empty"]))
    def graph(self, k, arg):
        names = sorted(self.shapes)
        name = (names + ["ghost"])[k % (len(names) + 1)]
        args = {"name": {"array": name}, "none": None, "empty": {}}[arg]
        want = {"impact": closure(name, list(self.relations)),
                "dependencies": closure(name, [(b, a) for a, b in self.relations])}
        for side in self.sides:
            for endpoint in want:
                if name == "ghost":
                    with pytest.raises(KeyError):
                        getattr(side.log, endpoint)(name)
                else:
                    assert getattr(side.log, endpoint)(name) == want[endpoint]
                if side.clients:
                    http, rpc = (over_wire(client, endpoint, args) for client in side.clients)
                    assert http == rpc
                    if arg != "name":
                        assert http[:2] == (400, "bad-request")
                    elif name == "ghost":
                        assert http[:2] == (404, "not-found")
                    else:
                        assert http == {"array": name, endpoint: want[endpoint]}
        edges = sorted(list(pair) for pair in self.relations)
        summaries = [dict(json.loads(json.dumps(side.log.lineage_summary())), edges=edges) for side in self.sides]
        summaries += [over_wire(client, "summary", None) for client in self.sides[2].clients]
        assert all(summary == summaries[0] for summary in summaries)
        produced, derived = {a for a, _ in self.relations}, {b for _, b in self.relations}
        assert summaries[0]["entries"] == len(self.relations) and summaries[0]["arrays"] == len(names)
        assert summaries[0]["roots"] == sorted(produced - derived)
        assert summaries[0]["leaves"] == sorted(derived - produced)
        assert summaries[0]["reused_entries"] == sum(self.reused.values())

    # -- after every rule -----------------------------------------------
    @invariant()
    def every_reader_answers_like_the_oracle(self):
        if not self.sides:
            return
        requests = self.stored_requests()
        pairs = [(r.path, r.query) for r in requests]
        versions = {pair: version for pair, (version, _) in self.versions.items()}
        for side in self.sides:
            assert {(e.in_name, e.out_name): e.version for e in side.log.catalog.entries()} == versions
            assert counters(side.cached) == self.counters[side.name, "cached"], side.name
            fresh = side.uncached.query_batch(pairs)
            one_by_one = [ask(side.cached.query, path, query) for path, query in pairs]
            rebatched = side.cached.query_batch(pairs)  # every answer a hit now
            wants = zip(*(self.predict(side, reader, requests, True) for reader in ("uncached", "cached", "cached")))
            for request, outcomes, want in zip(requests, zip(fresh, one_by_one, rebatched), wants):
                # fresh or cached, an answer is DSLog.prov_query's, bit for
                # bit: the cells are checked once, on the fresh one
                direct, where = comparable(side.log.prov_query(request.path, request.query)), (side.name, request.path)
                for outcome, expected in zip(outcomes, want):
                    if outcome is outcomes[0] or isinstance(outcome, BaseException) or outcome.degraded:
                        self.check(outcome, expected, where)
                    else:
                        assert (comparable(outcome), outcome.cached, outcome.degraded) == (direct, *expected[1:]), where
                assert comparable(outcomes[0]) == direct, where
            if side.snapshot is not None:
                view, asked = side.snapshot
                for request, want in asked:
                    assert view.prov_query(request.path, request.query).to_cells() == want, (side.name, "snapshot")
        if self.sides[2].clients and requests:
            bodies = {"queries": [dict(r.body, include_cells=True) for r in requests]}
            self.check_wires(self.sides[2], "query_batch", requests, bodies, True)
        for ticket in self.pending:
            assert not ticket.done, "a ticket turned durable before its commit"
        for ticket in self.committed:
            assert ticket.done and not ticket.failed

    def teardown(self):
        try:
            for side in self.sides:
                side.close()
        finally:
            faults.clock = self.clock
            shutil.rmtree(self.tmp, ignore_errors=True)


def replay(start, *steps):
    """One pinned history through the model: the state after each step,
    every invariant checked."""
    state = LineageModel()
    try:
        state.begin(start=start)
        state.every_reader_answers_like_the_oracle()
        for rule, kwargs in steps:
            getattr(state, rule)(**kwargs)
            state.every_reader_answers_like_the_oracle()
            yield state
    finally:
        state.teardown()


def test_a_new_edge_shortens_then_widens_a_planned_path():
    """Over a stored chain a new edge shortens the planned ``(X0, X3)``, a
    second makes it a diamond (a union), one arm is replaced, then a direct
    entry ends the planning.  Each cached answer is stale exactly when a hop
    it was computed from moved."""
    plans = {(2, 3): [("X0", "X1", "X2", "X3")], (0, 2): [("X0", "X2", "X3")],
             (1, 3): [("X0", "X1", "X3"), ("X0", "X2", "X3")], (0, 3): [("X0", "X3")]}
    edges = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (1, 3), (0, 3)]
    ask = dict(spec=(False, [0, 3], [1, 5]), merge=True, singleton=False, include=(True, False))
    steps = [step for src, dst in edges for step in (("add", dict(src=src, dst=dst, rows=[(1, 2), (3, 5)])),
                                                       ("query", ask))]
    history = replay("fresh", *steps)
    try:
        for edge in edges:
            next(history)
            state = next(history)
            if edge in plans:
                assert sorted(state.plan(["X0", "X3"])) == plans[edge]
                assert sorted(state.plan(["X3", "X0"])) == sorted(p[::-1] for p in plans[edge])
    finally:
        history.close()


REPLACE_A_B = ("add", dict(src=0, dst=0, rows=[]))  # on the fixture: (A, B), emptied
PINNED = {
    # shrunk by the model from defects planted in a throwaway copy of the
    # code: the result cache's token check, the inverse join's value bounds,
    # and the durable catalog's replace=True row
    "a-replaced-hop-is-no-hit": ("fixture", [REPLACE_A_B]),
    "the-fixture-history": ("fixture", []),
    "a-replace-survives-reopen": ("fixture", [REPLACE_A_B, ("reopen", {})]),
    # a bug it found: scrub(repair=True) quarantined as an orphan a segment
    # that a compaction had retired under an open snapshot
    "a-retired-segment-is-no-orphan": ("fresh", [("add", dict(src=0, dst=0, rows=[])), ("snapshot", {}),
                                                 ("compact", {}), ("scrub", {})]),
}


@pytest.mark.parametrize("start, steps", PINNED.values(), ids=list(PINNED))
def test_pinned_history(start, steps):
    for _ in replay(start, *steps):
        pass


LineageModel.TestCase.settings = settings(
    max_examples=20, stateful_step_count=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
TestLineageModel = LineageModel.TestCase
