"""One stateful model of the lineage store: every store, every way in, both
wires, faults and crashes, one oracle.

:class:`LineageModel` is a Hypothesis ``RuleBasedStateMachine``.  Its state
is the uncompressed relations, every install of each entry, what each
store's reuse predictor knows and what its last returned publish named;
its oracle is :func:`~repro.core.reference.query_path_reference` over those
relations.  Three *sides* take every write: ``memory`` (``DSLog()``),
``one-shard`` (``DSLog(root, num_shards=1, autosync=False)``) and
``sharded``, a four-shard log written through a ``LineageService`` while
``faults.clock`` is frozen, so its tickets turn durable only at ``commit``
(the first window is due at once: the write that finds it open is flushed
on the spot).  The ``fixture`` start opens this side on an upgraded copy of
``tests/tools/fixtures/parent_sharded`` and replays its history into the
other two.  Each side is read through ``DSLog.prov_query``, a caching
``QueryExecutor``, a ``cache_entries=0`` one and, on the sharded side, both
wires of one ``LineageServer``; each durable side carries a ``FaultPlan``.

Rules: define; add; ``register_operation`` with reuse (a repeat stores the
first call's table); a refused self-loop; sync; compact; scrub; reopen;
snapshot; commit; query and query_batch; the graph endpoints; and

* ``fault_write`` / ``fault_compact`` — a one-shot disk fault, drawn from
  those the call can reach, met by a write made durable at once or by a
  compaction: what raised changed no answer (a failed compaction leaves
  its shard byte for byte and fails no ticket), a torn write loses only
  what no publish named, and the retry succeeds — on a crashed copy, if
  drawn;
* ``crash`` — the open side's directory copied, unsynced tails torn off:
  ``DSLog.load`` holds every entry at least at the version its last
  returned publish named, whole; the model writes what was lost again;
* ``corrupt`` — a payload byte of an entry's or a reuse table's record
  flipped, met by a compaction, by ``scrub(repair=True)`` (its publish
  failing first, if drawn) or by the breaker's probe: what raised changed
  nothing, the repair drops exactly what that record held, the live reuse
  predictor too, and the next scrub is clean;
* ``trip`` / ``heal`` — three real read faults trip a shard's breakers;
  after their window the next query probes (reopen + scrub) and heals;
* ``unobserved`` — with metrics and tracing off every reader and both
  wires still answer like the oracle, and no counter moves and no trace is
  recorded.

After every rule every reader returns the oracle's cells, every entry has
the model's version and reuse flag, every predictor knows the model's ops,
an open snapshot answers as of when it was taken, the caching executors'
``cached`` / ``degraded`` flags and counters are what the model predicts,
and tickets are durable exactly up to the last commit.  After every
returned publish each shard's manifest as ``load_manifest`` replays it
from disk (checkpoint and edit records) is the one in memory.  Batches equal
their requests run alone, bit for bit, and the two wires each other.

The model is also the one statement of what a request's trace and the
counters say (:meth:`LineageModel.check_trace`).  Every wire request
carries a trace id; its ``request`` trace names its wire, op and status,
how it met the result cache, how many of its requests missed and, for a
miss, the spans of its plan; ``dslog_requests_total`` moves by one on
that request's row.  Every committed ticket has a finished ``ingest``
trace, a failed one names its fault's site; every injected fault is
counted once in ``dslog_faults_injected_total``, and every breaker
transition the model predicts, and no other, in
``dslog_breaker_transitions_total``.  Histories the model shrank, and the
soaks and hand-built cases it replaced, are pinned in ``PINNED``.
"""

import itertools
import json
import random
import shutil
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro import DSLog, FaultPlan, LineageService, QueryExecutor, ShardUnavailable, faults, obs
from repro.core.query import CellBoxSet
from repro.core.reference import query_path_reference
from repro.core.relation import LineageRelation
from repro.obs import REGISTRY, tracing
from repro.service.rpc import RPCClient
from repro.service.server import LineageClient, LineageServer, LineageServerError
from repro.storage.manifest import MANIFEST_NAME, Manifest, load_manifest
from repro.storage.segments import SEGMENT_HEADER_SIZE, CorruptRecordError, record_overhead
from repro.storage.sharded import shard_index
from repro.storage.store import TableRef
from repro.tools.upgrade import upgrade

FIXTURE = Path(__file__).parents[1] / "tools" / "fixtures" / "parent_sharded"
FRESH = {"X0": (4,), "X1": (3, 2), "X2": (4,), "X3": (2, 3)}
EXTRA = [("Y0", (4,)), ("Y1", (3, 2)), ("Y2", (5,))]
CACHE = 4096  # no eviction: the model cannot observe eviction order
TRIPS = 3  # a breaker opens on its third consecutive fault
ERRORS = {KeyError: (404, "not-found"), ValueError: (400, "bad-request"),
          ShardUnavailable: (503, "shard-unavailable")}
# the (site, kind) pairs drawn: a torn write tears only where bytes are
# written; anywhere else the plan undoes it, and it fires nothing
FAULTS = list(itertools.product(("segment.read", "segment.write", "segment.fsync", "manifest.write"),
                                ("error", "enospc", "short_write")))
WRITE_FAULTS = FAULTS[3:]  # a write and its publish read nothing
ROWS = st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=16)
EDGE = st.tuples(st.integers(0, 15), st.integers(0, 15), ROWS)
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


def over_wire(client, name, body, trace_id=None):
    try:
        return client.call(name, body, trace_id)
    except LineageServerError as error:
        return error.status, error.kind, error.message


def rows(family):
    """Every row of counter *family*: its label values and count."""
    return {labels: leaf.value for labels, leaf in REGISTRY.get(family)._series()}


def growth(before, after):
    """What moved from *before* to *after*, by row."""
    return Counter({row: after[row] - before.get(row, 0) for row in after if after[row] != before.get(row, 0)})


def ingest_trace(ticket):
    """*ticket*'s finished ``ingest`` trace, the one in the ring."""
    (trace,) = [t for t in tracing.recent_traces() if t["trace_id"] == ticket._trace.trace_id]
    assert trace["name"] == "ingest" and trace["duration_s"] is not None
    return trace


@contextmanager
def armed(plan, site, kind, scope, nth=1, times=1):
    """One rule on *plan* for the span of the block: *site* in *scope*
    fails at its *nth* next reach (and the *times* - 1 after it; ``None``:
    every one)."""
    with plan._lock:
        at = plan._counts.get((site, scope), 0) + nth
    rule = plan.on(site, scope=scope, kind=kind, at=at, times=times)._rules[-1]
    try:
        yield rule
    finally:
        with plan._lock:
            plan._rules.remove(rule)


def rows_of(relation):
    return {tuple(row) for row in relation.rows.tolist()}


def ops_of(log):
    """The ops *log*'s reuse predictor knows (hydrating it)."""
    return {key[0] for key in log.reuse._base}


def shard_state(shard):
    """What a failed compaction or repair of *shard* must leave alone: the
    published manifest, the in-memory one, the bytes of every segment file
    and the quarantine."""
    published = shard.root / MANIFEST_NAME
    return (published.read_bytes() if published.exists() else None,
            json.dumps(shard.manifest.to_json(), sort_keys=True),
            {p.name: p.read_bytes() for p in sorted(shard.root.glob("segment-*.seg"))},
            sorted(p.name for p in shard.root.glob("quarantine/*")))


def tear(shard_dir, quarters):
    """Cut *quarters*/4 of the bytes past the published end off the active
    segment — the end of the last edit record the log walk reaches, or the
    checkpoint's log offset; past the last record it names where the
    checkpoint starts no log: what a crash loses of unsynced appends."""
    manifest = load_manifest(shard_dir)
    path = shard_dir / (manifest.segments[-1] if manifest and manifest.segments else "none")
    if not path.exists():
        return
    if manifest.log is not None and manifest.log["segment"] == path.name:
        keep = manifest.log_end
    else:
        named = [TableRef.from_json(ref) for ref in manifest.iter_table_refs()]
        keep = max([r.offset + record_overhead() + r.length for r in named if r.segment == path.name],
                   default=SEGMENT_HEADER_SIZE)
    size = path.stat().st_size
    with open(path, "r+b") as fh:
        fh.truncate(size - (size - keep) * quarters // 4)


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
    """One store under test, how it is written, its readers, and what the
    model knows of it: per entry its reuse flag and install, the ops its
    reuse predictor knows, and what its last returned publish named."""

    def __init__(self, name, root=None, num_shards=1, log=None):
        self.name, self.root, self.num_shards = name, root, num_shards
        if log is None:
            log = DSLog(root, num_shards=num_shards, autosync=False, faults=FaultPlan()) if root else DSLog()
        self.log, self.plan = log, log.faults
        if self.plan is not None:
            self.plan.arm()  # no rule until the model adds one
        self.service = LineageService(log=log, workers=1) if name == "sharded" else None
        self.cached = QueryExecutor(self.log, cache_entries=CACHE)
        self.uncached = QueryExecutor(self.log, cache_entries=0)
        self.server = self.clients = None
        if self.service is not None:
            self.server = LineageServer(self.log, port=0, rpc_port=0, cache_entries=CACHE).start()
            self.clients = [LineageClient.connect(self.server.url), RPCClient.connect(self.server.rpc_address)]
        self.snapshot = None
        self.reused, self.tokens, self.ops = {}, {}, set()
        self.durable, self.durable_ops, self.torn = {}, set(), False
        self.operations = self.durable_operations = 0  # operation records

    def breakered(self):
        """The executors whose cache the model predicts, by reader."""
        return [("cached", self.cached)] + ([("server", self.server.executor)] if self.server else [])

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

    def close_snapshot(self):
        if self.snapshot is not None:
            self.snapshot[0].close()
            self.snapshot = None

    def close(self):
        self.close_snapshot()
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
        self.shapes, self.relations, self.versions, self.history = {}, {}, {}, {}
        self.installs, self.reuse_bases, self.crashes = 0, {}, 0
        self.pending, self.committed, self.window_open = [], [], True
        self.seen, self.counters, self.tripped = {}, {}, {}
        # what the fault plans and breakers have metered since the start,
        # and the breaker transitions the model predicts
        self.plans, self.transitions = [], Counter()
        self.metered = {name: rows(name) for name in ("dslog_faults_injected_total", "dslog_breaker_transitions_total")}
        tracing.clear_traces()
        self.trace_ids = (f"{n:032x}" for n in itertools.count(1))

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

    def deps(self, path, side):
        """What a result of *side* for *path* is computed from: the planned
        paths and the install of every hop (``None`` when it cannot be
        planned)."""
        planned = self.plan(path)
        if planned is None:
            return None
        return tuple((p, tuple(side.tokens[self.hop(a, b)[0]] for a, b in zip(p, p[1:]))) for p in planned)

    def stored_requests(self):
        """Every one-hop path both ways and every planned two-array path,
        each with fixed cells: a later step re-asks what an earlier cached."""
        names = sorted(self.shapes)
        paths = [[a, b] for a in names for b in names if a != b and self.plan([a, b])]
        return [Request(self, (False, [names.index(n) for n in path], [1, 5])) for path in paths]

    def unasked(self, side, reader, pairs):
        """A one-hop request over one of *pairs* that *reader* holds no fresh
        answer to, so it reads the table."""
        names = sorted(self.shapes)
        for pair, flat in itertools.product(pairs, range(64)):
            for path in (list(pair), list(pair[::-1])):
                request = Request(self, (False, [names.index(n) for n in path], [flat]))
                old = self.seen[side.name, reader].get(request.key + (True,))
                if old is None or old[0] != self.deps(path, side):
                    return request
        raise AssertionError("every request is cached")

    # -- starts ---------------------------------------------------------
    def open_side(self, *args, **kwargs):
        side = Side(*args, **kwargs)
        if side.plan is not None:
            self.plans.append(side.plan)
        return side

    def open_sides(self, sharded_log=None, num_shards=4):
        self.sides = [
            self.open_side("memory"),
            self.open_side("one-shard", self.tmp / "one", 1),
            self.open_side("sharded", self.tmp / "sharded", num_shards, log=sharded_log),
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
        self.open_sides(DSLog.load(root, autosync=False, faults=FaultPlan()), num_shards=2)
        self.replay_fixture_history()
        self.published(self.sides[2])

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
        for side in self.sides:
            side.operations, side.ops = 1, {"shift"}

    # -- writes ---------------------------------------------------------
    def define(self, name, shape):
        for side in self.sides:
            (side.service or side.log).define_array(name, shape)
        self.shapes[name] = shape

    def relation(self, src, dst, pairs):
        return LineageRelation.from_pairs(pairs, self.shapes[dst], self.shapes[src], in_name=src, out_name=dst)

    def install(self, src, dst, relation, reused=False):
        self.installs += 1
        self.relations[src, dst] = relation
        self.history.setdefault((src, dst), []).append((relation, self.installs))
        self.versions[src, dst] = len(self.history[src, dst])
        for side in self.sides:
            side.reused[src, dst], side.tokens[src, dst] = reused, self.installs

    def pair(self, src, dst):
        names = sorted(self.shapes)
        a, b = names[src % len(names)], names[dst % len(names)]
        if a == b:
            b = names[(dst + 1) % len(names)]
        return (b, a) if (b, a) in self.relations else (a, b)

    def edge(self, src, dst, rows):
        src, dst = self.pair(src, dst)
        pairs = [(cell_of(self.shapes[dst], o), cell_of(self.shapes[src], i)) for o, i in rows]
        return src, dst, pairs

    def write(self, kind, *args, **kwargs):
        for side in self.sides:
            self.write_side(side, kind, *args, **kwargs)

    def commit_tickets(self, tickets):
        """*tickets* turned durable, and each one's trace says so."""
        for ticket in tickets:
            assert ticket.done and not ticket.failed
            trace = ingest_trace(ticket)
            assert trace["tags"]["outcome"] == "durable"
            assert [span["name"] for span in trace["spans"]] == ["queued", "apply", "commit"]
        self.committed += tickets

    def write_side(self, side, kind, *args, **kwargs):
        ticket = side.write(kind, *args, **kwargs)
        if side.service is not None:
            self.pending.append(ticket)
            if self.window_open:  # the first window is due at once
                self.commit()
                self.window_open = False

    def published(self, side):
        """*side*'s publish returned: everything it holds is durable, and
        every shard's manifest replayed from disk — checkpoint and edit
        records — is the one in memory."""
        side.durable, side.durable_ops = dict(self.versions), set(side.ops)
        side.durable_operations = side.operations
        for shard in side.log.store.shards:
            on_disk = load_manifest(shard.root) or Manifest(gzip=shard.gzip)
            in_memory = json.loads(json.dumps(shard.manifest.to_json()))  # tuples as JSON has them
            assert on_disk.to_json() == in_memory, (side.name, shard.scope)

    def restore(self, side):
        """Re-apply to *side*, in install order, every write it lost."""
        for name, shape in self.shapes.items():
            side.log.define_array(name, shape)
        have = {(e.in_name, e.out_name): e.version for e in side.log.catalog.entries()}
        lost = sorted((number, pair, version) for pair, installs in self.history.items()
                      for version, (_, number) in enumerate(installs, 1) if version > have.get(pair, 0))
        for _, (src, dst), version in lost:
            side.log.add_lineage(src, dst, relation=self.history[src, dst][version - 1][0], replace=version > 1)
            self.installs += 1
            side.reused[src, dst], side.tokens[src, dst] = False, self.installs

    def forget(self, side, pairs, reuse):
        """A repair dropped *pairs* (and the reuse state): nothing of them
        is durable now; the model writes them again."""
        for pair in pairs:
            side.durable.pop(pair, None)
        if reuse:
            side.ops, side.durable_ops = set(), set()
        self.restore(side)

    @rule(k=st.integers(0, len(EXTRA) - 1))
    def define_array(self, k):
        self.define(*EXTRA[k])

    @rule(src=st.integers(0, 15), dst=st.integers(0, 15), rows=ROWS)
    def add(self, src, dst, rows):
        src, dst, pairs = self.edge(src, dst, rows)
        relation = self.relation(src, dst, pairs)
        self.write("add", src, dst, relation=relation, replace=(src, dst) in self.relations)
        self.install(src, dst, relation)

    @rule(src=st.integers(0, 15), dst=st.integers(0, 15), rows=ROWS)
    def register_reused(self, src, dst, rows):
        """``register_operation(reuse=True)`` under one name per shape
        pair: the first call is captured, a repeat reuses its table; a side
        whose predictor forgot the op captures that first table again."""
        src, dst, pairs = self.edge(src, dst, rows)
        op = f"op{self.shapes[src]}->{self.shapes[dst]}"
        base = self.reuse_bases.setdefault(op, pairs)
        replace, known = (src, dst) in self.relations, {side.name: op in side.ops for side in self.sides}
        for side in self.sides:
            given = pairs if known[side.name] else base
            self.write_side(side, "op", op, [src], [dst], relations={(src, dst): self.relation(src, dst, given)},
                            reuse=True, replace=replace)
            side.ops.add(op)
            side.operations += 1
        self.install(src, dst, self.relation(src, dst, base))
        for side in self.sides:
            side.reused[src, dst] = known[side.name]

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
            self.published(side)

    @rule()
    def compact(self):
        for side in self.sides[1:]:
            (side.service or side.log).compact()
            self.published(side)

    @rule()
    def scrub(self):
        """Repair drops nothing from an undamaged store; a torn tail a crash
        left is evacuated and quarantined."""
        for side in self.sides[1:]:
            report = side.log.scrub(repair=True)
            assert report["clean"] or side.torn, report
            assert not any(shard["dropped_entries"] for shard in report["shards"].values())
            assert side.log.scrub()["clean"]
            side.torn = False

    @rule()
    def commit(self):
        side = self.sides[2]
        side.service.flush(timeout=30)
        if self.pending:
            self.published(side)
        self.commit_tickets(self.pending)
        self.pending = []

    @rule()
    def reopen(self):
        """Close + ``DSLog.load`` on the durable sides: new readers, and a
        new service whose first window is due at once."""
        for i, side in enumerate(self.sides[1:], 1):
            side.close()
            log = DSLog.load(side.root, autosync=False, faults=FaultPlan())
            assert log.store.num_shards == side.num_shards
            new = self.sides[i] = self.open_side(side.name, side.root, side.num_shards, log=log)
            new.reused, new.tokens, new.ops, new.torn = side.reused, side.tokens, side.ops, side.torn
            new.operations = side.operations
            self.published(new)
            self.reset_readers(new)
        self.commit_tickets(self.pending)
        self.pending, self.window_open = [], True

    @rule()
    def snapshot(self):
        for side in self.sides:
            side.close_snapshot()
            asked = [(r, self.answer(r.path, r.cells)) for r in self.stored_requests()]
            side.snapshot = ((side.service or side.log).snapshot(), asked)

    # -- faults, crashes, corruption ------------------------------------
    @rule(durable=st.integers(1, 2), fault=st.sampled_from(WRITE_FAULTS), crash=st.sampled_from([None, 0, 2, 4]),
          edge=EDGE)
    def fault_write(self, durable, fault, crash, edge):
        """*edge*'s write, made durable at once (on the sharded side by the
        service's commit), meets a one-shot fault at its home shard."""
        side = self.sides[durable]
        src, dst, pairs = self.edge(*edge)
        relation, replace = self.relation(src, dst, pairs), (src, dst) in self.relations
        for other in self.sides:
            if other is not side:
                self.write_side(other, "add", src, dst, relation=relation, replace=replace)
        with armed(side.plan, *fault, f"shard-{shard_index(src, dst, side.num_shards):02d}") as rule:
            error = self.durable_write(side, src, dst, relation, replace)
        self.install(src, dst, relation)
        self.after_fault(durable, rule, error, crash, lambda side: side.log.sync())

    @precondition(lambda self: self.relations)
    @rule(durable=st.integers(1, 2), fault=st.sampled_from(FAULTS), nth=st.integers(1, 3),
          crash=st.sampled_from([None, 0, 2, 4]), k=st.integers(0, 15))
    def fault_compact(self, durable, fault, nth, crash, k):
        """A compaction meets a one-shot fault on the home shard of a stored
        entry — at its *nth* read, or its write or publish — and changes
        nothing: a pending ticket too turns durable at its commit."""
        side = self.sides[durable]
        side.log.sync()
        self.published(side)
        index = shard_index(*sorted(self.relations)[k % len(self.relations)], side.num_shards)
        faulted = side.log.store.shards[index]
        before = shard_state(faulted)
        with armed(side.plan, *fault, f"shard-{index:02d}", nth if fault[0] == "segment.read" else 1) as rule:
            error = ask((side.service or side.log).compact)
        if rule.fired:
            assert shard_state(faulted) == before
        self.after_fault(durable, rule, error, crash, lambda side: (side.service or side.log).compact())
        for store in self.sides[durable].log.store.shards:  # and leaves no file behind
            names = {p.name for p in store.root.glob("segment-*.seg")}
            assert names == set(store.manifest.segments) | set(store._retired)

    def after_fault(self, durable, rule, error, crash, retry):
        """What raised was the fault; after a torn write repair drops only
        unpublished entries; then, on a crashed copy if *crash* is drawn,
        the call is retried and succeeds."""
        assert isinstance(error, OSError) == bool(rule.fired), (rule.site, rule.kind, error)
        assert getattr(error, "site", rule.site) == rule.site
        if rule.fired:
            if crash is not None:
                self.crash(durable, crash)
            elif rule.kind == "short_write":
                self.repair_torn(self.sides[durable])
            retry(self.sides[durable])
        self.published(self.sides[durable])

    def durable_write(self, side, src, dst, relation, replace):
        """A write on *side* and the publish that makes it durable; what
        that publish raised, or ``None``.  A failed service commit fails
        every ticket of its batch, and their writes stay applied."""
        if side.service is None:
            side.log.add_lineage(src, dst, relation=relation, replace=replace)
            error = ask(side.log.sync)
            return error if isinstance(error, BaseException) else None
        ticket = side.service.submit_lineage(src, dst, relation=relation, replace=replace)
        side.service._queue.join()  # applied, so the earlier tickets ride its commit
        side.service.flush(timeout=30)
        batch, self.pending, self.window_open = self.pending + [ticket], [], False
        if not ticket.failed:
            self.commit_tickets(batch)
        for failed in batch if ticket.failed else ():  # failed together; each trace names the fault
            tags = ingest_trace(failed)["tags"]
            assert failed.failed and tags["outcome"] == "failed", tags
            assert tags.get("fault_site") == getattr(failed._error, "site", None)
        return ticket._error

    def repair_torn(self, side):
        """After a torn write: repair drops only entries no returned publish
        named, and the model writes them again."""
        side.close_snapshot()
        report = side.log.scrub(repair=True)
        dropped = {tuple(pair) for shard in report["shards"].values() for pair in shard["dropped_entries"]}
        for pair in dropped:
            assert self.versions[pair] > side.durable.get(pair, 0), ("a published entry was lost", pair)
        assert side.log.scrub()["clean"]
        side.torn = False
        self.forget(side, dropped, any(shard["reuse_state_dropped"] for shard in report["shards"].values()))

    @rule(durable=st.integers(1, 2), quarters=st.integers(0, 4))
    def crash(self, durable, quarters):
        """What survives a process crash: the side's directory copied while
        it is open, *quarters*/4 of each active segment's unpublished tail
        torn off.  ``DSLog.load`` on the copy holds every entry at least at
        the version its last returned publish named, whole; the model then
        writes what was lost again."""
        side = self.sides[durable]
        self.crashes += 1
        root = self.tmp / f"{side.name}-crash{self.crashes}"
        shutil.copytree(side.root, root)
        for shard_dir in sorted(root.glob("shard-*")):
            tear(shard_dir, quarters)
        side.close()  # the old process's last writes reach only its own directory
        log = DSLog.load(root, autosync=False, faults=FaultPlan())
        new = self.sides[durable] = self.open_side(side.name, root, side.num_shards, log=log)
        entries = {(e.in_name, e.out_name): e for e in log.catalog.entries()}
        assert set(entries) <= set(self.versions), (side.name, set(entries) - set(self.versions))
        for pair, version in self.versions.items():
            got = entries[pair].version if pair in entries else 0
            assert side.durable.get(pair, 0) <= got <= version, (side.name, pair, got, side.durable.get(pair))
            if got:
                assert rows_of(entries[pair].backward.decompress()) == rows_of(self.history[pair][got - 1][0])
                assert got < version or entries[pair].reused == side.reused[pair]
                new.reused[pair], new.tokens[pair] = entries[pair].reused, side.tokens[pair]
        new.ops, new.operations = ops_of(log), len(log.catalog.operations)
        assert side.durable_ops <= new.ops <= side.ops
        assert side.durable_operations <= new.operations <= side.operations
        new.durable, new.durable_ops, new.torn = {p: e.version for p, e in entries.items()}, set(new.ops), quarters < 4
        self.reset_readers(new)
        if new.service is not None:
            self.pending, self.window_open = [], True
        self.restore(new)

    @rule(durable=st.integers(1, 2), k=st.integers(0, 63), reuse=st.booleans(),
          meet=st.sampled_from(["scrub", "faulted-scrub", "compact", "probe"]))
    def corrupt(self, durable, k, reuse, meet):
        """Flip one payload byte of a stored record — a reuse table's, if
        drawn and there is one — and meet it by *meet*: a compaction, or a
        repair whose publish fails, raises and changes nothing first."""
        side = self.sides[durable]
        side.log.sync()
        self.published(side)
        side.close_snapshot()
        store = side.log.store
        records = {}  # (shard, ref) -> [entries it holds, a reuse table?]
        for i, shard in enumerate(store.shards):
            for row in shard.manifest.entries:
                ref = shard.resolve(TableRef.from_json(row["backward"]))
                records.setdefault((i, ref), [set(), False])[0].add((row["in"], row["out"]))
        for ref in list(store.meta.manifest.iter_table_refs())[len(store.meta.manifest.entries):]:  # reuse tables
            records.setdefault((0, store.meta.resolve(TableRef.from_json(ref))), [set(), False])[1] = True
        pool = sorted(r for r in records if records[r][1] and reuse) or sorted(records)
        if not pool:
            return
        i, ref = pool[k % len(pool)]
        held, is_reuse = records[i, ref]
        shard = store.shards[i]
        with open(shard.root / ref.segment, "r+b") as fh:
            fh.seek(ref.offset + record_overhead() + ref.length // 2)
            byte = fh.read(1)[0]
            fh.seek(-1, 1)
            fh.write(bytes([byte ^ 0xFF]))
        if meet in ("compact", "faulted-scrub"):
            before = shard_state(shard)
            if meet == "compact":
                assert isinstance(ask(side.log.compact), CorruptRecordError)
            else:
                with armed(side.plan, "manifest.write", "error", f"shard-{i:02d}"):
                    assert isinstance(ask(side.log.scrub, repair=True), faults.InjectedFault)
            assert shard_state(shard) == before
            assert {(e.in_name, e.out_name) for e in side.log.catalog.entries()} == set(self.versions)
        if meet == "probe" and held and i not in self.tripped[side.name]:
            self.probe(side, i, held)
        else:
            report = side.log.scrub(repair=True)["shards"]
            assert {tuple(p) for r in report.values() for p in r["dropped_entries"]} == held
            assert any(r["reuse_state_dropped"] for r in report.values()) == is_reuse
            side.torn = False
        for pair in held:
            with pytest.raises(KeyError):
                side.log.catalog.entry(*pair)
        assert side.log.scrub()["clean"] or side.torn
        self.forget(side, held, is_reuse)

    def probe(self, side, shard, held):
        """Meet the damage through the breaker: three reads of the damaged
        record trip the caching executor's breaker on its shard; once the
        window has passed, the next query there probes (reopen + scrub), and
        the repair drops the entry under that very query, which had planned
        it."""
        side.log.store.cache.clear(scope=f"shard-{shard:02d}")
        self.trip_executor(side, "cached", side.cached, shard, sorted(held), CorruptRecordError)
        self.heal()
        self.probe_query(side, "cached", side.cached, shard, sorted(held), failing=({shard}, OSError))

    def trip_executor(self, side, reader, executor, shard, pairs, error):
        request = self.unasked(side, reader, pairs)
        for _ in range(TRIPS):
            (want,) = self.predict(side, reader, [request], True, failing=({shard}, error))
            self.check(ask(executor.query, request.path, request.query), want, (side.name, reader, "trip"))
        if shard not in self.tripped[side.name]:
            self.transitions[f"shard-{shard:02d}", "open"] += 1

    def probe_query(self, side, reader, executor, shard, pairs, failing=(frozenset(), None)):
        """A query through a half-open breaker probes: one more reopen."""
        reopens = executor.stats()["shard_reopens"]
        request = self.unasked(side, reader, pairs)
        (want,) = self.predict(side, reader, [request], True, failing)
        self.check(ask(executor.query, request.path, request.query), want, (side.name, reader, "probe"))
        assert executor.stats()["shard_reopens"] == reopens + 1
        self.transitions.update({(f"shard-{shard:02d}", "half-open"): 1, (f"shard-{shard:02d}", "closed"): 1})

    def on_shard(self, side, shard):
        return sorted(p for p in self.relations if shard_index(*p, side.num_shards) == shard)

    @rule(shard=st.integers(0, 3))
    def trip(self, shard):
        """Three real read faults on *shard*, its tables dropped from the
        cache first, trip the breaker of every executor the model predicts."""
        for side in self.sides[1:]:
            if shard >= side.num_shards or not self.on_shard(side, shard):
                continue
            scope = f"shard-{shard:02d}"
            side.log.store.cache.clear(scope=scope)
            with armed(side.plan, "segment.read", "error", scope, times=None):
                for reader, executor in side.breakered():
                    self.trip_executor(side, reader, executor, shard, self.on_shard(side, shard), OSError)
            self.tripped[side.name].add(shard)

    @precondition(lambda self: any(self.tripped.values()))
    @rule()
    def heal(self):
        """Let the breakers' window pass: the next query through each open
        breaker probes (reopen + scrub) and closes it.  Everything is made
        durable first, as the moved clock ends the commit window too."""
        self.sides[1].log.sync()
        self.published(self.sides[1])
        self.commit()
        self.now += 31.0
        self.window_open = True
        for side in self.sides:
            tripped, self.tripped[side.name] = self.tripped[side.name], set()
            for shard, (reader, executor) in itertools.product(sorted(tripped), side.breakered()):
                self.probe_query(side, reader, executor, shard, self.on_shard(side, shard))

    # -- reads ----------------------------------------------------------
    def predict(self, side, reader, requests, merge, failing=(frozenset(), None)):
        """What *reader* of *side* answers: per request ``("error", type)``
        or ``(cells, cached, degraded)``, counting what its cache counts.
        A request on a shard in ``failing[0]`` fails with ``failing[1]``."""
        seen, count = self.seen[side.name, reader], self.counters[side.name, reader]
        caching = reader != "uncached"
        before, expected = dict(seen), []
        for request in requests:
            if request.error is not None:
                expected.append(("error", request.error))
                continue
            key, deps = request.key + (merge,), self.deps(request.path, side)
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
            shards = self.home_shards(side, deps)
            down = ShardUnavailable if shards & self.tripped[side.name] else shards & failing[0] and failing[1]
            if caching and down:
                count["stale_hits"] += old is not None
                expected.append((old[1], True, True) if old else ("error", down))
                continue
            cells = self.answer(request.path, request.cells)
            if caching:
                seen[key] = (deps, cells)
            expected.append((cells, False, False))
        return expected

    def home_shards(self, side, deps):
        return {shard_index(*self.hop(a, b)[0], side.num_shards) for p, _ in deps for a, b in zip(p, p[1:])}

    @staticmethod
    def check(outcome, want, where):
        if want[0] == "error":
            assert isinstance(outcome, want[1]), (where, outcome)
        else:
            assert not isinstance(outcome, BaseException), (where, outcome)
            assert (outcome.result.to_cells(), outcome.cached, outcome.degraded) == want, where

    def send(self, client, name, body, observed=True):
        """*body* to endpoint *name* over *client*'s wire under a fresh
        trace id: the reply and, observed, its one ``request`` trace, which
        names the wire, op and status; the request counter moved by one,
        on that row."""
        wire, trace_id = "http" if isinstance(client, LineageClient) else "rpc", next(self.trace_ids)
        before = rows("dslog_requests_total")
        reply = over_wire(client, name, body, trace_id)
        if not observed:
            return reply, None
        status = reply[0] if isinstance(reply, tuple) else 200
        assert growth(before, rows("dslog_requests_total")) == {(wire, name, str(status)): 1}, (name, body)
        (trace,) = [t for t in tracing.recent_traces() if t["trace_id"] == trace_id]
        assert trace["name"] == "request" and trace["duration_s"] is not None
        assert (trace["tags"]["wire"], trace["tags"]["op"], trace["tags"]["status"]) == (wire, name, status)
        return reply, trace

    def check_trace(self, side, trace, requests, want):
        """A request's trace, as the model predicts it from its *requests*
        and their predicted outcomes *want*.  ``cache`` is ``stale`` if a
        degraded answer was served, else ``miss`` if any request missed,
        else ``hit`` if any was looked up, else absent; ``batch_misses``
        counts the misses when any request reached the executor.  A miss
        leaves its plan: one ``plan`` per missed path, ``prefetch`` with
        one ``prefetch-shard`` child per home shard it reads, then ``join``
        and ``cache-install`` if any answer was computed; no miss, no span."""
        looked = [(r, w) for r, w in zip(requests, want) if r.error is None]
        missed = [(r, w) for r, w in looked if w[0] == "error" or not w[1] or w[2]]
        served = [w for _, w in looked if w[0] != "error"]  # (cells, cached, degraded)
        cache = "stale" if any(w[2] for w in served) else "miss" if missed else "hit" if looked else None
        reached = any(len(r.path) >= 2 for r in requests)
        tags, spans = trace["tags"], trace["spans"]
        assert (tags.get("cache"), tags.get("batch_misses")) == (cache, len(missed) if reached else None), tags
        if not missed:
            assert spans == [], spans
            return
        shards = set()
        for request, _ in missed:
            deps = self.deps(request.path, side)
            home = self.home_shards(side, deps) if deps else set()
            shards |= set() if home & self.tripped[side.name] else home
        paths = len({tuple(r.path) for r, _ in missed})
        computed = ["join", "cache-install"] if any(not w[1] for w in served) else []
        names = ["plan"] * paths + ["prefetch"] + ["prefetch-shard"] * len(shards) + computed
        assert [span["name"] for span in spans] == names, (names, spans)
        reads = [span for span in spans if span["name"] == "prefetch-shard"]
        assert sorted(span["tags"]["shard"] for span in reads) == sorted(shards)
        assert {span["parent_id"] for span in reads} <= {spans[paths]["span_id"]}

    def over_wires(self, side, name, args):
        """*args* to *name*, an endpoint that reads no lineage table, over
        both wires: the replies, whose traces name no cache and no span."""
        sent = [self.send(client, name, args) for client in side.clients]
        for _, trace in sent:
            self.check_trace(side, trace, [], [])
        return [reply for reply, _ in sent]

    def check_wires(self, side, name, requests, bodies, merge, observed=True):
        """Both wires answer alike, word for word, and as the model says;
        so does each request's trace, when observed."""
        sent = [self.send(client, name, bodies, observed) for client in side.clients]
        replies = [reply for reply, _ in sent]
        assert stable(replies[0]) == stable(replies[1]), (name, bodies)
        if not requests:  # an empty batch is refused whole
            assert replies[0][:2] == (400, "bad-request")
        for reply, trace in sent:
            want = self.predict(side, "server", requests, merge)
            if observed:
                self.check_trace(side, trace, requests, want)
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
                    http, rpc = self.over_wires(side, endpoint, args)
                    assert http == rpc
                    if arg != "name":
                        assert http[:2] == (400, "bad-request")
                    elif name == "ghost":
                        assert http[:2] == (404, "not-found")
                    else:
                        assert http == {"array": name, endpoint: want[endpoint]}
        edges = sorted(list(pair) for pair in self.relations)
        summaries = [dict(json.loads(json.dumps(side.log.lineage_summary())), edges=edges) for side in self.sides]
        summaries += self.over_wires(self.sides[2], "summary", None)
        for summary, side in zip(summaries, self.sides + self.sides[2:] * 2):
            assert summary.pop("reused_entries") == sum(side.reused.values()), side.name
            assert summary.pop("operations") == side.operations, side.name
            summary.pop("avg_arrays_per_operation")  # 2.0: every operation links two arrays
        assert all(summary == summaries[0] for summary in summaries)
        produced, derived = {a for a, _ in self.relations}, {b for _, b in self.relations}
        assert summaries[0]["entries"] == len(self.relations) and summaries[0]["arrays"] == len(names)
        assert summaries[0]["roots"] == sorted(produced - derived)
        assert summaries[0]["leaves"] == sorted(derived - produced)

    @rule()
    def unobserved(self):
        """With metrics and tracing off the stored requests, through every
        reader and both wires, give the oracle's answers; no counter moves
        and no trace is recorded."""
        requests = self.stored_requests()
        pairs = [(r.path, r.query) for r in requests]
        metrics, traces = REGISTRY.snapshot(), tracing.recent_traces()
        obs.set_enabled(False)
        try:
            for side in self.sides:
                for reader in ("cached", "uncached"):
                    batch = getattr(side, reader).query_batch(pairs)
                    for outcome, want in zip(batch, self.predict(side, reader, requests, True)):
                        self.check(outcome, want, (side.name, reader, "unobserved"))
                for request in requests:
                    got = side.log.prov_query(request.path, request.query).to_cells()
                    assert got == self.answer(request.path, request.cells), (side.name, request.path)
                if side.clients and requests:
                    bodies = {"queries": [dict(r.body, include_cells=True) for r in requests]}
                    self.check_wires(side, "query_batch", requests, bodies, True, observed=False)
        finally:
            obs.set_enabled(True)
        assert REGISTRY.snapshot() == metrics
        assert tracing.recent_traces() == traces

    # -- after every rule -----------------------------------------------
    @invariant()
    def every_fault_and_transition_is_metered(self):
        """Each fault any plan injected is counted once, and each breaker
        transition the model predicts, and no other."""
        injected = Counter((site, kind) for plan in self.plans for site, _, kind, _ in plan.events)
        for family, want in (("dslog_faults_injected_total", injected),
                             ("dslog_breaker_transitions_total", self.transitions)):
            assert growth(self.metered[family], rows(family)) == want, family

    @invariant()
    def every_reader_answers_like_the_oracle(self):
        if not self.sides:
            return
        requests = self.stored_requests()
        pairs = [(r.path, r.query) for r in requests]
        for side in self.sides:
            entries = {(e.in_name, e.out_name): (e.version, e.reused) for e in side.log.catalog.entries()}
            assert entries == {pair: (v, side.reused[pair]) for pair, v in self.versions.items()}, side.name
            assert ops_of(side.log) == side.ops, side.name
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
        for rule, kwargs in [("begin", dict(start=start)), *steps]:
            getattr(state, rule)(**kwargs)
            state.every_reader_answers_like_the_oracle()
            state.every_fault_and_transition_is_metered()
            if rule != "begin":
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
ADDS = [("add", dict(src=i, dst=i + 1, rows=[(i, i), (5, 1)])) for i in range(3)]  # X0 -> X1 -> X2 -> X3
MIXED = [("segment.write", "short_write"), ("segment.write", "error"), ("segment.fsync", "error"),
         ("segment.fsync", "enospc"), ("manifest.write", "error")]
READS = [("segment.read", "error"), ("manifest.write", "error")]
ONE_QUERY = dict(merge=True, singleton=False, include=(True, False))


def soak(seed, durable, sites, write=True):
    """A seeded fault soak as one history: six writes, or after three adds
    six compactions, each meeting one drawn fault; then a reopen."""
    rng = random.Random(seed)
    steps = [] if write else list(ADDS)
    for _ in range(6):
        drawn = dict(durable=durable, fault=rng.choice(sites), crash=rng.choice([None, 0, 2, 4]))
        if write:
            edge = (rng.randrange(16), rng.randrange(16), [(rng.randrange(64), rng.randrange(64))])
            steps.append(("fault_write", dict(drawn, edge=edge)))
        else:
            steps.append(("fault_compact", dict(drawn, nth=rng.randint(1, 3), k=rng.randrange(16))))
    return "fresh", steps + [("reopen", {})]


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
    # a bug: a repair that dropped the reuse state left the live predictor
    # holding the damaged table, and the next sync published refs into the
    # quarantined segment (the reopen then failed)
    "a-dropped-reuse-state-is-forgotten": ("fresh", [
        ("register_reused", dict(src=0, dst=1, rows=[(1, 2)])),
        ("corrupt", dict(durable=1, k=0, reuse=True, meet="scrub")),
        ("register_reused", dict(src=0, dst=1, rows=[(3, 3)])), ("sync", {}), ("reopen", {})]),
    # a bug it found: a flipped byte in a table record past the manifest
    # checkpoint ended the log walk, so the edit record published after
    # that table replayed no more
    "a-flipped-table-byte-hides-no-edit": ("fresh", [
        ("add", dict(src=0, dst=0, rows=[])),
        ("fault_write", dict(durable=1, fault=("segment.write", "error"), crash=None, edge=(0, 0, []))),
        ("corrupt", dict(durable=2, k=0, reuse=False, meet="probe"))]),
    # a compaction that meets a read fault, a publish fault or a damaged
    # record, or a repair whose publish fails, raises and changes nothing;
    # the retry keeps every entry
    "a-compaction-read-fault": ("fresh", ADDS + [
        ("fault_compact", dict(durable=1, fault=("segment.read", "error"), nth=2, crash=None, k=0)), ("reopen", {})]),
    "a-compaction-publish-fault": ("fresh", ADDS + [
        ("fault_compact", dict(durable=1, fault=("manifest.write", "error"), nth=1, crash=None, k=0)),
        ("reopen", {})]),
    "a-compaction-meets-a-flipped-byte": ("fresh", ADDS + [
        ("corrupt", dict(durable=1, k=1, reuse=False, meet="compact")), ("reopen", {})]),
    "a-repair-publish-fault": ("fresh", ADDS + [
        ("corrupt", dict(durable=1, k=1, reuse=False, meet="faulted-scrub")), ("reopen", {})]),
    # a bug: a torn write into a failed compaction's fresh file, which it
    # deletes, failed the pending ticket at the next group commit
    "a-torn-compaction-fails-no-ticket": ("fresh", ADDS[:2] + [
        ("fault_compact", dict(durable=2, fault=("segment.write", "short_write"), nth=1, crash=None, k=0)),
        ("commit", {})]),
    # a shard whose reads fail serves its stale answer degraded, a query
    # with none refuses, and the probe heals it; a probe whose repair drops
    # a damaged entry makes the live catalog forget it
    "a-tripped-shard-serves-stale-then-heals": ("fresh", ADDS[:1] + [
        ("query", dict(spec=(False, [0, 1], [1]), merge=True, singleton=False, include=(True, False))),
        ADDS[0], ("trip", dict(shard=shard_index("X0", "X1", 4))),
        ("query", dict(spec=(False, [0, 1], [1]), merge=True, singleton=True, include=(False, True))),
        ("heal", {})]),
    "a-probe-drops-the-damaged-entry": ("fresh", ADDS[:1] + [
        ("corrupt", dict(durable=d, k=0, reuse=False, meet="probe")) for d in (1, 2)]),
    # what a request's trace and the counters say: a refused query meets
    # no cache (a bug: its trace said "hit"); a refusal is booked on its
    # status; a miss leaves its plan, a hit no span; observability off
    # changes no answer; a torn write is metered once where it tears and
    # not at all where nothing is written; a failed ticket names its fault
    "a-refused-query-is-no-cache-hit": ("fresh", [("query", dict(spec=(False, [0, 4], [1]), **ONE_QUERY))]),
    "a-refusal-is-metered-on-its-status": ("fresh", [("graph", dict(k=4, arg="name"))]),
    "a-miss-leaves-its-plan-a-hit-none": ("fresh", ADDS[:2] + [("query", dict(spec=(False, [2, 0], [1]), **ONE_QUERY))]),
    "observability-off-changes-no-answer": ("fresh", ADDS + [("unobserved", {})]),
    "a-torn-write-is-metered-once": ("fresh", [
        ("fault_write", dict(durable=d, fault=("segment.write", "short_write"), crash=None, edge=(0, 1, [(1, 2)])))
        for d in (1, 2)]),
    "a-torn-fsync-tears-nothing": ("fresh", [
        ("fault_write", dict(durable=d, fault=("segment.fsync", "short_write"), crash=None, edge=(0, 1, [(1, 2)])))
        for d in (1, 2)]),
    "a-failed-ticket-names-its-fault": ("fresh", ADDS[:1] + [
        ("fault_write", dict(durable=2, fault=("manifest.write", "error"), crash=None, edge=(1, 2, [(3, 3)])))]),
    # the seeded fault soaks, as histories: torn, failed and unsynced
    # writes and publishes, on each durable side; compactions under read
    # and publish faults
    **{f"storage-soak-{seed}": soak(seed, 1, MIXED) for seed in (101, 202, 303)},
    **{f"service-soak-{seed}": soak(seed, 2, MIXED) for seed in (101, 202, 303)},
    **{f"compaction-soak-{seed}": soak(seed, 2, READS, write=False) for seed in (101, 202, 303)},
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
