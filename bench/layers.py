"""The traced run: per-layer metrics from the benchmark's own side of each
layer boundary.

No file of the program changes.  The first ``REPLAY`` requests of the
workload's stream are replayed through successively deeper public entry
points ("shells"), one span per call:

    transport client (``LineageClient`` / ``RPCClient`` against the child)
      > ``ServiceCore.execute_query``  (+ the payload codec, timed alone)
        > ``QueryExecutor.query``
          > kernel: ``LineageGraph.shortest_paths`` (two-array queries),
            ``LineageStore.load_table`` per hop, ``core.query.execute_path``
    and, beside the executor, ``DSLog.prov_query`` on the same tables.

A layer's self time is its shell minus the next shell in, request by
request; a request the ``ResultCache`` answers stops at the executor and
charges nothing further in.  Counts come from the public ``stats()`` /
``cache_stats()`` / ``REGISTRY.snapshot()`` calls read before and after.
Write-side layers are timed by calling them directly on the workload's own
relations.  Every ``*_s`` metric is mean seconds per request (read side) or
seconds per catalog build (write side), unscaled and from two passes at
most, so it carries the sandbox's noise.  Spans are
kept in memory and written to ``bench/out/trace-<workload>.json`` at the end.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

import gen
import host
import workloads as wl
from repro import obs
from repro.core.provrc import compress_both
from repro.core.query import CellBoxSet, execute_path, execute_path_batch
from repro.core.serialize import deserialize_table, serialize_table
from repro.dslog import DSLog
from repro.obs import REGISTRY
from repro.service.api import ServiceCore, result_payload
from repro.service.query import QueryExecutor
from repro.service.rpc import RPCClient
from repro.service.server import LineageClient
from repro.service.wire import decode_result, encode_result
from repro.storage.store import LineageStore

REPLAY = 500
PINGS = 200
PIPELINE_WINDOW = 16
Metrics = Dict[str, float]


class Spans:
    """Spans in memory: ``(name, start, end, parent, request)`` rows.
    *parent* names the shell this one sits inside for the same request."""

    def __init__(self) -> None:
        self.rows: List[Tuple[str, float, float, str, int]] = []

    def replay(self, name: str, parent: str, call: Callable, items: Sequence, passes: int = 2) -> Tuple[np.ndarray, list]:
        """``call(item)`` for each item, *passes* times over, one span per
        call; returns each item's faster call in seconds and the results of
        the last pass."""
        times = np.full(len(items), np.inf)
        for _ in range(passes):
            results = []
            for i, item in enumerate(items):
                t0 = time.perf_counter()
                results.append(call(item))
                t1 = time.perf_counter()
                times[i] = min(times[i], t1 - t0)
                self.rows.append((name, t0, t1, parent, i))
        return times, results

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [{"name": n, "start": s, "end": e, "parent": p, "request": r} for n, s, e, p, r in self.rows]
        path.write_text(json.dumps({"meta": meta, "spans": spans}))


def _plain(call: Callable, items: Sequence) -> float:
    """The loop of ``Spans.replay`` with nothing recorded: total seconds."""
    t0 = time.perf_counter()
    for item in items:
        call(item)
    return time.perf_counter() - t0


def _overhead(slow: Callable[[], float], fast: Callable[[], float]) -> float:
    """``slow() / fast() - 1`` from the faster of two alternating passes of each."""
    a, b = slow(), fast()
    return min(a, slow()) / min(b, fast()) - 1.0


def _delta(before: dict, after: dict, name: str, field: str = "count") -> float:
    """Growth of one metric family between two ``REGISTRY.snapshot()``s,
    summed over its label children: the value of a counter, *field*
    (``count`` or ``sum``) of a histogram."""

    def total(snapshot: dict) -> float:
        values = snapshot.get(name, {}).get("values", {})
        return float(sum(v[field] if isinstance(v, dict) else v for v in values.values()))

    return total(after) - total(before)


def _cache_totals(stats: Sequence[dict]) -> Dict[str, int]:
    return {k: sum(s[k] for s in stats) for k in ("hits", "misses", "evictions")}


def _box_set(shapes: Dict[str, tuple], request: gen.Request) -> CellBoxSet:
    name = request["path"][0]
    build = CellBoxSet.from_slices if "slices" in request else CellBoxSet.from_cells
    return build(name, shapes[name], host.to_query(request))


# ----------------------------------------------------------------------
# write side: the layers of one catalog build
# ----------------------------------------------------------------------
def write_layers(groups: Sequence[gen.Group], tmp: Path) -> Metrics:
    """ProvRC, the serializer and the segment append called directly on the
    catalog's relations; then one real build with the storage counters read
    around it."""
    relations = gen.relations(groups)
    t0 = time.perf_counter()
    tables = [t for r in relations for t in compress_both(r)]
    compress_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    payloads = [serialize_table(t, gzip=True) for t in tables]
    encode_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for payload in payloads:
        deserialize_table(payload)
    decode_s = time.perf_counter() - t0
    store = LineageStore(tmp / "append")
    try:
        t0 = time.perf_counter()
        for payload in payloads:
            store.append_payload(payload)
        append_s = time.perf_counter() - t0
    finally:
        store.close()

    before = REGISTRY.snapshot()
    build = host.ingest(tmp / "catalog", groups)
    after = REGISTRY.snapshot()
    opens = []
    for _ in range(5):
        t0 = time.perf_counter()
        log = DSLog.load(tmp / "catalog")
        opens.append(time.perf_counter() - t0)
        live_bytes = log.store.live_bytes()
        log.close()
    return {
        "core.provrc.compress_s": compress_s,
        "core.provrc.rows_in": float(sum(len(r.rows) for r in relations)),
        "core.provrc.rows_out": float(sum(len(t) for t in tables)),
        "core.serialize.encode_s": encode_s,
        "core.serialize.bytes_out": float(sum(len(p) for p in payloads)),
        "core.serialize.decode_s": decode_s,
        "storage.append_s": append_s,
        "storage.sync_s": build["sync_s"],
        "storage.fsyncs": _delta(before, after, "dslog_segment_fsyncs_total"),
        "storage.os_writes": _delta(before, after, "dslog_segment_flushes_total"),
        # build and compaction both go through the segment writer
        "storage.write_amp": _delta(before, after, "dslog_segment_flush_bytes_total") / live_bytes,
        "storage.open_s": statistics.median(opens),
        "storage.compact_s": build["compact_s"],
        "storage.compact_bytes_rewritten": float(build["compact_bytes"]),
    }


# ----------------------------------------------------------------------
# read side, in this process
# ----------------------------------------------------------------------
def _kernel_shell(log: DSLog, shapes: Dict[str, tuple], spans: Spans, replay: Sequence[gen.Request]):
    """Per request: seconds planning, loading tables and joining; and the
    results (for the HopStats counts)."""
    catalog = log.catalog
    plan, load, join = np.zeros(len(replay)), np.zeros(len(replay)), np.zeros(len(replay))
    results = []
    for i, request in enumerate(replay):
        path = request["path"]
        box = _box_set(shapes, request)
        start = t0 = time.perf_counter()
        if len(path) == 2:
            try:
                catalog.entry_between(path[0], path[1])
            except KeyError:
                (path,) = log.graph.shortest_paths(path[0], path[1])  # linear chains: one path
                plan[i] = time.perf_counter() - t0
                spans.rows.append(("graph.shortest_paths", t0, t0 + plan[i], "kernel", i))
        t0 = time.perf_counter()
        tables = []
        for first, second in zip(path, path[1:]):
            entry, direction = catalog.entry_between(first, second)
            ref = entry.forward_ref if direction == "forward" else entry.backward_ref
            tables.append(entry.store.load_table(ref))
        t1 = time.perf_counter()
        results.append(execute_path(tables, box))
        t2 = time.perf_counter()
        load[i], join[i] = t1 - t0, t2 - t1
        spans.rows += [
            ("storage.load_table", t0, t1, "kernel", i),
            ("core.query.execute_path", t1, t2, "kernel", i),
            ("kernel", start, t2, "service.query", i),
        ]
    return plan, load, join, results


def _batch_kernel_s(log: DSLog, shapes: Dict[str, tuple], replay: Sequence[gen.Request]) -> float:
    """Seconds per query when requests sharing a stored path go through
    ``execute_path_batch`` together (two-array requests are left out)."""
    by_path: Dict[tuple, tuple] = {}
    for request in replay:
        path = tuple(request["path"])
        try:
            tables = [log.catalog.entry_between(a, b)[0].table_keyed_on(a) for a, b in zip(path, path[1:])]
        except KeyError:
            continue
        by_path.setdefault(path, (tables, []))[1].append(_box_set(shapes, request))
    t0 = time.perf_counter()
    for tables, boxes in by_path.values():
        execute_path_batch(tables, boxes)
    return (time.perf_counter() - t0) / max(1, sum(len(boxes) for _, boxes in by_path.values()))


class Local(NamedTuple):
    """What the in-process shells hand to the budget."""

    metrics: Metrics
    exec_s: np.ndarray
    cached: np.ndarray
    core_s: np.ndarray
    payload_s: np.ndarray
    json_s: float
    wire_s: np.ndarray
    kernel_s: np.ndarray
    hit_frac: float


def local_shells(log: DSLog, executor: QueryExecutor, spans: Spans, shapes, pool, replay) -> Local:
    core = ServiceCore(log, executor=executor)
    prepared = [(r["path"], host.to_query(r)) for r in replay]
    m: Metrics = {}

    # executor: the warm pass misses, the replay hits whatever the cache holds
    tables_before = _cache_totals(log.store.cache_stats())
    warm_s, _ = spans.replay("service.query.warm", "", lambda r: executor.query(r["path"], host.to_query(r)), pool, passes=1)
    results_before = executor.cache.stats()
    exec_s, outcomes = spans.replay("service.query", "service.api", lambda p: executor.query(*p), prepared)
    tables_after, results_after = _cache_totals(log.store.cache_stats()), executor.cache.stats()
    cached = np.array([o.cached for o in outcomes])
    lookups = sum(tables_after[k] - tables_before[k] for k in ("hits", "misses"))
    m["storage.table_cache_hit_frac"] = (tables_after["hits"] - tables_before["hits"]) / max(1, lookups)
    m["storage.table_cache_evictions"] = float(tables_after["evictions"] - tables_before["evictions"])
    m["service.query.uncached_s"] = float(np.concatenate([warm_s, exec_s[~cached]]).mean())
    m["service.query.cached_s"] = float(exec_s[cached].mean()) if cached.any() else 0.0

    # api and the two codecs, on the same executor state
    core_s, answered = spans.replay("service.api", "transport", core.execute_query, replay)
    payload_s, payloads = spans.replay("service.api.result_payload", "service.api", lambda a: result_payload(a[0].result), answered)
    t0 = time.perf_counter()
    for request in replay:
        json.loads(json.dumps(request))
    texts = [json.dumps(p).encode() for p in payloads]
    for text in texts:
        json.loads(text)
    json_s = (time.perf_counter() - t0) / len(replay)
    encode_s, frames = spans.replay("service.wire.encode_result", "service.api", lambda a: encode_result(a[0].result), answered)
    decode_s, _ = spans.replay("service.wire.decode_result", "transport", decode_result, frames)
    m["service.api.overhead_s"] = float((core_s + payload_s - exec_s).mean())
    m["service.server.json_codec_s"] = json_s
    m["service.server.response_bytes"] = float(np.mean([len(t) for t in texts]))
    m["service.wire.encode_result_s"] = float(encode_s.mean())
    m["service.wire.decode_result_s"] = float(decode_s.mean())
    m["service.wire.result_bytes"] = float(np.mean([len(f) for f in frames]))

    # kernel, and DSLog.prov_query beside it
    plan_s, load_s, join_s, results = _kernel_shell(log, shapes, spans, replay)
    dslog_s, _ = spans.replay("dslog.prov_query", "", lambda p: log.prov_query(*p), prepared)
    hops = [hop for result in results for hop in result.hops]
    # charged as the workload pays them: nothing for a request the result cache answers
    miss = ~cached
    m["core.query.execute_path_s"] = float((join_s * miss).mean())
    m["core.query.execute_path_batch_s"] = _batch_kernel_s(log, shapes, replay)
    m["core.query.rows_examined_per_box"] = sum(h.rows_scanned for h in hops) / max(1, sum(h.boxes_in for h in hops))
    m["storage.load_table_s"] = float((load_s * miss).mean())
    m["graph.plan_s"] = float((plan_s * miss).mean())
    m["dslog.prov_query_overhead_s"] = float((dslog_s - join_s).mean())

    # obs on and off around the uncached executor
    uncached = QueryExecutor(log, cache_entries=0)

    def without_obs() -> float:
        obs.set_enabled(False)
        try:
            return _plain(lambda p: uncached.query(*p), prepared)
        finally:
            obs.set_enabled(True)

    try:
        m["obs.overhead_frac"] = _overhead(lambda: _plain(lambda p: uncached.query(*p), prepared), without_obs)
    finally:
        uncached.close()

    hit_frac = (results_after["hits"] - results_before["hits"]) / (2 * len(replay))
    return Local(m, exec_s, cached, core_s, payload_s, json_s, encode_s + decode_s, plan_s + load_s + join_s, hit_frac)


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run_traced(name: str, seed: int, seconds: float, scale: float = 1.0) -> wl.Run:
    del seconds  # a traced run replays a fixed number of requests
    workload, spec = wl.configure(name, scale)
    wl.pin_to_one_cpu()
    tmp = wl.OUT_DIR / f"tmp-trace-{name}-{seed}-{time.time_ns()}"
    tmp.mkdir(parents=True)
    spans = Spans()
    closers: List[Callable[[], None]] = []
    try:
        groups, pool, stream = wl.make_inputs(workload, spec, seed)
        replay = (stream * (REPLAY // len(stream) + 1))[: REPLAY if scale >= 1.0 else len(stream)]
        shapes = {n: s for g in groups for n, s in g.arrays}
        m = write_layers(groups, tmp)

        log = host.open_catalog(tmp / "catalog", workload.table_cache_frac)
        closers.append(log.close)
        executor = QueryExecutor(log, **host.executor_options(workload.result_cache))
        closers.append(executor.close)
        local = local_shells(log, executor, spans, shapes, pool, replay)
        m.update(local.metrics)

        # transport shells, against a child serving its own build of the catalog
        child = wl.Child(workload, spec, seed, tmp / "served", pool[0], 1)
        closers.append(child.stop)
        http = LineageClient.connect(child.ready["http"])
        closers.append(http.close)
        rpc = RPCClient.connect(child.ready["rpc"], pool_size=1)
        closers.append(rpc.close)
        for request in pool:
            rpc.prov_query(**request)

        # serve_churn: the write side is the server's; read its counters over
        # three bursts and the lap that finds their invalidations, which also
        # leaves the result cache warm again for the shells below
        start = child.ask("stats")
        bursts = [child.ask(f"burst {i}") for i in range(3 if workload.burst else 0)]
        for request in replay:
            rpc.prov_query(**request)
        before = child.ask("stats")
        reg0, reg1 = start["registry"], before["registry"]
        m.update(
            {
                "service.query.invalidations": _delta(reg0, reg1, "dslog_result_cache_invalidations_total"),
                "service.query.stale_serves": _delta(reg0, reg1, "dslog_result_cache_stale_serves_total"),
                "service.pipeline.submit_wait_s": 0.0,
                "service.pipeline.commit_batch_size": 0.0,
                "service.pipeline.queue_depth_max": 0.0,
            }
        )
        if bursts:
            submits = max(1.0, _delta(reg0, reg1, "dslog_ingest_submit_wait_seconds"))
            commits = max(1.0, _delta(reg0, reg1, "dslog_ingest_commit_batch_size"))
            m.update(
                {
                    "storage.fsyncs": _delta(reg0, reg1, "dslog_segment_fsyncs_total"),
                    "storage.os_writes": _delta(reg0, reg1, "dslog_segment_flushes_total"),
                    "storage.write_amp": _delta(reg0, reg1, "dslog_segment_flush_bytes_total") / max(1, before["live_bytes"] - start["live_bytes"]),
                    "storage.compact_s": statistics.median(b["compact_s"] for b in bursts),
                    "storage.compact_bytes_rewritten": float(statistics.median(b["compact_bytes"] for b in bursts)),
                    "service.pipeline.submit_wait_s": _delta(reg0, reg1, "dslog_ingest_submit_wait_seconds", "sum") / submits,
                    "service.pipeline.commit_batch_size": _delta(reg0, reg1, "dslog_ingest_commit_batch_size", "sum") / commits,
                    "service.pipeline.queue_depth_max": float(max(b["queue_depth"] for b in bursts)),
                }
            )

        http_s, _ = spans.replay("transport.http", "", lambda r: http.prov_query(**r), replay)
        rpc_s, _ = spans.replay("transport.rpc", "", lambda r: rpc.prov_query(**r), replay)
        ping_s, _ = spans.replay("service.rpc.ping", "", lambda _: rpc.ping(), range(PINGS))
        t0 = time.perf_counter()
        rpc.prov_query_pipelined(replay, window=PIPELINE_WINDOW)
        pipelined_s = time.perf_counter() - t0
        after = child.ask("stats")
        hits, misses = (after["executor"]["cache"][k] - before["executor"]["cache"][k] for k in ("hits", "misses"))
        m.update(
            {
                "service.server.socket_s": float((http_s - local.core_s - local.payload_s).mean()) - local.json_s,
                "service.rpc.socket_s": float((rpc_s - local.core_s - local.wire_s).mean()),
                "service.rpc.ping_s": float(ping_s.mean()),
                "service.rpc.pipelined_qps": len(replay) / pipelined_s,
                "service.rpc.retries": float(http.retries_used + rpc.retries_used),
                "service.query.result_cache_hit_frac": hits / max(1, hits + misses) if workload.transport != "local" else local.hit_frac,
            }
        )

        # the workload's own outermost call, with and without spans
        if workload.transport == "local":
            outer, items, chain = (lambda p: executor.query(*p)), [(r["path"], host.to_query(r)) for r in replay], local.exec_s
        elif workload.transport == "http":
            outer, items, chain = (lambda r: http.prov_query(**r)), replay, http_s
        else:
            outer, items, chain = (lambda r: rpc.prov_query(**r)), replay, rpc_s
        samples: List[np.ndarray] = []

        def traced() -> float:
            times, _ = spans.replay("outer", "", outer, items, passes=1)
            samples.append(times)
            return float(times.sum())

        plain: List[float] = []

        def untraced() -> float:
            plain.append(_plain(outer, items))
            return plain[-1]

        m["bench.trace_overhead_frac"] = _overhead(traced, untraced)
        m["tail.query_p99_ms"] = float(np.percentile(np.concatenate(samples), 99)) * 1e3
        plain_s = min(plain)

        # the budget: self times along the workload's own chain
        inner = np.where(local.cached, 0.0, local.kernel_s)
        selfs = {"service.query": local.exec_s - inner, "kernel": inner}
        if workload.transport != "local":
            codec = local.payload_s + local.json_s if workload.transport == "http" else local.wire_s
            selfs.update({"service.api": local.core_s - local.exec_s, "codec": codec, "socket": chain - local.core_s - codec})
        self_s = {k: float(np.mean(v)) for k, v in selfs.items()}
        m["bench.shell_sum_over_untraced"] = sum(self_s.values()) / (plain_s / len(items))

        spans.write(wl.OUT_DIR / f"trace-{name}.json", {"workload": name, "seed": seed, "requests": len(replay), "self_s": self_s})
        attempted = len(spans.rows) + workload.burst * len(bursts)
        failed = sum(b["failed"] for b in bursts)
        writes = gen.write_burst(spec, seed, 0, workload.burst) if workload.burst else ()
        return wl.Run({k: float(v) for k, v in m.items()}, attempted, failed, gen.inputs_digest(groups, stream, writes))
    finally:
        for close in reversed(closers):
            close()
        shutil.rmtree(tmp, ignore_errors=True)
