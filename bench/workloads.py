"""The five workloads and the untraced run that measures them.

Every workload runs the same skeleton, so every end-to-end metric has a
meaning on every workload (the driver wants all of them from every run):

1. **set-up**, repeated ``SETUPS`` times and reported as the median:
   generate the inputs from the seed, build the catalog the workload reads
   (``host.ingest``: one ``sync()`` per relation, then ``compact()``),
   open the reader or start the server child, and warm it;
2. **timed phases** that share ``--seconds``: catalog builds
   (``ingest_mixed`` only — elsewhere the builds of step 1 are the
   write-side sample), a closed loop of single queries, a closed loop of
   64-query batches;
3. **verification** of a sample of answers against the brute-force oracle,
   and of batch answers against single answers.

Workloads differ in the catalog, in where it lives (this process or a
child), in the transport, in the cache budgets relative to the working
set, and in how the time box is split — see ``WORKLOADS``.

**Repetitions, and which one counts.**  A timed loop runs whole *laps*: the
same requests in the same order, again and again, until its time is up.
The time of an operation is its fastest repetition, and every metric is
computed from those.  The sandbox is a shared 2-vCPU guest (measured: the
same ProvRC pass took 176-397 ms over four idle minutes), and interference
only ever adds time, so the fastest of N identical repetitions is the
reading that repeats from run to run; medians over laps moved 17-33 %
between back-to-back runs of one commit where the fastest repetitions
moved 6 %.  What this filters out, knowingly, is the program's own random
jitter (thread hand-offs, allocator): costs that recur on every repetition
stay.  Before the fastest is picked, every repetition is scaled to the
reference clock (``clock.py``), which takes out the part of the noise that
lasts longer than a whole phase.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

import clock
import gen
import host
from repro.core.reference import query_path_reference
from repro.dslog import DSLog
from repro.service.query import QueryExecutor
from repro.service.rpc import RPCClient
from repro.service.server import LineageClient

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

SETUPS = 3
BATCH = 64
HOT_POOL = 200
HOT_MAX_CELLS = 8
COLD_MAX_CELLS = 256
ORACLE_SAMPLE = 12
ORACLE_BUDGET_S = 1.0
BURST = 16  # serve_churn: writes before every lap of reads

MIXED = gen.CatalogSpec(chains=6, chain_cells=20_000, resnet=(32, 32), relational=(600, 400), image=(32, 32))
SERVED = gen.CatalogSpec(chains=4, chain_cells=4_096, resnet=(16, 16), relational=(300, 200), image=(32, 32))
CHURNED = SERVED._replace(churn_arrays=13)  # 12 edges, 11 of them replaced by every burst


class Workload(NamedTuple):
    why: str
    spec: gen.CatalogSpec
    transport: str  # "local": reader in this process; "http" / "rpc": server child
    hot: bool  # Zipf over a 200-query pool (fits ResultCache) vs all-distinct queries
    lap: int  # requests per lap of the stream, a multiple of BATCH
    result_cache: Optional[int]  # ResultCache entries of a local reader (None: default)
    table_cache_frac: Optional[float]  # TableCache budget / hydrated bytes (None: default 256 MiB)
    shares: Tuple[float, float, float]  # of --seconds: catalog builds, single queries, batches
    burst: int = 0  # writes the server applies before every lap


WORKLOADS: Dict[str, Workload] = {
    "ingest_mixed": Workload(
        "write path: ProvRC compression dominates; the only place the paper's storage ratio is measured at size",
        MIXED, "local", False, 192, None, None, (0.7, 0.2, 0.1),
    ),
    "query_cold": Workload(
        "in-process reads, working set 4x the table cache, no result cache: theta-join and hydration do the work",
        MIXED, "local", False, 256, 0, 0.25, (0.0, 0.65, 0.35),
    ),
    "serve_http_hot": Workload(
        "one keep-alive HTTP client, Zipf over 200 queries that fit the result cache: per-request overhead is what is left",
        SERVED, "http", True, 1024, None, None, (0.0, 0.7, 0.3),
    ),
    "serve_rpc_hot": Workload(
        "the identical request stream over one RPC connection: the only difference from serve_http_hot is the transport",
        SERVED, "rpc", True, 1024, None, None, (0.0, 0.7, 0.3),
    ),
    "serve_churn": Workload(
        "RPC reads between write bursts (16 small relations, 70% replacing served edges, then compact): commit and invalidation cost",
        CHURNED, "rpc", True, 256, None, None, (0.0, 0.7, 0.3), BURST,
    ),
}


# ----------------------------------------------------------------------
# the server child, seen from the generator
# ----------------------------------------------------------------------
class Child:
    """A ``host.py`` server process and its one-line-per-message pipe."""

    def __init__(self, workload: Workload, spec: gen.CatalogSpec, seed: int, root: Path, probe: gen.Request, reopens: int) -> None:
        config = {
            "spec": list(spec),
            "seed": seed,
            "root": str(root),
            "probe": probe,
            "reopen_cycles": reopens,
            "burst": workload.burst,
            "result_cache": workload.result_cache,
            "table_cache_frac": workload.table_cache_frac,
        }
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "host.py"), json.dumps(config)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.ready = self._read()
        except Exception:
            self.stop()
            raise

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server child exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> None:
        """Tell the child to exit and wait until it has."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()  # EOF also ends the child's command loop
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# readers: one calling convention over three transports
# ----------------------------------------------------------------------
class Reader(NamedTuple):
    """``single(prepared)`` and ``batch([prepared, ...])`` issue requests;
    ``prepare`` turns a request body into what they take (done before the
    clock starts: it is the generator's work, not the program's);
    ``answer`` normalises one result to ``(count, set of cells)``."""

    prepare: Callable[[gen.Request], Any]
    single: Callable[[Any], Any]
    batch: Callable[[Sequence[Any]], Sequence[Any]]
    answer: Callable[[Any], Tuple[int, set]]
    close: Callable[[], None]


def _box_cells(lo, hi) -> set:
    cells: set = set()
    for a, b in zip(np.asarray(lo), np.asarray(hi)):
        grid = np.meshgrid(*[np.arange(x, y + 1) for x, y in zip(a, b)], indexing="ij")
        cells.update(map(tuple, np.stack([g.ravel() for g in grid], axis=1).tolist()))
    return cells


def _outcome(outcome):
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


def local_reader(log: DSLog, result_cache: Optional[int]) -> Reader:
    executor = QueryExecutor(log, **host.executor_options(result_cache))

    def answer(outcome) -> Tuple[int, set]:
        result = outcome.result
        return result.count_cells(), _box_cells(result.cells.lo, result.cells.hi)

    def close() -> None:
        executor.close()
        log.close()

    return Reader(
        prepare=lambda request: (request["path"], host.to_query(request)),
        single=lambda prepared: executor.query(*prepared),
        batch=lambda prepared: [_outcome(o) for o in executor.query_batch(prepared)],
        answer=answer,
        close=close,
    )


def _payload_answer(result) -> Tuple[int, set]:
    boxes = result["boxes"]
    return result["count"], _box_cells([b[0] for b in boxes], [b[1] for b in boxes])


def _no_errors(results: Sequence[Any]) -> Sequence[Any]:
    for result in results:
        if "error" in result:
            raise RuntimeError(result["error"])
    return results


def remote_reader(transport: str, ready: dict) -> Reader:
    """One client, one connection: the generator is single-threaded."""
    if transport == "http":
        client = LineageClient.connect(ready["http"])
    else:
        client = RPCClient.connect(ready["rpc"], pool_size=1)
    return Reader(
        prepare=lambda request: request,
        single=lambda request: client.prov_query(**request),
        batch=lambda requests: _no_errors(client.prov_query_batch(requests)),
        answer=_payload_answer,
        close=client.close,
    )


# ----------------------------------------------------------------------
# timed loops
# ----------------------------------------------------------------------
def closed_loop(
    call: Callable[[Any], Any],
    lap: Sequence[Any],
    seconds: float,
    before_lap: Optional[Callable[[], None]] = None,
) -> Tuple[np.ndarray, int]:
    """One caller, next call only after the previous returned.  Runs whole
    laps of *lap* until *seconds* have passed (at least two), so every lap
    times exactly the same calls; *before_lap* runs, untimed, ahead of
    each.  Returns the seconds of every call, scaled to the reference
    clock by the probes around its lap, as a ``(laps, len(lap))`` matrix,
    and the number of calls that raised."""
    laps: List[np.ndarray] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    after = clock.probe()
    while len(laps) < 2 or time.perf_counter() < deadline:
        before = after
        if before_lap is not None:
            before_lap()
            before = clock.probe()
        times = np.empty(len(lap))
        t0 = time.perf_counter()
        for i, item in enumerate(lap):
            try:
                call(item)
            except Exception:  # noqa: BLE001 - counted as a failed operation
                failed += 1
            t1 = time.perf_counter()
            times[i] = t1 - t0
            t0 = t1
        after = clock.probe()
        laps.append(times * clock.scale(before, after))
    return np.array(laps), failed


def fastest(repetitions: np.ndarray) -> np.ndarray:
    """Each operation's fastest repetition (see the module docstring);
    rows are repetitions, columns operations."""
    return repetitions.min(axis=0)


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
def _oracle(groups: Sequence[gen.Group], request: gen.Request) -> set:
    """The brute-force answer.  Groups are linear chains, so the stored
    path between two arrays of a group is unique."""
    first, last = request["path"][0], request["path"][-1]
    group = next(g for g in groups if first in dict(g.arrays))
    names = [name for name, _ in group.arrays]
    i, j = names.index(first), names.index(last)
    shape = group.arrays[i][1]
    if "slices" in request:
        ranges = [range(*slice(a, b).indices(dim)) for (a, b), dim in zip(request["slices"], shape)]
        cells = list(map(tuple, np.stack(np.meshgrid(*ranges, indexing="ij"), -1).reshape(-1, len(shape)).tolist()))
    else:
        cells = [tuple(cell) for cell in request["cells"]]
    if i < j:
        return query_path_reference(group.steps[i:j], ["forward"] * (j - i), cells)
    return query_path_reference(group.steps[j:i][::-1], ["backward"] * (i - j), cells)


def verify(reader: Reader, groups: Sequence[gen.Group], pool: Sequence[gen.Request], seed: int) -> Tuple[int, int]:
    """``(checked, mismatched)`` over a seeded sample of the pool: the
    single answer must equal the oracle, and the same request inside a
    batch must give the same answer."""
    order = np.random.default_rng([seed, 7]).permutation(len(pool))[:ORACLE_SAMPLE]
    sample = [pool[i] for i in order]
    prepared = [reader.prepare(r) for r in sample]
    batched = reader.batch(prepared)
    checked = mismatched = 0
    start = time.perf_counter()
    for request, item, in_batch in zip(sample, prepared, batched):
        expected = _oracle(groups, request)
        count, cells = reader.answer(reader.single(item))
        ok = cells == expected and count == len(expected) and reader.answer(in_batch) == (count, cells)
        checked += 1
        mismatched += not ok
        if not ok:
            print(f"oracle mismatch: {json.dumps(request)[:200]} expected {len(expected)} cells, got {count}", file=sys.stderr)
        if checked >= 4 and time.perf_counter() - start > ORACLE_BUDGET_S:
            break  # the oracle is a Python loop over every row of every hop
    return checked, mismatched


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
class Setup(NamedTuple):
    """Everything one set-up leaves behind."""

    groups: List[gen.Group]
    pool: List[gen.Request]  # the distinct queries
    stream: List[gen.Request]  # one lap, in issue order
    build: Optional[dict]  # host.ingest() report (None for ingest_mixed: its builds are timed)
    reopen_ms: List[float]  # the reopen cycles of that build
    reader: Optional[Reader]
    child: Optional[Child]
    seconds: float  # set-up time at the reference clock, reopen cycles excluded


class Run(NamedTuple):
    metrics: Dict[str, float]  # units are BENCHMARK.json's
    attempted: int
    failed: int
    digest: str  # of every generated input


def configure(name: str, scale: float) -> Tuple[Workload, gen.CatalogSpec]:
    """The workload and its catalog shape; ``--scale`` below 1 (smoke tests)
    shrinks the catalog, the lap and the burst."""
    workload = WORKLOADS[name]
    if scale < 1.0:
        workload = workload._replace(lap=BATCH, burst=min(workload.burst, 4))
    return workload, workload.spec.scaled(scale)


def make_inputs(workload: Workload, spec: gen.CatalogSpec, seed: int):
    """``(groups, pool, stream)``: the catalog, the distinct queries, one lap."""
    groups = gen.build_groups(spec, seed)
    if workload.hot:
        pool = gen.query_pool(groups, seed, min(HOT_POOL, workload.lap), HOT_MAX_CELLS)
        stream = [pool[i] for i in gen.zipf_lap(len(pool), workload.lap)]
    else:
        pool = stream = gen.query_pool(groups, seed, workload.lap, COLD_MAX_CELLS)
    return groups, pool, stream


def warm(reader: Reader, pool: Sequence[gen.Request]) -> None:
    """Every distinct query once: a hot pool lands in the result cache, a
    cold one pages the segments in and settles the table cache at its budget."""
    for request in pool:
        reader.single(reader.prepare(request))


def reopens(scale: float) -> int:
    return host.REOPEN_CYCLES if scale >= 1.0 else 3


def set_up(workload: Workload, spec: gen.CatalogSpec, seed: int, scale: float, root: Path) -> Setup:
    before = clock.probe()
    start = time.perf_counter()
    groups, pool, stream = make_inputs(workload, spec, seed)
    build = reader = child = None
    reopen_ms: List[float] = []
    reopen_s = 0.0
    if workload.transport != "local":
        child = Child(workload, spec, seed, root, pool[0], reopens(scale))
        build = child.ready["ingest"]
        reopen_ms, reopen_s = child.ready["reopen_ms"], child.ready["reopen_s"]
        reader = remote_reader(workload.transport, child.ready)
    elif not workload.shares[0]:  # else catalog builds are the timed phase
        build = host.ingest(root, groups)
        t0 = time.perf_counter()
        reopen_ms = host.reopen_cycles(root, pool[0], reopens(scale))
        reopen_s = time.perf_counter() - t0
        reader = local_reader(host.open_catalog(root, workload.table_cache_frac), workload.result_cache)
    if reader is not None:
        warm(reader, pool)
    seconds = (time.perf_counter() - start - reopen_s) * clock.scale(before, clock.probe())
    return Setup(groups, pool, stream, build, reopen_ms, reader, child, seconds)


def tear_down(setup: Setup) -> None:
    if setup.reader is not None:
        setup.reader.close()
    if setup.child is not None:
        setup.child.stop()


def pin_to_one_cpu() -> None:
    """Run the generator, and the child it starts, on the highest-numbered
    CPU this process may use.  Client and server alternate (one closed-loop
    caller), so a second CPU adds no throughput, only a cross-CPU wake-up
    per message whose cost depends on where the scheduler happened to put
    the two processes (measured here: p50 0.42 ms on one CPU, 0.73 ms
    across two, and a mixture of both when left unpinned).  CPU 0 is left
    to interrupts and whatever else the machine runs."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not Linux, or not permitted: measure unpinned


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, scale: float = 1.0) -> Run:
    workload, spec = configure(name, scale)
    pin_to_one_cpu()
    tmp = OUT_DIR / f"tmp-{name}-{seed}-{time.time_ns()}"
    tmp.mkdir(parents=True)
    setup = None
    try:
        setup_s: List[float] = []
        builds: List[dict] = []
        reopen_ms: List[List[float]] = []  # per build
        for i in range(SETUPS if scale >= 1.0 else 1):
            if setup is not None:
                tear_down(setup)
            setup = set_up(workload, spec, seed, scale, tmp / f"catalog-{i}")
            setup_s.append(setup.seconds)
            if setup.build is not None:
                builds.append(setup.build)
                reopen_ms.append(setup.reopen_ms)
        return _measure(workload, spec, setup, seed, seconds, scale, tmp, setup_s, builds, reopen_ms)
    finally:
        if setup is not None:
            tear_down(setup)
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(workload, spec, setup, seed, seconds, scale, tmp, setup_s, builds, reopen_ms) -> Run:
    write_share, single_share, batch_share = workload.shares
    reader, child, groups = setup.reader, setup.child, setup.groups
    owned = None
    if write_share:
        # timed catalog builds into fresh directories, each followed by its
        # reopen cycles (outside the write clock)
        deadline = time.perf_counter() + write_share * seconds
        while len(builds) < 2 or time.perf_counter() < deadline:
            root = tmp / f"build-{len(builds)}"
            builds.append(host.ingest(root, groups))
            reopen_ms.append(host.reopen_cycles(root, setup.pool[0], reopens(scale)))
        owned = reader = local_reader(host.open_catalog(root, workload.table_cache_frac), workload.result_cache)
        warm(reader, setup.pool)

    bursts: List[dict] = []
    before_lap = None
    if workload.burst:
        before_lap = lambda: bursts.append(child.ask(f"burst {len(bursts)}"))  # noqa: E731
    try:
        prepared = [reader.prepare(r) for r in setup.stream]
        singles, singles_failed = closed_loop(reader.single, prepared, single_share * seconds, before_lap)
        batches = [prepared[i : i + BATCH] for i in range(0, len(prepared), BATCH)]
        batched, batched_failed = closed_loop(reader.batch, batches, batch_share * seconds, before_lap)
        if bursts:
            groups = _after_burst(groups, gen.write_burst(spec, seed, len(bursts) - 1, workload.burst))
        checked, mismatched = verify(reader, groups, setup.pool, seed)
        child_rss_mb = child.ask("stats")["rss_mb"] if child is not None else 0.0
    finally:
        if owned is not None:
            owned.close()

    # per relation, its commit in every build: rows are repetitions
    commits = np.array([b["commit_ms"] for b in builds])
    stored, raw = builds[-1]["stored_bytes"], builds[-1]["raw_bytes"]
    attempted = commits.size + sum(map(len, reopen_ms)) + singles.size + BATCH * batched.size + checked
    failed = singles_failed + BATCH * batched_failed + mismatched
    commit_ms = fastest(commits)
    if bursts:
        # the write side of serve_churn is the bursts, not the initial build;
        # storage is read after the first burst, a fixed point however many follow
        commit_ms = fastest(np.array([b["commit_ms"] for b in bursts if not b["failed"]]))
        new_edges = [w for w in gen.write_burst(spec, seed, 0, workload.burst) if not w.replace]
        raw += gen.raw_size([gen.write_relation(w) for w in new_edges])[1]
        stored = bursts[0]["stored_bytes"]
        # the server grows with every burst (new arrays, replaced tables still
        # cached); the fourth is the last one every run is sure to reach
        child_rss_mb = bursts[3]["rss_mb"]
        attempted += workload.burst * len(bursts)
        failed += sum(b["failed"] for b in bursts)

    single_s, batch_s = fastest(singles), fastest(batched)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ingest_rows_per_s": builds[-1]["rows"] / (fastest(commits).sum() / 1e3),
        "commit_p50_ms": float(np.median(commit_ms)),
        "stored_bytes_per_raw_byte": stored / raw,
        # the extreme of 40 x builds readings is one lucky cycle; the median over
        # builds of each build's fastest cycle is not
        "cold_open_ms": statistics.median(min(cycles) for cycles in reopen_ms),
        "query_p50_ms": float(np.median(single_s)) * 1e3,
        "query_qps": len(single_s) / single_s.sum(),
        "batch_qps": len(single_s) / batch_s.sum(),
        "peak_rss_mb": host.peak_rss_mb() + child_rss_mb,
    }
    writes = gen.write_burst(spec, seed, 0, workload.burst) if workload.burst else ()
    return Run(metrics, int(attempted), int(failed), gen.inputs_digest(setup.groups, setup.stream, writes))


def _after_burst(groups: Sequence[gen.Group], writes: Sequence[gen.Write]) -> List[gen.Group]:
    """The catalog the oracle sees after a burst: each replaced edge
    carries the burst's last write to it.  (New arrays are never queried.)"""
    last = {(w.in_name, w.out_name): w for w in writes if w.replace}
    return [
        group._replace(
            steps=[
                gen.write_relation(last[(r.in_name, r.out_name)]) if (r.in_name, r.out_name) in last else r
                for r in group.steps
            ]
        )
        for group in groups
    ]
