"""The concurrent lineage service (``LineageService``): async ingest with
bounded queues, worker threads and group commit.

The single-threaded ``DSLog.register_operation`` runs ProvRC compression,
segment appends and (with ``autosync``) a manifest publish on the
caller's thread — in-situ capture stalls the host pipeline for the whole
round trip.  The service decouples the three:

    submit() ──► bounded queue ──► worker pool ──► sharded store ──► committer
    (caller,       (backpressure)   (compression     (per-shard        (group
     returns                         + appends,       appends)          commit:
     a ticket)                       off-path)                          one publish
                                                                        per batch)

* :meth:`LineageService.submit` enqueues a raw operation — relations or
  capture callables, exactly the ``register_operation`` surface — and
  returns an :class:`IngestTicket` immediately.  When the queue is full the
  call blocks: backpressure, so an ingest storm cannot grow memory without
  bound.  The wait is *bounded*: after :data:`SUBMIT_TIMEOUT_S` the call
  raises a structured :class:`repro.faults.IngestOverloaded` (carrying the
  queue depth) instead of blocking indefinitely, so a stalled committer
  cannot wedge every producer thread.
* **Workers** pop operations and run the expensive part — signature
  fingerprinting, reuse lookup, ProvRC compression, table serialization —
  with no lock held; only the per-shard segment append and the catalog
  dict insert are serialized (:mod:`repro.storage.sharded`).
* The **committer** publishes manifests in *group commits*: every pending
  applied operation rides the same per-shard manifest edit record + fsync.  A
  ticket resolves only once a publish covers it, so ``ticket.result()``
  means *durable*, and N concurrent writers share one publish instead of
  paying one each — the commit window (:data:`COMMIT_INTERVAL_S`, timed on
  :func:`repro.faults.clock`, the clock a test freezes) trades a few
  milliseconds of single-op latency for multi-writer throughput, exactly
  like a database's group commit delay.  At the storage layer the batch is
  *physically* coalesced too: worker appends only extend each dirty
  shard's pending write buffer, and the commit appends the shard's
  manifest edit record to it and hands the buffer to the OS as one
  preassembled write + one fsync per shard
  (:class:`repro.storage.segments.SegmentWriter`), so syscall cost scales
  with dirty shards, not with batch size.  ``stats()["write_coalescing"]``
  reports the records-per-write actually achieved.
* :meth:`LineageService.flush` drains the queue and forces a commit;
  :meth:`LineageService.snapshot` hands out a snapshot-isolated read view
  (:mod:`repro.service.snapshot`) that concurrent ingest never perturbs;
  :meth:`LineageService.compact` reclaims one shard (or all) while the
  others keep ingesting.
"""

from __future__ import annotations

import errno
import math
import queue
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..dslog import DSLog
from .. import faults
from ..faults import DeadlineExceeded, IngestOverloaded
from ..obs import REGISTRY, tracing
from ..obs.metrics import DEFAULT_SIZE_BUCKETS
from .snapshot import SnapshotDSLog

__all__ = ["IngestTicket", "LineageService", "ServiceClosedError"]

_SUBMIT_WAIT = REGISTRY.histogram(
    "dslog_ingest_submit_wait_seconds",
    "Time submit() blocked on a full queue (backpressure)",
)
_COMMIT_BATCH = REGISTRY.histogram(
    "dslog_ingest_commit_batch_size",
    "Tickets covered per group commit",
    buckets=DEFAULT_SIZE_BUCKETS,
)

_SENTINEL = object()

# bound of the ingest queue; a full queue blocks submit() (backpressure)
QUEUE_SIZE = 256
# seconds submit() may block on a full queue before IngestOverloaded
SUBMIT_TIMEOUT_S = 30.0
# the group-commit window: the committer publishes at most once per window
# (a flush() overrides it), so concurrent writers amortize the per-shard
# edit record append + fsync; single-op durable latency is at least one window
COMMIT_INTERVAL_S = 0.002


class ServiceClosedError(RuntimeError):
    """submit() was called on a closed (or closing) service."""


class IngestTicket:
    """Handle for one submitted operation.

    Resolves when the operation is *durable* — applied to the catalog and
    covered by a published manifest generation — or failed.  Timestamps are
    kept at each stage so callers (and the ingest benchmark) can separate
    queueing, apply and commit latency.
    """

    __slots__ = (
        "spec",
        "submitted_at",
        "durable_at",
        "_record",
        "_error",
        "_event",
        "_applied_epoch",
        "_trace",
    )

    def __init__(self, spec: Dict[str, Any]) -> None:
        self.spec = spec
        self.submitted_at = time.monotonic()
        self.durable_at: Optional[float] = None
        self._record: Any = None
        self._error: Optional[BaseException] = None
        self._event = threading.Event()
        self._applied_epoch = 0  # store torn-write epoch when the op applied
        # per-ticket trace (queued → apply → commit spans recorded by the
        # worker and committer threads); None when tracing is disabled
        self._trace: Optional[tracing.Trace] = None

    # -- service-side transitions --------------------------------------
    def _mark_applied(self, record: Any) -> None:
        self._record = record
        # the spec holds relations/captures/input_data — potentially large
        # arrays; once applied, nothing reads it again, so don't let a
        # long-held ticket pin those objects in memory
        self.spec = None

    def _mark_durable(self, when: float) -> None:
        self.durable_at = when
        if self._trace is not None:
            self._trace.set_tag("outcome", "durable")
            self._trace.finish()
        self._event.set()

    def _mark_failed(self, error: BaseException) -> None:
        self._error = error
        self.spec = None
        if self._trace is not None:
            self._trace.set_tag("outcome", "failed")
            self._trace.set_tag("error", type(error).__name__)
            site = getattr(error, "site", None)
            if site is not None:
                self._trace.set_tag("fault_site", site)
            self._trace.finish()
        self._event.set()

    # -- caller API ----------------------------------------------------
    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def failed(self) -> bool:
        return self._error is not None

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the ticket resolves; returns whether it did."""
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> Any:
        """The ingested :class:`OperationRecord` (or the lineage entry for
        ``submit_lineage``), once durable.  Re-raises the worker's
        exception for a failed operation.  An expired *timeout* raises
        :class:`repro.faults.DeadlineExceeded` (a ``TimeoutError``
        subclass, so existing ``except TimeoutError`` handlers keep
        working)."""
        if not self._event.wait(timeout):
            raise DeadlineExceeded(
                f"operation not durable within {timeout}s (ticket still pending)"
            )
        if self._error is not None:
            raise self._error
        return self._record

    @property
    def durable_latency(self) -> Optional[float]:
        """Seconds from submit to durable publish (None until resolved)."""
        if self.durable_at is None:
            return None
        return self.durable_at - self.submitted_at


class LineageService:
    """Concurrent, durable lineage ingest over a durable DSLog.

    Parameters
    ----------
    root / num_shards:
        Directory of the catalog (created if absent) and the shard count
        of a new one: the service opens ``DSLog(root, num_shards=...)``.
    log:
        An existing durable DSLog (one opened with a root) to serve instead
        of opening one — the way to pass any other :class:`DSLog` option.
        It excludes *root* and *num_shards*.  The service takes ownership:
        ``close()`` closes it.
    workers:
        Ingest worker threads.  Compression and serialization run here with
        no lock held, overlapping each other and the committer's fsyncs.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        *,
        log: Optional[DSLog] = None,
        workers: int = 2,
        num_shards: Optional[int] = None,
    ) -> None:
        if log is None:
            if root is None:
                raise ValueError("LineageService needs a root directory or a log")
            log = DSLog(root, num_shards=num_shards, autosync=False)
        elif root is not None or num_shards is not None:
            raise ValueError(
                "LineageService takes a log or a root (+ num_shards), not both: "
                "open the DSLog with the options it needs and pass log= alone"
            )
        if log.store is None or isinstance(log, SnapshotDSLog):
            raise ValueError(
                "LineageService needs a durable DSLog (one opened with a root), "
                f"got a {'snapshot view' if log.store is not None else 'memory log'}"
            )
        log.autosync = False  # the committer owns publishing
        self.log = log
        self.faults = log.faults
        self._queue: "queue.Queue" = queue.Queue(maxsize=QUEUE_SIZE)
        self._cv = threading.Condition()
        self._applied: List[IngestTicket] = []
        self._inflight = 0  # submitted, not yet applied or failed
        self._committing = False  # a popped batch is mid-publish
        self._stop = False
        self._closed = False
        self._flush_requested = False
        self._last_commit = -math.inf  # the first window is due at once
        # counters (read under _cv)
        self.submitted = 0
        self.failed = 0
        self.overloaded = 0
        self.commits = 0
        self.committed_ops = 0
        self.largest_commit = 0

        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"lineage-worker-{i}", daemon=True)
            for i in range(max(1, int(workers)))
        ]
        self._committer = threading.Thread(
            target=self._committer_loop, name="lineage-committer", daemon=True
        )
        for thread in self._workers:
            thread.start()
        self._committer.start()

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------
    def define_array(self, name: str, shape: Sequence[int]):
        """Declare a tracked array (synchronous: metadata only, and every
        subsequently submitted operation may reference it)."""
        self._check_open()
        return self.log.define_array(name, shape)

    def submit(
        self,
        op_name: str,
        in_arrs: Sequence[str],
        out_arrs: Sequence[str],
        relations: Optional[Mapping[Tuple[str, str], Any]] = None,
        captures: Optional[Mapping[Tuple[str, str], Any]] = None,
        input_data: Optional[Mapping[str, Any]] = None,
        op_args: Optional[Mapping[str, Any]] = None,
        reuse: bool = True,
        replace: bool = False,
        timeout: Optional[float] = SUBMIT_TIMEOUT_S,
    ) -> IngestTicket:
        """Enqueue one operation for async ingest; returns immediately.

        Mirrors :meth:`DSLog.register_operation`.  Blocks only when the
        ingest queue is full (backpressure).  The wait is bounded by
        *timeout* seconds (:data:`SUBMIT_TIMEOUT_S` by default); on expiry a
        structured :class:`repro.faults.IngestOverloaded` carrying the
        queue depth is raised.  ``timeout=None`` blocks indefinitely.
        """
        spec = dict(
            kind="operation",
            op_name=op_name,
            in_arrs=tuple(in_arrs),
            out_arrs=tuple(out_arrs),
            relations=relations,
            captures=captures,
            input_data=input_data,
            op_args=op_args,
            reuse=reuse,
            replace=replace,
        )
        return self._enqueue(spec, timeout)

    def submit_lineage(
        self,
        in_arr: str,
        out_arr: str,
        relation=None,
        capture=None,
        op_name: Optional[str] = None,
        replace: bool = False,
        timeout: Optional[float] = SUBMIT_TIMEOUT_S,
    ) -> IngestTicket:
        """Enqueue a single lineage pair (mirrors :meth:`DSLog.add_lineage`)."""
        spec = dict(
            kind="lineage",
            in_arr=in_arr,
            out_arr=out_arr,
            relation=relation,
            capture=capture,
            op_name=op_name,
            replace=replace,
        )
        return self._enqueue(spec, timeout)

    def _enqueue(self, spec: Dict[str, Any], timeout: Optional[float]) -> IngestTicket:
        self._check_open()
        ticket = IngestTicket(spec)
        if tracing.tracing_enabled():
            ticket._trace = tracing.Trace("ingest", kind=spec["kind"])
        with self._cv:
            self._inflight += 1
            self.submitted += 1
        waited = time.monotonic()
        try:
            self._queue.put(ticket, timeout=timeout)
        except BaseException as error:
            with self._cv:
                self._inflight -= 1
                self.submitted -= 1
                self.overloaded += isinstance(error, queue.Full)
            if isinstance(error, queue.Full):
                _SUBMIT_WAIT.observe(time.monotonic() - waited)
                raise IngestOverloaded(
                    f"ingest queue full ({self._queue.maxsize} deep) for "
                    f"{timeout}s; the service is overloaded or its committer "
                    f"is stalled",
                    queue_depth=self._queue.qsize(),
                ) from None
            raise
        _SUBMIT_WAIT.observe(time.monotonic() - waited)
        return ticket

    def _check_open(self) -> None:
        if self._closed or self._stop:
            raise ServiceClosedError("the lineage service is closed")

    # ------------------------------------------------------------------
    # worker pool
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _SENTINEL:
                    return
                self._apply(item)
            finally:
                self._queue.task_done()

    def _apply_spec(self, spec: Dict[str, Any]) -> Any:
        if self.faults is not None:
            self.faults.check("service.worker", "pipeline")
        if spec["kind"] == "operation":
            return self.log.register_operation(
                spec["op_name"],
                spec["in_arrs"],
                spec["out_arrs"],
                relations=spec["relations"],
                captures=spec["captures"],
                input_data=spec["input_data"],
                op_args=spec["op_args"],
                reuse=spec["reuse"],
                replace=spec["replace"],
            )
        return self.log.add_lineage(
            spec["in_arr"],
            spec["out_arr"],
            relation=spec["relation"],
            capture=spec["capture"],
            op_name=spec["op_name"],
            replace=spec["replace"],
        )

    def _apply(self, ticket: IngestTicket) -> None:
        spec = ticket.spec
        # snapshot the torn-write epoch before touching the catalog: if a
        # torn flush destroys pending bytes while this op is mid-apply, its
        # record may be among them — the commit-time epoch check will
        # refuse to acknowledge it
        epoch = self.log.store.torn_epoch()
        trace = ticket._trace
        if trace is not None:
            trace.add_span("queued", time.monotonic() - ticket.submitted_at)
        try:
            if trace is not None:
                # re-enter the ticket's trace on this worker thread so the
                # apply span (and anything opened beneath it) nests there
                with trace.activate(), trace.span("apply", kind=spec["kind"]):
                    record = self._apply_spec(spec)
            else:
                record = self._apply_spec(spec)
        except BaseException as error:
            with self._cv:
                self._inflight -= 1
                self.failed += 1
                ticket._mark_failed(error)
                self._cv.notify_all()
        else:
            ticket._mark_applied(record)
            ticket._applied_epoch = epoch
            with self._cv:
                self._inflight -= 1
                self._applied.append(ticket)
                self._cv.notify_all()

    # ------------------------------------------------------------------
    # group commit
    # ------------------------------------------------------------------
    def _committer_loop(self) -> None:
        while True:
            with self._cv:
                now = faults.clock()
                due = bool(self._applied) and (
                    self._flush_requested
                    or self._stop
                    or now - self._last_commit >= COMMIT_INTERVAL_S
                )
                if not due:
                    if self._stop and not self._applied and self._inflight == 0:
                        return
                    if self._applied:
                        wait = max(0.0005, COMMIT_INTERVAL_S - (now - self._last_commit))
                    else:
                        wait = 0.1  # idle: re-check stop periodically
                    self._cv.wait(wait)
                    continue
                batch = self._applied
                self._applied = []
                self._committing = True
            self._last_commit = faults.clock()
            try:
                self._commit(batch)
            finally:
                with self._cv:
                    self._committing = False
                    self._cv.notify_all()

    def _commit(self, batch: List[IngestTicket]) -> None:
        commit_started = time.monotonic()
        try:
            if self.faults is not None:
                # "stall" rules model a slow committer (fsync on a sick
                # disk); "error" rules fail the whole batch — all-or-nothing
                self.faults.check("service.commit", "pipeline")
            self.log.sync()
        except BaseException as error:
            commit_seconds = time.monotonic() - commit_started
            with self._cv:
                for ticket in batch:
                    self.failed += 1
                    if ticket._trace is not None:
                        ticket._trace.add_span(
                            "commit", commit_seconds, batch=len(batch)
                        )
                    ticket._mark_failed(error)
                self._cv.notify_all()
        else:
            # the sync published a manifest, but durability is per ticket:
            # a torn write since a ticket applied may have destroyed its
            # record bytes (the op raced the failing flush), so only
            # tickets applied at the current epoch are acknowledged — the
            # rest fail, their dangling rows are scrub's to reconcile
            epoch = self.log.store.torn_epoch()
            now = time.monotonic()
            commit_seconds = now - commit_started
            _COMMIT_BATCH.observe(len(batch))
            with self._cv:
                self.commits += 1
                for ticket in batch:
                    if ticket._trace is not None:
                        ticket._trace.add_span(
                            "commit", commit_seconds, batch=len(batch)
                        )
                    if ticket._applied_epoch != epoch:
                        self.failed += 1
                        ticket._mark_failed(
                            OSError(
                                errno.EIO,
                                "a torn segment write overlapped this "
                                "operation; its record bytes may be lost",
                            )
                        )
                        continue
                    self.committed_ops += 1
                    ticket._mark_durable(now)
                self.largest_commit = max(self.largest_commit, len(batch))
                self._cv.notify_all()

    # ------------------------------------------------------------------
    # flush / close / maintenance
    # ------------------------------------------------------------------
    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until every operation submitted so far is durable (or
        failed).  Overrides the commit window: the committer publishes as
        soon as the queue drains."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            try:
                while self._inflight > 0 or self._applied or self._committing:
                    self._flush_requested = True
                    self._cv.notify_all()
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        raise TimeoutError("flush() timed out")
                    self._cv.wait(0.05 if remaining is None else min(0.05, remaining))
            finally:
                # a timed-out flush must not leave the commit window overridden
                self._flush_requested = False

    def snapshot(self):
        """A snapshot-isolated, read-only DSLog view of the catalog *as
        applied* right now (durability may lag by one commit window)."""
        return self.log.snapshot()

    def compact(self, shard: Optional[int] = None) -> dict:
        """Publish pending state, then compact one shard (or all) while
        ingest into other shards proceeds."""
        return self.log.compact(shard=shard)

    def stats(self) -> dict:
        with self._cv:
            return {
                "submitted": self.submitted,
                "failed": self.failed,
                "overloaded": self.overloaded,
                "inflight": self._inflight,
                "applied_pending_commit": len(self._applied),
                "commits": self.commits,
                "committed_ops": self.committed_ops,
                "largest_commit": self.largest_commit,
                "avg_commit_batch": (
                    self.committed_ops / self.commits if self.commits else 0.0
                ),
                "queue_depth": self._queue.qsize(),
                "generation_vector": list(self.log.store.generation_vector()),
                # storage-level coalescing: each group commit hands a dirty
                # shard's whole batch to the OS as ONE write + ONE fsync, so
                # records-per-write ≈ the commit batching actually achieved
                "write_coalescing": self.log.store.write_stats(),
            }

    def close(self) -> None:
        """Flush, stop the worker pool and the committer, close the log."""
        if self._closed:
            return
        self.flush()
        with self._cv:
            self._stop = True
            self._cv.notify_all()
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        for thread in self._workers:
            thread.join()
        # a submit() racing this close can land its ticket behind the
        # sentinels, where no worker will ever pop it; fail those tickets
        # (releasing their waiters) so the committer's exit condition —
        # zero inflight — can be met
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                with self._cv:
                    if self._inflight == 0:
                        break
                # a racing submit has incremented _inflight but not yet
                # finished its queue.put — give it a beat and re-drain
                time.sleep(0.001)
                continue
            if item is _SENTINEL:
                continue
            with self._cv:
                self._inflight -= 1
                self.failed += 1
                item._mark_failed(ServiceClosedError("the lineage service is closed"))
                self._cv.notify_all()
        with self._cv:
            self._cv.notify_all()
        self._committer.join()
        self._closed = True
        self.log.close()

    def __enter__(self) -> "LineageService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
