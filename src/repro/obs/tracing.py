"""Lightweight request tracing: trace ids, nested spans, contextvars
propagation, a bounded in-memory ring of finished traces, and a
slow-trace log.

A :class:`Trace` is opened per ingest ticket (by
``LineageService._enqueue``) and, on either wire, per request that asks
for one — a trace named ``request``, tagged with its ``wire`` and ``op``:
the caller sends a W3C ``traceparent`` (an HTTP header, or the same value
under that key of an RPC request's JSON payload) and the server's trace
takes the caller's trace id (:func:`parse_traceparent`; a client builds
the value with :func:`traceparent`).  A request that asked for nothing
but ran :data:`SLOW_S` or longer leaves a root-only trace, recorded after
the fact; every other request records nothing, so ``GET /debug/traces``
holds requested and slow traces only (and ingest tickets').  Within a
trace, work is recorded as nested spans — ``plan``, ``prefetch`` with one
child per shard, ``join``, ``cache-install`` — each carrying wall-clock
duration and free-form tags.  Propagation uses a single
:class:`~contextvars.ContextVar` holding ``(trace, parent span id)``;
crossing a thread boundary is one ``contextvars.copy_context()`` at
submit time (see :func:`wrap_context`), which is how spans opened inside
the executor's prefetch pool and the pipeline's worker/committer threads
still parent correctly.

Finished traces land in a bounded deque served by ``GET /debug/traces``;
traces that took :data:`SLOW_S` or longer are additionally emitted to the
structured log as ``slow_trace`` events.

The module-level :func:`span` helper is the only API hot paths touch:
when tracing is disabled or no trace is active it returns a cached no-op
context manager, so uninstrumented-cost is one ContextVar read.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import os
import re
import threading
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Trace",
    "Span",
    "start_trace",
    "current_trace",
    "span",
    "wrap_context",
    "recent_traces",
    "clear_traces",
    "SLOW_S",
    "set_enabled",
    "tracing_enabled",
    "traceparent",
    "parse_traceparent",
]

_enabled = True


def set_enabled(value: bool) -> None:
    global _enabled
    _enabled = bool(value)


def tracing_enabled() -> bool:
    return _enabled


# (trace, parent span id) of the logical call chain; None outside a trace
_CURRENT: "contextvars.ContextVar[Optional[Tuple[Trace, Optional[int]]]]" = (
    contextvars.ContextVar("repro_obs_trace", default=None)
)

_ring_lock = threading.Lock()
_ring: "deque[dict]" = deque(maxlen=256)

# what "slow" means, for every trace: one that took at least this long is
# logged as a ``slow_trace`` event, and a request that asked for no trace
# but ran this long still leaves a root-only one
SLOW_S = 0.1


def recent_traces(limit: Optional[int] = None) -> List[dict]:
    """Finished traces, newest first, as JSON-friendly dicts."""
    with _ring_lock:
        items = list(_ring)
    items.reverse()
    if limit is not None:
        items = items[: max(0, int(limit))]
    return items


def clear_traces() -> None:
    with _ring_lock:
        _ring.clear()


class Span:
    """One timed region inside a trace.  Created via ``Trace.span`` /
    module :func:`span`; not instantiated directly."""

    __slots__ = ("span_id", "parent_id", "name", "tags", "start", "_t0", "duration_s")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        tags: Dict[str, Any],
        start: float,
        t0: float,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.tags = tags
        self.start = start  # wall clock, epoch seconds
        self._t0 = t0  # monotonic, for duration
        self.duration_s: Optional[float] = None

    def set_tag(self, key: str, value: Any) -> None:
        self.tags[key] = value

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration_s": self.duration_s,
            "tags": dict(self.tags),
        }


class Trace:
    """A tree of spans sharing one trace id.

    Thread-safe: spans opened from pool threads (after
    :func:`wrap_context` propagation) append under the trace's lock.
    ``finish()`` closes the trace, pushes it into the ring, and emits a
    ``slow_trace`` log event when over threshold.
    """

    def __init__(
        self, name: str, *, trace_id: Optional[str] = None, t0: Optional[float] = None, **tags: Any
    ) -> None:
        """*trace_id* is the caller's (a fresh one by default); *t0*, a
        ``time.monotonic()`` reading, opens the trace that long ago."""
        # 16 hex digits, a fifth of uuid4's cost
        self.trace_id = trace_id if trace_id is not None else os.urandom(8).hex()
        self.name = name
        self.tags: Dict[str, Any] = dict(tags)
        if t0 is None:
            self.start, self._t0 = time.time(), time.monotonic()
        else:
            self.start, self._t0 = time.time() - (time.monotonic() - t0), t0
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._ids = itertools.count(1)
        self.duration_s: Optional[float] = None
        self._finished = False

    # -- span management -------------------------------------------------
    def _open_span(self, name: str, parent_id: Optional[int], tags: Dict[str, Any]) -> Span:
        sp = Span(
            span_id=next(self._ids),
            parent_id=parent_id,
            name=name,
            tags=tags,
            start=time.time(),
            t0=time.monotonic(),
        )
        with self._lock:
            self._spans.append(sp)
        return sp

    @contextlib.contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[Span]:
        """Open a child span of whatever span is current in this context."""
        state = _CURRENT.get()
        parent_id = state[1] if state is not None and state[0] is self else None
        sp = self._open_span(name, parent_id, tags)
        token = _CURRENT.set((self, sp.span_id))
        try:
            yield sp
        finally:
            sp.duration_s = time.monotonic() - sp._t0
            _CURRENT.reset(token)

    def add_span(
        self,
        name: str,
        duration_s: float,
        parent_id: Optional[int] = None,
        start: Optional[float] = None,
        **tags: Any,
    ) -> Span:
        """Record an already-measured region (used by the pipeline, where
        a ticket's queued/apply/commit phases are timed by different
        threads and closed after the fact)."""
        sp = self._open_span(name, parent_id, tags)
        sp.start = start if start is not None else time.time()
        sp.duration_s = duration_s
        return sp

    @contextlib.contextmanager
    def activate(self) -> Iterator["Trace"]:
        """Make this trace current in this thread's context (worker and
        committer threads re-enter ticket traces through this)."""
        token = _CURRENT.set((self, None))
        try:
            yield self
        finally:
            _CURRENT.reset(token)

    def set_tag(self, key: str, value: Any) -> None:
        with self._lock:
            self.tags[key] = value

    def as_dict(self) -> dict:
        with self._lock:
            spans = [sp.as_dict() for sp in self._spans]
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "start": self.start,
            "duration_s": self.duration_s,
            "tags": dict(self.tags),
            "spans": spans,
        }

    def finish(self) -> dict:
        """Close the trace; idempotent (the first call wins)."""
        with self._lock:
            if self._finished:
                finished = False
            else:
                self._finished = True
                self.duration_s = time.monotonic() - self._t0
                finished = True
        payload = self.as_dict()
        if not finished:
            return payload
        with _ring_lock:
            _ring.append(payload)
        if self.duration_s >= SLOW_S:
            from . import log as _log

            _log.log_event(
                "slow_trace",
                component="tracing",
                trace_id=self.trace_id,
                trace_name=self.name,
                duration_ms=round(self.duration_s * 1000.0, 3),
                spans=len(payload["spans"]),
                tags=payload["tags"],
            )
        return payload


def start_trace(name: str, **tags: Any) -> Optional[Trace]:
    """Open a trace and make it current; ``None`` when tracing is off.
    Callers hold the returned trace and ``finish()`` it themselves."""
    if not _enabled:
        return None
    trace = Trace(name, **tags)
    _CURRENT.set((trace, None))
    return trace


# a W3C trace context: version, trace id, parent span id, flags; a version
# after 00 may append fields
_TRACEPARENT = re.compile(r"([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}(-.*)?")


def parse_traceparent(value: Any) -> Optional[str]:
    """The trace id a W3C ``traceparent`` value carries, or ``None`` when
    *value* is absent or malformed (ignored, as the W3C recommendation
    says: the request is then as good as one that sent none)."""
    if type(value) is not str:
        return None
    match = _TRACEPARENT.fullmatch(value.strip())
    if match is None:
        return None
    version, trace_id, parent_id, more = match.groups()
    if version == "ff" or (version == "00" and more) or not trace_id.strip("0") or not parent_id.strip("0"):
        return None
    return trace_id


def traceparent(trace_id: str) -> str:
    """The ``traceparent`` value a client sends to have its request traced
    under *trace_id* (32 lower-case hex digits, not all zero)."""
    value = f"00-{trace_id}-{os.urandom(8).hex()}-01"
    if parse_traceparent(value) != trace_id:
        raise ValueError(f"a trace id is 32 lower-case hex digits, not all zero: got {trace_id!r}")
    return value


def current_trace() -> Optional[Trace]:
    state = _CURRENT.get()
    return state[0] if state is not None else None


class _NoopSpan:
    __slots__ = ()

    def set_tag(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


def span(name: str, **tags: Any):
    """Open a span on the current trace, or a cached no-op when there is
    no active trace (or tracing is disabled).  This is what instrumented
    hot paths call, so the inactive cost is one ContextVar read."""
    if not _enabled:
        return _NOOP_SPAN
    state = _CURRENT.get()
    if state is None:
        return _NOOP_SPAN
    return state[0].span(name, **tags)


def wrap_context(fn):
    """Bind ``fn`` to the caller's context so the active trace (and
    parent span) follow it across a thread-pool boundary::

        pool.submit(wrap_context(load_shard), shard_id)

    A plain closure over ``contextvars.copy_context()``; cheap enough to
    wrap every pool task unconditionally.
    """
    ctx = contextvars.copy_context()

    def _bound(*args: Any, **kwargs: Any):
        return ctx.run(fn, *args, **kwargs)

    return _bound
