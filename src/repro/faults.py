"""Deterministic fault injection and the failure-domain vocabulary.

The storage and service layers are built to survive real-world faults —
disk errors, ENOSPC, short writes, hung shards, stalled committers — but a
recovery path that is never executed is a recovery path that does not
work.  This module makes every such path *testable* without monkeypatching
internals: a :class:`FaultPlan` is threaded through segment I/O
(:mod:`repro.storage.segments`), the store (:mod:`repro.storage.store`),
the sharded store (:mod:`repro.storage.sharded`) and the ingest pipeline
(:mod:`repro.service.pipeline`), and each layer calls ``plan.check(site,
scope)`` at its fault points.  A plan with no matching rule costs one dict
lookup; a matching rule raises (or stalls, or truncates a write) exactly
where a real fault would.

Fault sites
-----------
=====================  ==========================================================
``segment.write``      ``SegmentWriter.flush_pending`` — the coalesced batch write
``segment.fsync``      ``SegmentWriter.sync`` — the durability barrier
``segment.read``       ``SegmentReader.read`` — record hydration from mapped pages
``segment.mmap``       ``SegmentReader`` open / remap
``manifest.write``     a manifest publish: its edit record's append, or a
                       checkpoint's temp write + rename
``service.worker``     the ingest worker, before an operation is applied
``service.commit``     the committer, before the group-commit publish
=====================  ==========================================================

*Scope* identifies the failure domain — ``"shard-01"`` for one shard of a
sharded store, the root directory's name for a single store — so a plan
can kill exactly one shard's I/O while the rest of the catalog keeps
serving.

Determinism
-----------
Rules fire on the *N-th matching call* (``at``/``times``), on every call
(neither), or pseudo-randomly at a given ``rate``.  Random rules hash
``(seed, site, scope, call-index)`` instead of drawing from shared RNG
state, so whether call N fires never depends on thread interleaving — the
same seed injects the same faults at the same per-site call indices on
every run.

Structured failure types
------------------------
The recovery machinery speaks a small vocabulary of exceptions, defined
here so every layer (and the HTTP server's status mapping) shares it:

* :class:`InjectedFault` — an ``OSError`` raised by a fault rule (real
  disk errors are plain ``OSError``; injected ones subclass it so tests
  can tell them apart).
* :class:`DeadlineExceeded` — a bounded wait (query prefetch, ticket
  result) ran out of budget.  Subclasses ``TimeoutError``.
* :class:`IngestOverloaded` — the ingest queue stayed full past the
  backpressure timeout.  The caller should shed load or retry later.
* :class:`ShardUnavailable` — a shard's circuit breaker is open and no
  degraded (stale-cache) answer exists for the request.

:class:`CircuitBreaker` implements the standard closed → open → half-open
automaton the query tier wraps around each shard (consecutive faults trip
it; after ``reset_after`` seconds one probe is allowed through, and a
successful probe — a reopen-with-scrub — closes it again).
"""

from __future__ import annotations

import errno
import threading
import time
import zlib
from typing import Dict, List, Optional, Tuple

from .obs import REGISTRY, log_event

_FAULTS_INJECTED = REGISTRY.counter(
    "dslog_faults_injected_total",
    "Faults actually injected by an armed FaultPlan",
    labelnames=("site", "kind"),
)
_BREAKER_TRANSITIONS = REGISTRY.counter(
    "dslog_breaker_transitions_total",
    "Circuit breaker state transitions",
    labelnames=("scope", "to"),
)

__all__ = [
    "InjectedFault",
    "DeadlineExceeded",
    "IngestOverloaded",
    "ShardUnavailable",
    "FaultRule",
    "FaultPlan",
    "CircuitBreaker",
]


# ----------------------------------------------------------------------
# the failure vocabulary
# ----------------------------------------------------------------------
class InjectedFault(OSError):
    """An OSError raised by a fault rule (site and scope recorded)."""

    def __init__(self, site: str, scope: Optional[str], err: int, message: str) -> None:
        super().__init__(err, message)
        self.site = site
        self.scope = scope


class DeadlineExceeded(TimeoutError):
    """A bounded wait ran out of budget (slow shard, stalled commit)."""

    def __init__(self, message: str, shard: Optional[int] = None) -> None:
        super().__init__(message)
        self.shard = shard


class IngestOverloaded(RuntimeError):
    """The ingest queue stayed full past the backpressure timeout."""

    def __init__(self, message: str, queue_depth: Optional[int] = None) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth


class ShardUnavailable(RuntimeError):
    """A shard's circuit breaker is open and no degraded answer exists."""

    def __init__(self, message: str, shard: Optional[int] = None) -> None:
        super().__init__(message)
        self.shard = shard


# ----------------------------------------------------------------------
# fault rules
# ----------------------------------------------------------------------
_KINDS = ("error", "enospc", "short_write", "stall")


class FaultRule:
    """One injection rule: where (site/scope), when (at/times, every, or
    rate), and what (kind).

    Parameters
    ----------
    site:
        Fault site name (see the module table).
    scope:
        Failure domain, e.g. ``"shard-01"``; ``None`` matches every scope.
    kind:
        ``"error"`` (EIO before any state changes — retryable),
        ``"enospc"`` (ENOSPC, retryable), ``"short_write"`` (a torn write:
        a prefix of the batch reaches the file, then EIO — scrub
        territory), ``"stall"`` (sleep ``seconds``, then proceed — food
        for deadlines and breakers).
    at / times:
        Fire on matching calls ``at .. at+times-1`` (1-based).  ``times``
        may be ``None`` for "from *at* onward, forever" (a dead disk).
    every:
        Fire on every ``every``-th matching call (mutually exclusive
        with *at*).
    rate / seed:
        Fire pseudo-randomly at probability *rate*, decided by hashing
        ``(seed, site, scope, call-index)`` — deterministic per index.
    seconds:
        Stall duration for ``kind="stall"``.
    fraction:
        For ``kind="short_write"``: fraction of the batch that reaches
        the file before the error (default 0.5).
    """

    __slots__ = (
        "site", "scope", "kind", "at", "times", "every", "rate", "seed",
        "seconds", "fraction", "fired",
    )

    def __init__(
        self,
        site: str,
        scope: Optional[str] = None,
        kind: str = "error",
        at: Optional[int] = None,
        times: Optional[int] = 1,
        every: Optional[int] = None,
        rate: Optional[float] = None,
        seed: int = 0,
        seconds: float = 0.05,
        fraction: float = 0.5,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; use one of {_KINDS}")
        if at is not None and every is not None:
            raise ValueError("a rule fires by 'at' or by 'every', not both")
        self.site = site
        self.scope = scope
        self.kind = kind
        self.at = at
        self.times = times
        self.every = every
        self.rate = rate
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.fraction = float(fraction)
        self.fired = 0

    def matches(self, site: str, scope: Optional[str]) -> bool:
        return self.site == site and (self.scope is None or self.scope == scope)

    def due(self, n: int, scope: Optional[str]) -> bool:
        """Whether the rule fires on the *n*-th (1-based) matching call."""
        if self.rate is not None:
            key = f"{self.seed}:{self.site}:{scope}:{n}".encode("utf-8")
            return (zlib.crc32(key) & 0xFFFFFFFF) / 0x100000000 < self.rate
        if self.every is not None:
            return n % self.every == 0
        start = self.at if self.at is not None else 1
        if self.times is None:
            return n >= start
        return start <= n < start + self.times

    def to_json(self) -> dict:
        return {
            "site": self.site,
            "scope": self.scope,
            "kind": self.kind,
            "at": self.at,
            "times": self.times,
            "every": self.every,
            "rate": self.rate,
            "fired": self.fired,
        }


def _record_injection(site: str, scope: Optional[str], kind: str) -> None:
    """Meter and log one *real* injection.  Called outside the plan lock,
    and only for rules that were not undone (``check()`` rolls back
    short-write matches), so ``faults_injected_total`` equals
    ``plan.fired()`` exactly."""
    _FAULTS_INJECTED.labels(site=site, kind=kind).inc()
    log_event(
        "fault_injected",
        level="warning",
        component="faults",
        site=site,
        scope=scope,
        kind=kind,
    )


class FaultPlan:
    """A set of :class:`FaultRule`\\ s plus per-(site, scope) call counters.

    Thread-safe; one plan is typically shared by every layer of one
    catalog (store, shards, service) so a test can describe the whole
    fault schedule in one place and assert on ``plan.events`` afterwards.
    Plans start **disarmed** — setup I/O (opening the catalog, defining
    arrays) runs clean; call ``arm()`` to open the fault window and
    ``disarm()`` to close it (the verification phase of a soak run).
    Call counters advance even while disarmed, so a schedule is
    deterministic regardless of when the window opens.
    """

    def __init__(self, rules: Optional[List[FaultRule]] = None) -> None:
        self._rules: List[FaultRule] = list(rules or [])
        self._lock = threading.Lock()
        self._counts: Dict[Tuple[str, Optional[str]], int] = {}
        self._armed = False
        #: every fault actually injected: (site, scope, kind, call-index)
        self.events: List[Tuple[str, Optional[str], str, int]] = []

    # -- construction ---------------------------------------------------
    def on(self, site: str, **kwargs) -> "FaultPlan":
        """Add a rule (chainable): ``plan.on("segment.fsync", at=3)``."""
        with self._lock:
            self._rules.append(FaultRule(site, **kwargs))
        return self

    @classmethod
    def seeded(
        cls,
        seed: int,
        rate: float = 0.02,
        sites: Tuple[str, ...] = ("segment.write", "segment.fsync", "service.worker"),
        kind: str = "error",
    ) -> "FaultPlan":
        """A deterministic random plan: each listed site fails at *rate*,
        decided per call index by hashing the seed (see module docstring)."""
        return cls([FaultRule(site, kind=kind, rate=rate, seed=seed) for site in sites])

    # -- state ----------------------------------------------------------
    def arm(self) -> None:
        with self._lock:
            self._armed = True

    def disarm(self) -> None:
        """Stop injecting (counters keep advancing so determinism holds)."""
        with self._lock:
            self._armed = False

    def fired(self, site: Optional[str] = None) -> int:
        """How many faults were injected (at *site*, or in total)."""
        with self._lock:
            return len([e for e in self.events if site is None or e[0] == site])

    def stats(self) -> dict:
        with self._lock:
            return {
                "armed": self._armed,
                "rules": [rule.to_json() for rule in self._rules],
                "injected": len(self.events),
            }

    # -- the injection points ------------------------------------------
    def _match(self, site: str, scope: Optional[str]) -> Optional[FaultRule]:
        """Advance the (site, scope) counter and return the due rule, if
        any.  Called with the lock held."""
        key = (site, scope)
        n = self._counts.get(key, 0) + 1
        self._counts[key] = n
        if not self._armed:
            return None
        for rule in self._rules:
            if rule.matches(site, scope) and rule.due(n, scope):
                rule.fired += 1
                self.events.append((site, scope, rule.kind, n))
                return rule
        return None

    def check(self, site: str, scope: Optional[str] = None) -> None:
        """Raise (or stall) when a rule is due at this site; no-op otherwise.

        ``short_write`` rules never fire here — they are consulted through
        :meth:`short_write` by the writer, which must apply the partial
        write itself.
        """
        with self._lock:
            rule = self._match(site, scope)
            if rule is not None and rule.kind == "short_write":
                # a short write cannot be modeled as a plain raise; undo
                rule.fired -= 1
                self.events.pop()
                rule = None
        if rule is None:
            return
        _record_injection(site, scope, rule.kind)
        if rule.kind == "stall":
            time.sleep(rule.seconds)
            return
        if rule.kind == "enospc":
            raise InjectedFault(
                site, scope, errno.ENOSPC, f"injected ENOSPC at {site} ({scope})"
            )
        raise InjectedFault(site, scope, errno.EIO, f"injected EIO at {site} ({scope})")

    def short_write(self, site: str, scope: Optional[str], nbytes: int) -> Optional[int]:
        """For the batch writer: bytes that reach the file before the
        injected error, or ``None`` when no short-write rule is due.
        (Other rule kinds at the same site raise/stall here too, so one
        ``plan.on("segment.write", ...)`` works for every kind.)"""
        with self._lock:
            rule = self._match(site, scope)
        if rule is None:
            return None
        _record_injection(site, scope, rule.kind)
        if rule.kind == "short_write":
            return max(0, min(nbytes - 1, int(nbytes * rule.fraction)))
        if rule.kind == "stall":
            time.sleep(rule.seconds)
            return None
        if rule.kind == "enospc":
            raise InjectedFault(
                site, scope, errno.ENOSPC, f"injected ENOSPC at {site} ({scope})"
            )
        raise InjectedFault(site, scope, errno.EIO, f"injected EIO at {site} ({scope})")


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
def clock() -> float:
    """The time source of the breakers and of the ingest committer's
    commit window (``time.monotonic``); a test moves or freezes it by
    replacing this function instead of sleeping out a window."""
    return time.monotonic()


class CircuitBreaker:
    """Closed → open → half-open breaker around one failure domain.

    * **closed** — traffic flows; ``failures`` consecutive
      :meth:`record_failure` calls trip it.
    * **open** — traffic is refused (the caller serves degraded answers)
      until ``reset_after`` seconds pass.
    * **half-open** — one caller wins :meth:`try_probe` and attempts
      recovery; :meth:`record_success` closes the breaker,
      :meth:`record_failure` re-opens it (and restarts the clock).
    """

    def __init__(
        self, failures: int = 3, reset_after: float = 30.0, scope: str = ""
    ) -> None:
        self.failure_threshold = max(1, int(failures))
        self.reset_after = float(reset_after)
        self.scope = scope
        self._lock = threading.Lock()
        self._consecutive = 0
        self._state = "closed"
        self._opened_at = 0.0
        self._probing = False
        self.trips = 0

    def _transition(self, to: str) -> None:
        """Meter and log one state change (called outside the lock)."""
        _BREAKER_TRANSITIONS.labels(scope=self.scope or "default", to=to).inc()
        log_event(
            "breaker_transition",
            level="warning" if to == "open" else "info",
            component="breaker",
            scope=self.scope or "default",
            to=to,
            consecutive_failures=self._consecutive,
            trips=self.trips,
        )

    @property
    def state(self) -> str:
        with self._lock:
            if self._state == "open" and (
                clock() - self._opened_at >= self.reset_after
            ):
                return "half-open"
            return self._state

    def allows(self) -> bool:
        """Whether normal traffic may proceed (closed breaker only)."""
        return self.state == "closed"

    def try_probe(self) -> bool:
        """Claim the single half-open recovery probe; False when the
        breaker is not half-open or another caller already holds it."""
        with self._lock:
            if self._state != "open" or self._probing:
                return False
            if clock() - self._opened_at < self.reset_after:
                return False
            self._probing = True
        self._transition("half-open")
        return True

    def record_failure(self) -> bool:
        """Count one fault; returns True when the breaker is now open
        (first trip or a failed half-open probe restarting the window)."""
        with self._lock:
            probing, self._probing = self._probing, False
            self._consecutive += 1
            if self._consecutive < self.failure_threshold:
                return False
            opened = self._state != "open" or probing  # not a failure racing the trip
            if self._state != "open":
                self.trips += 1
            self._state = "open"
            self._opened_at = clock()
        if opened:
            self._transition("open")
        return True

    def record_success(self) -> None:
        with self._lock:
            was = self._state
            self._probing = False
            self._consecutive = 0
            self._state = "closed"
        if was != "closed":
            self._transition("closed")

    def stats(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self._consecutive,
            "failure_threshold": self.failure_threshold,
            "reset_after": self.reset_after,
            "trips": self.trips,
        }
