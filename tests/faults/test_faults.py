"""Unit tests for the fault-injection primitives: deterministic
:class:`FaultPlan` rule semantics and the :class:`CircuitBreaker`
closed → open → half-open automaton."""

import time

import pytest

from repro import faults
from repro.faults import (
    CircuitBreaker,
    DeadlineExceeded,
    FaultPlan,
    IngestOverloaded,
    InjectedFault,
    ShardUnavailable,
)
from repro.obs import REGISTRY


class FakeClock:
    """The breakers' clock, moved by hand instead of slept out."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(faults, "clock", fake)
    return fake


class TestFaultPlan:
    def test_disarmed_plan_never_fires_but_counts(self):
        plan = FaultPlan().on("segment.write", at=7)
        for _ in range(5):
            plan.check("segment.write", "shard-00")  # disarmed: no-op
        plan.arm()
        # counters advanced while disarmed, so the schedule is unchanged:
        # call 6 is clean, call 7 is the one that fires
        plan.check("segment.write", "shard-00")
        with pytest.raises(InjectedFault):
            plan.check("segment.write", "shard-00")
        assert plan.fired() == 1

    def test_at_times_window(self):
        plan = FaultPlan().on("x", at=3, times=2)
        plan.arm()
        outcomes = []
        for _ in range(6):
            try:
                plan.check("x")
                outcomes.append(False)
            except InjectedFault:
                outcomes.append(True)
        assert outcomes == [False, False, True, True, False, False]

    def test_every_nth(self):
        plan = FaultPlan().on("x", every=3)
        plan.arm()
        fired = []
        for i in range(1, 10):
            try:
                plan.check("x")
            except InjectedFault:
                fired.append(i)
        assert fired == [3, 6, 9]

    def test_scopes_are_independent_failure_domains(self):
        plan = FaultPlan().on("x", scope="shard-01", at=1, times=1)
        plan.arm()
        plan.check("x", "shard-00")  # different scope: clean
        with pytest.raises(InjectedFault) as excinfo:
            plan.check("x", "shard-01")
        assert excinfo.value.site == "x"
        assert excinfo.value.scope == "shard-01"
        plan.check("x", "shard-01")  # times=1: spent

    def test_seeded_rate_is_deterministic(self):
        def run(seed):
            plan = FaultPlan.seeded(seed, rate=0.3, sites=("x",))
            plan.arm()
            fired = []
            for i in range(50):
                try:
                    plan.check("x", "s")
                except InjectedFault:
                    fired.append(i)
            return fired

        a, b = run(7), run(7)
        assert a == b  # same seed, same schedule
        assert a, "rate=0.3 over 50 calls must fire at least once"
        assert run(8) != a  # different seed, different schedule

    def test_enospc_kind_sets_errno(self):
        import errno

        plan = FaultPlan().on("x", kind="enospc", at=1, times=1)
        plan.arm()
        with pytest.raises(InjectedFault) as excinfo:
            plan.check("x")
        assert excinfo.value.errno == errno.ENOSPC

    def test_stall_kind_sleeps_instead_of_raising(self):
        plan = FaultPlan().on("x", kind="stall", at=1, times=1, seconds=0.05)
        plan.arm()
        start = time.monotonic()
        plan.check("x")  # no raise
        assert time.monotonic() - start >= 0.04

    def test_short_write_only_fires_through_short_write(self):
        plan = FaultPlan().on("segment.write", kind="short_write", at=1, times=2)
        plan.arm()
        # call 1 is due, but short_write rules never raise through check()
        plan.check("segment.write")
        assert plan.fired() == 0
        # call 2 (still in the window) fires through the writer's hook
        partial = plan.short_write("segment.write", None, 100)
        assert partial is not None and 0 <= partial < 100
        assert plan.fired("segment.write") == 1

    def test_events_record_the_schedule(self):
        plan = FaultPlan().on("x", at=2, times=1)
        plan.arm()
        plan.check("x", "s")
        with pytest.raises(InjectedFault):
            plan.check("x", "s")
        assert plan.events == [("x", "s", "error", 2)]
        assert plan.stats()["injected"] == 1


class TestStructuredErrors:
    def test_taxonomy_inheritance(self):
        # the contracts the service layer and existing handlers rely on
        assert issubclass(InjectedFault, OSError)
        assert issubclass(DeadlineExceeded, TimeoutError)
        assert issubclass(IngestOverloaded, RuntimeError)
        assert issubclass(ShardUnavailable, RuntimeError)
        assert DeadlineExceeded("x", shard=3).shard == 3
        assert ShardUnavailable("x", shard=2).shard == 2
        assert IngestOverloaded("x", queue_depth=9).queue_depth == 9


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(failures=3, reset_after=60)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        breaker.record_success()  # resets the consecutive count
        assert breaker.state == "closed"
        for _ in range(2):
            assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # third consecutive: trip
        assert breaker.state == "open"
        assert not breaker.allows()
        assert breaker.trips == 1

    def test_half_open_single_probe_then_close(self, clock):
        breaker = CircuitBreaker(failures=1, reset_after=0.05)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(0.04)
        assert not breaker.try_probe()  # clock not expired yet
        clock.advance(0.02)
        assert breaker.state == "half-open"
        assert breaker.try_probe()
        assert not breaker.try_probe()  # only one caller wins the probe
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allows()

    def test_only_a_transition_is_metered(self, clock):
        """A failure that lands on a breaker already open (a query racing
        the one that tripped it) changes no state; a failed probe does."""
        opened = REGISTRY.get("dslog_breaker_transitions_total").labels(scope="racing", to="open")
        before = opened.value
        breaker = CircuitBreaker(failures=1, reset_after=0.05, scope="racing")
        breaker.record_failure()
        breaker.record_failure()
        assert opened.value == before + 1
        clock.advance(0.06)
        assert breaker.try_probe()
        breaker.record_failure()
        assert opened.value == before + 2

    def test_failed_probe_reopens_and_restarts_clock(self, clock):
        breaker = CircuitBreaker(failures=1, reset_after=0.05)
        breaker.record_failure()
        clock.advance(0.06)
        assert breaker.try_probe()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        assert not breaker.try_probe()  # clock restarted
        stats = breaker.stats()
        assert stats["state"] == "open"
        assert stats["failure_threshold"] == 1
