"""Client-side retry machinery shared by the HTTP and RPC transports.

Both lineage clients make **read-only (idempotent) requests**, so any
transport failure — a reset keep-alive connection, a server restart, a
short read mid-frame — is safe to retry.  The policy here is the one that
landed with the fault-injection PR: exponential backoff with *decorrelated
jitter* (each delay scaled by a random factor in ``[1, 1 + JITTER]`` so a
fleet of clients bounced off the same restart does not retry in lockstep),
bounded by both an attempt count and a total *retry budget* of sleep
seconds — whichever runs out first ends the loop.

One :class:`RetryPolicy` lives on the client; each request draws a fresh
:class:`RetrySchedule` from it and calls :meth:`RetrySchedule.sleep`
between attempts until it returns ``False``.
"""

from __future__ import annotations

import random
import time
from typing import Optional

__all__ = ["RetryPolicy", "RetrySchedule"]


class RetryPolicy:
    """How a client retries idempotent requests after transport failures.

    Parameters
    ----------
    retries:
        Attempts beyond the first (``retries=3`` means up to 4 sends).
    backoff:
        Base delay in seconds; attempt *n* waits ``backoff * 2**(n-1)``
        before jitter: each delay is multiplied by a uniform draw from
        ``[1, 1 + JITTER]``.
    retry_budget:
        Total seconds the schedule may spend sleeping across all retries
        of one request; ``None`` means unbounded.
    """

    __slots__ = ("retries", "backoff", "retry_budget")

    #: upper bound of the random scale factor of each delay
    JITTER = 0.5

    def __init__(
        self,
        retries: int = 3,
        backoff: float = 0.05,
        retry_budget: Optional[float] = 10.0,
    ) -> None:
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.retry_budget = None if retry_budget is None else float(retry_budget)

    def schedule(self) -> "RetrySchedule":
        """A fresh per-request schedule."""
        return RetrySchedule(self)


class RetrySchedule:
    """The mutable state of one request's retry loop."""

    __slots__ = ("policy", "attempts", "slept", "budget_exhausted")

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self.attempts = 1  # the initial send
        self.slept = 0.0
        self.budget_exhausted = False

    def sleep(self) -> bool:
        """Back off before the next attempt.

        Returns ``True`` after sleeping the (jittered, budget-clamped)
        delay, or ``False`` — without sleeping — when the attempt count or
        the retry budget is exhausted and the caller should give up.
        """
        policy = self.policy
        if self.attempts > policy.retries:
            return False
        budget = policy.retry_budget
        if budget is not None and self.slept >= budget:
            self.budget_exhausted = True
            return False
        delay = policy.backoff * (2 ** (self.attempts - 1))
        delay *= 1.0 + policy.JITTER * random.random()
        if budget is not None:
            delay = min(delay, budget - self.slept)
        self.attempts += 1
        self.slept += delay
        time.sleep(delay)
        return True

    def describe(self) -> str:
        """``"N attempts"`` plus the budget note when that is what ended
        the loop — for the client's terminal error message."""
        if self.budget_exhausted:
            return (
                f"{self.attempts} attempts "
                f"(retry budget of {self.policy.retry_budget}s exhausted)"
            )
        return f"{self.attempts} attempts"
