"""Clock-speed calibration: report times at a reference CPU speed.

The sandbox's two vCPUs run at one of (at least) two speeds, a factor
1.6-1.7 apart, and switch between them every 10-60 s — most likely the
host's turbo headroom coming and going with its other tenants.  Measured
over seven idle minutes on ``query_cold``: the fastest-repetition p50 of a
5 s phase read 0.37 ms in one regime and 0.65 ms in the other (quartile
spread 36 % of the median), while a fixed probe of interpreter and numpy
work run between the laps moved in step with it (correlation 0.94).
Dividing by the probe brought the spread to 7 %.

So every timed repetition is paired with a probe taken right before and
right after it, and its time is scaled to what it would have been with the
probe at ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / probe

The probe is the *fastest* of several back-to-back calls on each side, so a
burst of interference can only make it read too fast, which scales the
repetition up and lets the fastest-repetition rule drop it; it cannot
flatter a result.  ``REFERENCE_S`` is the probe's time in this sandbox's
fast regime, which keeps scaled times equal to wall times whenever the
machine runs at that speed.  Sizes and counts are never scaled.
"""

from __future__ import annotations

import json
import time

import numpy as np

REFERENCE_S = 135e-6
CALLS = 12

_ARRAY = np.random.default_rng(0).normal(size=4096)
_TABLE = {i: str(i) for i in range(2000)}
_BODY = {"path": ["a", "b"], "cells": [[1, 2], [3, 4]], "merge": True}


def _probe() -> float:
    """About 0.13 ms of the kinds of work the program does: small-array
    numpy calls, an interpreter loop over a dict, a JSON round trip."""
    t0 = time.perf_counter()
    np.sort(_ARRAY)
    np.cumsum(_ARRAY)
    total = 0
    for i in range(2000):
        total += len(_TABLE[i])
    json.loads(json.dumps(_BODY))
    return time.perf_counter() - t0


def probe() -> float:
    """The fastest of ``CALLS`` probe calls, in seconds."""
    return min(_probe() for _ in range(CALLS))


def scale(before: float, after: float) -> float:
    """The factor that takes a time measured between two probes to the
    reference speed."""
    return REFERENCE_S / min(before, after)
