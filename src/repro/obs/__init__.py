"""`repro.obs` — the dependency-free observability layer.

Three pieces, one import surface:

* :mod:`repro.obs.metrics` — thread-safe counters/gauges/histograms in a
  process-wide registry, rendered as Prometheus text by ``GET /metrics``
  and embedded in ``/healthz``.
* :mod:`repro.obs.tracing` — per-ticket traces, and traces of the
  requests that ask for one (a W3C ``traceparent``) or run slow, of
  nested spans, contextvars-propagated across thread pools, retrievable
  from a bounded ring via ``GET /debug/traces``.
* :mod:`repro.obs.log` — one JSON-lines structured logger
  (``repro.obs``) for request logs, breaker/scrub/repair events, fault
  injections, and slow traces.

:func:`set_enabled` flips metrics *and* tracing together — the
"registry disabled" baseline the overhead benchmark compares against.
"""

from __future__ import annotations

from . import log, metrics, tracing
from .log import get_logger, log_enabled, log_event, set_level
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    parse_prometheus_text,
    quantile_from_buckets,
    render_prometheus,
    sample_value,
)
from .tracing import (
    Span,
    Trace,
    clear_traces,
    current_trace,
    recent_traces,
    span,
    start_trace,
    wrap_context,
)

__all__ = [
    "log",
    "metrics",
    "tracing",
    "get_logger",
    "log_event",
    "log_enabled",
    "set_level",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "parse_prometheus_text",
    "quantile_from_buckets",
    "render_prometheus",
    "sample_value",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Span",
    "Trace",
    "clear_traces",
    "current_trace",
    "recent_traces",
    "span",
    "start_trace",
    "wrap_context",
    "set_enabled",
]


def set_enabled(value: bool) -> None:
    """Enable/disable the whole layer (metrics + tracing) in one call."""
    metrics.set_enabled(value)
    tracing.set_enabled(value)
