"""The metrics half of the observability layer: a dependency-free,
thread-safe registry of counters, gauges and fixed-bucket histograms.

Every subsystem registers its instruments against the process-wide
:data:`REGISTRY` at import time (cheap: a dict lookup per registration)
and updates them at event time — a segment flush, a cache hit, a request
served.  The registry is the single source the ``GET /metrics`` endpoint
(Prometheus text exposition format), the ``/healthz`` payload and the
``python -m repro.tools.stats`` CLI all read, so the numbers can never
disagree between surfaces.

Instrument semantics
--------------------
* :class:`Counter` — monotonically increasing float; ``inc(amount)``.
  Named ``*_total`` by convention.
* :class:`Gauge` — a value that goes both ways; ``set`` / ``inc`` / ``dec``
  (cache bytes, open connections).
* :class:`Histogram` — fixed cumulative buckets plus sum and count;
  ``observe(value)``.  Quantiles (p50/p95/p99) are estimated by linear
  interpolation *within* the bucket containing the target rank — exact at
  bucket boundaries, monotone everywhere, and computable from nothing but
  the exported bucket counts (the same math the ``stats`` CLI applies to a
  scraped ``/metrics`` page).

Labels: an instrument created with ``labelnames`` is a family; call
``labels(value, ...)`` (positionally, in labelname order) or
``labels(name=value, ...)`` to get the child carrying those label values.
Children are cached, so the hot path is one dict lookup.

Cost model: every update takes one short uncontended mutex (exact totals
under concurrency are part of the contract — see the 8-thread hammer
test), and :func:`set_enabled` (False) turns every update into a single
attribute check, which is what the overhead benchmark's "registry
disabled" baseline measures.

:func:`render_prometheus` emits the text exposition format (version
0.0.4); :func:`parse_prometheus_text` is its inverse, used by the CI
smoke check and the stats CLI — a render/parse round trip is asserted in
the test suite.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "set_enabled",
    "metrics_enabled",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "render_prometheus",
    "parse_prometheus_text",
    "quantile_from_buckets",
]

# latency buckets in seconds: 100µs .. 10s, roughly logarithmic
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
# size buckets (records per batch, bytes, queue depths): 1 .. 64k
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

# one switch for the whole layer: the overhead benchmark's control arm
_enabled = True


def set_enabled(value: bool) -> None:
    """Globally enable/disable metric updates (tracing has its own switch;
    :func:`repro.obs.set_enabled` flips both).  Disabled updates cost one
    module-global read."""
    global _enabled
    _enabled = bool(value)


def metrics_enabled() -> bool:
    return _enabled


class _Instrument:
    """Shared label-family plumbing of all three instrument types."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        # label-value tuple -> child instrument (children have no labelnames)
        self._children: Dict[Tuple[str, ...], "_Instrument"] = {}

    def labels(self, *values, **kwargs) -> "_Instrument":
        """The child instrument carrying these label values."""
        if not self.labelnames:
            raise ValueError(f"{self.name} was registered without labels")
        if kwargs:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                values = tuple(kwargs[name] for name in self.labelnames)
            except KeyError as missing:
                raise ValueError(
                    f"{self.name} needs labels {self.labelnames}, missing {missing}"
                ) from None
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name} needs {len(self.labelnames)} label values, got {len(key)}"
            )
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _make_child(self) -> "_Instrument":
        raise NotImplementedError

    def _series(self) -> List[Tuple[Tuple[str, ...], "_Instrument"]]:
        """Every (label values, leaf instrument) pair of this family."""
        if not self.labelnames:
            return [((), self)]
        with self._lock:
            return sorted(self._children.items())


class Counter(_Instrument):
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Counter":
        return Counter(self.name)

    def inc(self, amount: float = 1.0) -> None:
        if not _enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Instrument):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Gauge":
        return Gauge(self.name)

    def set(self, value: float) -> None:
        if not _enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Instrument):
    """Fixed cumulative-bucket histogram with sum and count.

    ``buckets`` are the finite upper bounds, strictly increasing; a
    ``+Inf`` bucket is implicit.  ``observe`` costs one bisect and two
    adds under the mutex.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be non-empty and strictly increasing")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, buckets=self.bounds)

    def observe(self, value: float) -> None:
        if not _enabled:
            return
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper bound, cumulative count)`` pairs, ``+Inf`` last."""
        with self._lock:
            counts = list(self._counts)
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (bucket interpolation; see module docs)."""
        return quantile_from_buckets(self.cumulative(), q)

    def summary(self) -> dict:
        cumulative = self.cumulative()
        return {
            "count": self._count,
            "sum": self._sum,
            "p50": quantile_from_buckets(cumulative, 0.50),
            "p95": quantile_from_buckets(cumulative, 0.95),
            "p99": quantile_from_buckets(cumulative, 0.99),
        }


def quantile_from_buckets(cumulative: Sequence[Tuple[float, int]], q: float) -> float:
    """Estimate a quantile from cumulative ``(upper bound, count)`` pairs.

    Linear interpolation inside the bucket containing the target rank,
    with the previous bound (or 0) as the bucket's lower edge.  The
    unbounded ``+Inf`` bucket has no width to interpolate over, so its
    answer is the largest finite bound — a known floor, never a made-up
    extrapolation.  Returns ``nan`` for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not cumulative:
        return math.nan
    total = cumulative[-1][1]
    if total == 0:
        return math.nan
    rank = q * total
    lower = 0.0
    prev_count = 0
    for bound, count in cumulative:
        if count >= rank:
            if math.isinf(bound):
                return lower  # the last finite bound
            if count == prev_count:
                return bound
            fraction = (rank - prev_count) / (count - prev_count)
            return lower + (bound - lower) * fraction
        lower = bound if not math.isinf(bound) else lower
        prev_count = count
    return lower


class MetricsRegistry:
    """Process-wide home of every instrument; get-or-create semantics.

    ``counter`` / ``gauge`` / ``histogram`` return the existing instrument
    when one with the same name is already registered (re-imports and
    multiple component instances share one series), and raise when the
    name is reused at a different type or label set — the mistakes that
    silently corrupt dashboards.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "Dict[str, _Instrument]" = {}

    def _register(self, cls, name: str, help: str, labelnames, **kwargs) -> _Instrument:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.labelnames}"
                    )
                return existing
            metric = cls(name, help=help, labelnames=labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> List[_Instrument]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, dict]:
        """JSON-friendly view of every series: counters/gauges as numbers,
        histograms as ``{count, sum, p50, p95, p99}`` — the shape
        ``/healthz`` embeds so it always agrees with ``/metrics``."""
        out: Dict[str, dict] = {}
        for metric in self.metrics():
            series = {}
            for labelvalues, leaf in metric._series():
                key = ",".join(
                    f"{n}={v}" for n, v in zip(metric.labelnames, labelvalues)
                )
                if isinstance(leaf, Histogram):
                    series[key] = leaf.summary()
                else:
                    series[key] = leaf._value
            out[metric.name] = {"type": metric.kind, "values": series}
        return out

    def render(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        return render_prometheus(self.metrics())

    def reset(self) -> None:
        """Drop every registered instrument (tests only — module-level
        instrument handles become dangling, so production code never calls
        this)."""
        with self._lock:
            self._metrics.clear()


REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY


# ----------------------------------------------------------------------
# Prometheus text format: render + parse
# ----------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(names: Iterable[str], values: Iterable[str], extra: str = "") -> str:
    parts = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


def render_prometheus(metrics: Sequence[_Instrument]) -> str:
    lines: List[str] = []
    for metric in metrics:
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for labelvalues, leaf in metric._series():
            if isinstance(leaf, Histogram):
                for bound, cum in leaf.cumulative():
                    le = "+Inf" if math.isinf(bound) else _format_value(bound)
                    labels = _labels_text(
                        metric.labelnames, labelvalues, extra=f'le="{le}"'
                    )
                    lines.append(f"{metric.name}_bucket{labels} {cum}")
                base = _labels_text(metric.labelnames, labelvalues)
                lines.append(f"{metric.name}_sum{base} {_format_value(leaf.sum)}")
                lines.append(f"{metric.name}_count{base} {leaf.count}")
            else:
                labels = _labels_text(metric.labelnames, labelvalues)
                lines.append(f"{metric.name}{labels} {_format_value(leaf._value)}")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def parse_prometheus_text(text: str) -> Dict[str, dict]:
    """Parse a ``/metrics`` page into ``{family: {"type", "help",
    "samples": [(sample name, labels dict, value)]}}``.

    Histogram ``_bucket``/``_sum``/``_count`` samples are grouped under
    their family name.  Raises ``ValueError`` on any malformed line — the
    CI smoke step treats an unparseable page as a failed build.
    """
    families: Dict[str, dict] = {}
    last_family: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                raise ValueError(f"line {lineno}: malformed HELP comment: {raw!r}")
            name = parts[2]
            families.setdefault(name, {"type": "untyped", "help": "", "samples": []})
            families[name]["help"] = parts[3] if len(parts) > 3 else ""
            last_family = name
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE comment: {raw!r}")
            _, _, name, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: unknown metric type {kind!r}")
            families.setdefault(name, {"type": kind, "help": "", "samples": []})
            families[name]["type"] = kind
            last_family = name
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {raw!r}")
        sample = match.group("name")
        labels_raw = match.group("labels")
        labels: Dict[str, str] = {}
        if labels_raw:
            consumed = 0
            for lm in _LABEL_RE.finditer(labels_raw):
                labels[lm.group(1)] = _unescape_label(lm.group(2))
                consumed = lm.end()
            rest = labels_raw[consumed:].strip().strip(",")
            if rest:
                raise ValueError(f"line {lineno}: malformed labels: {labels_raw!r}")
        value_raw = match.group("value")
        if value_raw == "+Inf":
            value = math.inf
        elif value_raw == "-Inf":
            value = -math.inf
        elif value_raw == "NaN":
            value = math.nan
        else:
            try:
                value = float(value_raw)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: malformed sample value {value_raw!r}"
                ) from None
        family = sample
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample[: -len(suffix)] if sample.endswith(suffix) else None
            if base and families.get(base, {}).get("type") == "histogram":
                family = base
                break
        if family != last_family and family not in families:
            families.setdefault(family, {"type": "untyped", "help": "", "samples": []})
        families[family]["samples"].append((sample, labels, value))
    return families


def sample_value(
    families: Mapping[str, dict], name: str, labels: Optional[Mapping[str, str]] = None
) -> Optional[float]:
    """Convenience lookup into :func:`parse_prometheus_text` output: the
    value of one exact sample (labels must match exactly; ``None`` when
    absent)."""
    family = families.get(name)
    candidates = [family] if family is not None else list(families.values())
    want = dict(labels or {})
    for fam in candidates:
        for sample, got, value in fam["samples"]:
            if sample == name and got == want:
                return value
    return None
