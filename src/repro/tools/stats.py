"""``python -m repro.tools.stats`` — inspect a lineage server's metrics.

Fetches ``GET /metrics`` from the HTTP port of a running
:class:`~repro.service.server.LineageServer` (its RPC counters included,
when it serves an ``rpc_port`` too), parses the Prometheus text
exposition, and pretty-prints
every counter, gauge and histogram (histograms show count, sum and the
p50/p95/p99 estimated from the cumulative buckets).  With ``--watch SECS``
it keeps sampling and additionally prints per-second rates for counters
and histogram counts, computed over the sampling interval.

Usage::

    python -m repro.tools.stats http://127.0.0.1:8791            # one shot
    python -m repro.tools.stats http://127.0.0.1:8791 --watch 2  # live rates
    python -m repro.tools.stats http://127.0.0.1:8791 --json     # snapshot
    python -m repro.tools.stats http://127.0.0.1:8791 --grep cache

Exit status: 0 on success, 1 when the server cannot be reached, serves
unparseable metrics or a reply over ``MAX_METRICS_BYTES``.  ``--watch``
runs until interrupted (also exit 0).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request

from ..obs.metrics import parse_prometheus_text, quantile_from_buckets

__all__ = ["main"]

# the longest /metrics reply read; a longer one is refused, not buffered
MAX_METRICS_BYTES = 16 << 20


def fetch_families(url: str, timeout: float = 5.0) -> dict:
    """GET ``<url>/metrics`` and parse it; raises on transport or format
    errors and on a reply over ``MAX_METRICS_BYTES`` (the caller turns
    each into exit status 1)."""
    target = url.rstrip("/") + "/metrics"
    with urllib.request.urlopen(target, timeout=timeout) as response:
        body = response.read(MAX_METRICS_BYTES + 1)
    if len(body) > MAX_METRICS_BYTES:
        raise ValueError(f"{target} sent more than {MAX_METRICS_BYTES} bytes")
    return parse_prometheus_text(body.decode("utf-8"))


def _labels_suffix(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _histogram_series(family: dict) -> dict:
    """Group one histogram family's flat samples by their label set (minus
    ``le``): key -> {labels, buckets: [(le, cumcount)], sum, count}."""
    series: dict = {}
    for sample, labels, value in family["samples"]:
        rest = {k: v for k, v in labels.items() if k != "le"}
        key = tuple(sorted(rest.items()))
        entry = series.setdefault(key, {"labels": rest, "buckets": [], "sum": 0.0, "count": 0.0})
        if sample.endswith("_bucket"):
            entry["buckets"].append((float(labels["le"]), value))
        elif sample.endswith("_sum"):
            entry["sum"] = value
        elif sample.endswith("_count"):
            entry["count"] = value
    for entry in series.values():
        entry["buckets"].sort(key=lambda pair: pair[0])
    return series


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _rate(delta: float, interval: float) -> str:
    return f"{delta / interval:.1f}/s" if interval > 0 else "-"


def render_report(families: dict, out, previous=None, interval: float = 0.0) -> dict:
    """Print the human report; returns a flat {series key: value} map of
    counter and histogram-count samples for the next --watch delta."""
    flat: dict = {}
    for name in sorted(families):
        family = families[name]
        kind = family["type"]
        if kind == "histogram":
            print(f"{name} (histogram)", file=out)
            for _, entry in sorted(_histogram_series(family).items()):
                buckets = entry["buckets"]
                count = entry["count"]
                quantiles = ""
                if count:
                    p50, p95, p99 = (
                        quantile_from_buckets(buckets, q) for q in (0.5, 0.95, 0.99)
                    )
                    mean = entry["sum"] / count
                    quantiles = (
                        f"  mean={mean:.6g} p50={p50:.6g} p95={p95:.6g} p99={p99:.6g}"
                    )
                key = f"{name}{_labels_suffix(entry['labels'])}"
                flat[key] = count
                rate = ""
                if previous is not None and key in previous:
                    rate = f"  [{_rate(count - previous[key], interval)}]"
                label_part = _labels_suffix(entry["labels"]) or "(all)"
                print(
                    f"  {label_part}  count={_fmt(count)} "
                    f"sum={_fmt(entry['sum'])}{quantiles}{rate}",
                    file=out,
                )
            continue
        print(f"{name} ({kind})", file=out)
        for sample, labels, value in sorted(
            family["samples"], key=lambda item: sorted(item[1].items())
        ):
            key = f"{sample}{_labels_suffix(labels)}"
            rate = ""
            if kind == "counter":
                flat[key] = value
                if previous is not None and key in previous:
                    rate = f"  [{_rate(value - previous[key], interval)}]"
            label_part = _labels_suffix(labels) or "(all)"
            print(f"  {label_part}  {_fmt(value)}{rate}", file=out)
    return flat


def _filter(families: dict, needle: str) -> dict:
    return {name: fam for name, fam in families.items() if needle in name}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.stats",
        description="Fetch and pretty-print a lineage server's /metrics.",
    )
    parser.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8791")
    parser.add_argument(
        "--watch",
        type=float,
        metavar="SECS",
        default=None,
        help="keep sampling every SECS seconds and print counter rates",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the parsed families as JSON instead of the report",
    )
    parser.add_argument(
        "--grep",
        metavar="SUBSTR",
        default=None,
        help="only show metric families whose name contains SUBSTR",
    )
    parser.add_argument(
        "--timeout", type=float, default=5.0, help="per-request timeout in seconds"
    )
    args = parser.parse_args(argv)

    if args.watch is not None and args.watch <= 0:
        parser.error("--watch needs a positive interval")

    previous = None
    last_at = None
    try:  # Ctrl-C ends --watch wherever it lands: a fetch or the sleep
        while True:
            try:
                families = fetch_families(args.url, timeout=args.timeout)
            except (urllib.error.URLError, OSError, ValueError) as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            now = time.monotonic()
            if args.grep:
                families = _filter(families, args.grep)
            if args.json:
                json.dump(families, sys.stdout, indent=2, sort_keys=True, default=str)
                print()
            else:
                interval = (now - last_at) if last_at is not None else 0.0
                previous = render_report(
                    families, sys.stdout, previous=previous, interval=interval
                )
                last_at = now
            if args.watch is None:
                return 0
            print(file=sys.stdout)
            time.sleep(args.watch)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
