"""Compare two run sets metric by metric, workload by workload.

    python3 bench/compare.py A.json B.json

A is the base (the parent commit, or the first of two A/A sets), B the
change.  One row per (end-to-end metric, workload): each side's median and
quartiles over its runs, the ratio B/A with its base, and a verdict from
the bounds in ``BENCHMARK.json``:

* ``unresolved`` — either side's quartile spread is wider than the bound,
  so a difference of that size could not be told from noise;
* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — B wins at least nine tenths of the paired runs (same
  seed and round; ties count for neither) and the medians differ by more
  than the distance between A's quartiles;
* ``unchanged``  — anything else.

Exits 1 on any ``regressed`` row or when B failed more operations than A.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load(path: str) -> Tuple[Dict[Tuple[str, str], Dict[Tuple[int, int], float]], int]:
    """``{(workload, metric): {(seed, round): value}}`` over the untraced
    runs of a run set, and its total of failed operations."""
    table: Dict[Tuple[str, str], Dict[Tuple[int, int], float]] = {}
    failed = 0
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"]:
            continue
        failed += run["failed"]
        for metric, entry in run["metrics"].items():
            table.setdefault((run["workload"], metric), {})[(run["seed"], run["round"])] = entry["value"]
    return table, failed


def verdict(a: Dict, b: Dict, better: str, bound: float) -> Tuple[str, Tuple, Tuple]:
    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    pairs = [(a[k], b[k]) for k in a.keys() & b.keys() if a[k] != b[k]]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if worse_by > bound:
        word = "regressed"
    elif spread > bound:
        word = "unresolved"
    elif pairs and wins >= 0.9 * len(pairs) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        word = "improved"
    else:
        word = "unchanged"
    return word, qa, qb


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (a, failed_a), (b, failed_b) = load(argv[0]), load(argv[1])
    print(f"{'metric':26s} {'workload':15s} {'A q1/median/q3':>38s} {'B q1/median/q3':>38s} {'B/A':>7s}  verdict")
    worst = 0
    for metric in spec["end_to_end"]:
        for workload in [w["name"] for w in spec["workloads"]]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            word, qa, qb = verdict(a[key], b[key], metric["better"], metric["bound"])
            worst |= word == "regressed"
            print(
                f"{metric['name']:26s} {workload:15s} "
                f"{qa[0]:12.4f}/{qa[1]:12.4f}/{qa[2]:12.4f} {qb[0]:12.4f}/{qb[1]:12.4f}/{qb[2]:12.4f} "
                f"{qb[1] / qa[1]:7.3f}  {word} (base {qa[1]:.4g} {metric['unit']}, bound {metric['bound']:.0%})"
            )
    print(f"failed operations: A {failed_a}, B {failed_b}")
    return 1 if worst or failed_b > failed_a else 0


if __name__ == "__main__":
    sys.exit(main())
