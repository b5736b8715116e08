"""The benchmark's one command.

    python3 bench/run.py --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--scale <f>]

Prints every metric by name with its unit, then — as the last line of
standard output — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` (default) reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics and writes
the span file ``bench/out/trace-<workload>.json``.  A wrong answer makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# the program under test runs from the checkout, uninstalled
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))


def main(argv=None) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink catalogs and set-up repeats (smoke tests)")
    args = parser.parse_args(argv)

    # imported here so that a checkout without the program fails before any output
    import layers
    import workloads

    if args.trace:
        run = layers.run_traced(args.workload, args.seed, args.seconds, args.scale)
        declared = spec["per_layer"]
    else:
        run = workloads.run_workload(args.workload, args.seed, args.seconds, args.scale)
        declared = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared}
    if sorted(units) != sorted(run.metrics):
        raise SystemExit(f"metric names differ from BENCHMARK.json: {sorted(set(units) ^ set(run.metrics))}")
    correct = run.failed == 0
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  inputs {run.digest}")
    for name, unit in units.items():
        print(f"{name:42s} {run.metrics[name]:16.6f} {unit}")
    print(f"{'attempted':42s} {run.attempted:16d} count")
    print(f"{'failed':42s} {run.failed:16d} count")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: {"value": run.metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
