"""Smoke test of the benchmark harness, collected by the tier-1 run.

Runs every workload end to end at ``--scale 0.02`` (a few hundred rows, one
set-up, a 0.2 s time box) and checks the contract the driver relies on: the
result line, the metric names and units of ``BENCHMARK.json``, a passing
oracle sample, and no server child left behind.  Plus the determinism of
the seeded inputs.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "0.02"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def server_children() -> list:
    """Pids of live processes whose script is the server child."""
    found = []
    for entry in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            argv = entry.read_bytes().split(b"\0")
        except OSError:
            continue  # the process ended while we looked
        if argv[1:2] == [str(BENCH / "host.py").encode()]:
            found.append(entry.parent.name)
    return found


def check(result: dict, declared: list) -> None:
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float) and entry["value"] == entry["value"], metric["name"]
    assert server_children() == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_end_to_end_metric(workload):
    result = run(workload, trace=0)
    check(result, SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric_and_writes_spans():
    check(run("serve_churn", trace=1), SPEC["per_layer"])
    trace = json.loads((BENCH / "out" / "trace-serve_churn.json").read_text())
    assert {"name", "start", "end", "parent", "request"} <= set(trace["spans"][0])


def test_same_seed_same_inputs_other_seed_other_inputs():
    import gen
    import workloads

    def digest(seed: int) -> str:
        workload, spec = workloads.configure("serve_churn", 0.02)
        groups, _, stream = workloads.make_inputs(workload, spec, seed)
        return gen.inputs_digest(groups, stream, gen.write_burst(spec, seed, 0, workload.burst))

    assert digest(11) == digest(11)
    assert digest(11) != digest(12)
