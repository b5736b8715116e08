"""Table IX: numpy API operations covered by compression and reuse.

Every operation of the 136-operation catalog is executed for a number of
runs (20 in the paper) over fresh random inputs of varying shapes; its
lineage is compressed with ProvRC and fed to the automatic reuse predictor.
The harness then tallies, per category (element-wise / complex):

* operations whose ProvRC table is smaller than half the raw CSV lineage,
* operations for which a shape-based (``dim_sig``) mapping was discovered,
* operations for which a generalized (``gen_sig``) mapping was discovered,
* reuse errors — generalized mappings that later produce wrong lineage
  (the paper observes exactly one, for ``cross``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..capture.numpy_catalog import CatalogOp, build_catalog
from ..core.provrc import compress
from ..core.serialize import serialize_compressed
from ..reuse.signatures import OperationSignature, ReuseManager, tables_equal
from .common import format_table

__all__ = ["run", "main"]


def _input_for(op: CatalogOp, rng: np.random.Generator, base_size: int) -> np.ndarray:
    if op.name == "cross_const":
        width = 3 if rng.uniform() < 0.5 else 2
        return rng.normal(size=(max(base_size // width, 2), width))
    if op.needs_2d:
        rows = max(int(rng.integers(3, 9)), 3)
        cols = max(base_size // rows, 2)
        return rng.normal(size=(rows, cols))
    return rng.normal(size=base_size)


def _evaluate_op(op: CatalogOp, runs: int, base_size: int, seed: int) -> Dict[str, bool]:
    rng = np.random.default_rng(seed)
    manager = ReuseManager(confirmations_required=1)
    compressed_small = True
    gen_error = False

    for run_idx in range(runs):
        # Alternate between repeating the base shape (so shape-based dim_sig
        # mappings can be confirmed) and drawing a new shape (so generalized
        # gen_sig mappings can be confirmed across shapes).
        if run_idx % 2 == 0:
            size = base_size
        else:
            size = base_size + int(rng.integers(1, max(base_size // 2, 2)))
        data = _input_for(op, rng, size)
        relation = op.lineage(data)
        table = compress(relation)

        raw_csv = len(relation.to_csv_bytes())
        if len(serialize_compressed(table)) >= 0.5 * raw_csv:
            compressed_small = False

        signature = OperationSignature.build(op.name, [data], [relation.out_shape])
        decision = manager.lookup(signature)
        if decision.reused and decision.level == "gen":
            predicted = next(iter(decision.tables.values()))
            if not tables_equal(predicted, table):
                gen_error = True
                manager.record_misprediction()
        manager.observe(signature, {(0, 0): table})

    stats = manager.stats()
    return {
        "compressed": compressed_small,
        "dim": stats["dim_entries"] > 0,
        "gen": stats["gen_entries"] > 0 and stats["blocked_gen"] == 0,
        "error": gen_error or stats["mispredictions"] > 0,
    }


def run(
    runs: int = 10,
    base_size: int = 400,
    operations: Optional[Sequence[CatalogOp]] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, int]]:
    """Evaluate compression/reuse coverage; returns per-category tallies."""
    catalog = list(operations) if operations is not None else build_catalog()
    tallies = {
        "element": {"total": 0, "provrc": 0, "dim_sig": 0, "gen_sig": 0, "error": 0},
        "complex": {"total": 0, "provrc": 0, "dim_sig": 0, "gen_sig": 0, "error": 0},
    }
    for index, op in enumerate(catalog):
        outcome = _evaluate_op(op, runs=runs, base_size=base_size, seed=seed + index)
        bucket = tallies[op.category]
        bucket["total"] += 1
        bucket["provrc"] += int(outcome["compressed"])
        bucket["dim_sig"] += int(outcome["dim"])
        bucket["gen_sig"] += int(outcome["gen"])
        bucket["error"] += int(outcome["error"])
    tallies["total"] = {
        key: tallies["element"][key] + tallies["complex"][key]
        for key in ("total", "provrc", "dim_sig", "gen_sig", "error")
    }
    return tallies


def main(runs: int = 10, base_size: int = 400) -> str:
    tallies = run(runs=runs, base_size=base_size)
    headers = ["Op.", "Tot.", "ProvRC", "ProvRC %", "dim_sig", "dim %", "gen_sig", "gen %", "Error"]
    rows = []
    for category in ("element", "complex", "total"):
        bucket = tallies[category]
        total = bucket["total"]
        rows.append([
            category,
            total,
            bucket["provrc"],
            round(100.0 * bucket["provrc"] / total, 1),
            bucket["dim_sig"],
            round(100.0 * bucket["dim_sig"] / total, 1),
            bucket["gen_sig"],
            round(100.0 * bucket["gen_sig"] / total, 1),
            bucket["error"],
        ])
    table = format_table(headers, rows, title="Table IX — numpy API coverage of compression and reuse")
    print(table)
    return table


if __name__ == "__main__":
    main()
