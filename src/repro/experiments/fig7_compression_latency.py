"""Figure 7: compression latency as a function of input size.

The paper measures the end-to-end time (read, format conversion,
compression, flush to disk) to store the lineage of (A) a one-to-one
element-wise operation and (B) a one-axis aggregation, over a range of
array sizes, for every format.  The harness reproduces the same sweep at
laptop scale; ProvRC-GZip is implemented in pure Python so its absolute
latency sits above the (C++-grade) baselines in the paper, and the same
ordering is expected here.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from ..baselines.stores import all_baseline_stores
from ..capture.analytic import axis_reduction_lineage, elementwise_lineage
from ..core.provrc import compress
from ..core.serialize import serialize_compressed_gzip
from .common import format_table

__all__ = ["run", "main", "LINEAGE_KINDS"]

LINEAGE_KINDS = ("elementwise", "aggregate")


def _build_relation(kind: str, n_cells: int):
    if kind == "elementwise":
        return elementwise_lineage((n_cells,))
    if kind == "aggregate":
        side = max(int(n_cells ** 0.5), 1)
        return axis_reduction_lineage((side, side), axis=1)
    raise ValueError(f"unknown lineage kind {kind!r}")


def run(
    sizes: Sequence[int] = (10_000, 50_000, 100_000, 250_000),
    kinds: Sequence[str] = LINEAGE_KINDS,
    formats: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, Dict[int, float]]]:
    """Measure write latency in seconds per (kind, format, size)."""
    stores = all_baseline_stores()
    chosen = list(formats) if formats else list(stores) + ["ProvRC-GZip"]
    results: Dict[str, Dict[str, Dict[int, float]]] = {k: {f: {} for f in chosen} for k in kinds}
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        for kind in kinds:
            for n_cells in sizes:
                relation = _build_relation(kind, n_cells)
                for fmt in chosen:
                    target = tmp_path / f"{kind}-{fmt}-{n_cells}.bin"
                    start = time.perf_counter()
                    if fmt == "ProvRC-GZip":
                        payload = serialize_compressed_gzip(compress(relation))
                    else:
                        payload = stores[fmt].encode(relation.rows)
                    target.write_bytes(payload)
                    results[kind][fmt][n_cells] = time.perf_counter() - start
    return results


def main(sizes: Sequence[int] = (10_000, 50_000, 100_000)) -> str:
    results = run(sizes=sizes)
    lines = []
    for kind, per_format in results.items():
        headers = ["Format"] + [f"{n} cells (s)" for n in sizes]
        rows = [[fmt] + [round(per_format[fmt][n], 4) for n in sizes] for fmt in per_format]
        lines.append(format_table(headers, rows, title=f"Figure 7 ({kind}) — compression latency"))
    output = "\n\n".join(lines)
    print(output)
    return output


if __name__ == "__main__":
    main()
