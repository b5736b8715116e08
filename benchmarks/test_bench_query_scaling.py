"""Q×N scaling microbenchmarks for the vectorized query kernels.

Sweeps query-box counts Q ∈ {1, 100, 10 000} against compressed-table sizes
N ∈ {1 000, 100 000} so the θ-join's window-index lookup and the segmented
box merge have a measurable latency trajectory across releases.
``benchmarks/BENCH_baseline.json`` holds the Figure-8 numbers captured at
the seed commit (pre-vectorization) for comparison; run

    PYTHONPATH=src python -m pytest benchmarks/test_bench_fig8_query.py \
        --benchmark-json=BENCH_current.json

to produce a comparable post-change snapshot.
"""

import numpy as np
import pytest

from repro.core.compressed import KIND_ABS, KIND_REL, CompressedLineage
from repro.core.query import CellBoxSet, merge_boxes, theta_join

Q_SIZES = [1, 100, 10_000]
N_SIZES = [1_000, 100_000]


def synthetic_table(n_rows: int, span: int = 4) -> CompressedLineage:
    """A 1-D backward table of *n_rows* disjoint key ranges; every other row
    uses the relative value encoding so de-relativization is exercised."""
    starts = np.arange(n_rows, dtype=np.int64) * span
    key_lo = starts[:, None]
    key_hi = key_lo + (span - 1)
    kinds = np.where(np.arange(n_rows) % 2 == 0, KIND_REL, KIND_ABS).astype(np.int8)
    refs = np.where(kinds == KIND_REL, 0, -1).astype(np.int16)
    val_lo = np.where(kinds == KIND_REL, 0, starts).astype(np.int64)
    val_hi = np.where(kinds == KIND_REL, span - 1, starts + span - 1).astype(np.int64)
    dim = n_rows * span
    return CompressedLineage(
        key_side="output",
        out_name="B",
        in_name="A",
        out_shape=(dim,),
        in_shape=(dim,),
        key_lo=key_lo,
        key_hi=key_hi,
        val_kind=kinds[:, None],
        val_ref=refs[:, None],
        val_lo=val_lo[:, None],
        val_hi=val_hi[:, None],
    )


def synthetic_query(table: CompressedLineage, n_boxes: int, seed: int = 0) -> CellBoxSet:
    rng = np.random.default_rng(seed)
    dim = table.key_shape[0]
    lo = rng.integers(0, dim - 8, size=(n_boxes, 1)).astype(np.int64)
    hi = lo + rng.integers(0, 8, size=(n_boxes, 1))
    return CellBoxSet("B", table.key_shape, lo, hi)


@pytest.mark.parametrize("n_rows", N_SIZES)
@pytest.mark.parametrize("n_boxes", Q_SIZES)
def test_theta_join_scaling(benchmark, n_boxes, n_rows):
    table = synthetic_table(n_rows)
    query = synthetic_query(table, n_boxes)
    stats = {}
    result = benchmark.pedantic(
        lambda: theta_join(query, table, merge=True, stats=stats),
        rounds=10,
        warmup_rounds=1,
    )
    benchmark.extra_info["query_boxes"] = n_boxes
    benchmark.extra_info["table_rows"] = n_rows
    benchmark.extra_info["rows_scanned"] = stats["rows_scanned"]
    benchmark.extra_info["result_boxes"] = len(result)
    assert not result.is_empty()
    # a box of at most 8 cells meets at most 3 of the span-4 key ranges: the
    # join compares those rows and no others, in one chunk of pair scratch
    assert stats["rows_scanned"] <= 3 * n_boxes
    assert stats["join_blocks"] == 1


@pytest.mark.parametrize("n_boxes", [1_000, 10_000, 50_000])
def test_merge_boxes_scaling(benchmark, n_boxes):
    rng = np.random.default_rng(1)
    lo = np.stack(
        [rng.integers(0, 2_000, size=n_boxes), rng.integers(0, 50, size=n_boxes)], axis=1
    ).astype(np.int64)
    hi = lo + rng.integers(0, 6, size=(n_boxes, 2))
    mlo, mhi = benchmark.pedantic(lambda: merge_boxes(lo, hi), rounds=10, warmup_rounds=1)
    benchmark.extra_info["boxes_in"] = n_boxes
    benchmark.extra_info["boxes_out"] = int(mlo.shape[0])
    assert mlo.shape[0] <= n_boxes


@pytest.mark.parametrize("n_boxes", [1_000, 50_000])
def test_count_cells_scaling(benchmark, n_boxes):
    # a 2000×2000 domain keeps the coordinate-compressed grid within the
    # sweep's budget so this measures the exact grid count, not a fallback
    rng = np.random.default_rng(2)
    side = 2_000
    lo = np.stack(
        [rng.integers(0, side - 10, size=n_boxes), rng.integers(0, side - 10, size=n_boxes)],
        axis=1,
    ).astype(np.int64)
    hi = lo + rng.integers(0, 10, size=(n_boxes, 2))
    box_set = CellBoxSet("A", (side, side), lo, hi)
    count = benchmark.pedantic(box_set.count_cells, rounds=5, warmup_rounds=1)
    benchmark.extra_info["boxes"] = n_boxes
    benchmark.extra_info["cells"] = count
    assert count > 0
