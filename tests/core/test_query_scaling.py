"""The query kernels across Q query boxes × N table rows, against numpy
paint oracles: the θ-join compares only the rows a box's window meets and
answers exactly, ``merge_boxes`` keeps the union of what it merges, and
``count_cells`` counts the union's cells."""

import numpy as np
import pytest

from repro.core.compressed import KIND_ABS, KIND_REL, CompressedLineage
from repro.core.query import CellBoxSet, merge_boxes, theta_join

SPAN = 4


def synthetic_table(n_rows: int) -> CompressedLineage:
    """A 1-D backward table of *n_rows* disjoint span-4 key ranges; every
    other row uses the relative value encoding (key k reads [k, k + 3]),
    the rest the absolute one (the whole range reads its own 4 cells)."""
    starts = np.arange(n_rows, dtype=np.int64) * SPAN
    kinds = np.where(np.arange(n_rows) % 2 == 0, KIND_REL, KIND_ABS).astype(np.int8)
    refs = np.where(kinds == KIND_REL, 0, -1).astype(np.int16)
    val_lo = np.where(kinds == KIND_REL, 0, starts).astype(np.int64)
    val_hi = np.where(kinds == KIND_REL, SPAN - 1, starts + SPAN - 1).astype(np.int64)
    dim = n_rows * SPAN
    return CompressedLineage(
        out_name="B",
        in_name="A",
        out_shape=(dim,),
        in_shape=(dim,),
        key_lo=starts[:, None],
        key_hi=starts[:, None] + (SPAN - 1),
        val_kind=kinds[:, None],
        val_ref=refs[:, None],
        val_lo=val_lo[:, None],
        val_hi=val_hi[:, None],
    )


def synthetic_query(dim: int, n_boxes: int, seed: int = 0) -> CellBoxSet:
    rng = np.random.default_rng(seed)
    lo = rng.integers(0, dim - 8, size=(n_boxes, 1)).astype(np.int64)
    hi = lo + rng.integers(0, 8, size=(n_boxes, 1))
    return CellBoxSet("B", (dim,), lo, hi)


def paint_1d(lo: np.ndarray, hi: np.ndarray, dim: int) -> np.ndarray:
    """Boolean mask of the cells covered by 1-D boxes ``[lo, hi]``."""
    diff = np.zeros(dim + 1, dtype=np.int64)
    np.add.at(diff, lo, 1)
    np.add.at(diff, hi + 1, -1)
    return np.cumsum(diff[:-1]) > 0


def paint_2d(lo: np.ndarray, hi: np.ndarray, shape) -> np.ndarray:
    """Boolean mask of the cells covered by 2-D boxes ``[lo, hi]``."""
    diff = np.zeros((shape[0] + 1, shape[1] + 1), dtype=np.int64)
    np.add.at(diff, (lo[:, 0], lo[:, 1]), 1)
    np.add.at(diff, (lo[:, 0], hi[:, 1] + 1), -1)
    np.add.at(diff, (hi[:, 0] + 1, lo[:, 1]), -1)
    np.add.at(diff, (hi[:, 0] + 1, hi[:, 1] + 1), 1)
    return np.cumsum(np.cumsum(diff, axis=0), axis=1)[: shape[0], : shape[1]] > 0


def expected_backward(query: CellBoxSet, dim: int) -> np.ndarray:
    """What the synthetic table maps the query's cells to, cell by cell."""
    widths = (query.hi - query.lo)[:, 0] + 1
    keys = np.repeat(query.lo[:, 0], widths) + (
        np.arange(widths.sum()) - np.repeat(np.cumsum(widths) - widths, widths)
    )
    rows = keys // SPAN
    relative = rows % 2 == 0
    lo = np.where(relative, keys, rows * SPAN)
    hi = np.minimum(lo + SPAN - 1, dim - 1)
    return paint_1d(lo, hi, dim)


@pytest.mark.parametrize("n_rows", [1_000, 100_000])
@pytest.mark.parametrize("n_boxes", [1, 100, 10_000])
def test_theta_join_scaling(n_boxes, n_rows):
    table = synthetic_table(n_rows)
    dim = n_rows * SPAN
    query = synthetic_query(dim, n_boxes)
    stats = {}
    result = theta_join(query, table, merge=True, stats=stats)
    assert np.array_equal(paint_1d(result.lo[:, 0], result.hi[:, 0], dim), expected_backward(query, dim))
    # a box of at most 8 cells meets at most 3 of the span-4 key ranges: the
    # join compares those rows and no others, in one chunk of pair scratch
    assert stats["rows_scanned"] <= 3 * n_boxes
    assert stats["join_blocks"] == 1


@pytest.mark.parametrize("n_boxes", [1_000, 10_000, 50_000])
def test_merge_boxes_scaling(n_boxes):
    rng = np.random.default_rng(1)
    lo = np.stack(
        [rng.integers(0, 2_000, size=n_boxes), rng.integers(0, 50, size=n_boxes)], axis=1
    ).astype(np.int64)
    hi = lo + rng.integers(0, 6, size=(n_boxes, 2))
    mlo, mhi = merge_boxes(lo, hi)
    assert mlo.shape[0] <= n_boxes
    shape = (2_006, 56)
    assert np.array_equal(paint_2d(mlo, mhi, shape), paint_2d(lo, hi, shape))


@pytest.mark.parametrize("n_boxes", [1_000, 50_000])
def test_count_cells_scaling(n_boxes):
    # a 2000×2000 domain keeps the coordinate-compressed grid within its
    # budget, so this is the exact grid count, not a fallback
    rng = np.random.default_rng(2)
    side = 2_000
    lo = np.stack(
        [rng.integers(0, side - 10, size=n_boxes), rng.integers(0, side - 10, size=n_boxes)],
        axis=1,
    ).astype(np.int64)
    hi = lo + rng.integers(0, 10, size=(n_boxes, 2))
    box_set = CellBoxSet("A", (side, side), lo, hi)
    assert box_set.count_cells() == int(paint_2d(lo, hi, (side, side)).sum())
