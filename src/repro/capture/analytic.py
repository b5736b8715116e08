"""Analytic lineage builders for common array operation patterns.

These helpers construct :class:`~repro.core.relation.LineageRelation`
objects directly from index arithmetic (vectorized over numpy index
arrays), without running the taint-tracking capture.  They cover the
recurring patterns of the numpy API:

* element-wise / one-to-one operations,
* full and per-axis reductions and prefix (cumulative) operations,
* pure index selections (sort, transpose, reshape, roll, take, …),
* sliding-window operations (convolve, diff, gradient),
* linear-algebra row/column patterns (matrix-vector, matrix-matrix, outer).

The builders are what the operation catalog (:mod:`repro.capture.numpy_catalog`)
uses; :mod:`repro.capture.tracked` provides the slower, fully general
capture used to validate them.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.relation import LineageRelation

__all__ = [
    "elementwise_lineage",
    "full_reduction_lineage",
    "axis_reduction_lineage",
    "cumulative_lineage",
    "selection_lineage",
    "window_lineage",
    "matvec_lineage",
    "matmat_lineage",
    "outer_lineage",
    "repetition_lineage",
    "row_pattern_lineage",
]

Shape = Tuple[int, ...]


def _cells_from_flat(flat_indices: np.ndarray, shape: Shape) -> np.ndarray:
    """Convert flat indices into an ``(n, ndim)`` matrix of cell coordinates."""
    coords = np.unravel_index(flat_indices.astype(np.int64), shape)
    return np.stack([c.astype(np.int64) for c in coords], axis=1)


def _relation(out_cells: np.ndarray, in_cells: np.ndarray, out_shape: Shape, in_shape: Shape, **names) -> LineageRelation:
    rows = np.concatenate([out_cells, in_cells], axis=1)
    return LineageRelation(tuple(out_shape), tuple(in_shape), rows, **names)


def elementwise_lineage(shape: Shape, **names) -> LineageRelation:
    """One-to-one lineage: output cell ``i`` depends on input cell ``i``."""
    size = int(np.prod(shape))
    flat = np.arange(size)
    cells = _cells_from_flat(flat, shape)
    return _relation(cells, cells, shape, shape, **names)


def full_reduction_lineage(in_shape: Shape, out_shape: Shape = (1,), **names) -> LineageRelation:
    """Every input cell contributes to the single output cell."""
    size = int(np.prod(in_shape))
    in_cells = _cells_from_flat(np.arange(size), in_shape)
    out_cells = np.zeros((size, len(out_shape)), dtype=np.int64)
    return _relation(out_cells, in_cells, out_shape, in_shape, **names)


def axis_reduction_lineage(in_shape: Shape, axis: int, **names) -> LineageRelation:
    """Reduction over one axis: each output cell depends on one input slice."""
    axis = axis % len(in_shape)
    out_shape = tuple(d for i, d in enumerate(in_shape) if i != axis)
    if not out_shape:
        return full_reduction_lineage(in_shape, **names)
    size = int(np.prod(in_shape))
    in_cells = _cells_from_flat(np.arange(size), in_shape)
    out_cells = np.delete(in_cells, axis, axis=1)
    return _relation(out_cells, in_cells, out_shape, in_shape, **names)


def cumulative_lineage(in_shape: Shape, axis: Optional[int] = None, **names) -> LineageRelation:
    """Prefix pattern: output cell ``i`` depends on input cells ``0..i`` along *axis*."""
    if axis is None:
        n = int(np.prod(in_shape))
        out_idx, in_idx = np.tril_indices(n)
        out_cells = out_idx[:, None].astype(np.int64)
        in_cells = _cells_from_flat(in_idx, in_shape)
        return _relation(out_cells, in_cells, (n,), in_shape, **names)
    axis = axis % len(in_shape)
    size = int(np.prod(in_shape))
    base = _cells_from_flat(np.arange(size), in_shape)
    out_parts, in_parts = [], []
    for prefix in range(in_shape[axis]):
        keep = base[:, axis] <= prefix
        in_cells = base[keep]
        out_cells = in_cells.copy()
        out_cells[:, axis] = prefix
        out_parts.append(out_cells)
        in_parts.append(in_cells)
    return _relation(
        np.concatenate(out_parts), np.concatenate(in_parts), in_shape, in_shape, **names
    )


def selection_lineage(source_flat: np.ndarray, in_shape: Shape, **names) -> LineageRelation:
    """Pure index selection: output cell ``c`` depends on input cell ``source_flat[c]``.

    Entries equal to ``-1`` mean the output cell is a constant with no lineage
    (e.g. the zeroed triangle of ``tril``).
    """
    source_flat = np.asarray(source_flat)
    out_shape = source_flat.shape if source_flat.ndim else (1,)
    flat = source_flat.reshape(-1)
    out_cells_all = _cells_from_flat(np.arange(flat.size), out_shape)
    keep = flat >= 0
    in_cells = _cells_from_flat(flat[keep], in_shape)
    return _relation(out_cells_all[keep], in_cells, out_shape, in_shape, **names)


def window_lineage(n: int, radius: int, mode: str = "same", **names) -> LineageRelation:
    """1-D sliding-window pattern (convolution / correlation / gradient).

    Output cell ``i`` depends on input cells ``i - radius .. i + radius``
    clipped to the array bounds.  ``mode='valid'`` shrinks the output by
    ``2 * radius`` cells instead of clipping.
    """
    if mode == "same":
        out_n = n
        offset = 0
    elif mode == "valid":
        out_n = n - 2 * radius
        offset = radius
    else:
        raise ValueError("mode must be 'same' or 'valid'")
    outputs = np.arange(out_n, dtype=np.int64)[:, None]
    inputs = outputs + offset + np.arange(-radius, radius + 1, dtype=np.int64)
    keep = (inputs >= 0) & (inputs < n)
    out_cells = np.broadcast_to(outputs, inputs.shape)[keep][:, None]
    return _relation(out_cells, inputs[keep][:, None], (out_n,), (n,), **names)


def matvec_lineage(rows: int, cols: int, **names) -> LineageRelation:
    """Matrix-vector product lineage w.r.t. the matrix: output ``i`` ← row ``i``."""
    return axis_reduction_lineage((rows, cols), axis=1, **names)


def matmat_lineage(n: int, k: int, m: int, **names) -> LineageRelation:
    """Matrix-matrix product lineage w.r.t. the left operand.

    Output cell ``(i, j)`` depends on the whole ``i``-th row of the left
    ``(n, k)`` matrix, for every ``j``.
    """
    i = np.repeat(np.arange(n), m * k)
    j = np.tile(np.repeat(np.arange(m), k), n)
    kk = np.tile(np.arange(k), n * m)
    out_cells = np.stack([i, j], axis=1).astype(np.int64)
    in_cells = np.stack([i, kk], axis=1).astype(np.int64)
    return _relation(out_cells, in_cells, (n, m), (n, k), **names)


def outer_lineage(n: int, m: int, **names) -> LineageRelation:
    """Outer-product lineage w.r.t. the first vector: ``(i, j)`` ← ``i``."""
    i = np.repeat(np.arange(n), m)
    j = np.tile(np.arange(m), n)
    out_cells = np.stack([i, j], axis=1).astype(np.int64)
    in_cells = i[:, None].astype(np.int64)
    return _relation(out_cells, in_cells, (n, m), (n,), **names)


def repetition_lineage(n: int, reps: int, **names) -> LineageRelation:
    """Tiling pattern: output cell ``r * n + i`` depends on input cell ``i``."""
    out_idx = np.arange(n * reps)
    in_idx = out_idx % n
    return _relation(
        out_idx[:, None].astype(np.int64),
        in_idx[:, None].astype(np.int64),
        (n * reps,),
        (n,),
        **names,
    )


def row_pattern_lineage(in_shape: Tuple[int, int], out_shape: Shape, out_row_of: np.ndarray, **names) -> LineageRelation:
    """Each output cell depends on one whole row of a 2-D input.

    ``out_row_of`` maps each flat output index to the input row it reads.
    Useful for per-row aggregations such as one-hot encoding or model rows.
    """
    rows, cols = in_shape
    out_row_of = np.asarray(out_row_of, dtype=np.int64).reshape(-1)
    out_cells_base = _cells_from_flat(np.arange(out_row_of.size), out_shape)
    out_cells = np.repeat(out_cells_base, cols, axis=0)
    in_rows = np.repeat(out_row_of, cols)
    in_cols = np.tile(np.arange(cols), out_row_of.size)
    in_cells = np.stack([in_rows, in_cols], axis=1)
    return _relation(out_cells, in_cells, out_shape, in_shape, **names)
