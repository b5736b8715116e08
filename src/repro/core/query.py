"""In-situ query processing over ProvRC-compressed lineage (Section V).

Forward and backward ``prov_query`` calls over a path of arrays are chains
of θ-joins executed directly on the compressed tables.  Every entry stores
one table, the backward one (keyed on the output), and a hop joins it from
whichever side the query's array is on.

A **backward hop** (query over the output) is the paper's θ-join:

1. **Range join** — the query (itself encoded as a set of index boxes) is
   intersected with each compressed row's key intervals; any overlap joins.
2. **De-relativization** — relative value attributes are converted back to
   absolute intervals using ``rel_back`` (value = key-intersection + delta),
   without ever expanding intervals into individual cells.
3. **Projection + merge** — the result is projected onto the next array's
   axes and adjacent boxes are coalesced with a range-encoding-style merge
   before the next hop (the "DSLog-NoMerge" ablation skips this step).

A **forward hop** (query over the input) is the inverse θ-join, in place
of the paper's second, forward-keyed table.  A row with key box ``K``
answers a query box ``Q`` when every absolute value attribute ``i`` meets
``Q_i`` and ``K`` stays non-empty once each key attribute ``j`` that a
relative attribute ``i`` references is narrowed to ``[Q_i.lo - hi_i,
Q_i.hi - lo_i]``; the narrowed ``K`` is the answer box.  Attributes that
share a reference (the diagonal the backward hop expands point by point)
just intersect their narrowings, so the answer is one box per matching row
and exact.  Step 3 follows as for a backward hop.

No decompression of the lineage tables happens at any point.

Every kernel here is vectorized.  The θ-join never scans a table: each
table carries a window index on its most selective key attribute
(:attr:`CompressedLineage.key_index` — the rows' order on ``key_lo`` and
the running maximum of ``key_hi`` in that order), two binary searches per
query box bound the rows that could overlap it, and only those candidate
(box, row) pairs get the exact interval test on every key attribute,
``rel_back`` and the clip.  The inverse θ-join does the same over each
row's projection on the value axes (:attr:`CompressedLineage.value_index`).
A hop costs O(Q log N + pairs·d) for Q boxes against N rows of arity d,
where ``pairs`` is the total window size (the matches themselves when the
rows' intervals are disjoint on the indexed attribute; Q·N when no
attribute tells the rows apart); candidates are processed in chunks of
whole boxes so pair scratch never exceeds
:data:`THETA_JOIN_BLOCK_BUDGET_BYTES`.  The box merge is a segmented scan
(lexsort + group-boundary detection + segmented running maxima), and
result counting uses an exact sweep over a coordinate-compressed disjoint
box decomposition.  The original per-row loop implementations live on in
``tests/core/_reference.py`` as oracles for the equivalence tests.

**Cost.**  On tables of a few thousand rows a hop is numpy call overhead
more than arithmetic, so two rules hold throughout: rows of a 2-D array
are gathered with ``take(idx, axis=0)`` (a boolean selection becomes
``np.flatnonzero`` first), and a narrow ``(n, d)`` bool matrix is reduced
one column at a time (:func:`_all_columns`, :func:`_any_columns`).  On a
1,795-row int8 table, 2,355 candidate pairs: 3 µs against 35-47 µs per
row gather, 4 µs against 47-64 µs per ``all(axis=1)``, 185 against 380-680
µs per hop (2 vCPUs, numpy 2.4).
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .compressed import KIND_REL, CompressedLineage, _expand_boxes

__all__ = [
    "CellBoxSet",
    "HopStats",
    "QueryResult",
    "theta_join",
    "execute_chains",
    "execute_path",
    "execute_path_batch",
    "merge_boxes",
    "THETA_JOIN_BLOCK_BUDGET_BYTES",
    "COUNT_GRID_CELL_LIMIT",
]

Cell = Tuple[int, ...]

# Scratch-memory budget for one θ-join chunk: the candidate pairs' box and
# row indices, their two key intersections and the match flags stay under
# this many bytes, so a query whose windows cover a large table many times
# over is joined a run of boxes at a time.
THETA_JOIN_BLOCK_BUDGET_BYTES = 64 * 1024 * 1024

# count_cells builds an occupancy grid over the coordinate-compressed box
# corners; above this many grid cells it falls back to slower exact paths.
COUNT_GRID_CELL_LIMIT = 8_000_000


def _all_columns(matrix: np.ndarray) -> np.ndarray:
    """Row-wise ``all`` of a narrow ``(n, d)`` bool matrix, one column at a
    time: ``matrix.all(axis=1)`` costs over ten times as much."""
    out = np.ones(matrix.shape[0], dtype=bool)
    for column in matrix.T:
        out &= column
    return out


def _any_columns(matrix: np.ndarray) -> np.ndarray:
    """Row-wise ``any`` of a narrow ``(n, d)`` bool matrix, one column at a
    time (see :func:`_all_columns`)."""
    out = np.zeros(matrix.shape[0], dtype=bool)
    for column in matrix.T:
        out |= column
    return out


def _select(rows: np.ndarray, *arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The *rows* of each array, in that order, by ``take`` along axis 0."""
    return tuple(array.take(rows, axis=0) for array in arrays)


# ----------------------------------------------------------------------
# box sets
# ----------------------------------------------------------------------
class CellBoxSet:
    """A set of array cells represented as a union of index boxes.

    This is the compressed query encoding ``Q'`` of the paper: both the
    user's ``query_cells`` argument and every intermediate θ-join result are
    kept in this form so the whole pipeline stays in the compressed domain.
    """

    def __init__(self, array_name: str, shape: Tuple[int, ...], lo: np.ndarray, hi: np.ndarray):
        self.array_name = array_name
        self.shape = tuple(int(d) for d in shape)
        ndim = len(self.shape)
        lo = np.asarray(lo, dtype=np.int64).reshape(-1, ndim) if np.size(lo) else np.empty((0, ndim), np.int64)
        hi = np.asarray(hi, dtype=np.int64).reshape(-1, ndim) if np.size(hi) else np.empty((0, ndim), np.int64)
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have the same shape")
        self.lo = lo
        self.hi = hi

    # -- constructors ---------------------------------------------------
    @classmethod
    def _wrap(cls, array_name: str, shape: Tuple[int, ...], lo: np.ndarray, hi: np.ndarray) -> "CellBoxSet":
        """Trusted constructor for kernel-internal ``(n, ndim)`` int64 arrays.

        Skips the coercion and validation of ``__init__`` — the query hot
        path builds many short-lived box sets per hop and the re-validation
        of arrays the kernels just produced dominates small queries.
        """
        out = cls.__new__(cls)
        out.array_name = array_name
        out.shape = shape
        out.lo = lo
        out.hi = hi
        return out

    @classmethod
    def empty(cls, array_name: str, shape: Sequence[int]) -> "CellBoxSet":
        ndim = len(shape)
        return cls._wrap(
            array_name, tuple(int(d) for d in shape), np.empty((0, ndim), np.int64), np.empty((0, ndim), np.int64)
        )

    @classmethod
    def from_cells(cls, array_name: str, shape: Sequence[int], cells: Iterable[Cell]) -> "CellBoxSet":
        if not isinstance(cells, np.ndarray):
            if not isinstance(cells, (list, tuple)):
                cells = list(cells)
            if not cells:
                return cls.empty(array_name, shape)
        arr = np.asarray(cells, dtype=np.int64)
        if arr.size == 0:
            return cls.empty(array_name, shape)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.shape[1] != len(shape):
            raise ValueError(
                f"cells have {arr.shape[1]} coordinates but the array has {len(shape)} axes"
            )
        # Out-of-bounds cells are dropped rather than surviving silently
        # until clipped(); a point cell is either fully inside or fully out.
        # ravel_multi_index rejects such cells itself, so the common all-in-
        # bounds case pays no separate bounds check.
        shape = tuple(int(d) for d in shape)
        try:
            flat = np.ravel_multi_index(tuple(arr.T), shape)
        except ValueError:
            bounds = np.asarray(shape, dtype=np.int64)
            in_bounds = np.flatnonzero(_all_columns((arr >= 0) & (arr < bounds[None, :])))
            if in_bounds.size == 0:
                return cls.empty(array_name, shape)
            arr = arr.take(in_bounds, axis=0)
            flat = np.ravel_multi_index(tuple(arr.T), shape)

        # Point boxes allow a cheap first merge pass: one sort+dedup over the
        # flat indices, then range-encoding of flat runs that stay inside a
        # row of the last axis.  The flat order is exactly the lexsort order
        # of merge_boxes' last-axis pass, so chaining the remaining per-axis
        # passes yields the identical merged result.
        if flat.size > 1:
            if np.all(flat[1:] > flat[:-1]):
                pass  # already sorted and duplicate-free (common for slices)
            else:
                flat.sort()
                keep = np.ones(flat.size, dtype=bool)
                keep[1:] = flat[1:] != flat[:-1]
                flat = flat[keep]
        new_run = np.ones(flat.size, dtype=bool)
        new_run[1:] = flat[1:] != flat[:-1] + 1
        new_run |= flat % shape[-1] == 0  # runs must not wrap across rows
        firsts = np.flatnonzero(new_run)
        lasts = np.append(firsts[1:] - 1, flat.size - 1)
        lo = np.stack(np.unravel_index(flat[firsts], shape), axis=1).astype(np.int64, copy=False)
        ndim = len(shape)
        boxes = np.concatenate([lo, lo], axis=1)
        boxes[:, -1] += flat[lasts] - flat[firsts]
        span = max(shape) + 2  # cells are in-bounds, so the shape bounds the coords
        for axis in range(ndim - 2, -1, -1):
            if boxes.shape[0] <= 1:
                break
            boxes = _merge_axis_pass(boxes, axis, ndim, span)
        return cls._wrap(array_name, shape, boxes[:, :ndim], boxes[:, ndim:])

    @classmethod
    def from_boxes(
        cls, array_name: str, shape: Sequence[int], boxes: Iterable[Sequence[Tuple[int, int]]]
    ) -> "CellBoxSet":
        boxes = list(boxes)
        if not boxes:
            return cls.empty(array_name, shape)
        lo = np.asarray([[pair[0] for pair in box] for box in boxes], dtype=np.int64)
        hi = np.asarray([[pair[1] for pair in box] for box in boxes], dtype=np.int64)
        return cls(array_name, tuple(shape), lo, hi)

    @classmethod
    def from_slices(
        cls, array_name: str, shape: Sequence[int], slices: Sequence[slice]
    ) -> "CellBoxSet":
        """Build a single box from per-axis slices with numpy's semantics:
        bounds resolve through ``slice.indices`` (negative, omitted and
        out-of-range ones included) and missing trailing axes are whole.
        More slices than axes, or a step other than 1 (a box cannot hold a
        stride), is a ``ValueError``."""
        shape = tuple(int(d) for d in shape)
        if len(slices) > len(shape):
            raise ValueError(f"{len(slices)} slices for an array of {len(shape)} axes")
        pairs = []
        for dim, sl in itertools.zip_longest(shape, slices, fillvalue=slice(None)):
            start, stop, step = sl.indices(dim)
            if step != 1:
                raise ValueError(f"slice step {step} cannot be a box: only step 1 is supported")
            if stop <= start:
                return cls.empty(array_name, shape)
            pairs.append((start, stop - 1))
        return cls.from_boxes(array_name, shape, [pairs])

    # -- basic protocol ---------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __len__(self) -> int:
        return int(self.lo.shape[0])

    def is_empty(self) -> bool:
        return len(self) == 0

    def to_cells(self) -> Set[Cell]:
        """Expand to the explicit set of cells (use only for small results)."""
        return set(map(tuple, self.to_cells_array().tolist()))

    def to_cells_array(self) -> np.ndarray:
        """Explicit cells as a deduplicated ``(n, ndim)`` int64 array in
        lexicographic row order — the vectorized counterpart of
        ``sorted(to_cells())``, used by the serving tier to build cell
        listings without materializing per-cell Python tuples."""
        keep = np.flatnonzero(_all_columns(self.lo <= self.hi))  # a box with lo > hi holds no cell
        if not keep.size:
            return np.empty((0, self.ndim), dtype=np.int64)
        _, cells = _expand_boxes(*_select(keep, self.lo, self.hi))
        # one box expands in row-major, i.e. lexicographic, order; np.unique
        # sorts rows lexicographically — the order of sorted(set(...))
        return cells if keep.size == 1 else np.unique(cells, axis=0)

    def to_mask(self) -> np.ndarray:
        """Return a boolean mask over the array shape marking member cells."""
        mask = np.zeros(self.shape, dtype=bool)
        for i in range(len(self)):
            index = tuple(
                slice(int(self.lo[i, d]), int(self.hi[i, d]) + 1) for d in range(self.ndim)
            )
            mask[index] = True
        return mask

    def count_cells(self) -> int:
        """Exact number of distinct cells covered by the boxes.

        Boxes may overlap, so this is a measure-of-union problem.  The boxes
        are first coalesced, then counted with an exact sweep over the
        coordinate-compressed grid spanned by the box corners: every grid
        cell is covered either fully or not at all, so the occupied cells
        form a disjoint box decomposition of the union and the answer is the
        sum of their volumes.  No array-sized mask is ever allocated.

        The result is memoized — the box arrays are never mutated after
        construction, and the serving tier may ask for the count more than
        once per result (payload building, stats, batch manifests).
        """
        count = getattr(self, "_cell_count", None)
        if count is None:
            count = self._count_cells()
            self._cell_count = count
        return count

    def _count_cells(self) -> int:
        if self.is_empty():
            return 0
        lo, hi = self.lo, self.hi
        n = lo.shape[0]
        if n > 1:
            lo, hi = merge_boxes(lo, hi)
        if lo.shape[0] == 1:
            return int(np.prod(hi[0] - lo[0] + 1))
        if self.ndim == 1:
            # merge_boxes leaves 1-D boxes disjoint: the volumes just add up
            return int((hi - lo + 1).sum())
        count = _count_union_grid(lo, hi)
        if count >= 0:
            return count
        # pathological fallback: grid too large for the sweep's budget
        total_cells = int(np.prod(self.shape))
        if total_cells <= 50_000_000:
            return int(CellBoxSet(self.array_name, self.shape, lo, hi).to_mask().sum())
        return len(self.to_cells_array())

    def clipped(self) -> "CellBoxSet":
        """Clip boxes to the array bounds, dropping boxes that fall outside."""
        if self.is_empty():
            return self
        bounds = np.asarray(self.shape, dtype=np.int64) - 1
        lo = np.maximum(self.lo, 0)
        hi = np.minimum(self.hi, bounds)
        keep = _all_columns(lo <= hi)
        if not keep.all():
            lo, hi = _select(np.flatnonzero(keep), lo, hi)
        return CellBoxSet._wrap(self.array_name, self.shape, lo, hi)

    def merged(self) -> "CellBoxSet":
        """Coalesce duplicate and adjacent boxes (the merge optimization)."""
        if len(self) <= 1:
            return self
        lo, hi = merge_boxes(self.lo, self.hi)
        return CellBoxSet._wrap(self.array_name, self.shape, lo, hi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CellBoxSet({self.array_name}, boxes={len(self)})"


def _count_union_grid(lo: np.ndarray, hi: np.ndarray) -> int:
    """Exact union volume of possibly overlapping boxes, or ``-1`` when the
    compressed grid would exceed :data:`COUNT_GRID_CELL_LIMIT` cells.

    Coordinate compression turns the union into a disjoint decomposition:
    the corners ``lo`` and ``hi + 1`` cut each axis into slabs, every box is
    an exact union of grid cells, and a d-dimensional difference array plus
    one cumulative sum per axis yields the per-cell cover counts without any
    per-box Python loop.
    """
    n, ndim = lo.shape
    edges = [np.unique(np.concatenate([lo[:, d], hi[:, d] + 1])) for d in range(ndim)]
    grid_cells = 1
    for e in edges:
        grid_cells *= e.size  # the difference array carries one extra slot per axis
        if grid_cells > COUNT_GRID_CELL_LIMIT:
            return -1

    # +1 per axis so the "exclusive end" corners have a slot to land in
    diff = np.zeros(tuple(e.size for e in edges), dtype=np.int32)
    starts = [np.searchsorted(edges[d], lo[:, d]) for d in range(ndim)]
    stops = [np.searchsorted(edges[d], hi[:, d] + 1) for d in range(ndim)]
    for corner in range(1 << ndim):
        index = []
        sign = 1
        for d in range(ndim):
            if corner >> d & 1:
                index.append(stops[d])
                sign = -sign
            else:
                index.append(starts[d])
        np.add.at(diff, tuple(index), sign)
    for d in range(ndim):
        np.cumsum(diff, axis=d, out=diff)

    covered = diff[tuple(slice(0, -1) for _ in range(ndim))] > 0
    # weighted count: contract one axis at a time against the slab widths
    acc = covered.astype(np.int64)
    for d in range(ndim - 1, -1, -1):
        acc = acc @ np.diff(edges[d])
    return int(acc)


def merge_boxes(lo: np.ndarray, hi: np.ndarray, qid: Optional[np.ndarray] = None):
    """Coalesce boxes with a range-encoding-style segmented sweep.

    Duplicate boxes are removed, then for each axis in turn boxes that agree
    on every other axis and overlap or touch on that axis are merged.  This
    mirrors the row-reduction DSLog applies between θ-joins.  The per-axis
    reduction is a segmented scan: groups (identical on every other axis)
    come out of the lexsort adjacent, a segmented running maximum of the
    interval ends finds where each merged run breaks, and
    ``np.maximum.reduceat`` collapses the runs — no per-box Python loop.

    Unlike the loop oracle, no explicit duplicate-removal pass is needed:
    duplicate boxes agree on every sort key of the first axis pass, land in
    the same run and collapse there, and the final pass's sort keys fully
    determine the output order, so the result is identical either way.

    Returns ``(lo, hi)``.  With *qid* — one non-decreasing query id per box,
    as the θ-join kernel emits them — the boxes are a stacked batch and the
    return is ``(lo, hi, qid)``: every query's segment merged **exactly**
    as it would be merged alone, queries still contiguous and ascending.
    The id rides as one extra leading column, a degenerate ``[qid, qid]``
    interval that gets no pass of its own: it is the most significant sort
    key and part of every pass's group identity, so runs never span
    queries and the order within a query is that of the unaugmented pass.
    A batch whose boxes all belong to one query needs no such column.
    """
    n, ndim = lo.shape
    if n <= 1:
        return (lo, hi) if qid is None else (lo, hi, qid)
    lead = int(qid is not None and qid[0] != qid[-1])
    width = ndim + lead
    boxes = np.empty((n, 2 * width), dtype=np.int64)
    if lead:
        boxes[:, 0] = boxes[:, width] = qid
    boxes[:, lead:width] = lo
    boxes[:, width + lead :] = hi
    # one band-separation span serves every pass: merging never widens the
    # value range (merged his are maxima of existing his)
    span = int(boxes.max()) - int(boxes.min()) + 2
    for axis in range(width - 1, lead - 1, -1):
        boxes = _merge_axis_pass(boxes, axis, width, span)
        if boxes.shape[0] <= 1:
            break  # the remaining passes would leave a single row as it is
    lo, hi = boxes[:, lead:width], boxes[:, width + lead :]
    if qid is None:
        return lo, hi
    return lo, hi, (boxes[:, 0] if lead else qid[: boxes.shape[0]])


def _merge_axis_pass(boxes: np.ndarray, axis: int, ndim: int, span: int) -> np.ndarray:
    """One segmented merge pass along *axis* over ``(n, 2 * ndim)`` boxes
    (``lo`` columns first, then ``hi``).

    Boxes that agree on every other axis form a group; within a group the
    lexsort orders boxes by their start on *axis*, and a run of boxes whose
    intervals overlap or touch collapses to one row.  The segmented running
    maximum that detects run breaks offsets each group into its own value
    band so a single global ``np.maximum.accumulate`` respects group resets.
    """
    n = boxes.shape[0]
    sort_cols: List[np.ndarray] = [boxes[:, axis]]
    for other in range(ndim - 1, -1, -1):
        if other == axis:
            continue
        sort_cols.append(boxes[:, ndim + other])
        sort_cols.append(boxes[:, other])
    boxes = boxes.take(np.lexsort(sort_cols), axis=0)

    others = boxes.take([c for c in range(2 * ndim) if c != axis and c != ndim + axis], axis=1)
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = _any_columns(others[1:] != others[:-1])

    axis_lo = boxes[:, axis]
    axis_hi = boxes[:, ndim + axis]
    # the shift only has to separate the bands, not normalize to zero, so
    # the raw values are offset as-is (int64 headroom is ample)
    band = np.cumsum(new_group)
    np.multiply(band, span, out=band)
    run_hi = axis_hi + band
    np.maximum.accumulate(run_hi, out=run_hi)
    # a new run starts at a group boundary or where the interval begins
    # beyond the group's covered prefix (gap of at least one); across bands
    # the comparison is always true, so no masking is needed
    run_start = new_group
    run_start[1:] |= (axis_lo[1:] + band[1:]) > run_hi[:-1] + 1
    run_firsts = np.flatnonzero(run_start)
    if run_firsts.size == n:
        return boxes  # nothing merged on this axis (rows stay sorted)
    merged = boxes.take(run_firsts, axis=0)
    merged[:, ndim + axis] = np.maximum.reduceat(axis_hi, run_firsts)
    return merged


# ----------------------------------------------------------------------
# θ-join
# ----------------------------------------------------------------------
@dataclass
class HopStats:
    """Per-hop statistics of a path query (used by the benchmark harness).

    ``rows_scanned`` counts the rows the hop actually compared: the
    candidate (box, row) pairs the window index gave this query's boxes —
    not ``len(table)``.  ``seconds`` and ``join_blocks`` (the candidate
    chunks processed) are the hop's kernel pass's: in a batch, that pass is
    shared by every query that took this (table, direction) in the same
    sweep (:func:`execute_chains`).
    """

    array_from: str
    array_to: str
    rows_scanned: int
    boxes_in: int
    boxes_out_raw: int
    boxes_out_merged: int
    seconds: float
    join_blocks: int = 0


@dataclass
class QueryResult:
    """Result of a path query: the final cell boxes plus per-hop statistics."""

    cells: CellBoxSet
    hops: List[HopStats] = field(default_factory=list)

    def to_cells(self) -> Set[Cell]:
        return self.cells.to_cells()

    def to_cells_array(self) -> np.ndarray:
        return self.cells.to_cells_array()

    @classmethod
    def union(cls, results: Sequence["QueryResult"], merge: bool = True) -> "QueryResult":
        """Combine per-path results into one (multi-path union queries).

        All results must target the same array; the box sets are
        concatenated (and coalesced when *merge* is set) and the per-hop
        statistics of every contributing path are kept in order.  A path
        along which the query emptied contributes its hops and no cells:
        its empty result lives on the array where it died, which need not
        be the one the other paths arrived at.
        """
        if not results:
            raise ValueError("cannot union an empty list of query results")
        if len(results) == 1:
            return results[0]
        arrived = [r for r in results if len(r.cells.lo)] or results[:1]
        first = arrived[0].cells
        for other in arrived[1:]:
            if other.cells.array_name != first.array_name or other.cells.shape != first.shape:
                raise ValueError(
                    "cannot union results over different arrays: "
                    f"{first.array_name!r} vs {other.cells.array_name!r}"
                )
        lo = np.concatenate([r.cells.lo for r in arrived], axis=0)
        hi = np.concatenate([r.cells.hi for r in arrived], axis=0)
        cells = CellBoxSet._wrap(first.array_name, first.shape, lo, hi)
        if merge:
            cells = cells.merged()
        return cls(cells=cells, hops=[hop for r in results for hop in r.hops])

    def count_cells(self) -> int:
        return self.cells.count_cells()


def _expand_shared_refs(
    table: CompressedLineage,
    row_idx: np.ndarray,
    inter_lo: np.ndarray,
    inter_hi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact ``rel_back`` for pairs whose row shares a key reference.

    Every shared key attribute is pinned to one index point at a time (the
    Cartesian product over the shared attributes' intersection ranges) and
    the row's value attributes are de-relativized against the pinned key —
    the per-key-index expansion that keeps diagonal lineage exact.  Such
    rows are rare, so this is a plain loop over the deferred pairs.
    """
    mask = table.shared_ref_mask
    value_ndim = table.value_ndim
    los: List[np.ndarray] = []
    his: List[np.ndarray] = []
    for p in range(row_idx.size):
        r = int(row_idx[p])
        shared = np.flatnonzero(mask[r])
        rel_cols = np.flatnonzero(table.val_kind[r] == KIND_REL)
        refs = table.val_ref[r]
        ranges = [range(int(inter_lo[p, k]), int(inter_hi[p, k]) + 1) for k in shared]
        for combo in itertools.product(*ranges):
            key_lo = inter_lo[p].copy()
            key_hi = inter_hi[p].copy()
            key_lo[shared] = combo
            key_hi[shared] = combo
            # upcast: the key additions below can overflow a narrow column
            lo = table.val_lo[r].astype(np.int64)
            hi = table.val_hi[r].astype(np.int64)
            lo[rel_cols] += key_lo[refs[rel_cols]]
            hi[rel_cols] += key_hi[refs[rel_cols]]
            los.append(lo)
            his.append(hi)
    if not los:
        return np.empty((0, value_ndim), np.int64), np.empty((0, value_ndim), np.int64)
    return np.stack(los), np.stack(his)


def _rel_back(
    table: CompressedLineage,
    row_idx: np.ndarray,
    inter_lo: np.ndarray,
    inter_hi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """De-relativize the matched rows' value intervals (``rel_back``).

    ``inter_lo``/``inter_hi`` are the key intersections of the matched rows;
    relative value attributes become absolute with one flat ``take`` over
    every relative (row, attribute) pair at once.

    The stored value columns may be narrow (int8/int16, as hydrated from
    disk); the matched gather is upcast to int64 here — the one
    arithmetic-overflow boundary of the join, where int64 key
    intersections are added and the caller clips in place — so only the
    matched pairs pay for wide integers, never the resident table.
    """
    # take copies, so the in-place de-relativization is safe
    res_lo = table.val_lo.take(row_idx, axis=0).astype(np.int64, copy=False)
    res_hi = table.val_hi.take(row_idx, axis=0).astype(np.int64, copy=False)
    if not table.has_relative:
        return res_lo, res_hi
    encoding = table.uniform_value_encoding
    if encoding is not None:
        # uniformly-encoded columns (the common structured-lineage case):
        # rel_back is two column adds per relative attribute
        for column, (kind, ref) in enumerate(encoding):
            if kind == KIND_REL:
                res_lo[:, column] += inter_lo[:, ref]
                res_hi[:, column] += inter_hi[:, ref]
        return res_lo, res_hi
    rel = np.flatnonzero(table.val_kind.take(row_idx, axis=0) == KIND_REL)  # flat (pair, attribute)
    if rel.size:
        pair, column = np.divmod(rel, table.value_ndim)
        # rel_back: absolute = key intersection + delta, one flat take
        at = pair * table.key_ndim + table.val_ref.take(row_idx.take(pair) * table.value_ndim + column)
        res_lo.reshape(-1)[rel] += inter_lo.take(at)
        res_hi.reshape(-1)[rel] += inter_hi.take(at)
    return res_lo, res_hi


def _joins_inverse(array_name: str, ndim: int, table: CompressedLineage) -> bool:
    """Which join a query over *array_name* takes through *table*: the
    θ-join when the array is the table's output (its key side: a backward
    hop), the inverse θ-join (``True``) when it is the table's input (its
    value side: a forward hop)."""
    inverse = array_name != table.key_name
    if inverse and array_name != table.value_name:
        raise ValueError(
            f"table links {table.in_name!r} -> {table.out_name!r} but the query "
            f"targets {array_name!r}"
        )
    if ndim != (table.value_ndim if inverse else table.key_ndim):
        raise ValueError("query dimensionality does not match the table's arity on its side")
    return inverse


def _far_side(table: CompressedLineage, inverse: bool) -> Tuple[str, Tuple[int, ...]]:
    """Name and shape of the array a join through *table* arrives at."""
    if inverse:
        return table.key_name, table.key_shape
    return table.value_name, table.value_shape


def _at_width(ends: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Query-box ends as search needles at an index array's stored width
    (clipped into its range, which can only widen a window), so a narrow
    index is never upcast per call."""
    if dtype == np.int64:
        return ends
    info = np.iinfo(dtype)
    return np.minimum(np.maximum(ends, info.min), info.max).astype(dtype)


def _candidate_pairs(
    index: Tuple[int, Optional[np.ndarray], np.ndarray, np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    width: int,
) -> Tuple[np.ndarray, Iterator[Tuple[np.ndarray, np.ndarray]]]:
    """The rows each query box could join, from a window *index*
    (:attr:`CompressedLineage.key_index` or ``value_index``).

    Returns ``(count, chunks)``: ``count[b]`` is the size of box *b*'s
    window on the indexed attribute — two binary searches per box, no row
    is read — and ``chunks`` yields those windows expanded to ``(box_idx,
    row_idx)`` pair arrays in (box, stored row) order.  A chunk is a run of
    whole boxes holding at most ``THETA_JOIN_BLOCK_BUDGET_BYTES`` of pair
    scratch, *width* int64 interval pairs per candidate pair (one box with
    a wider window than that still goes through alone).  The windows are a
    superset of the matches: the caller tests every attribute exactly.
    """
    attr, order, index_lo, reach = index
    n_rows = reach.shape[0]
    start = reach.searchsorted(_at_width(lo[:, attr], reach.dtype), side="left")
    count = index_lo.searchsorted(_at_width(hi[:, attr], index_lo.dtype), side="right") - start
    np.maximum(count, 0, out=count)
    ends = count.cumsum()
    # ragged expansion: pair g of the stacked windows sits at index g + shift
    shift = start - ends + count
    # per pair: box + row index, the interval scratch, the match flag
    max_pairs = max(1, THETA_JOIN_BLOCK_BUDGET_BYTES // (16 * width + 17))
    n_boxes = count.shape[0]

    def chunks() -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        first, done = 0, 0
        while first < n_boxes:
            last = n_boxes
            if ends[-1] - done > max_pairs:
                last = max(first + 1, int(ends.searchsorted(done + max_pairs, side="right")))
            total = int(ends[last - 1])
            box_idx = np.arange(first, last).repeat(count[first:last])
            row_idx = np.arange(done, total)
            row_idx += shift.take(box_idx)
            if order is not None:
                # back to stored rows, ascending within each box (which
                # leaves box_idx as it is): one sort of a packed key
                packed = box_idx * n_rows + order.take(row_idx)
                packed.sort()
                row_idx = packed - box_idx * n_rows
            yield box_idx, row_idx
            first, done = last, total

    return count, chunks()


def theta_join(
    query: CellBoxSet,
    table: CompressedLineage,
    merge: bool = True,
    stats: Optional[Dict[str, int]] = None,
) -> CellBoxSet:
    """One θ-join of a query box set against a compressed lineage table.

    The query's array must be one side of the table; the result is a box
    set over the other side.  A query over the table's output (its key
    side) takes the θ-join, one over its input (the value side) the
    inverse θ-join.  This is the batch kernel
    (:func:`_theta_join_batch_raw`) run on a batch of one: window lookup,
    exact interval test and ``rel_back`` (or the key narrowing) on the
    candidate pairs only.  When *stats* is given it receives
    ``"join_blocks"`` (candidate chunks processed) and ``"rows_scanned"``
    (candidate pairs compared).

    Narrow (int8/int16) table columns are consumed as-is: the interval
    intersections promote against the int64 query boxes, and only the
    matched value gathers are upcast (inside :func:`_rel_back`), so a
    hydrated table is read at its on-disk width.  Query box sets are
    int64 throughout — results are bit-identical to the int64 oracle.
    """
    inverse = _joins_inverse(query.array_name, query.ndim, table)
    lo, hi, _, count = _theta_join_batch_raw(
        table, query.lo, query.hi, np.zeros(len(query), np.int64), inverse, stats=stats
    )
    if stats is not None:
        stats["rows_scanned"] = int(count.sum())
    result = CellBoxSet._wrap(*_far_side(table, inverse), lo, hi)
    if merge:
        result = result.merged()
    return result


# ----------------------------------------------------------------------
# path execution: any number of queries, one kernel pass per (table, direction)
# ----------------------------------------------------------------------
def _stack_box_sets(
    queries: Sequence[CellBoxSet],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[int]]:
    """Stack the box sets waiting at one node into ``(lo, hi, qid,
    counts)``, ``counts[q]`` being query *q*'s number of boxes.

    Queries are stacked in order, so ``qid`` is non-decreasing and each
    query's boxes keep their own order — the invariant the bit-identity of
    the batched kernels rests on.  A batch of one is its query's own
    arrays (the kernels only read them).
    """
    if len(queries) == 1:
        return queries[0].lo, queries[0].hi, np.zeros(len(queries[0]), np.int64), [len(queries[0])]
    counts = [q.lo.shape[0] for q in queries]
    lo = np.concatenate([q.lo for q in queries], axis=0)
    hi = np.concatenate([q.hi for q in queries], axis=0)
    qid = np.repeat(np.arange(len(queries), dtype=np.int64), counts)
    return lo, hi, qid, counts


def _theta_join_batch_raw(
    table: CompressedLineage,
    lo: np.ndarray,
    hi: np.ndarray,
    qid: np.ndarray,
    inverse: bool = False,
    stats: Optional[Dict[str, int]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The θ-join kernel: stacked query boxes against one table — over its
    output (key) side, or with *inverse* over its input (value) side
    (:func:`_inverse_join_batch_raw`).

    :func:`_candidate_pairs` names the (box, row) pairs worth comparing;
    each chunk of them gets the exact interval test on every key attribute,
    and the matches are de-relativized by :func:`_rel_back` (pairs whose row
    shares a key reference on a multi-index intersection — see
    :attr:`CompressedLineage.shared_ref_mask` — by
    :func:`_expand_shared_refs`, after every exact pair so the output order
    does not depend on the chunking).  Every matched pair carries its box's
    query id through the join, so the output ``(lo, hi, qid)`` segments back
    into per-query results; it is clipped to the value array's bounds but
    **not** merged (merging is per query, via :func:`merge_boxes`).

    Order contract: *qid* comes in non-decreasing (boxes stacked query by
    query) and rows come back grouped by query, ascending, exact pairs
    before expanded pairs within a query, each in (box, stored row) order —
    what the loop oracle produces for each query alone.  Exact pairs leave
    the chunks in stacked-box order already; only expanded pairs, appended
    behind them all, can break it, so only then is there a (stable) sort.

    The fourth return value is the number of candidate pairs per box.
    *stats* receives ``"join_blocks"``, the number of chunks processed.
    """
    if inverse:
        return _inverse_join_batch_raw(table, lo, hi, qid, stats)
    n_boxes = lo.shape[0]
    if stats is not None:
        stats["join_blocks"] = 0
    if len(table) == 0 or n_boxes == 0:
        empty = np.empty((0, table.value_ndim), np.int64)
        return empty, empty.copy(), np.empty(0, np.int64), np.zeros(n_boxes, np.int64)

    out_lo_parts: List[np.ndarray] = []
    out_hi_parts: List[np.ndarray] = []
    out_qid_parts: List[np.ndarray] = []
    split_parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    shared_mask = table.shared_ref_mask
    count, chunks = _candidate_pairs(table.key_index, lo, hi, table.key_ndim)
    for box_idx, row_idx in chunks:
        if stats is not None:
            stats["join_blocks"] += 1
        ilo = np.maximum(table.key_lo.take(row_idx, axis=0), lo.take(box_idx, axis=0))
        ihi = np.minimum(table.key_hi.take(row_idx, axis=0), hi.take(box_idx, axis=0))
        matched = _all_columns(ilo <= ihi)
        if not matched.all():
            box_idx, row_idx, ilo, ihi = _select(np.flatnonzero(matched), box_idx, row_idx, ilo, ihi)
        pair_qid = qid.take(box_idx)
        if shared_mask is not None and row_idx.size:
            needs = _any_columns(shared_mask.take(row_idx, axis=0) & (ihi > ilo))
            if needs.any():
                split_parts.append(_select(np.flatnonzero(needs), row_idx, ilo, ihi, pair_qid))
                row_idx, ilo, ihi, pair_qid = _select(np.flatnonzero(~needs), row_idx, ilo, ihi, pair_qid)
        res_lo, res_hi = _rel_back(table, row_idx, ilo, ihi)
        out_lo_parts.append(res_lo)
        out_hi_parts.append(res_hi)
        out_qid_parts.append(pair_qid)
    for row_idx, ilo, ihi, pair_qid in split_parts:
        split_lo, split_hi = _expand_shared_refs(table, row_idx, ilo, ihi)
        # per-pair expansion count = the Cartesian product of the shared
        # attributes' intersection ranges, in the same pair order
        spans = np.where(shared_mask.take(row_idx, axis=0), ihi - ilo + 1, 1)
        out_lo_parts.append(split_lo)
        out_hi_parts.append(split_hi)
        out_qid_parts.append(np.repeat(pair_qid, spans.prod(axis=1)))
    if len(out_lo_parts) == 1:
        res_lo, res_hi, res_qid = out_lo_parts[0], out_hi_parts[0], out_qid_parts[0]
    else:
        res_lo = np.concatenate(out_lo_parts, axis=0)
        res_hi = np.concatenate(out_hi_parts, axis=0)
        res_qid = np.concatenate(out_qid_parts, axis=0)

    # clip to the value array's bounds in place (the arrays are fresh
    # copies), dropping boxes that fall outside entirely
    np.maximum(res_lo, 0, out=res_lo)
    np.minimum(res_hi, table.value_bounds, out=res_hi)
    keep = _all_columns(res_lo <= res_hi)
    if not keep.all():
        res_lo, res_hi, res_qid = _select(np.flatnonzero(keep), res_lo, res_hi, res_qid)
    if split_parts and qid[0] != qid[-1]:
        res_lo, res_hi, res_qid = _select(np.argsort(res_qid, kind="stable"), res_lo, res_hi, res_qid)
    return res_lo, res_hi, res_qid, count


def _inverse_join_batch_raw(
    table: CompressedLineage,
    lo: np.ndarray,
    hi: np.ndarray,
    qid: np.ndarray,
    stats: Optional[Dict[str, int]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The inverse θ-join kernel: stacked query boxes over the table's
    value array, answered as boxes over its key array.

    A row with key box ``K`` reaches a value cell ``a`` from key cell ``b``
    when every value attribute holds it: an absolute one when ``a_i`` lies
    in ``[lo_i, hi_i]``, a relative one (on key attribute ``j``) when
    ``a_i - b_j`` does.  So a query box ``Q`` reaches exactly the key cells
    of ``K`` whose every referenced ``b_j`` lies in ``[Q_i.lo - hi_i,
    Q_i.hi - lo_i]`` — one box, however many attributes share a reference
    (their narrowings simply intersect) — provided every absolute
    attribute meets ``Q_i``.  That test is the same narrowing applied to a
    virtual key attribute pinned at ``[0, 0]``, so one code path serves
    both kinds.  The candidate pairs come from
    :attr:`CompressedLineage.value_index`; the answer is clipped to the key
    array's bounds, as the θ-join clips to the value array's, and the
    output keeps the order contract of :func:`_theta_join_batch_raw` with
    no expanded pairs at all.
    """
    n_boxes = lo.shape[0]
    if stats is not None:
        stats["join_blocks"] = 0
    n_keys = table.key_ndim
    if len(table) == 0 or n_boxes == 0:
        empty = np.empty((0, n_keys), np.int64)
        return empty, empty.copy(), np.empty(0, np.int64), np.zeros(n_boxes, np.int64)

    encoding = table.uniform_value_encoding
    bounds = np.append(np.asarray(table.key_shape, np.int64) - 1, 0)
    out_lo_parts: List[np.ndarray] = []
    out_hi_parts: List[np.ndarray] = []
    out_qid_parts: List[np.ndarray] = []
    count, chunks = _candidate_pairs(table.value_index, lo, hi, n_keys + 1)
    for box_idx, row_idx in chunks:
        if stats is not None:
            stats["join_blocks"] += 1
        n_pairs = row_idx.shape[0]
        # the key box narrowed so far, plus the virtual attribute at [0, 0]
        key_lo = np.zeros((n_pairs, n_keys + 1), np.int64)
        key_hi = np.zeros((n_pairs, n_keys + 1), np.int64)
        key_lo[:, :n_keys] = table.key_lo.take(row_idx, axis=0)
        key_hi[:, :n_keys] = table.key_hi.take(row_idx, axis=0)
        # where each value attribute allows its referenced key to lie
        floor = lo.take(box_idx, axis=0) - table.val_hi.take(row_idx, axis=0)
        ceil = hi.take(box_idx, axis=0) - table.val_lo.take(row_idx, axis=0)
        if encoding is not None:
            for column, (kind, ref) in enumerate(encoding):
                target = ref if kind == KIND_REL else n_keys
                np.maximum(key_lo[:, target], floor[:, column], out=key_lo[:, target])
                np.minimum(key_hi[:, target], ceil[:, column], out=key_hi[:, target])
        else:
            target = np.where(
                table.val_kind.take(row_idx, axis=0) == KIND_REL, table.val_ref.take(row_idx, axis=0), n_keys
            ) + np.arange(0, n_pairs * (n_keys + 1), n_keys + 1)[:, None]
            flat_lo, flat_hi = key_lo.reshape(-1), key_hi.reshape(-1)
            # one target per pair within a column: no duplicate positions
            for column in range(target.shape[1]):
                at = target[:, column]
                flat_lo[at] = np.maximum(flat_lo[at], floor[:, column])
                flat_hi[at] = np.minimum(flat_hi[at], ceil[:, column])
        np.maximum(key_lo, 0, out=key_lo)
        np.minimum(key_hi, bounds, out=key_hi)
        matched = np.flatnonzero(_all_columns(key_lo <= key_hi))
        out_lo_parts.append(key_lo[:, :n_keys].take(matched, axis=0))
        out_hi_parts.append(key_hi[:, :n_keys].take(matched, axis=0))
        out_qid_parts.append(qid.take(box_idx.take(matched)))
    if len(out_lo_parts) == 1:
        return out_lo_parts[0], out_hi_parts[0], out_qid_parts[0], count
    return (
        np.concatenate(out_lo_parts, axis=0),
        np.concatenate(out_hi_parts, axis=0),
        np.concatenate(out_qid_parts, axis=0),
        count,
    )


def _per_query(qid: np.ndarray, n_queries: int, weights: Optional[np.ndarray] = None) -> list:
    """Per-query totals over stacked rows: how many rows carry each query
    id, or the sum of their *weights*.  A one-query batch owns every row,
    so its totals need no pass over the ids."""
    if n_queries == 1:
        return [len(qid) if weights is None else int(weights.sum())]
    return np.bincount(qid, weights=weights, minlength=n_queries).tolist()


def _split_by_query(
    array_name: str,
    shape: Tuple[int, ...],
    lo: np.ndarray,
    hi: np.ndarray,
    counts: List[int],
) -> List[CellBoxSet]:
    """Slice stacked, query-ordered result rows over one array back into
    one box set per query (``counts[q]`` rows belong to query *q*)."""
    if len(counts) == 1:
        return [CellBoxSet._wrap(array_name, shape, lo, hi)]
    ends = list(itertools.accumulate(counts))
    return [
        CellBoxSet._wrap(array_name, shape, lo[end - n : end], hi[end - n : end])
        for n, end in zip(counts, ends)
    ]


def _sweep_order(plans: List[List[int]], n_nodes: int) -> List[int]:
    """The nodes of the hop graph (an edge from each hop of a plan to its
    next) in topological order, ties to the lower node number — the earlier
    first appearance.  A cycle, which only paths that revisit a table can
    form, is entered at its lowest node.  One plan is its own order."""
    if len(plans) == 1:
        return plans[0]
    after: List[Set[int]] = [set() for _ in range(n_nodes)]
    before = [0] * n_nodes
    for plan in plans:
        for a, b in zip(plan, plan[1:]):
            if b not in after[a]:
                after[a].add(b)
                before[b] += 1
    ready = [v for v in range(n_nodes) if not before[v]]  # ascending: a heap
    order: List[int] = []
    placed = [False] * n_nodes
    while len(order) < n_nodes:
        v = heapq.heappop(ready) if ready else placed.index(False)
        if not placed[v]:
            placed[v] = True
            order.append(v)
            for b in after[v]:
                before[b] -= 1
                if not before[b]:
                    heapq.heappush(ready, b)
    return order


def execute_chains(
    chains: Sequence[Sequence[CompressedLineage]],
    queries: Sequence[CellBoxSet],
    merge: bool = True,
    stats: Optional[Dict[str, int]] = None,
) -> List[QueryResult]:
    """The one hop-chain driver: run each query down its own table chain,
    the whole batch together.

    ``chains[q][i]`` must have the array hop ``i - 1`` of query *q* arrived
    at (the query's own array for ``i = 0``) on one of its sides: from the
    output side a hop is the θ-join, from the input side the inverse θ-join
    (:func:`_theta_join_batch_raw`).  Each (table, direction) is a node of
    the batch's hop graph, swept in :func:`_sweep_order`: one kernel pass
    and one segmented merge over every query waiting there, stacked in
    query order (a path that comes back to a swept node gets another
    sweep).  Each query gets exactly the result and hop list it would get
    alone — one whose result empties records that hop and drops out, its
    empty result on the array where it died — with ``HopStats.seconds``
    and ``join_blocks`` those of the shared pass.  *stats* receives
    ``"passes"``, the kernel passes run (and the last one's ``"join_blocks"``).
    """
    node_of: Dict[Tuple[int, bool], int] = {}
    nodes: List[tuple] = []  # (table, inverse, from, to, to_shape)
    plans: List[List[int]] = []
    plan_of: Dict[tuple, List[int]] = {}  # queries sharing a chain share a plan
    for chain, query in zip(chains, queries, strict=True):
        name, shape = query.array_name, query.shape
        plan = plan_of.get((id(chain), name, shape))
        if plan is None:
            plan = plan_of[id(chain), name, shape] = []
            for table in chain:
                inverse = _joins_inverse(name, len(shape), table)
                node = node_of.setdefault((id(table), inverse), len(nodes))
                if node == len(nodes):
                    nodes.append((table, inverse, name, *_far_side(table, inverse)))
                plan.append(node)
                name, shape = nodes[node][3:]
        plans.append(plan)
    cells = list(queries)
    hops: List[List[HopStats]] = [[] for _ in cells]
    waiting: List[List[int]] = [[] for _ in nodes]
    for q, plan in enumerate(plans):
        if plan:
            waiting[plan[0]].append(q)
    order = _sweep_order(plans, len(nodes)) if nodes else []
    stats = {} if stats is None else stats
    passes = 0
    # the last sweep's output while all of it goes on, still stacked:
    # [queries, lo, hi, qid, counts, array, shape]
    carried: list = [[]]
    while any(waiting):  # one round per revisit of a node
        for node in order:
            streams = waiting[node]
            if not streams:
                continue
            waiting[node] = []
            k = len(streams)
            passes += 1
            streams.sort()
            table, inverse, array_from, to_name, to_shape = nodes[node]
            if streams == carried[0]:
                lo, hi, qid, boxes_in = carried[1:5]
            else:
                if carried[0]:  # the stack parts ways: its queries get their cells
                    split = _split_by_query(*carried[5:], carried[1], carried[2], carried[4])
                    for q, box_set in zip(carried[0], split):
                        cells[q] = box_set
                lo, hi, qid, boxes_in = _stack_box_sets([cells[q] for q in streams])
            start = time.perf_counter()
            out_lo, out_hi, out_qid, count = _theta_join_batch_raw(
                table, lo, hi, qid, inverse, stats=stats
            )
            rows_scanned = _per_query(qid, k, weights=count)
            raw_counts = _per_query(out_qid, k)
            if merge:
                out_lo, out_hi, out_qid = merge_boxes(out_lo, out_hi, out_qid)
                merged_counts = _per_query(out_qid, k)
            else:
                merged_counts = raw_counts
            elapsed = time.perf_counter() - start
            onward, kept = [], 0
            for j, q in enumerate(streams):
                n, trail, plan = merged_counts[j], hops[q], plans[q]
                trail.append(HopStats(
                    array_from, to_name, int(rows_scanned[j]), boxes_in[j], raw_counts[j],
                    n, elapsed, stats["join_blocks"],
                ))
                if n and len(trail) < len(plan):
                    waiting[plan[len(trail)]].append(q)
                    onward.append(q)
                    kept += n
            if kept == len(out_lo):  # every row goes on: keep the stack
                if len(onward) < k:  # the others died: empty, and numbered past
                    for q, n in zip(streams, merged_counts):
                        if not n:
                            cells[q] = CellBoxSet.empty(to_name, to_shape)
                    out_qid = (np.cumsum(np.asarray(merged_counts) > 0) - 1)[out_qid]
                    merged_counts = [n for n in merged_counts if n]
                carried = [onward, out_lo, out_hi, out_qid, merged_counts, to_name, to_shape]
            else:
                carried = [[]]
                split = _split_by_query(to_name, to_shape, out_lo, out_hi, merged_counts)
                for q, box_set in zip(streams, split):
                    cells[q] = box_set
    stats["passes"] = passes
    return [QueryResult(cells=c, hops=h) for c, h in zip(cells, hops)]


def execute_path_batch(
    tables: Sequence[CompressedLineage],
    queries: Sequence[CellBoxSet],
    merge: bool = True,
) -> List[QueryResult]:
    """Run queries down one shared hop-table chain: :func:`execute_chains`
    with the same chain for every query, so one kernel pass per hop serves
    the whole batch."""
    queries = list(queries)
    return execute_chains([tables] * len(queries), queries, merge=merge)


def execute_path(
    tables: Sequence[CompressedLineage],
    query: CellBoxSet,
    merge: bool = True,
) -> QueryResult:
    """Run one multi-hop path query: :func:`execute_path_batch` on a batch
    of one."""
    return execute_path_batch(tables, [query], merge=merge)[0]
