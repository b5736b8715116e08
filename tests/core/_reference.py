"""Loop-based oracle implementations of the vectorized query/compression kernels.

These are the original (pre-vectorization) per-row Python implementations of
``theta_join``, ``merge_boxes``, ``decompress`` and the ProvRC passes, plus
a per-(box, row) loop for the inverse θ-join.
They are intentionally simple — one interpreted loop iteration per row or
box, one plain ``np.lexsort`` per sort — and define the exact semantics the
vectorized kernels in :mod:`repro.core.query` and :mod:`repro.core.provrc`
must reproduce, down to output row ordering.  ``tests/core/test_query_equivalence.py`` checks the
kernels against these oracles on randomized relations.

They live beside the tests because only tests read them.  Not to be
confused with :mod:`repro.core.reference`, which holds the
set-based brute-force oracles for whole *queries* (ground truth for both the
in-situ processor and the baselines).  This module pins down the *kernels*.
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

import numpy as np

from repro.core.compressed import KIND_REL, CompressedLineage
from repro.core.intervals import Interval
from repro.core.provrc import _run_lengths
from repro.core.relation import LineageRelation

__all__ = [
    "theta_join_reference",
    "inverse_join_reference",
    "merge_boxes_reference",
    "value_range_pass_reference",
    "key_range_pass_reference",
    "decompress_reference",
]


def merge_boxes_reference(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Coalesce boxes with the original per-row sequential sweep."""
    if lo.shape[0] == 0:
        return lo, hi
    stacked = np.concatenate([lo, hi], axis=1)
    stacked = np.unique(stacked, axis=0)
    ndim = lo.shape[1]
    lo = stacked[:, :ndim].copy()
    hi = stacked[:, ndim:].copy()

    for axis in range(ndim - 1, -1, -1):
        if lo.shape[0] <= 1:
            break
        sort_cols: List[np.ndarray] = [lo[:, axis]]
        for other in range(ndim - 1, -1, -1):
            if other == axis:
                continue
            sort_cols.append(hi[:, other])
            sort_cols.append(lo[:, other])
        order = np.lexsort(sort_cols)
        lo, hi = lo[order], hi[order]

        same_other = np.ones(lo.shape[0], dtype=bool)
        same_other[0] = False
        for other in range(ndim):
            if other == axis:
                continue
            same_other[1:] &= lo[1:, other] == lo[:-1, other]
            same_other[1:] &= hi[1:, other] == hi[:-1, other]

        # Boxes inside a group (identical on every other axis) are sorted by
        # their start on *axis*; a box joins the running merged interval when
        # it overlaps or touches the running end.
        keep_rows: List[int] = []
        merged_hi: List[int] = []
        for t in range(lo.shape[0]):
            if t > 0 and same_other[t] and int(lo[t, axis]) <= merged_hi[-1] + 1:
                merged_hi[-1] = max(merged_hi[-1], int(hi[t, axis]))
            else:
                keep_rows.append(t)
                merged_hi.append(int(hi[t, axis]))
        lo = lo[keep_rows].copy()
        hi = hi[keep_rows].copy()
        hi[:, axis] = np.asarray(merged_hi, dtype=np.int64)
    return lo, hi


def inverse_join_reference(query, table: CompressedLineage, merge: bool = True):
    """One inverse θ-join (a query over the table's value array) done one
    (query box, row, attribute) at a time: narrow each referenced key
    attribute to ``[q_lo - hi, q_hi - lo]``, test each absolute attribute
    against the box, keep the narrowed key box when it is non-empty."""
    from repro.core.query import CellBoxSet

    if table.value_name != query.array_name:
        raise ValueError(
            f"table's value array is {table.value_name!r} but the query targets {query.array_name!r}"
        )
    if table.value_ndim != query.ndim:
        raise ValueError("query dimensionality does not match the table's value arity")
    out_lo: List[List[int]] = []
    out_hi: List[List[int]] = []
    for qi in range(len(query)):
        for r in range(len(table)):
            lo = [int(v) for v in table.key_lo[r]]
            hi = [int(v) for v in table.key_hi[r]]
            meets = True
            for i in range(table.value_ndim):
                floor = int(query.lo[qi, i]) - int(table.val_hi[r, i])
                ceil = int(query.hi[qi, i]) - int(table.val_lo[r, i])
                if table.val_kind[r, i] == KIND_REL:
                    j = int(table.val_ref[r, i])
                    lo[j], hi[j] = max(lo[j], floor), min(hi[j], ceil)
                elif floor > 0 or ceil < 0:
                    meets = False
            if meets and all(l <= h for l, h in zip(lo, hi)):
                out_lo.append(lo)
                out_hi.append(hi)
    if not out_lo:
        return CellBoxSet.empty(table.key_name, table.key_shape)
    result = CellBoxSet(table.key_name, table.key_shape, np.array(out_lo), np.array(out_hi)).clipped()
    return result.merged() if merge else result


def theta_join_reference(query, table: CompressedLineage, merge: bool = True):
    """One θ-join done with the original one-broadcast-per-query-box loop
    (a query over the table's value array: :func:`inverse_join_reference`)."""
    from repro.core.query import CellBoxSet

    if table.key_name != query.array_name:
        if table.value_name == query.array_name:
            return inverse_join_reference(query, table, merge)
        raise ValueError(
            f"table is keyed on array {table.key_name!r} but the query targets {query.array_name!r}"
        )
    if table.key_ndim != query.ndim:
        raise ValueError("query dimensionality does not match the table's key arity")

    n_rows = len(table)
    value_ndim = table.value_ndim
    out_lo_parts: List[np.ndarray] = []
    out_hi_parts: List[np.ndarray] = []

    key_lo, key_hi = table.key_lo, table.key_hi
    val_kind, val_ref = table.val_kind, table.val_ref
    val_lo, val_hi = table.val_lo, table.val_hi
    shared_mask = table.shared_ref_mask
    # (row, key intersection) pairs whose row has a key attribute referenced
    # by two or more relative value attributes AND a multi-index intersection
    # on it: interval rel_back would turn the diagonal into a full box, so
    # these pairs are expanded per key point after the exact pairs
    deferred: List[Tuple[int, np.ndarray, np.ndarray]] = []

    for qi in range(len(query)):
        if n_rows == 0:
            break
        q_lo = query.lo[qi]
        q_hi = query.hi[qi]
        inter_lo = np.maximum(key_lo, q_lo[None, :])
        inter_hi = np.minimum(key_hi, q_hi[None, :])
        matched = (inter_lo <= inter_hi).all(axis=1)
        if shared_mask is not None and matched.any():
            needs = matched & (shared_mask & (inter_hi > inter_lo)).any(axis=1)
            for r in np.flatnonzero(needs):
                deferred.append((int(r), inter_lo[r].copy(), inter_hi[r].copy()))
            matched &= ~needs
        if not matched.any():
            continue
        inter_lo = inter_lo[matched]
        inter_hi = inter_hi[matched]
        row_kind = val_kind[matched]
        row_ref = val_ref[matched]
        row_vlo = val_lo[matched]
        row_vhi = val_hi[matched]

        # int64 like the vectorized kernel: the rel_back additions below
        # can overflow a narrow stored dtype
        res_lo = row_vlo.astype(np.int64)
        res_hi = row_vhi.astype(np.int64)
        for i in range(value_ndim):
            is_rel = row_kind[:, i] == KIND_REL
            if is_rel.any():
                refs = row_ref[is_rel, i]
                rel_rows = np.flatnonzero(is_rel)
                # rel_back: absolute = key intersection + delta, applied per row
                res_lo[rel_rows, i] = inter_lo[rel_rows, refs] + row_vlo[rel_rows, i]
                res_hi[rel_rows, i] = inter_hi[rel_rows, refs] + row_vhi[rel_rows, i]
        out_lo_parts.append(res_lo)
        out_hi_parts.append(res_hi)

    for r, ilo, ihi in deferred:
        shared = np.flatnonzero(shared_mask[r])
        point_ranges = [range(int(ilo[k]), int(ihi[k]) + 1) for k in shared]
        for combo in itertools.product(*point_ranges):
            klo = ilo.copy()
            khi = ihi.copy()
            klo[shared] = combo
            khi[shared] = combo
            lo = val_lo[r].astype(np.int64)
            hi = val_hi[r].astype(np.int64)
            for i in range(value_ndim):
                if val_kind[r, i] == KIND_REL:
                    lo[i] += klo[val_ref[r, i]]
                    hi[i] += khi[val_ref[r, i]]
            out_lo_parts.append(lo[None, :])
            out_hi_parts.append(hi[None, :])

    if not out_lo_parts:
        return CellBoxSet.empty(table.value_name, table.value_shape)
    lo = np.concatenate(out_lo_parts, axis=0)
    hi = np.concatenate(out_hi_parts, axis=0)
    result = CellBoxSet(table.value_name, table.value_shape, lo, hi).clipped()
    if merge:
        result = result.merged()
    return result


def value_range_pass_reference(
    key_cols: np.ndarray, val_cols: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ProvRC value pass as first written: one ``np.lexsort`` over every
    column per encoded attribute, each column block regrouped on its own."""
    nkey = key_cols.shape[1]
    nval = val_cols.shape[1]
    klo = np.array(key_cols)
    khi = np.array(key_cols)
    vlo = np.array(val_cols)
    vhi = np.array(val_cols)
    if key_cols.shape[0] == 0:
        return klo, khi, vlo, vhi

    for vi in range(nval - 1, -1, -1):
        sort_cols: List[np.ndarray] = [vlo[:, vi]]
        for j in range(nval - 1, -1, -1):
            if j == vi:
                continue
            sort_cols.append(vhi[:, j])
            sort_cols.append(vlo[:, j])
        for j in range(nkey - 1, -1, -1):
            sort_cols.append(klo[:, j])
        order = np.lexsort(sort_cols)
        klo, khi, vlo, vhi = klo[order], khi[order], vlo[order], vhi[order]

        same_other = np.ones(klo.shape[0], dtype=bool)
        same_other[0] = False
        for j in range(nkey):
            same_other[1:] &= klo[1:, j] == klo[:-1, j]
        for j in range(nval):
            if j == vi:
                continue
            same_other[1:] &= vlo[1:, j] == vlo[:-1, j]
            same_other[1:] &= vhi[1:, j] == vhi[:-1, j]
        contiguous = np.zeros(klo.shape[0], dtype=bool)
        contiguous[1:] = np.subtract(vlo[1:, vi], vhi[:-1, vi], dtype=np.int64) == 1

        new_run = ~(same_other & contiguous)
        new_run[0] = True
        firsts = np.flatnonzero(new_run)
        lasts = np.append(firsts[1:] - 1, klo.shape[0] - 1)

        run_hi = vhi[lasts, vi]
        klo, khi = klo[firsts], khi[firsts]
        vlo, vhi = vlo[firsts], vhi[firsts].copy()
        vhi[:, vi] = run_hi

    return klo, khi, vlo, vhi


def key_range_pass_reference(
    klo: np.ndarray,
    khi: np.ndarray,
    vkind: np.ndarray,
    vref: np.ndarray,
    vlo: np.ndarray,
    vhi: np.ndarray,
    relative: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The original sequential greedy run scan of the ProvRC key pass."""
    from repro.core.compressed import KIND_ABS

    nkey = klo.shape[1]
    nval = vlo.shape[1]
    if klo.shape[0] == 0:
        return klo, khi, vkind, vref, vlo, vhi
    if relative and vlo.dtype != np.int64:
        # mirror the vectorized pass: deltas overflow narrow value columns
        vlo = vlo.astype(np.int64)
        vhi = vhi.astype(np.int64)

    for kj in range(nkey - 1, -1, -1):
        n = klo.shape[0]
        sort_cols: List[np.ndarray] = []
        for j in range(nval - 1, -1, -1):
            sort_cols.append(vhi[:, j])
            sort_cols.append(vlo[:, j])
            sort_cols.append(vref[:, j].astype(np.int64))
            sort_cols.append(vkind[:, j].astype(np.int64))
        sort_cols.append(klo[:, kj])
        for j in range(nkey - 1, -1, -1):
            if j == kj:
                continue
            sort_cols.append(khi[:, j])
            sort_cols.append(klo[:, j])
        order = np.lexsort(sort_cols)
        klo, khi = klo[order], khi[order]
        vkind, vref = vkind[order], vref[order]
        vlo, vhi = vlo[order], vhi[order]

        base_ok = np.ones(n, dtype=bool)
        base_ok[0] = False
        for j in range(nkey):
            if j == kj:
                continue
            base_ok[1:] &= klo[1:, j] == klo[:-1, j]
            base_ok[1:] &= khi[1:, j] == khi[:-1, j]
        base_ok[1:] &= np.subtract(klo[1:, kj], khi[:-1, kj], dtype=np.int64) == 1

        keep_eq = np.zeros((nval, n), dtype=bool)
        delta_eq = np.zeros((nval, n), dtype=bool)
        for i in range(nval):
            keep_eq[i, 1:] = (
                (vkind[1:, i] == vkind[:-1, i])
                & (vref[1:, i] == vref[:-1, i])
                & (vlo[1:, i] == vlo[:-1, i])
                & (vhi[1:, i] == vhi[:-1, i])
            )
            if relative:
                both_abs = (vkind[1:, i] == KIND_ABS) & (vkind[:-1, i] == KIND_ABS)
                dlo_cur = vlo[1:, i] - klo[1:, kj]
                dlo_prev = vlo[:-1, i] - klo[:-1, kj]
                dhi_cur = vhi[1:, i] - klo[1:, kj]
                dhi_prev = vhi[:-1, i] - klo[:-1, kj]
                delta_eq[i, 1:] = both_abs & (dlo_cur == dlo_prev) & (dhi_cur == dhi_prev)

        can_merge = base_ok.copy()
        for i in range(nval):
            can_merge &= keep_eq[i] | delta_eq[i]

        base_run = _run_lengths(base_ok)
        keep_run = [_run_lengths(keep_eq[i]) for i in range(nval)]
        delta_run = [_run_lengths(delta_eq[i]) for i in range(nval)]
        merge_pos = np.flatnonzero(can_merge)

        out_klo, out_khi = [], []
        out_vkind, out_vref, out_vlo, out_vhi = [], [], [], []

        def emit_singletons(start: int, stop: int) -> None:
            if stop <= start:
                return
            out_klo.append(klo[start:stop])
            out_khi.append(khi[start:stop])
            out_vkind.append(vkind[start:stop])
            out_vref.append(vref[start:stop])
            out_vlo.append(vlo[start:stop])
            out_vhi.append(vhi[start:stop])

        s = 0
        mp_idx = 0
        n_merge = merge_pos.shape[0]
        while s < n:
            while mp_idx < n_merge and merge_pos[mp_idx] <= s:
                mp_idx += 1
            if mp_idx >= n_merge:
                emit_singletons(s, n)
                break
            nxt = int(merge_pos[mp_idx])
            if nxt > s + 1:
                emit_singletons(s, nxt - 1)
                s = nxt - 1
                continue
            length = int(base_run[s + 1]) if s + 1 < n else 0
            for i in range(nval):
                cand = max(int(keep_run[i][s + 1]), int(delta_run[i][s + 1]))
                length = min(length, cand)
            e = s + length
            merged_klo = klo[s].copy()
            merged_khi = khi[s].copy()
            merged_khi[kj] = khi[e, kj]
            merged_kind = vkind[s].copy()
            merged_ref = vref[s].copy()
            merged_vlo = vlo[s].copy()
            merged_vhi = vhi[s].copy()
            if length > 0:
                for i in range(nval):
                    if int(keep_run[i][s + 1]) >= length:
                        continue  # current encoding is constant across the run
                    merged_kind[i] = KIND_REL
                    merged_ref[i] = kj
                    merged_vlo[i] = vlo[s, i] - klo[s, kj]
                    merged_vhi[i] = vhi[s, i] - klo[s, kj]
            out_klo.append(merged_klo[None, :])
            out_khi.append(merged_khi[None, :])
            out_vkind.append(merged_kind[None, :])
            out_vref.append(merged_ref[None, :])
            out_vlo.append(merged_vlo[None, :])
            out_vhi.append(merged_vhi[None, :])
            s = e + 1

        klo = np.concatenate(out_klo, axis=0) if out_klo else klo[:0]
        khi = np.concatenate(out_khi, axis=0) if out_khi else khi[:0]
        vkind = np.concatenate(out_vkind, axis=0) if out_vkind else vkind[:0]
        vref = np.concatenate(out_vref, axis=0) if out_vref else vref[:0]
        vlo = np.concatenate(out_vlo, axis=0) if out_vlo else vlo[:0]
        vhi = np.concatenate(out_vhi, axis=0) if out_vhi else vhi[:0]

    return klo, khi, vkind, vref, vlo, vhi


def _iter_box(intervals: Tuple[Interval, ...]):
    if not intervals:
        yield ()
        return
    head, tail = intervals[0], intervals[1:]
    for value in head:
        for rest in _iter_box(tail):
            yield (value,) + rest


def decompress_reference(table: CompressedLineage) -> LineageRelation:
    """The original per-cell expansion of a compressed table: one Python
    iteration per key cell and per contribution edge."""
    pairs: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    for row in table.rows():
        for key_cell in _iter_box(row.key):
            value_intervals = tuple(
                row.value_interval(i, key_cell) for i in range(table.value_ndim)
            )
            for value_cell in _iter_box(value_intervals):
                pairs.append((key_cell, value_cell))
    relation = LineageRelation.from_pairs(
        pairs,
        table.out_shape,
        table.in_shape,
        out_name=table.out_name,
        in_name=table.in_name,
        out_axes=table.out_axes,
        in_axes=table.in_axes,
    )
    return relation.deduplicated()
