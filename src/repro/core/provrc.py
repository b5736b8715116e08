"""ProvRC: the lineage compression algorithm (Section IV of the paper).

The algorithm has two passes over the sorted lineage relation:

1. **Multi-attribute range encoding over the value attributes** (the input
   axes of a backward table).  Rows that agree on every other attribute and
   are contiguous on one value attribute are collapsed into a single row
   whose value attribute becomes a closed interval.

2. **Relative value transformation + range encoding over the key
   attributes** (the output axes of a backward table).  For every value
   attribute the algorithm considers two candidate encodings while scanning
   key-contiguous rows: keep the attribute's current (absolute) encoding if
   it is constant across the run, or switch to a *delta* relative to the key
   attribute being merged if that delta is constant across the run.  Runs
   where every value attribute has at least one constant candidate are
   collapsed, exactly mirroring the paper's "non-empty subset of
   ``{a_i, a_i b_1, ..., a_i b_l}`` with the same value" condition.

**Cost.**  Both passes are vectorized numpy end to end and every step but
the sorts is linear in the rows it sees.  One attribute-major int64 table
(a row per attribute) lives from the canonical (sorted, deduplicated)
relation to the six output columns: the value pass adds each value
attribute's ``hi`` row, the key pass each key attribute's ``hi`` row and
a ``ref`` row per value attribute (``kind`` is ``ref >= 0``, never
stored).  A step is one stable sort of one packed int64 key
(:func:`repro.core.relation.row_order`; skipped when the rows are already
in order), one ``take`` of the table by it, neighbour differences of the
attributes it compares, and one ``take`` of the survivors.  A ``hi`` row
still equal to its ``lo`` row, and ``kind``, repeat attributes already
compared, so sorts and comparisons leave them out.  The key pass measures
candidate runs with one reversed running minimum (``O(n)``), resolves
its greedy scan by pointer doubling, and leaves a step as soon as no two
neighbouring rows are key-contiguous (every step of a ``sort``-like
table).  The loop oracles in ``tests/core/_reference.py`` pin the output
tables, bit for bit.

One orientation is built, and it is the only one a
:class:`CompressedLineage` can hold: the backward table, keyed on the
output (predicates push down on output indices).  The paper's forward
table of Section IV.C is neither stored nor modelled — a forward query is
the inverse θ-join over the backward table (:mod:`repro.core.query`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .compressed import CompressedLineage
from .relation import LineageRelation, row_order

__all__ = ["compress", "ProvRCStats"]


class ProvRCStats:
    """Book-keeping emitted by :func:`compress` (row counts per stage)."""

    def __init__(self) -> None:
        self.input_rows = 0
        self.after_value_pass = 0
        self.after_key_pass = 0

    def as_dict(self) -> dict:
        return {
            "input_rows": self.input_rows,
            "after_value_pass": self.after_value_pass,
            "after_key_pass": self.after_key_pass,
        }


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def compress(
    relation: LineageRelation,
    relative: bool = True,
    stats: Optional[ProvRCStats] = None,
) -> CompressedLineage:
    """Compress a lineage relation with ProvRC into its backward table.

    Parameters
    ----------
    relation:
        The uncompressed cell-level lineage.
    relative:
        Disable to skip the relative value transformation (ablation); the
        key pass then only merges runs whose value attributes are constant.
    stats:
        Optional :class:`ProvRCStats` collector.
    """
    if relation.out_ndim == 0 or relation.in_ndim == 0:
        raise ValueError("ProvRC requires arrays with at least one axis; "
                         "reshape scalars to shape (1,) before capture")
    l, m = relation.out_ndim, relation.in_ndim
    if stats is None:
        stats = ProvRCStats()
    table = _canonical(relation.rows)
    stats.input_rows = table.shape[1]
    table = _value_pass(table, l)
    stats.after_value_pass = table.shape[1]
    table = _key_pass(np.concatenate((table[:l], table, np.full((m, table.shape[1]), -1))), l, relative)
    stats.after_key_pass = table.shape[1]
    return CompressedLineage(
        relation.out_name,
        relation.in_name,
        relation.out_shape,
        relation.in_shape,
        *_columns(table, l, np.int64, np.int64),
        out_axes=relation.out_axes,
        in_axes=relation.in_axes,
    )


def compress_both(relation: LineageRelation) -> Tuple[CompressedLineage]:
    """The tables an entry stores for *relation*: its backward table alone.

    Kept only because the frozen benchmark harness imports this name; it
    goes with the next edit of ``bench/``.
    """
    return (compress(relation),)


# ----------------------------------------------------------------------
# the attribute-major working table
# ----------------------------------------------------------------------
# One ``(attributes, n)`` int64 matrix, regrouped by one ``take``: the value
# pass holds ``[keys, lo, hi]``, the key pass ``[key lo, key hi, lo, hi,
# ref]`` (``ref`` -1 for an absolute value attribute).
def _canonical(rows: np.ndarray) -> np.ndarray:
    """``(n, l + m)`` relation rows as a sorted, deduplicated table."""
    table = np.ascontiguousarray(rows.T)
    order = row_order(table)
    if order is not None:
        table = table.take(order, axis=1)
    distinct = (table[:, 1:] != table[:, :-1]).any(axis=0)
    return table if distinct.all() else table.take(np.flatnonzero(np.concatenate(([True], distinct))), axis=1)


def _sorted_on(table: np.ndarray, attrs: Sequence[int]) -> np.ndarray:
    """*table* with its columns ordered on attributes *attrs*, most
    significant first.  The order of ties does not matter: the attributes
    left out of *attrs* repeat ones in it, so columns that tie are
    identical, and a table never holds two identical columns."""
    order = row_order(table[attrs])
    return table if order is None else table.take(order, axis=1)


def _intervals(lo: int, hi: int, merged: Sequence[bool], skip: int) -> list:
    """Attributes ``lo + j``, with ``hi + j`` where interval ``j`` has merged
    a run (else that row equals the ``lo`` row), for every ``j`` but *skip*."""
    return [a for j, wide in enumerate(merged) if j != skip for a in ((lo + j, hi + j) if wide else (lo + j,))]


def _breaks(table: np.ndarray, same: Sequence[int], step: int) -> np.ndarray:
    """``(n - 1,)`` flags: column ``t + 1`` does *not* equal column ``t`` on
    attributes *same* plus one on attribute *step*.  The int64 difference
    wraps exactly as the reference's explicit int64 subtract does."""
    rows = [*same, step]
    # a view when the rows are adjacent, as at the first step of each pass
    rows = table[rows[0] : step + 1] if rows == [*range(rows[0], step + 1)] else table[rows]
    gap = rows[:, 1:] - rows[:, :-1]
    gap[-1] -= 1
    return gap.any(axis=0)


def _block(rows: np.ndarray, dtype) -> np.ndarray:
    """Attribute rows as a C-ordered ``(n, width)`` column block, filled a
    column at a time (numpy transposes a narrow block some 3x slower)."""
    block = np.empty(rows.shape[::-1], dtype=dtype)
    for i, row in enumerate(rows):
        block[:, i] = row
    return block


def _columns(table: np.ndarray, l: int, key_dtype, val_dtype) -> Tuple[np.ndarray, ...]:
    """A key-pass table's ``key_lo, key_hi, val_kind, val_ref, val_lo,
    val_hi``; ``kind`` is ``KIND_REL`` exactly where a ref is set."""
    m = (table.shape[0] - 2 * l) // 3
    ref = table[2 * (l + m) :]
    blocks = (table[:l], table[l : 2 * l], ref >= 0, ref, table[2 * l : 2 * l + m], table[2 * l + m : 2 * (l + m)])
    dtypes = (key_dtype, key_dtype, np.int8, np.int16, val_dtype, val_dtype)
    return tuple(_block(rows, dtype) for rows, dtype in zip(blocks, dtypes))


# ----------------------------------------------------------------------
# pass 1: multi-attribute range encoding over value attributes
# ----------------------------------------------------------------------
def _value_pass(table: np.ndarray, l: int) -> np.ndarray:
    """Range-encode each value attribute of a canonical ``[keys, values]``
    table, last to first; returns ``[keys, lo, hi]``."""
    m = table.shape[0] - l
    table = np.concatenate((table, table[l:]))
    merged = [False] * m
    for vi in range(m - 1, -1, -1):
        if table.shape[1] < 2:
            break
        # rows agreeing on every other attribute, ordered by this one
        others = [*range(l)] + _intervals(l, l + m, merged, vi)
        if vi < m - 1:  # the first step's order, keys then values, is the input's
            table = _sorted_on(table, others + [l + vi])
        breaks = _breaks(table, others, l + vi)
        if breaks.all():
            continue
        breaks = breaks.nonzero()[0]
        firsts = np.concatenate(([0], breaks + 1))
        table[l + m + vi, firsts] = table[l + vi].take(np.append(breaks, table.shape[1] - 1))
        table = table.take(firsts, axis=1)
        merged[vi] = True
    return table


# ----------------------------------------------------------------------
# pass 2: relative value transformation + key range encoding
# ----------------------------------------------------------------------
def _run_lengths(flags: np.ndarray) -> np.ndarray:
    """For each position ``p`` of the last axis return how many consecutive
    ``True`` values start at ``p`` (0 if ``flags[..., p]`` is ``False``)."""
    n = flags.shape[-1]
    positions = np.arange(n)
    # the next False at or after p (n if none) is a running minimum, taken
    # from the right, of p for a False and p + n for a True
    next_false = flags * n
    next_false += positions
    reverse = next_false[..., ::-1]
    np.minimum.accumulate(reverse, axis=-1, out=reverse)
    np.minimum(next_false, n, out=next_false)
    next_false -= positions
    return next_false


def _greedy_scan_starts(jump: np.ndarray) -> np.ndarray:
    """Positions visited from 0 under ``s -> jump[s]``, for a non-decreasing
    *jump* with ``jump[s] > s`` (a run starting a row later never ends
    earlier): the greedy run scan without a per-run Python loop.  A
    position ``s`` with ``jump[s - 1] == s`` is visited whatever precedes
    it, so the orbit of 0 is the union of the orbits of all of them, each
    up to the next; pointer doubling computes them together in ``log2`` of
    the longest such stretch vectorized rounds."""
    n = jump.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    hop = np.empty(n + 1, dtype=np.int64)
    np.minimum(jump, n, out=hop[:n])
    hop[n] = n  # absorbing sentinel
    visited = np.zeros(n + 1, dtype=bool)
    visited[0] = True
    np.equal(hop[: n - 1], np.arange(1, n), out=visited[1:n])
    free = visited[:n].nonzero()[0]
    bound = np.append(free[1:], n)
    # invariant: visited holds the first 2^r positions of each orbit and hop
    # advances 2^r steps; an orbit is complete once that reaches its bound
    while (hop[free] < bound).any():
        visited[hop[visited]] = True
        hop = hop[hop]
    return visited[:n].nonzero()[0]


def _key_pass(table: np.ndarray, l: int, relative: bool) -> np.ndarray:
    """Range-encode each key attribute of a ``[klo, khi, lo, hi, ref]``
    table, last to first, introducing relative value attributes.  Key
    intervals enter degenerate, as the value pass leaves them."""
    m = (table.shape[0] - 2 * l) // 3
    lo, hi, ref = (slice(2 * l + i * m, 2 * l + (i + 1) * m) for i in range(3))
    spans = (table[lo] != table[hi]).any(axis=1).tolist()
    # value columns break the remaining ties so the scan is deterministic
    values = [a for i in range(m) for a in (ref.start + i, lo.start + i, hi.start + i)[: 2 + spans[i]]]
    # of [lo, hi, ref], the leading blocks neighbours can differ on: hi once
    # a value attribute spans, ref once one is relative (all -1 before)
    relativized = bool((table[ref] >= 0).any())
    compared = m * (1 + (any(spans) or relativized) + relativized)
    merged = [False] * l
    for kj in range(l - 1, -1, -1):
        n = table.shape[1]
        if n < 2:
            break
        # group rows by the other key attributes, then order by this one
        others = _intervals(0, l, merged, kj)
        table = _sorted_on(table, others + [kj] + values)

        # flags[., t]: row t + 1 may join row t — on the key attributes
        # (row 0), keeping value attribute i as encoded (row 1 + i), or
        # switching it to a delta on attribute kj (row 1 + m + i)
        flags = np.zeros((1 + (2 if relative else 1) * m, n), dtype=bool)
        np.logical_not(_breaks(table, others, kj), out=flags[0, :-1])
        if not flags[0].any():
            continue  # nothing is key-contiguous: the sorted rows stand
        rows = table[lo.start : lo.start + compared]
        gap = (rows[:, 1:] - rows[:, :-1]).reshape(-1, m, n - 1)
        np.logical_not(gap.any(axis=0), out=flags[1 : 1 + m, :-1])
        if relative:
            # the delta on kj is constant where lo and hi step by one, as kj
            # does wherever row 0 holds (the only rows that are read)
            gap[:2] -= 1
            np.logical_not(gap[:2].any(axis=0), out=flags[1 + m :, :-1])
            if relativized:
                flags[1 + m :, :-1] &= np.maximum(table[ref, 1:], table[ref, :-1]) < 0
        del gap  # freed before the run lengths, this step's memory peak

        # Maximal collapsible run length starting at each row: bounded by the
        # key-contiguity run and, per value attribute, by the better of the
        # two candidate encodings (keep absolute vs switch to delta).  The
        # length is 0 exactly where no merge can start, so the greedy scan
        # reduces to jumping run_length + 1 rows ahead from each emitted row.
        runs = _run_lengths(flags)
        best = np.maximum(runs[1 : 1 + m], runs[1 + m :]) if relative else runs[1:]
        run_length = np.minimum(runs[0], best.min(axis=0))
        starts = _greedy_scan_starts(np.arange(n) + run_length + 1)
        if starts.shape[0] == n:
            continue
        length = run_length[starts]
        run_hi = table[kj].take(starts + length)  # khi is still klo before the step
        switch = runs[1 : 1 + m].take(starts, axis=1) < length
        table = table.take(starts, axis=1)
        table[l + kj] = run_hi
        merged[kj] = True
        if switch.any():
            # keep the current encoding when it is constant across the run;
            # otherwise switch to the delta relative to attribute kj
            shift = switch * table[kj]
            table[lo] -= shift
            table[hi] -= shift
            np.copyto(table[ref], kj, where=switch)
            relativized, compared = True, 3 * m
    return table
