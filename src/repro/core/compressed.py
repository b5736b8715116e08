"""The ProvRC compressed lineage table.

A :class:`CompressedLineage` stores a lineage relation as a small number of
*compressed rows*.  Each compressed row describes a set of contribution
edges in "union of Cartesian products" form (Section IV.B of the paper):

* every **key attribute** (an output axis: a table is always keyed on the
  output side, the backward orientation, and a forward hop is answered by
  the inverse θ-join over the same table) holds an absolute closed
  interval;
* every **value attribute** (an input axis) holds either an absolute
  interval, or a *relative* (delta) interval that references one key
  attribute.  A relative value ``[dlo, dhi]`` referencing key attribute
  ``k`` means: for each key index ``v`` in that row's ``k`` interval, the
  value attribute covers ``[v + dlo, v + dhi]``.

The relative encoding is the paper's "relative value transformation"
(``delta = a_i - b_j`` following the worked example in Table II and the
``rel_back`` formula); the per-key-index expansion is exactly what makes
the representation lossless and what the in-situ range join exploits.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .relation import AxisNames, LineageRelation, default_axis_names

__all__ = ["CompressedLineage", "KIND_ABS", "KIND_REL"]

KIND_ABS = 0
KIND_REL = 1


def _expand_boxes(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every cell of every closed box ``[lo[b], hi[b]]`` of two ``(m, d)``
    arrays, as ``(owner, cells)``: ``cells[t]`` belongs to box ``owner[t]``,
    boxes in order, the cells of one box in row-major order."""
    lo = lo.astype(np.int64, copy=False)
    extent = hi - lo + 1
    if (extent < 1).any():
        raise ValueError("empty interval: a box has lo > hi")
    count = extent.prod(axis=1)
    owner = np.repeat(np.arange(lo.shape[0]), count)
    # position of each cell inside its box, unravelled by mixed radix
    local = np.arange(owner.shape[0]) - np.repeat(np.cumsum(count) - count, count)
    cells = np.empty((owner.shape[0], lo.shape[1]), dtype=np.int64)
    for axis in range(lo.shape[1] - 1, -1, -1):
        span = extent[owner, axis]
        cells[:, axis] = lo[owner, axis] + local % span
        local //= span
    return owner, cells


def _as_int_column(array) -> np.ndarray:
    """Coerce one interval column, preserving any signed-integer dtype.

    Hydrated tables arrive as read-only narrow columns (int8/int16/...) and
    must stay that way — upcasting here would inflate them to int64.  Anything else (Python lists, floats, unsigned)
    falls back to the canonical int64.
    """
    arr = np.asarray(array)
    if arr.dtype.kind != "i":
        arr = arr.astype(np.int64)
    return arr


def _stable_sort(column: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, column[order])`` for ``order = np.argsort(column,
    kind="stable")``, several times faster.

    Distinct values over a span of at most twice as many slots (a
    permutation, the reach of a ``sort``-like table) are placed by value and
    read back in slot order, with no sort at all.  Otherwise a column that
    spans fewer than ``2**31`` values is sorted once, in place, as its
    values packed above their row numbers into unique int64 keys."""
    n_rows, base = column.shape[0], int(column.min())
    span = int(column.max()) - base + 1
    keys = np.subtract(column, base, dtype=np.int64)
    if span <= 2 * n_rows:
        slots = np.full(span, -1, np.int64)
        slots[keys] = np.arange(n_rows)
        taken = np.flatnonzero(slots >= 0)
        if taken.shape[0] == n_rows:
            return slots[taken], (taken + base).astype(column.dtype)
    if span > 1 << 31:
        order = np.argsort(column, kind="stable")
        return order, column[order]
    keys <<= 32
    keys |= np.arange(n_rows)
    keys.sort()
    values = (keys >> 32) + base
    keys &= 0xFFFFFFFF
    return keys, values.astype(column.dtype)


def _window_index(
    lo_cols: np.ndarray, hi_cols: np.ndarray
) -> Tuple[int, Optional[np.ndarray], np.ndarray, np.ndarray]:
    """``(attr, order, lo, reach)``: a window index over the per-row
    intervals ``[lo_cols[:, a], hi_cols[:, a]]`` of one attribute ``a``.

    ``order`` lists the rows by ascending ``lo_cols[:, attr]`` — ``None``
    when they are stored that way; ``lo`` is that column in index order and
    ``reach`` the running maximum of ``hi_cols[:, attr]`` in the same order.
    A row overlaps ``[q_lo, q_hi]`` on the attribute only if it sits at an
    index position in ``[searchsorted(reach, q_lo, "left"),
    searchsorted(lo, q_hi, "right"))``: every earlier row ends before
    ``q_lo`` (the running maximum covers nested and overlapping
    intervals), every later one starts after ``q_hi``.

    ``attr`` is the attribute whose index discriminates best: the one with
    the smallest expected window for a uniformly drawn index,
    ``sum(reach - lo + 1) / extent`` (ties go to the lower attribute).  A
    row-broadcast table, whose every row spans attribute 0, is thus indexed
    on the attribute its rows differ on.  The arrays keep the columns'
    width (``order`` the narrowest that holds a row number).
    """
    n_rows, best, index = lo_cols.shape[0], None, None
    # a lone row is its own window on any attribute
    attrs = range(lo_cols.shape[1] if n_rows > 1 else 1)
    for attr in attrs:
        lo, reach = lo_cols[:, attr], hi_cols[:, attr]
        order = None
        if (lo[1:] < lo[:-1]).any():
            order, lo = _stable_sort(lo)
            reach = reach[order]
            order = order.astype(np.min_scalar_type(-n_rows))
        lo = np.ascontiguousarray(lo)
        if (reach[1:] >= reach[:-1]).all():  # its own running maximum
            reach = np.ascontiguousarray(reach)
        else:
            reach = np.maximum.accumulate(reach)
        window = 0.0
        if len(attrs) > 1:
            covered = reach.sum(dtype=np.float64) - lo.sum(dtype=np.float64) + n_rows
            window = covered / (float(reach[-1]) - float(lo[0]) + 1.0)
        if best is None or window < best:
            best, index = window, (attr, order, lo, reach)
    return index


class CompressedLineage:
    """Columnar container for ProvRC-compressed lineage rows.

    The table is stored as flat numpy arrays so the in-situ query processor
    can operate on whole columns at once and so the on-disk footprint can be
    measured fairly against the columnar baselines.

    Columns are **dtype-polymorphic**: any signed integer dtype is kept
    as-is, so a table hydrated from disk holds read-only int8/int16 columns
    of its own, at the widths it was written at (no ``astype(int64)``
    inflation), and :meth:`nbytes` charges that footprint.  Kernels consuming the
    columns upcast only where arithmetic could overflow the narrow dtype
    (``rel_back`` additions, delta encodings, ``hi + 1`` contiguity probes).
    """

    def __init__(
        self,
        out_name: str,
        in_name: str,
        out_shape: Tuple[int, ...],
        in_shape: Tuple[int, ...],
        key_lo: np.ndarray,
        key_hi: np.ndarray,
        val_kind: np.ndarray,
        val_ref: np.ndarray,
        val_lo: np.ndarray,
        val_hi: np.ndarray,
        out_axes: Optional[AxisNames] = None,
        in_axes: Optional[AxisNames] = None,
    ) -> None:
        self.out_name = out_name
        self.in_name = in_name
        self.out_shape = tuple(int(d) for d in out_shape)
        self.in_shape = tuple(int(d) for d in in_shape)
        self.out_axes = tuple(out_axes) if out_axes else default_axis_names("b", len(self.out_shape))
        self.in_axes = tuple(in_axes) if in_axes else default_axis_names("a", len(self.in_shape))

        self.key_lo = _as_int_column(key_lo)
        self.key_hi = _as_int_column(key_hi)
        self.val_kind = np.asarray(val_kind, dtype=np.int8)
        self.val_ref = np.asarray(val_ref, dtype=np.int16)
        self.val_lo = _as_int_column(val_lo)
        self.val_hi = _as_int_column(val_hi)

        nkey = self.key_ndim
        nval = self.value_ndim
        n = self.key_lo.shape[0] if self.key_lo.size else 0
        for name, arr, width in (
            ("key_lo", self.key_lo, nkey),
            ("key_hi", self.key_hi, nkey),
            ("val_kind", self.val_kind, nval),
            ("val_ref", self.val_ref, nval),
            ("val_lo", self.val_lo, nval),
            ("val_hi", self.val_hi, nval),
        ):
            expect = (n, width)
            if arr.size == 0:
                continue
            if arr.shape != expect:
                raise ValueError(f"{name} has shape {arr.shape}, expected {expect}")

        # The query engine de-relativizes with one flat gather over every
        # relative attribute at once, so an out-of-range reference would read
        # garbage (a negative ref wraps) instead of raising per row — reject
        # malformed tables up front.
        if self.val_kind.size:
            rel_refs = self.val_ref[self.val_kind == KIND_REL]
            if rel_refs.size and ((rel_refs < 0).any() or (rel_refs >= nkey).any()):
                raise ValueError(
                    "relative value attributes must reference a key attribute "
                    f"in [0, {nkey})"
                )

    @classmethod
    def _hydrate(
        cls,
        out_name: str,
        in_name: str,
        out_shape: Tuple[int, ...],
        in_shape: Tuple[int, ...],
        key_lo: np.ndarray,
        key_hi: np.ndarray,
        val_kind: np.ndarray,
        val_ref: np.ndarray,
        val_lo: np.ndarray,
        val_hi: np.ndarray,
        out_axes: AxisNames,
        in_axes: AxisNames,
    ) -> "CompressedLineage":
        """Trusted fast-path constructor for serializer-produced columns.

        Hydration runs once per table read and the full ``__init__``
        validation (six coercions, shape cross-checks, the relative-ref
        mask) costs more than the decode itself on small tables.  Columns
        arriving here were validated when the table was first constructed
        and serialized, so only one cheap integrity probe remains: the
        bounds of ``val_ref``, whose out-of-range values would silently
        gather garbage in the θ-join (the serializer always stores ``-1``
        for absolute attributes, so the probe is exact).
        """
        self = cls.__new__(cls)
        self.out_name = out_name
        self.in_name = in_name
        self.out_shape = out_shape
        self.in_shape = in_shape
        self.out_axes = out_axes
        self.in_axes = in_axes
        self.key_lo = key_lo
        self.key_hi = key_hi
        self.val_kind = val_kind
        self.val_ref = val_ref
        self.val_lo = val_lo
        self.val_hi = val_hi
        if val_ref.size:
            nkey = len(out_shape)
            if (
                int(val_ref.min()) < -1
                or int(val_ref.max()) >= nkey
                # a relative attribute with ref -1 would silently gather
                # the last key column (negative fancy index wraps)
                or bool(((val_ref < 0) & (val_kind == KIND_REL)).any())
            ):
                raise ValueError(
                    "hydrated table has value references outside the key "
                    f"arity [0, {nkey}) — corrupt or foreign payload"
                )
        return self

    # ------------------------------------------------------------------
    # shape bookkeeping
    # ------------------------------------------------------------------
    @property
    def key_shape(self) -> Tuple[int, ...]:
        return self.out_shape

    @property
    def value_shape(self) -> Tuple[int, ...]:
        return self.in_shape

    @property
    def key_ndim(self) -> int:
        return len(self.key_shape)

    @property
    def value_ndim(self) -> int:
        return len(self.value_shape)

    @property
    def key_name(self) -> str:
        return self.out_name

    @property
    def value_name(self) -> str:
        return self.in_name

    def __len__(self) -> int:
        if self.key_lo.ndim == 2:
            return int(self.key_lo.shape[0])
        return 0

    @property
    def value_bounds(self) -> np.ndarray:
        """Cached ``value_shape - 1`` vector used by the θ-join's clip step."""
        cached = getattr(self, "_value_bounds", None)
        if cached is None:
            cached = np.asarray(self.value_shape, dtype=np.int64) - 1
            self._value_bounds = cached
        return cached

    @property
    def uniform_value_encoding(self) -> Optional[List[Tuple[int, int]]]:
        """Per-column ``(kind, ref)`` when every row agrees on each value
        column's encoding, else ``None``; computed once and cached.

        Structured lineage (elementwise, broadcasts, row patterns) compresses
        to tables whose columns are uniformly absolute or uniformly relative
        with one referenced key attribute, letting the θ-join de-relativize
        with two column adds instead of a per-(row, attribute) gather.
        """
        cached = getattr(self, "_uniform_value_encoding", False)
        if cached is False:
            if len(self) == 0:
                cached = None
            else:
                encoding: Optional[List[Tuple[int, int]]] = []
                for c in range(self.value_ndim):
                    kinds = self.val_kind[:, c]
                    refs = self.val_ref[:, c]
                    if (kinds == kinds[0]).all() and (refs == refs[0]).all():
                        encoding.append((int(kinds[0]), int(refs[0])))
                    else:
                        encoding = None
                        break
                cached = encoding
            self._uniform_value_encoding = cached
        return cached

    @property
    def shared_ref_mask(self) -> Optional[np.ndarray]:
        """``(rows, key_ndim)`` bool mask marking key attributes referenced
        by two or more relative value attributes of the same row, or ``None``
        when no row shares a reference; computed once and cached.

        A single relative attribute stays exact under interval ``rel_back``
        (the union of ``[v + dlo, v + dhi]`` over a key interval is itself an
        interval), but two attributes referencing the *same* key attribute
        describe a diagonal: the θ-join must expand such key attributes per
        index point instead of taking the Cartesian product of the two
        de-relativized intervals.
        """
        cached = getattr(self, "_shared_ref_mask", False)
        if cached is False:
            cached = None
            # sharing takes two value columns with relative rows
            if self.value_ndim >= 2 and len(self):
                relative = self.val_kind == KIND_REL
                if np.count_nonzero(relative.any(axis=0)) >= 2:
                    counts = np.zeros((len(self), self.key_ndim), dtype=np.int8)
                    for column in range(self.value_ndim):
                        rel_rows = np.flatnonzero(relative[:, column])
                        # one contribution per row within a column, so the fancy
                        # indexed increment never hits duplicate positions
                        counts[rel_rows, self.val_ref[rel_rows, column]] += 1
                    mask = counts >= 2
                    if mask.any():
                        cached = mask
            self._shared_ref_mask = cached
        return cached

    @property
    def key_index(self) -> Tuple[int, Optional[np.ndarray], np.ndarray, np.ndarray]:
        """``(attr, order, lo, reach)``: the θ-join's window index over the
        key boxes (:func:`_window_index`), computed once and cached.

        ProvRC emits its rows sorted on the key, so attribute 0 never pays
        the one stable ``argsort``.  The arrays keep the columns' stored
        width, so the index of a hydrated int8/int16 table — resident with
        it but not charged by :meth:`nbytes` — stays a fraction of it.
        """
        cached = getattr(self, "_key_index", None)
        if cached is None:
            cached = self._key_index = _window_index(self.key_lo, self.key_hi)
        return cached

    @property
    def value_index(self) -> Tuple[int, Optional[np.ndarray], np.ndarray, np.ndarray]:
        """``(attr, order, lo, reach)``: the inverse θ-join's window index,
        computed once and cached.

        It is :func:`_window_index` over each row's projection on the value
        axes — ``[key_lo[j] + lo_i, key_hi[j] + hi_i]`` for a value
        attribute relative to key attribute ``j``, ``[lo_i, hi_i]`` for an
        absolute one — the cells of the value array the row can reach at
        all.  The projection is int64: a key plus a delta can overflow a
        narrow column.
        """
        cached = getattr(self, "_value_index", None)
        if cached is None:
            lo = self.val_lo.astype(np.int64)
            hi = self.val_hi.astype(np.int64)
            encoding = self.uniform_value_encoding
            if encoding is not None:
                for column, (kind, ref) in enumerate(encoding):
                    if kind == KIND_REL:
                        lo[:, column] += self.key_lo[:, ref]
                        hi[:, column] += self.key_hi[:, ref]
            elif self.has_relative:
                rows, cols = np.nonzero(self.val_kind == KIND_REL)
                refs = self.val_ref[rows, cols]
                lo[rows, cols] += self.key_lo[rows, refs]
                hi[rows, cols] += self.key_hi[rows, refs]
            cached = self._value_index = _window_index(lo, hi)
        return cached

    @property
    def has_relative(self) -> bool:
        """Whether any value attribute uses the relative (delta) encoding.

        Computed once and cached; the θ-join skips the de-relativization
        gather entirely for absolute-only tables.
        """
        cached = getattr(self, "_has_relative", None)
        if cached is None:
            cached = bool((self.val_kind == KIND_REL).any()) if self.val_kind.size else False
            self._has_relative = cached
        return cached

    # ------------------------------------------------------------------
    # decompression (the lossless inverse)
    # ------------------------------------------------------------------
    def decompress(self) -> LineageRelation:
        """Expand back to the full uncompressed :class:`LineageRelation`, in
        canonical form (sorted, duplicate-free).

        Every key box is expanded to its cells, the value intervals are
        de-relativized at each key cell, and every value box is expanded in
        turn; the per-cell loop ``decompress_reference`` in
        ``tests/core/_reference.py`` must equal this row for row.
        """
        if len(self) == 0:
            rows = np.empty(0, dtype=np.int64)  # LineageRelation gives it its columns
        else:
            row_of, key_cells = _expand_boxes(self.key_lo, self.key_hi)
            shift = np.zeros((row_of.shape[0], self.value_ndim), dtype=np.int64)
            if self.has_relative:
                cell, attr = np.nonzero(self.val_kind[row_of] == KIND_REL)
                shift[cell, attr] = key_cells[cell, self.val_ref[row_of[cell], attr]]
            cell_of, value_cells = _expand_boxes(
                self.val_lo[row_of] + shift, self.val_hi[row_of] + shift
            )
            rows = np.concatenate((key_cells[cell_of], value_cells), axis=1)
        return LineageRelation(
            self.out_shape,
            self.in_shape,
            rows,
            out_name=self.out_name,
            in_name=self.in_name,
            out_axes=self.out_axes,
            in_axes=self.in_axes,
        ).deduplicated()

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """In-memory footprint of the columnar arrays."""
        return int(
            self.key_lo.nbytes
            + self.key_hi.nbytes
            + self.val_kind.nbytes
            + self.val_ref.nbytes
            + self.val_lo.nbytes
            + self.val_hi.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompressedLineage({self.in_name}->{self.out_name}, rows={len(self)})"
