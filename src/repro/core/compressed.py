"""The ProvRC compressed lineage table.

A :class:`CompressedLineage` stores a lineage relation as a small number of
*compressed rows*.  Each compressed row describes a set of contribution
edges in "union of Cartesian products" form (Section IV.B of the paper):

* every **key attribute** (the output axes for a backward table, the input
  axes for a forward table) holds an absolute closed interval;
* every **value attribute** (the other side) holds either an absolute
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

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .intervals import Interval
from .relation import AxisNames, LineageRelation, default_axis_names

__all__ = ["ValueAttr", "CompressedRow", "CompressedLineage", "KIND_ABS", "KIND_REL"]

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

    Hydrated tables arrive as read-only narrow views into serialized bytes
    (int8/int16/...) and must stay that way — upcasting here would undo the
    zero-copy fast path.  Anything else (Python lists, floats, unsigned)
    falls back to the canonical int64.
    """
    arr = np.asarray(array)
    if arr.dtype.kind != "i":
        arr = arr.astype(np.int64)
    return arr


@dataclass(frozen=True)
class ValueAttr:
    """One value attribute of a compressed row (absolute or relative)."""

    kind: int
    interval: Interval
    ref: int = -1  # index of the referenced key attribute when kind == KIND_REL

    @classmethod
    def absolute(cls, lo: int, hi: int) -> "ValueAttr":
        return cls(KIND_ABS, Interval(lo, hi))

    @classmethod
    def relative(cls, ref: int, lo: int, hi: int) -> "ValueAttr":
        return cls(KIND_REL, Interval(lo, hi), ref)

    @property
    def is_relative(self) -> bool:
        return self.kind == KIND_REL


@dataclass(frozen=True)
class CompressedRow:
    """A single row of a compressed lineage table (a UCP term)."""

    key: Tuple[Interval, ...]
    values: Tuple[ValueAttr, ...]

    def value_interval(self, index: int, key_point: Sequence[int]) -> Interval:
        """Absolute interval of value attribute *index* at a fixed key cell."""
        attr = self.values[index]
        if attr.kind == KIND_ABS:
            return attr.interval
        return attr.interval.shift(int(key_point[attr.ref]))


class CompressedLineage:
    """Columnar container for ProvRC-compressed lineage rows.

    The table is stored as flat numpy arrays so the in-situ query processor
    can operate on whole columns at once and so the on-disk footprint can be
    measured fairly against the columnar baselines.

    Columns are **dtype-polymorphic**: any signed integer dtype is kept
    as-is, so a table hydrated from disk holds read-only int8/int16 views
    straight into the serialized buffer (no ``astype(int64)`` inflation) and
    :meth:`nbytes` charges the actual view footprint.  Kernels consuming the
    columns upcast only where arithmetic could overflow the narrow dtype
    (``rel_back`` additions, delta encodings, ``hi + 1`` contiguity probes).
    """

    def __init__(
        self,
        key_side: str,
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
        if key_side not in ("output", "input"):
            raise ValueError("key_side must be 'output' or 'input'")
        self.key_side = key_side
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
        key_side: str,
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
        self.key_side = key_side
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
            nkey = len(out_shape if key_side == "output" else in_shape)
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
        return self.out_shape if self.key_side == "output" else self.in_shape

    @property
    def value_shape(self) -> Tuple[int, ...]:
        return self.in_shape if self.key_side == "output" else self.out_shape

    @property
    def key_axes(self) -> AxisNames:
        return self.out_axes if self.key_side == "output" else self.in_axes

    @property
    def value_axes(self) -> AxisNames:
        return self.in_axes if self.key_side == "output" else self.out_axes

    @property
    def key_ndim(self) -> int:
        return len(self.key_shape)

    @property
    def value_ndim(self) -> int:
        return len(self.value_shape)

    @property
    def key_name(self) -> str:
        return self.out_name if self.key_side == "output" else self.in_name

    @property
    def value_name(self) -> str:
        return self.in_name if self.key_side == "output" else self.out_name

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
        """``(attr, order, lo, reach)``: the θ-join's window index, computed
        once and cached.

        ``order`` lists the rows by ascending ``key_lo[:, attr]`` — ``None``
        when they are stored that way (ProvRC emits its rows sorted on the
        key, so attribute 0 never pays the one stable ``argsort``); ``lo`` is
        that column in index order and ``reach`` the running maximum of
        ``key_hi[:, attr]`` in the same order.  A row overlaps
        ``[q_lo, q_hi]`` on the attribute only if it sits at an index
        position in ``[searchsorted(reach, q_lo, "left"),
        searchsorted(lo, q_hi, "right"))``: every earlier row ends before
        ``q_lo`` (the running maximum covers nested and overlapping
        intervals), every later one starts after ``q_hi``.

        ``attr`` is the key attribute whose index discriminates best: the
        one with the smallest expected window for a uniformly drawn index,
        ``sum(reach - lo + 1) / extent`` (ties go to the lower attribute).
        A row-broadcast table, whose every row spans attribute 0, is thus
        indexed on the attribute its rows differ on.  The arrays keep the
        columns' stored width (``order`` the narrowest that holds a row
        number), so the index of a hydrated int8/int16 table — resident
        with it but not charged by :meth:`nbytes` — stays a fraction of it.
        """
        cached = getattr(self, "_key_index", None)
        if cached is None:
            n_rows, best = len(self), None
            # a lone row is its own window on any attribute
            attrs = range(self.key_ndim if n_rows > 1 else 1)
            for attr in attrs:
                lo, reach = self.key_lo[:, attr], self.key_hi[:, attr]
                order = None
                if (lo[1:] < lo[:-1]).any():
                    order = np.argsort(lo, kind="stable")
                    lo, reach = lo[order], reach[order]
                    order = order.astype(np.min_scalar_type(-n_rows))
                lo, reach = np.ascontiguousarray(lo), np.maximum.accumulate(reach)
                window = 0.0
                if len(attrs) > 1:
                    covered = reach.sum(dtype=np.float64) - lo.sum(dtype=np.float64) + n_rows
                    window = covered / (float(reach[-1]) - float(lo[0]) + 1.0)
                if best is None or window < best:
                    best, cached = window, (attr, order, lo, reach)
            self._key_index = cached
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
    # row views
    # ------------------------------------------------------------------
    def row(self, index: int) -> CompressedRow:
        key = tuple(
            Interval(int(self.key_lo[index, j]), int(self.key_hi[index, j]))
            for j in range(self.key_ndim)
        )
        values = []
        for i in range(self.value_ndim):
            kind = int(self.val_kind[index, i])
            interval = Interval(int(self.val_lo[index, i]), int(self.val_hi[index, i]))
            ref = int(self.val_ref[index, i])
            values.append(ValueAttr(kind, interval, ref))
        return CompressedRow(key, tuple(values))

    def rows(self) -> Iterator[CompressedRow]:
        for index in range(len(self)):
            yield self.row(index)

    # ------------------------------------------------------------------
    # decompression (the lossless inverse)
    # ------------------------------------------------------------------
    def decompress(self) -> LineageRelation:
        """Expand back to the full uncompressed :class:`LineageRelation`, in
        canonical form (sorted, duplicate-free).

        Every key box is expanded to its cells, the value intervals are
        de-relativized at each key cell, and every value box is expanded in
        turn; :func:`repro.core._reference.decompress_reference` is the
        per-cell loop this must equal row for row.
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
            sides = (key_cells[cell_of], value_cells)
            rows = np.concatenate(sides if self.key_side == "output" else sides[::-1], axis=1)
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
        return (
            f"CompressedLineage({self.in_name}->{self.out_name}, key={self.key_side}, "
            f"rows={len(self)})"
        )
