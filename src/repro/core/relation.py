"""The relational model for fine-grained array lineage.

A :class:`LineageRelation` is the uncompressed relation ``R(b1..bl, a1..am)``
from Section III.B of the paper: one row per contribution edge between an
output cell of array ``B`` and an input cell of array ``A``.  Rows are kept
in a dense ``numpy`` integer matrix whose first ``l`` columns are the output
axis indices and whose last ``m`` columns are the input axis indices.

All indices are 0-based (numpy convention); the paper's worked examples are
1-based, which only shifts the values, not the structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["LineageRelation", "AxisNames", "default_axis_names", "row_order"]

AxisNames = Tuple[str, ...]

Cell = Tuple[int, ...]

_INT64_SPAN = 2**63


def _packed_key(columns: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """One int64 per row whose order is the lexicographic order of the rows.

    Mixed radix over the *observed* range of each column (indices may be
    negative or lie outside any declared shape), most significant column
    first; a constant column contributes no digit.  One ``min`` and one
    ``max`` over the columns, made one contiguous array, give every range.
    ``None`` when the ranges multiply past int64 — a property of the input
    alone.
    """
    columns = np.ascontiguousarray(columns)
    digits = []
    span = 1
    for column, lo, hi in zip(columns, columns.min(axis=1).tolist(), columns.max(axis=1).tolist()):
        if hi > lo:
            span *= hi - lo + 1
            if span > _INT64_SPAN:
                return None
            digits.append((column, lo, hi - lo + 1))
    key = np.zeros(columns.shape[1], dtype=np.int64)
    for position, (column, lo, extent) in enumerate(digits):
        if position:  # the leading extent (alone, it may be 2^63) is never a factor
            key *= extent
        key += np.subtract(column, lo, dtype=np.int64) if lo else column
    return key


def row_order(columns: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """The stable permutation that sorts rows lexicographically on
    *columns* (equal-length 1-D integer arrays or the rows of a 2-D one,
    most significant first), or ``None`` when the rows are already in that
    order.

    Everything in ``core`` that orders rows does it here: one stable sort of
    one packed key, ``np.lexsort`` only when no such key fits in int64.
    """
    if len(columns) == 0 or len(columns[0]) < 2:
        return None
    key = _packed_key(columns)
    if key is None:
        return np.lexsort(columns[::-1])
    if (key[1:] >= key[:-1]).all():
        return None
    return np.argsort(key, kind="stable")


@lru_cache(maxsize=64)  # two calls per table hydration: 1.5 us of a 30 us decode uncached
def default_axis_names(prefix: str, ndim: int) -> AxisNames:
    """Return canonical axis attribute names, e.g. ``('a1', 'a2')``."""
    return tuple(f"{prefix}{i + 1}" for i in range(ndim))


@dataclass
class LineageRelation:
    """Uncompressed cell-level lineage between one input and one output array.

    Parameters
    ----------
    out_shape, in_shape:
        Shapes of the output array ``B`` and the input array ``A``.
    rows:
        ``(n, l + m)`` integer matrix; columns are ``b1..bl`` then ``a1..am``.
    out_name, in_name:
        Logical array names, used when relations are registered in DSLog.
    """

    out_shape: Tuple[int, ...]
    in_shape: Tuple[int, ...]
    rows: np.ndarray
    out_name: str = "B"
    in_name: str = "A"
    out_axes: AxisNames = field(default=())
    in_axes: AxisNames = field(default=())

    def __post_init__(self) -> None:
        self.out_shape = tuple(int(d) for d in self.out_shape)
        self.in_shape = tuple(int(d) for d in self.in_shape)
        rows = np.asarray(self.rows, dtype=np.int64)
        expected = self.out_ndim + self.in_ndim
        if rows.size == 0:
            rows = rows.reshape(0, expected)
        if rows.ndim != 2 or rows.shape[1] != expected:
            raise ValueError(
                f"rows must have {expected} columns "
                f"({self.out_ndim} output axes + {self.in_ndim} input axes), "
                f"got shape {rows.shape}"
            )
        self.rows = rows
        if not self.out_axes:
            self.out_axes = default_axis_names("b", self.out_ndim)
        if not self.in_axes:
            self.in_axes = default_axis_names("a", self.in_ndim)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[Cell, Cell]],
        out_shape: Sequence[int],
        in_shape: Sequence[int],
        **kwargs,
    ) -> "LineageRelation":
        """Build a relation from ``(output_cell, input_cell)`` tuples."""
        pairs = list(pairs)
        l, m = len(out_shape), len(in_shape)
        rows = np.empty((len(pairs), l + m), dtype=np.int64)
        for i, (out_cell, in_cell) in enumerate(pairs):
            rows[i, :l] = out_cell
            rows[i, l:] = in_cell
        return cls(tuple(out_shape), tuple(in_shape), rows, **kwargs)

    @classmethod
    def from_capture(
        cls,
        capture: Callable[[Cell], Iterable[Cell]],
        out_shape: Sequence[int],
        in_shape: Sequence[int],
        **kwargs,
    ) -> "LineageRelation":
        """Build a relation by invoking a capture method per output cell.

        ``capture(out_cell)`` must return the input cells contributing to
        that output cell, mirroring the ``Lineage`` capture object in the
        DSLog API.
        """
        pairs = []
        for out_cell in np.ndindex(*[int(d) for d in out_shape]):
            for in_cell in capture(out_cell):
                pairs.append((out_cell, tuple(int(v) for v in in_cell)))
        return cls.from_pairs(pairs, out_shape, in_shape, **kwargs)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def out_ndim(self) -> int:
        return len(self.out_shape)

    @property
    def in_ndim(self) -> int:
        return len(self.in_shape)

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(self.out_axes) + tuple(self.in_axes)

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def __iter__(self) -> Iterator[Tuple[Cell, Cell]]:
        l = self.out_ndim
        for row in self.rows:
            yield tuple(int(v) for v in row[:l]), tuple(int(v) for v in row[l:])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LineageRelation):
            return NotImplemented
        return (
            self.out_shape == other.out_shape
            and self.in_shape == other.in_shape
            and self.as_set() == other.as_set()
        )

    # ------------------------------------------------------------------
    # canonical forms
    # ------------------------------------------------------------------
    def as_set(self) -> set:
        """Return the relation as a set of full index tuples (set semantics)."""
        return {tuple(int(v) for v in row) for row in self.rows}

    def deduplicated(self) -> "LineageRelation":
        """Return the canonical form: rows sorted lexicographically on
        ``b1..bl, a1..am`` with duplicates removed (set semantics).  A
        relation already in that form is returned as is."""
        rows = self.rows
        order = row_order(rows.T)
        if order is not None:
            rows = rows[order]
        # column by column: a row is two to four values wide, too narrow
        # for numpy's reduction along it to pay
        distinct = np.zeros(max(len(rows) - 1, 0), dtype=bool)
        for column in rows.T:
            distinct |= column[1:] != column[:-1]
        if not distinct.all():
            rows = rows[np.concatenate(([True], distinct))]
        return self if rows is self.rows else self._replace_rows(rows)

    def sorted(self) -> "LineageRelation":
        """Return the relation sorted lexicographically on ``b1..bl, a1..am``
        (itself when already in order)."""
        order = row_order(self.rows.T)
        return self if order is None else self._replace_rows(self.rows[order])

    def _replace_rows(self, rows: np.ndarray) -> "LineageRelation":
        return LineageRelation(
            self.out_shape,
            self.in_shape,
            rows,
            out_name=self.out_name,
            in_name=self.in_name,
            out_axes=self.out_axes,
            in_axes=self.in_axes,
        )

    def validate(self) -> None:
        """Check every index is within the declared array shapes."""
        l = self.out_ndim
        if len(self) == 0:
            return
        out_part = self.rows[:, :l]
        in_part = self.rows[:, l:]
        out_max = np.array(self.out_shape, dtype=np.int64)
        in_max = np.array(self.in_shape, dtype=np.int64)
        if (out_part < 0).any() or (out_part >= out_max).any():
            raise ValueError("output index out of bounds for declared shape")
        if (in_part < 0).any() or (in_part >= in_max).any():
            raise ValueError("input index out of bounds for declared shape")

    # ------------------------------------------------------------------
    # lineage semantics
    # ------------------------------------------------------------------
    def backward(self, out_cells: Iterable[Cell]) -> set:
        """Input cells contributing to any of *out_cells* (brute force)."""
        wanted = {tuple(int(v) for v in c) for c in out_cells}
        l = self.out_ndim
        result = set()
        for row in self.rows:
            if tuple(int(v) for v in row[:l]) in wanted:
                result.add(tuple(int(v) for v in row[l:]))
        return result

    def forward(self, in_cells: Iterable[Cell]) -> set:
        """Output cells influenced by any of *in_cells* (brute force)."""
        wanted = {tuple(int(v) for v in c) for c in in_cells}
        l = self.out_ndim
        result = set()
        for row in self.rows:
            if tuple(int(v) for v in row[l:]) in wanted:
                result.add(tuple(int(v) for v in row[:l]))
        return result

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    def nbytes_raw(self) -> int:
        """Size of the uncompressed row matrix in bytes (8 bytes/index)."""
        return int(self.rows.size * self.rows.itemsize)

    def to_csv_bytes(self) -> bytes:
        """Serialize as a CSV (used for the raw-CSV baseline in Table IX)."""
        header = ",".join(self.attribute_names)
        lines = [header]
        for row in self.rows:
            lines.append(",".join(str(int(v)) for v in row))
        return ("\n".join(lines) + "\n").encode("utf-8")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LineageRelation({self.in_name}->{self.out_name}, "
            f"rows={len(self)}, out_shape={self.out_shape}, in_shape={self.in_shape})"
        )
