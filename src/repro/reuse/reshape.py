"""Index reshaping: shape-generalized compressed lineage tables (Section VI.B).

A :class:`GeneralizedTable` is a ProvRC table in which every interval that
spans a *whole axis* of the input or output array has been replaced by a
symbolic marker ``[0, D_axis - 1]``.  Such a table can be *instantiated* for
arrays of a different shape, which is what lets DSLog reuse lineage across
calls of the same operation on differently sized data (``gen_sig``).

The generalization is a heuristic, exactly as in the paper: it is valid only
when whole-axis intervals are the only shape-dependent parts of the lineage.
The automatic reuse predictor (:mod:`repro.reuse.signatures`) confirms a
generalized mapping against freshly captured lineage before trusting it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.compressed import KIND_ABS, CompressedLineage

__all__ = ["GeneralizedTable", "generalize", "instantiate"]


class GeneralizedTable:
    """A compressed lineage table with whole-axis intervals made symbolic.

    ``key_full`` / ``val_full`` mark, per row and attribute, whether that
    interval was equal to ``[0, axis_length - 1]`` at generalization time
    and should therefore track the corresponding axis of a new shape.
    Relative (delta) attributes are shape-independent and are never marked.
    """

    def __init__(self, template: CompressedLineage, key_full: np.ndarray, val_full: np.ndarray):
        self.template = template
        self.key_full = np.asarray(key_full, dtype=bool)
        self.val_full = np.asarray(val_full, dtype=bool)
        n = len(template)
        if self.key_full.shape != (n, template.key_ndim):
            raise ValueError("key_full mask has the wrong shape")
        if self.val_full.shape != (n, template.value_ndim):
            raise ValueError("val_full mask has the wrong shape")

    def instantiate(self, out_shape: Tuple[int, ...], in_shape: Tuple[int, ...]) -> CompressedLineage:
        """Materialize the table for concrete output/input array shapes."""
        template = self.template
        if len(out_shape) != len(template.out_shape) or len(in_shape) != len(template.in_shape):
            raise ValueError("instantiation shapes must have the same dimensionality as the template")

        # int64 copies: the template may hold narrow hydrated views, and the
        # symbolic bounds written below (`axis_length - 1`) can exceed the
        # template dtype's range for a larger instantiation shape
        key_lo = template.key_lo.astype(np.int64)
        key_hi = template.key_hi.astype(np.int64)
        val_lo = template.val_lo.astype(np.int64)
        val_hi = template.val_hi.astype(np.int64)
        for j in range(template.key_ndim):
            rows = self.key_full[:, j]
            key_lo[rows, j] = 0
            key_hi[rows, j] = int(out_shape[j]) - 1
        for i in range(template.value_ndim):
            rows = self.val_full[:, i]
            val_lo[rows, i] = 0
            val_hi[rows, i] = int(in_shape[i]) - 1

        return CompressedLineage(
            out_name=template.out_name,
            in_name=template.in_name,
            out_shape=tuple(out_shape),
            in_shape=tuple(in_shape),
            key_lo=key_lo,
            key_hi=key_hi,
            val_kind=template.val_kind.copy(),
            val_ref=template.val_ref.copy(),
            val_lo=val_lo,
            val_hi=val_hi,
            out_axes=template.out_axes,
            in_axes=template.in_axes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GeneralizedTable(rows={len(self.template)})"


def generalize(table: CompressedLineage) -> GeneralizedTable:
    """Build a shape-generalized table from a concrete compressed table.

    Every absolute interval exactly equal to ``[0, d - 1]`` for its axis
    length ``d`` is marked symbolic (the paper's ``[1, D_i]`` interval).
    """
    key_shape = np.asarray(table.key_shape, dtype=np.int64)
    value_shape = np.asarray(table.value_shape, dtype=np.int64)
    n = len(table)
    if n == 0:
        key_full = np.zeros((0, table.key_ndim), dtype=bool)
        val_full = np.zeros((0, table.value_ndim), dtype=bool)
        return GeneralizedTable(table, key_full, val_full)

    key_full = (table.key_lo == 0) & (table.key_hi == key_shape[None, :] - 1)
    val_full = (
        (table.val_kind == KIND_ABS)
        & (table.val_lo == 0)
        & (table.val_hi == value_shape[None, :] - 1)
    )
    return GeneralizedTable(table, key_full, val_full)


def instantiate(
    generalized: GeneralizedTable,
    out_shape: Tuple[int, ...],
    in_shape: Tuple[int, ...],
) -> CompressedLineage:
    """Functional alias for :meth:`GeneralizedTable.instantiate`."""
    return generalized.instantiate(tuple(out_shape), tuple(in_shape))
