"""The numpy operation catalog used by the coverage and pipeline experiments.

The paper evaluates DSLog over 136 numpy API operations (75 element-wise,
61 with more complex lineage patterns) that can consume and produce
``float64`` arrays with scalar-only extra arguments, and draws the random
workflow operations of Figure 9 from a 76-operation subset that maps a
single 1-D ``float64`` array to another.

Each :class:`CatalogOp` bundles:

* ``apply`` — run the operation on an input array (always returns a
  ``float64`` ndarray, never a scalar);
* ``lineage`` — build the operation's cell-level lineage analytically
  (value-dependent for ``sort``-like operations), using the builders in
  :mod:`repro.capture.analytic`.

The exact operation list does not need to match the paper item-for-item;
what matters for Table IX is the split into element-wise vs complex
patterns and the behaviours (compressible / shape-reusable /
shape-dependent like ``cross``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from ..core.relation import LineageRelation
from .analytic import (
    cumulative_lineage,
    elementwise_lineage,
    full_reduction_lineage,
    matmat_lineage,
    outer_lineage,
    selection_lineage,
    window_lineage,
)

__all__ = ["CatalogOp", "build_catalog", "element_ops", "complex_ops", "pipeline_ops"]


@dataclass(frozen=True)
class CatalogOp:
    """One numpy API operation tracked by the coverage experiment."""

    name: str
    category: str  # "element" or "complex"
    apply: Callable[[np.ndarray], np.ndarray]
    lineage: Callable[[np.ndarray], LineageRelation]
    pipeline_ok: bool = False  # usable in the random 1-D workflow experiments
    needs_2d: bool = False
    value_dependent: bool = False

    def run(self, data: np.ndarray) -> np.ndarray:
        """Apply the operation, always returning a float64 ndarray."""
        with np.errstate(all="ignore"):
            result = self.apply(np.asarray(data, dtype=np.float64))
        result = np.asarray(result, dtype=np.float64)
        if result.ndim == 0:
            result = result.reshape(1)
        return result


# ----------------------------------------------------------------------
# element-wise operations (75)
# ----------------------------------------------------------------------
_ELEMENTWISE_FUNCS: List[Tuple[str, Callable[[np.ndarray], np.ndarray]]] = [
    ("negative", np.negative),
    ("positive", np.positive),
    ("absolute", np.absolute),
    ("fabs", np.fabs),
    ("sign", np.sign),
    ("rint", np.rint),
    ("floor", np.floor),
    ("ceil", np.ceil),
    ("trunc", np.trunc),
    ("fix", np.fix),
    ("sqrt", np.sqrt),
    ("cbrt", np.cbrt),
    ("square", np.square),
    ("reciprocal", np.reciprocal),
    ("exp", np.exp),
    ("exp2", np.exp2),
    ("expm1", np.expm1),
    ("log", np.log),
    ("log2", np.log2),
    ("log10", np.log10),
    ("log1p", np.log1p),
    ("sin", np.sin),
    ("cos", np.cos),
    ("tan", np.tan),
    ("arcsin", np.arcsin),
    ("arccos", np.arccos),
    ("arctan", np.arctan),
    ("sinh", np.sinh),
    ("cosh", np.cosh),
    ("tanh", np.tanh),
    ("arcsinh", np.arcsinh),
    ("arccosh", np.arccosh),
    ("arctanh", np.arctanh),
    ("degrees", np.degrees),
    ("radians", np.radians),
    ("deg2rad", np.deg2rad),
    ("rad2deg", np.rad2deg),
    ("sinc", np.sinc),
    ("i0", np.i0),
    ("nan_to_num", np.nan_to_num),
    ("around", np.around),
    ("round", np.round),
    ("conjugate", np.conjugate),
    ("real", np.real),
    ("angle", np.angle),
    ("spacing", np.spacing),
    ("signbit", lambda x: np.signbit(x).astype(np.float64)),
    ("isnan", lambda x: np.isnan(x).astype(np.float64)),
    ("isfinite", lambda x: np.isfinite(x).astype(np.float64)),
    ("isinf", lambda x: np.isinf(x).astype(np.float64)),
    ("logical_not", lambda x: np.logical_not(x).astype(np.float64)),
    ("add_scalar", lambda x: np.add(x, 2.5)),
    ("subtract_scalar", lambda x: np.subtract(x, 1.5)),
    ("multiply_scalar", lambda x: np.multiply(x, 3.0)),
    ("true_divide_scalar", lambda x: np.true_divide(x, 2.0)),
    ("floor_divide_scalar", lambda x: np.floor_divide(x, 2.0)),
    ("mod_scalar", lambda x: np.mod(x, 3.0)),
    ("fmod_scalar", lambda x: np.fmod(x, 3.0)),
    ("remainder_scalar", lambda x: np.remainder(x, 4.0)),
    ("power_scalar", lambda x: np.power(np.abs(x), 2.0)),
    ("float_power_scalar", lambda x: np.float_power(np.abs(x), 1.5)),
    ("maximum_scalar", lambda x: np.maximum(x, 0.0)),
    ("minimum_scalar", lambda x: np.minimum(x, 0.0)),
    ("fmax_scalar", lambda x: np.fmax(x, 0.5)),
    ("fmin_scalar", lambda x: np.fmin(x, 0.5)),
    ("hypot_scalar", lambda x: np.hypot(x, 1.0)),
    ("arctan2_scalar", lambda x: np.arctan2(x, 1.0)),
    ("copysign_scalar", lambda x: np.copysign(x, -1.0)),
    ("nextafter_scalar", lambda x: np.nextafter(x, 0.0)),
    ("logaddexp_scalar", lambda x: np.logaddexp(x, 0.0)),
    ("logaddexp2_scalar", lambda x: np.logaddexp2(x, 0.0)),
    ("heaviside_scalar", lambda x: np.heaviside(x, 0.5)),
    ("ldexp_scalar", lambda x: np.ldexp(x, 2)),
    ("clip", lambda x: np.clip(x, -1.0, 1.0)),
    ("modf_frac", lambda x: np.modf(x)[0]),
]


def _element_op(name: str, func: Callable) -> CatalogOp:
    return CatalogOp(
        name=name,
        category="element",
        apply=func,
        lineage=lambda x: elementwise_lineage(np.asarray(x).shape),
        pipeline_ok=True,
    )


# ----------------------------------------------------------------------
# complex-pattern operations (61)
# ----------------------------------------------------------------------
def _flat(x: np.ndarray) -> np.ndarray:
    return np.arange(np.asarray(x).size).reshape(np.asarray(x).shape)


def _diff_lineage(x: np.ndarray) -> LineageRelation:
    n = np.asarray(x).reshape(-1).size
    out = np.repeat(np.arange(n - 1), 2)[:, None]
    inp = (np.repeat(np.arange(n - 1), 2) + np.tile([0, 1], n - 1))[:, None]
    from .analytic import _relation  # local import to reuse the private helper

    return _relation(out, inp, (n - 1,), (n,))


def _cross_lineage(x: np.ndarray) -> LineageRelation:
    """Lineage of ``np.cross(x, c)`` w.r.t. ``x`` for a 2-D ``(n, d)`` input.

    For ``d == 3`` output cell ``(i, j)`` depends on the two *other*
    components of row ``i``; for ``d == 2`` the output is 1-D and each cell
    depends on both components of its row.  The pattern changes with the
    second dimension, which is exactly what defeats shape-generalized reuse
    in the paper (the one reported misprediction).
    """
    x = np.asarray(x)
    n, d = x.shape
    pairs = []
    if d == 3:
        for i in range(n):
            for j in range(3):
                for k in range(3):
                    if k != j:
                        pairs.append(((i, j), (i, k)))
        out_shape: Tuple[int, ...] = (n, 3)
    elif d == 2:
        for i in range(n):
            pairs.append(((i,), (i, 0)))
            pairs.append(((i,), (i, 1)))
        out_shape = (n,)
    else:
        raise ValueError("cross requires the last dimension to be 2 or 3")
    return LineageRelation.from_pairs(pairs, out_shape, (n, d))


def _trace_lineage(x: np.ndarray) -> LineageRelation:
    x = np.asarray(x)
    n = min(x.shape)
    pairs = [((0,), (i, i)) for i in range(n)]
    return LineageRelation.from_pairs(pairs, (1,), x.shape)


def _tri_selection(x: np.ndarray, lower: bool) -> LineageRelation:
    x = np.asarray(x)
    source = _flat(x).copy()
    rows, cols = np.indices(x.shape)
    mask = rows >= cols if lower else rows <= cols
    source[~mask] = -1
    return selection_lineage(source, x.shape)


def _dot_lineage(x: np.ndarray) -> LineageRelation:
    x = np.asarray(x)
    n, m = x.shape
    return matmat_lineage(n, m, max(m // 2, 1))


def _kron_lineage(x: np.ndarray) -> LineageRelation:
    n = np.asarray(x).reshape(-1).size
    return selection_lineage(np.repeat(np.arange(n), 2), (n,))


def _take_lineage(x: np.ndarray) -> LineageRelation:
    n = np.asarray(x).reshape(-1).size
    return selection_lineage(np.arange(0, n, 2), (n,))


def _complex_ops() -> List[CatalogOp]:
    ops: List[CatalogOp] = []

    def add(name, apply, lineage, pipeline_ok=False, needs_2d=False, value_dependent=False):
        ops.append(
            CatalogOp(
                name=name,
                category="complex",
                apply=apply,
                lineage=lineage,
                pipeline_ok=pipeline_ok,
                needs_2d=needs_2d,
                value_dependent=value_dependent,
            )
        )

    def full(x):
        return full_reduction_lineage(np.asarray(x).shape)

    def cum(x):
        return cumulative_lineage((np.asarray(x).size,), axis=0)

    # reductions (value independent lineage: every cell contributes)
    for name, func in [
        ("sum", np.sum), ("prod", np.prod), ("mean", np.mean), ("std", np.std),
        ("var", np.var), ("amin", np.amin), ("amax", np.amax), ("ptp", lambda x: np.max(x) - np.min(x)),
        ("median", np.median), ("percentile_50", lambda x: np.percentile(x, 50)),
        ("quantile_25", lambda x: np.quantile(x, 0.25)), ("average", np.average),
        ("nansum", np.nansum), ("nanmean", np.nanmean), ("nanmin", np.nanmin),
        ("nanmax", np.nanmax), ("nanprod", np.nanprod), ("nanstd", np.nanstd),
        ("nanvar", np.nanvar), ("nanmedian", np.nanmedian),
    ]:
        add(name, func, full)

    # cumulative / prefix patterns
    add("cumsum", lambda x: np.cumsum(x), cum, pipeline_ok=True)
    add("cumprod", lambda x: np.cumprod(x), cum, pipeline_ok=True)
    add("nancumsum", lambda x: np.nancumsum(x), cum)
    add("nancumprod", lambda x: np.nancumprod(x), cum)

    # value-dependent selections
    add("sort", lambda x: np.sort(x.reshape(-1)),
        lambda x: selection_lineage(np.argsort(np.asarray(x).reshape(-1), kind="stable"), (np.asarray(x).size,)),
        pipeline_ok=True, value_dependent=True)
    add("argsort", lambda x: np.argsort(x.reshape(-1)).astype(np.float64),
        lambda x: selection_lineage(np.argsort(np.asarray(x).reshape(-1), kind="stable"), (np.asarray(x).size,)),
        pipeline_ok=True, value_dependent=True)
    add("partition", lambda x: np.partition(x.reshape(-1), x.size // 2),
        lambda x: selection_lineage(np.argpartition(np.asarray(x).reshape(-1), np.asarray(x).size // 2), (np.asarray(x).size,)),
        pipeline_ok=True, value_dependent=True)
    add("argpartition", lambda x: np.argpartition(x.reshape(-1), x.size // 2).astype(np.float64),
        lambda x: selection_lineage(np.argpartition(np.asarray(x).reshape(-1), np.asarray(x).size // 2), (np.asarray(x).size,)),
        value_dependent=True)

    # pure index selections / reorderings
    add("transpose", np.transpose, lambda x: selection_lineage(_flat(x).T, np.asarray(x).shape), needs_2d=True)
    add("reshape_column", lambda x: np.reshape(x, (-1, 1)),
        lambda x: selection_lineage(_flat(x).reshape(-1, 1), np.asarray(x).shape))
    add("ravel", np.ravel, lambda x: selection_lineage(_flat(x).reshape(-1), np.asarray(x).shape), pipeline_ok=True)
    add("squeeze", np.squeeze, lambda x: selection_lineage(np.squeeze(_flat(x)), np.asarray(x).shape), pipeline_ok=True)
    add("expand_dims", lambda x: np.expand_dims(x, 0),
        lambda x: selection_lineage(np.expand_dims(_flat(x), 0), np.asarray(x).shape))
    add("flip", lambda x: np.flip(x), lambda x: selection_lineage(np.flip(_flat(x)), np.asarray(x).shape), pipeline_ok=True)
    add("fliplr", np.fliplr, lambda x: selection_lineage(np.fliplr(_flat(x)), np.asarray(x).shape), needs_2d=True)
    add("flipud", np.flipud, lambda x: selection_lineage(np.flipud(_flat(x)), np.asarray(x).shape), needs_2d=True)
    add("roll", lambda x: np.roll(x, 3), lambda x: selection_lineage(np.roll(_flat(x), 3), np.asarray(x).shape), pipeline_ok=True)
    add("rot90", np.rot90, lambda x: selection_lineage(np.rot90(_flat(x)), np.asarray(x).shape), needs_2d=True)
    add("repeat", lambda x: np.repeat(x, 2), lambda x: selection_lineage(np.repeat(_flat(x).reshape(-1), 2), (np.asarray(x).size,)), pipeline_ok=True)
    add("tile", lambda x: np.tile(x.reshape(-1), 2), lambda x: selection_lineage(np.tile(_flat(x).reshape(-1), 2), (np.asarray(x).size,)), pipeline_ok=True)
    add("swapaxes", lambda x: np.swapaxes(x, 0, 1), lambda x: selection_lineage(np.swapaxes(_flat(x), 0, 1), np.asarray(x).shape), needs_2d=True)
    add("moveaxis", lambda x: np.moveaxis(x, 0, -1), lambda x: selection_lineage(np.moveaxis(_flat(x), 0, -1), np.asarray(x).shape), needs_2d=True)
    add("diagonal", np.diagonal, lambda x: selection_lineage(np.diagonal(_flat(x)), np.asarray(x).shape), needs_2d=True)
    add("diag", np.diag, lambda x: selection_lineage(np.diag(_flat(x)), np.asarray(x).shape), needs_2d=True)
    add("tril", np.tril, lambda x: _tri_selection(x, lower=True), needs_2d=True)
    add("triu", np.triu, lambda x: _tri_selection(x, lower=False), needs_2d=True)
    add("take_strided", lambda x: np.take(x.reshape(-1), np.arange(0, x.size, 2)), _take_lineage, pipeline_ok=True)
    add("kron_ones", lambda x: np.kron(x.reshape(-1), np.ones(2)), _kron_lineage, pipeline_ok=True)

    # sliding-window patterns
    add("diff", lambda x: np.diff(x.reshape(-1)), _diff_lineage, pipeline_ok=True)
    add("ediff1d", lambda x: np.ediff1d(x.reshape(-1)), _diff_lineage, pipeline_ok=True)
    add("gradient", lambda x: np.gradient(x.reshape(-1)),
        lambda x: window_lineage(np.asarray(x).size, radius=1, mode="same"), pipeline_ok=True)
    add("convolve_same", lambda x: np.convolve(x.reshape(-1), np.array([0.25, 0.5, 0.25]), mode="same"),
        lambda x: window_lineage(np.asarray(x).size, radius=1, mode="same"), pipeline_ok=True)
    add("correlate_same", lambda x: np.correlate(x.reshape(-1), np.array([0.25, 0.5, 0.25]), mode="same"),
        lambda x: window_lineage(np.asarray(x).size, radius=1, mode="same"), pipeline_ok=True)

    # linear algebra
    add("dot_const", lambda x: x @ np.ones((x.shape[1], max(x.shape[1] // 2, 1))), _dot_lineage, needs_2d=True)
    add("matmul_const", lambda x: np.matmul(x, np.ones((x.shape[1], max(x.shape[1] // 2, 1)))), _dot_lineage, needs_2d=True)
    add("tensordot_const", lambda x: np.tensordot(x, np.ones((x.shape[1], max(x.shape[1] // 2, 1))), axes=1), _dot_lineage, needs_2d=True)
    add("inner_const", lambda x: np.inner(x.reshape(-1), np.ones(x.size)), full, pipeline_ok=True)
    add("vdot_const", lambda x: np.vdot(x.reshape(-1), np.ones(x.size)), full)
    add("outer_const", lambda x: np.outer(x.reshape(-1), np.ones(4)),
        lambda x: outer_lineage(np.asarray(x).size, 4))
    add("trace", np.trace, _trace_lineage, needs_2d=True)
    add("cross_const", lambda x: np.cross(x, np.ones_like(x)), _cross_lineage, needs_2d=True)

    return ops


# ----------------------------------------------------------------------
# catalog assembly
# ----------------------------------------------------------------------
def build_catalog() -> List[CatalogOp]:
    """Return the full 136-operation catalog (75 element-wise + 61 complex)."""
    element = [_element_op(name, func) for name, func in _ELEMENTWISE_FUNCS]
    complex_ = _complex_ops()
    return element + complex_


def element_ops() -> List[CatalogOp]:
    return [op for op in build_catalog() if op.category == "element"]


def complex_ops() -> List[CatalogOp]:
    return [op for op in build_catalog() if op.category == "complex"]


def pipeline_ops(limit: int = 76) -> List[CatalogOp]:
    """The subset usable in random 1-D float64 workflows (Figure 9).

    The paper draws from a 76-operation list; the selection here keeps every
    eligible complex-pattern operation and fills the remainder with
    element-wise operations, deterministically.
    """
    eligible = [op for op in build_catalog() if op.pipeline_ok]
    complex_part = [op for op in eligible if op.category == "complex"]
    element_part = [op for op in eligible if op.category == "element"]
    remaining = max(limit - len(complex_part), 0)
    return complex_part + element_part[:remaining]
