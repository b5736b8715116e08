"""Cell-level lineage tracking for numpy operations (``tracked_cell``).

:class:`TrackedArray` wraps a numpy array together with a per-cell
provenance annotation (the set of ``(source array name, index tuple)``
pairs that contributed to that cell).  It implements the
``__array_ufunc__`` and ``__array_function__`` protocols so ordinary numpy
code — ``np.negative(x)``, ``x + y``, ``np.sum(x, axis=1)``, ``np.sort(x)``
— transparently produces tracked outputs, in the same spirit as the
paper's ``tracked_cell`` data type (taint-tracking semantics).

The tracked provenance of an output can then be exported as a
:class:`~repro.core.relation.LineageRelation` per source array and ingested
into DSLog.  This capture method is value-aware (it follows ``sort``,
``argsort``-driven permutations, boolean selection through ``where`` …) but
is a pure-Python prototype: use the analytic capture functions in
:mod:`repro.capture.analytic` when only the index structure matters and
speed does.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.relation import LineageRelation

__all__ = ["TrackedArray", "track_operation"]

Cell = Tuple[int, ...]

_union = np.frompyfunc(lambda a, b: a | b, 2, 1)


def _identity_provenance(name: str, shape: Tuple[int, ...]) -> np.ndarray:
    prov = np.empty(shape, dtype=object)
    for cell in np.ndindex(*shape):
        prov[cell] = frozenset({(name, cell)})
    return prov


def _empty_provenance(shape: Tuple[int, ...]) -> np.ndarray:
    prov = np.empty(shape, dtype=object)
    prov[...] = frozenset()
    return prov


class TrackedArray(np.lib.mixins.NDArrayOperatorsMixin):
    """A numpy array annotated with per-cell contribution provenance.

    Python's operators (``-t``, ``t + 1``, ``2 * t``, ``t // 3``, ``t < 4``,
    ``a @ b`` …) come from :class:`numpy.lib.mixins.NDArrayOperatorsMixin`,
    which routes each to its ufunc and so through ``__array_ufunc__``.  Its
    ``__eq__`` is element-wise, so a ``TrackedArray`` is not hashable.
    """

    def __init__(self, data: np.ndarray, name: Optional[str] = None, provenance: Optional[np.ndarray] = None):
        self.data = np.asarray(data)
        self.name = name or "array"
        if provenance is None:
            provenance = _identity_provenance(self.name, self.data.shape)
        provenance = np.asarray(provenance, dtype=object)
        if provenance.shape != self.data.shape:
            raise ValueError("provenance annotation must have the same shape as the data")
        self.provenance = provenance

    # ------------------------------------------------------------------
    # basic array protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrackedArray(name={self.name!r}, shape={self.shape})"

    def __getitem__(self, key) -> "TrackedArray":
        return TrackedArray(self.data[key], name=self.name, provenance=self.provenance[key])

    def __array__(self, dtype=None, copy=None):
        # Allow plain-numpy consumers to read the values (provenance is lost).
        return np.asarray(self.data, dtype=dtype)

    # ------------------------------------------------------------------
    # provenance export
    # ------------------------------------------------------------------
    def sources(self) -> Tuple[str, ...]:
        """Names of every source array appearing in the provenance."""
        names = set()
        for cell in np.ndindex(*self.shape):
            names.update(name for name, _ in self.provenance[cell])
        return tuple(sorted(names))

    def relation_to(self, source_name: str, source_shape: Tuple[int, ...], out_name: str = "out") -> LineageRelation:
        """Export the lineage between a named source array and this array."""
        pairs = []
        for out_cell in np.ndindex(*self.shape):
            for name, in_cell in self.provenance[out_cell]:
                if name == source_name:
                    pairs.append((out_cell, in_cell))
        return LineageRelation.from_pairs(
            pairs,
            out_shape=self.shape,
            in_shape=source_shape,
            out_name=out_name,
            in_name=source_name,
        )

    def relations(self, source_shapes: Dict[str, Tuple[int, ...]], out_name: str = "out") -> Dict[str, LineageRelation]:
        """Export one relation per source array named in *source_shapes*."""
        return {
            name: self.relation_to(name, shape, out_name=out_name)
            for name, shape in source_shapes.items()
        }

    # ------------------------------------------------------------------
    # ufunc protocol (element-wise ops, reductions, accumulations)
    # ------------------------------------------------------------------
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # one provenance array per output: a two-output ufunc (``divmod``,
        # ``modf``, ``frexp``) would broadcast it onto a stacked result
        if kwargs.get("out") is not None or ufunc.nout != 1:
            return NotImplemented
        datas = [x.data if isinstance(x, TrackedArray) else np.asarray(x) for x in inputs]
        provs = [
            x.provenance if isinstance(x, TrackedArray) else _empty_provenance(np.asarray(x).shape)
            for x in inputs
        ]

        if method == "__call__":
            if ufunc is np.matmul:
                # matmul is a (generalized) ufunc but is not element-wise;
                # route it through the dedicated handler.
                return _matmul(inputs[0], inputs[1])
            result = getattr(ufunc, method)(*datas, **kwargs)
            prov = self._broadcast_union(provs, np.shape(result))
            return self._wrap(result, prov)
        if method == "reduce":
            axis = kwargs.get("axis", 0)
            keepdims = kwargs.get("keepdims", False)
            result = ufunc.reduce(datas[0], axis=axis, keepdims=keepdims)
            prov = _union.reduce(provs[0], axis=axis, keepdims=keepdims)
            return self._wrap(result, prov)
        if method == "accumulate":
            axis = kwargs.get("axis", 0)
            result = ufunc.accumulate(datas[0], axis=axis)
            prov = _union.accumulate(provs[0], axis=axis)
            return self._wrap(result, np.asarray(prov, dtype=object))
        if method == "outer":
            result = ufunc.outer(datas[0], datas[1])
            prov = _union.outer(provs[0], provs[1])
            return self._wrap(result, np.asarray(prov, dtype=object))
        return NotImplemented

    @staticmethod
    def _broadcast_union(provs, out_shape):
        out_shape = tuple(out_shape)
        combined = None
        for prov in provs:
            broadcast = np.broadcast_to(prov, out_shape)
            combined = broadcast if combined is None else _union(combined, broadcast)
        if combined is None:
            combined = _empty_provenance(out_shape)
        return np.asarray(combined, dtype=object).reshape(out_shape)

    def _wrap(self, result, provenance) -> "TrackedArray":
        result = np.asarray(result)
        provenance = np.asarray(provenance, dtype=object)
        if result.shape == ():
            result = result.reshape(1)
            provenance = provenance.reshape(1)
        return TrackedArray(result, name=f"{self.name}'", provenance=provenance)

    # ------------------------------------------------------------------
    # array-function protocol (structural / value-dependent operations)
    # ------------------------------------------------------------------
    def __array_function__(self, func, types, args, kwargs):
        handler = _FUNCTION_HANDLERS.get(func)
        if handler is None:
            return NotImplemented
        return handler(*args, **kwargs)


# ----------------------------------------------------------------------
# __array_function__ handlers
# ----------------------------------------------------------------------
_FUNCTION_HANDLERS = {}


def _implements(np_function):
    def decorator(fn):
        _FUNCTION_HANDLERS[np_function] = fn
        return fn

    return decorator


def _as_tracked(x) -> TrackedArray:
    if isinstance(x, TrackedArray):
        return x
    return TrackedArray(np.asarray(x), name="literal", provenance=_empty_provenance(np.shape(x)))


def _reduction(np_func, arr, axis=None, **kwargs):
    arr = _as_tracked(arr)
    result = np_func(arr.data, axis=axis, **kwargs)
    if axis is None:
        prov = _union.reduce(arr.provenance.reshape(-1))
        prov_arr = np.empty(1, dtype=object)
        prov_arr[0] = prov
        return arr._wrap(np.asarray(result).reshape(1), prov_arr)
    prov = _union.reduce(arr.provenance, axis=axis)
    return arr._wrap(result, np.asarray(prov, dtype=object))


for _np_func in (np.sum, np.prod, np.mean, np.std, np.var, np.min, np.max,
                 np.nansum, np.nanmean, np.nanmin, np.nanmax, np.median):
    _FUNCTION_HANDLERS[_np_func] = (lambda f: (lambda a, axis=None, **kw: _reduction(f, a, axis=axis, **kw)))(_np_func)


def _index_map(np_index_func):
    """Build a handler for pure index-permutation functions (transpose, flip …)."""

    def handler(arr, *args, **kwargs):
        arr = _as_tracked(arr)
        result = np_index_func(arr.data, *args, **kwargs)
        prov = np_index_func(arr.provenance, *args, **kwargs)
        return arr._wrap(result, np.asarray(prov, dtype=object))

    return handler


for _np_func in (np.transpose, np.reshape, np.ravel, np.flip, np.fliplr, np.flipud,
                 np.roll, np.rot90, np.repeat, np.tile, np.squeeze, np.expand_dims,
                 np.swapaxes, np.moveaxis, np.atleast_1d, np.atleast_2d, np.diagonal,
                 np.tril, np.triu, np.broadcast_to):
    _FUNCTION_HANDLERS[_np_func] = _index_map(_np_func)


@_implements(np.sort)
def _sort(arr, axis=-1, **kwargs):
    arr = _as_tracked(arr)
    order = np.argsort(arr.data, axis=axis, kind="stable")
    result = np.take_along_axis(arr.data, order, axis=axis)
    prov = np.take_along_axis(arr.provenance, order, axis=axis)
    return arr._wrap(result, prov)


@_implements(np.argsort)
def _argsort(arr, axis=-1, **kwargs):
    arr = _as_tracked(arr)
    order = np.argsort(arr.data, axis=axis, kind="stable")
    prov = np.take_along_axis(arr.provenance, order, axis=axis)
    return arr._wrap(order.astype(np.float64), prov)


@_implements(np.cumsum)
def _cumsum(arr, axis=None, **kwargs):
    arr = _as_tracked(arr)
    if axis is None:
        data = arr.data.reshape(-1)
        prov = arr.provenance.reshape(-1)
    else:
        data = arr.data
        prov = arr.provenance
    result = np.cumsum(data, axis=axis if axis is not None else 0)
    prov = _union.accumulate(prov, axis=axis if axis is not None else 0)
    return arr._wrap(result, np.asarray(prov, dtype=object))


@_implements(np.cumprod)
def _cumprod(arr, axis=None, **kwargs):
    arr = _as_tracked(arr)
    data = arr.data.reshape(-1) if axis is None else arr.data
    prov = arr.provenance.reshape(-1) if axis is None else arr.provenance
    result = np.cumprod(data, axis=axis if axis is not None else 0)
    prov = _union.accumulate(prov, axis=axis if axis is not None else 0)
    return arr._wrap(result, np.asarray(prov, dtype=object))


@_implements(np.diff)
def _diff(arr, n=1, axis=-1):
    arr = _as_tracked(arr)
    result = np.diff(arr.data, n=n, axis=axis)
    prov = arr.provenance
    for _ in range(n):
        left = np.take(prov, range(0, prov.shape[axis] - 1), axis=axis)
        right = np.take(prov, range(1, prov.shape[axis]), axis=axis)
        prov = np.asarray(_union(left, right), dtype=object)
    return arr._wrap(result, prov)


@_implements(np.concatenate)
def _concatenate(arrays, axis=0, **kwargs):
    tracked = [_as_tracked(a) for a in arrays]
    result = np.concatenate([t.data for t in tracked], axis=axis)
    prov = np.concatenate([t.provenance for t in tracked], axis=axis)
    return tracked[0]._wrap(result, prov)


@_implements(np.stack)
def _stack(arrays, axis=0, **kwargs):
    tracked = [_as_tracked(a) for a in arrays]
    result = np.stack([t.data for t in tracked], axis=axis)
    prov = np.stack([t.provenance for t in tracked], axis=axis)
    return tracked[0]._wrap(result, prov)


@_implements(np.where)
def _where(condition, x, y):
    condition = np.asarray(condition.data if isinstance(condition, TrackedArray) else condition)
    x = _as_tracked(x)
    y = _as_tracked(y)
    result = np.where(condition, x.data, y.data)
    shape = np.shape(result)
    x_prov = np.broadcast_to(x.provenance, shape)
    y_prov = np.broadcast_to(y.provenance, shape)
    cond = np.broadcast_to(condition, shape)
    prov = np.where(cond, x_prov, y_prov)
    return x._wrap(result, np.asarray(prov, dtype=object))


@_implements(np.clip)
def _clip(arr, a_min=None, a_max=None, **kwargs):
    arr = _as_tracked(arr)
    return arr._wrap(np.clip(arr.data, a_min, a_max), arr.provenance.copy())


@_implements(np.dot)
def _dot(a, b, **kwargs):
    return _matmul(a, b)


@_implements(np.matmul)
def _matmul(a, b, **kwargs):
    a = _as_tracked(a)
    b = _as_tracked(b)
    result = np.matmul(a.data, b.data)
    if a.ndim == 2 and b.ndim == 2:
        prov = np.empty(result.shape, dtype=object)
        row_prov = [_union.reduce(a.provenance[i, :]) for i in range(a.shape[0])]
        col_prov = [_union.reduce(b.provenance[:, j]) for j in range(b.shape[1])]
        for i in range(result.shape[0]):
            for j in range(result.shape[1]):
                prov[i, j] = row_prov[i] | col_prov[j]
        return a._wrap(result, prov)
    if a.ndim == 2 and b.ndim == 1:
        prov = np.empty(result.shape, dtype=object)
        vec_prov = _union.reduce(b.provenance)
        for i in range(result.shape[0]):
            prov[i] = _union.reduce(a.provenance[i, :]) | vec_prov
        return a._wrap(result, prov)
    if a.ndim == 1 and b.ndim == 1:
        prov = np.empty(1, dtype=object)
        prov[0] = _union.reduce(a.provenance) | _union.reduce(b.provenance)
        return a._wrap(np.asarray(result).reshape(1), prov)
    raise NotImplementedError("matmul lineage tracking supports 1-D and 2-D operands only")


@_implements(np.outer)
def _outer(a, b, **kwargs):
    a = _as_tracked(a)
    b = _as_tracked(b)
    result = np.outer(a.data, b.data)
    prov = _union.outer(a.provenance.reshape(-1), b.provenance.reshape(-1))
    return a._wrap(result, np.asarray(prov, dtype=object))


@_implements(np.take)
def _take(arr, indices, axis=None, **kwargs):
    arr = _as_tracked(arr)
    indices = np.asarray(indices.data if isinstance(indices, TrackedArray) else indices, dtype=np.int64)
    result = np.take(arr.data, indices, axis=axis)
    prov = np.take(arr.provenance, indices, axis=axis)
    return arr._wrap(result, np.asarray(prov, dtype=object))


# ----------------------------------------------------------------------
# convenience wrapper
# ----------------------------------------------------------------------
def track_operation(
    func,
    inputs: Dict[str, np.ndarray],
    out_name: str = "out",
    **kwargs,
) -> Tuple[np.ndarray, Dict[str, LineageRelation]]:
    """Run ``func(*inputs)`` under lineage tracking.

    Returns the plain output array and one :class:`LineageRelation` per
    input array, ready to be registered with DSLog.
    """
    tracked_inputs = {name: TrackedArray(np.asarray(data), name=name) for name, data in inputs.items()}
    result = func(*tracked_inputs.values(), **kwargs)
    if not isinstance(result, TrackedArray):
        raise TypeError(
            f"{getattr(func, '__name__', func)!r} is not supported by TrackedArray lineage capture"
        )
    shapes = {name: np.asarray(data).shape for name, data in inputs.items()}
    relations = result.relations(shapes, out_name=out_name)
    return result.data, relations
