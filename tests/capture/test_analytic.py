"""Tests for the analytic lineage builders, cross-checked against TrackedArray."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.capture.analytic import (
    axis_reduction_lineage,
    cumulative_lineage,
    elementwise_lineage,
    full_reduction_lineage,
    matmat_lineage,
    matvec_lineage,
    outer_lineage,
    repetition_lineage,
    row_pattern_lineage,
    selection_lineage,
    window_lineage,
)
from repro.capture.tracked import TrackedArray


class TestBuilders:
    def test_elementwise(self):
        rel = elementwise_lineage((3, 2))
        assert len(rel) == 6
        assert rel.backward([(1, 1)]) == {(1, 1)}

    def test_full_reduction(self):
        rel = full_reduction_lineage((2, 2))
        assert rel.backward([(0,)]) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_axis_reduction(self):
        rel = axis_reduction_lineage((3, 4), axis=1)
        assert rel.out_shape == (3,)
        assert rel.backward([(2,)]) == {(2, c) for c in range(4)}

    def test_axis_reduction_axis0(self):
        rel = axis_reduction_lineage((3, 4), axis=0)
        assert rel.out_shape == (4,)
        assert rel.backward([(1,)]) == {(r, 1) for r in range(3)}

    def test_axis_reduction_to_scalar(self):
        rel = axis_reduction_lineage((5,), axis=0)
        assert rel.out_shape == (1,)
        assert len(rel.backward([(0,)])) == 5

    def test_cumulative_1d(self):
        rel = cumulative_lineage((4,), axis=0)
        assert rel.backward([(2,)]) == {(0,), (1,), (2,)}

    def test_cumulative_flat(self):
        rel = cumulative_lineage((2, 2), axis=None)
        assert rel.out_shape == (4,)
        assert rel.backward([(1,)]) == {(0, 0), (0, 1)}

    def test_selection(self):
        source = np.array([2, 0, 1])
        rel = selection_lineage(source, (3,))
        assert rel.backward([(0,)]) == {(2,)}
        assert rel.forward([(1,)]) == {(2,)}

    def test_selection_with_constant_cells(self):
        source = np.array([1, -1, 0])
        rel = selection_lineage(source, (3,))
        assert rel.backward([(1,)]) == set()

    def test_window_same(self):
        rel = window_lineage(5, radius=1, mode="same")
        assert rel.backward([(0,)]) == {(0,), (1,)}
        assert rel.backward([(2,)]) == {(1,), (2,), (3,)}

    def test_window_valid(self):
        rel = window_lineage(5, radius=1, mode="valid")
        assert rel.out_shape == (3,)
        assert rel.backward([(0,)]) == {(0,), (1,), (2,)}

    @given(n=st.integers(1, 12), radius=st.integers(0, 4), valid=st.booleans())
    def test_window_pairs_in_order(self, n, radius, valid):
        offset = radius if valid else 0
        out_n = n - 2 * offset
        if out_n < 1:
            return
        rel = window_lineage(n, radius, mode="valid" if valid else "same")
        want = [[i, j] for i in range(out_n) for j in range(i + offset - radius, i + offset + radius + 1) if 0 <= j < n]
        assert rel.rows.tolist() == want
        assert {tuple(r) for r in rel.rows.tolist()} == {(i, j) for i, j in want}

    def test_window_invalid_mode(self):
        with pytest.raises(ValueError):
            window_lineage(5, radius=1, mode="weird")

    def test_matvec(self):
        rel = matvec_lineage(3, 4)
        assert rel.backward([(1,)]) == {(1, c) for c in range(4)}

    def test_matmat(self):
        rel = matmat_lineage(2, 3, 4)
        assert rel.out_shape == (2, 4)
        assert rel.backward([(1, 2)]) == {(1, k) for k in range(3)}

    def test_outer(self):
        rel = outer_lineage(3, 2)
        assert rel.backward([(2, 1)]) == {(2,)}
        assert rel.forward([(0,)]) == {(0, 0), (0, 1)}

    def test_repetition(self):
        rel = repetition_lineage(4, 3)
        assert rel.out_shape == (12,)
        assert rel.backward([(5,)]) == {(1,)}
        assert rel.forward([(0,)]) == {(0,), (4,), (8,)}

    def test_row_pattern(self):
        rel = row_pattern_lineage((4, 3), (2,), out_row_of=[1, 3])
        assert rel.backward([(0,)]) == {(1, c) for c in range(3)}
        assert rel.backward([(1,)]) == {(3, c) for c in range(3)}


class TestAgainstTrackedCapture:
    """The analytic builders must agree with the generic taint tracking."""

    def _tracked_relation(self, func, data, out_shape=None):
        tracked = TrackedArray(np.asarray(data, dtype=np.float64), name="A")
        out = func(tracked)
        return out.relation_to("A", np.asarray(data).shape)

    def test_elementwise_matches(self):
        data = np.random.default_rng(0).normal(size=(4, 3))
        assert self._tracked_relation(np.negative, data) == elementwise_lineage((4, 3))

    def test_axis_sum_matches(self):
        data = np.ones((5, 3))
        tracked = self._tracked_relation(lambda x: np.sum(x, axis=1), data)
        assert tracked == axis_reduction_lineage((5, 3), axis=1)

    def test_full_sum_matches(self):
        data = np.ones((3, 3))
        tracked = self._tracked_relation(np.sum, data)
        assert tracked == full_reduction_lineage((3, 3))

    def test_sort_matches(self):
        data = np.random.default_rng(1).normal(size=12)
        tracked = self._tracked_relation(np.sort, data)
        analytic = selection_lineage(np.argsort(data, kind="stable"), (12,))
        assert tracked == analytic

    def test_cumsum_matches(self):
        data = np.ones(6)
        tracked = self._tracked_relation(np.cumsum, data)
        assert tracked == cumulative_lineage((6,), axis=0)

    def test_flip_matches(self):
        data = np.arange(7.0)
        tracked = self._tracked_relation(np.flip, data)
        assert tracked == selection_lineage(np.flip(np.arange(7)), (7,))

    def test_repeat_matches(self):
        data = np.arange(5.0)
        tracked = self._tracked_relation(lambda x: np.repeat(x, 3), data)
        assert tracked == selection_lineage(np.repeat(np.arange(5), 3), (5,))

    def test_diff_matches(self):
        data = np.arange(6.0)
        tracked = self._tracked_relation(np.diff, data)
        expected_pairs = {((i,), (i,)) for i in range(5)} | {((i,), (i + 1,)) for i in range(5)}
        assert set((o, s) for o, s in tracked) == expected_pairs
