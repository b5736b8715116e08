"""Tests for cell-level lineage tracking (TrackedArray)."""

import numpy as np
import pytest

from repro.capture.tracked import TrackedArray, track_operation


class TestBasics:
    def test_identity_provenance(self):
        arr = TrackedArray(np.arange(4.0), name="A")
        assert arr.provenance[2] == frozenset({("A", (2,))})
        assert arr.shape == (4,) and arr.ndim == 1 and arr.size == 4
        assert arr.dtype == np.float64
        assert len(arr) == 4

    def test_provenance_shape_mismatch(self):
        with pytest.raises(ValueError):
            TrackedArray(np.zeros(3), provenance=np.empty((4,), dtype=object))

    def test_getitem_preserves_provenance(self):
        arr = TrackedArray(np.arange(6.0).reshape(2, 3), name="A")
        sub = arr[1]
        assert sub.provenance[0] == frozenset({("A", (1, 0))})

    def test_asarray_returns_values(self):
        arr = TrackedArray(np.arange(3.0), name="A")
        assert np.array_equal(np.asarray(arr), np.arange(3.0))


class TestUfuncs:
    def test_unary_elementwise(self):
        arr = TrackedArray(np.arange(4.0), name="A")
        out = np.negative(arr)
        assert np.array_equal(out.data, -np.arange(4.0))
        assert out.provenance[3] == frozenset({("A", (3,))})

    def test_binary_two_tracked(self):
        a = TrackedArray(np.ones(3), name="A")
        b = TrackedArray(np.ones(3), name="B")
        out = a + b
        assert out.provenance[1] == frozenset({("A", (1,)), ("B", (1,))})

    def test_binary_with_scalar(self):
        a = TrackedArray(np.ones(3), name="A")
        out = a * 2.0
        assert out.provenance[0] == frozenset({("A", (0,))})

    def test_broadcasting(self):
        a = TrackedArray(np.ones((2, 3)), name="A")
        b = TrackedArray(np.ones(3), name="B")
        out = a + b
        assert out.provenance[1, 2] == frozenset({("A", (1, 2)), ("B", (2,))})

    def test_operator_sugar(self):
        a = TrackedArray(np.arange(3.0) + 1, name="A")
        for out in (-a, a - 1, 1 - a, a / 2, 2 / a, a ** 2, a * 3, 3 * a, a + 1, 1 + a):
            assert isinstance(out, TrackedArray)
            assert out.provenance[0] == frozenset({("A", (0,))})

    def test_mixin_operators(self):
        a = TrackedArray(np.arange(6.0).reshape(2, 3), name="A")
        plain = np.ones((2, 3))
        # reflected against an ndarray, floor division, modulo, a comparison
        for out, want in (
            (plain - a, plain - a.data),
            (7 // a[:, 1:], 7 // a.data[:, 1:]),
            (a % 4, a.data % 4),
            (a < 3, a.data < 3),
        ):
            assert isinstance(out, TrackedArray)
            assert np.array_equal(out.data, want)
            assert out.provenance[1, 1] == frozenset({("A", (1, 2 if out.shape[1] == 2 else 1))})
        b = TrackedArray(np.ones((3, 2)), name="B")
        assert (a @ b).provenance[0, 0] == frozenset(
            {("A", (0, c)) for c in range(3)} | {("B", (r, 0)) for r in range(3)}
        )

    def test_two_output_ufuncs_are_refused(self):
        # one provenance array cannot describe a stacked (2, n) result
        a = TrackedArray(np.arange(4.0), name="A")
        for call in (lambda: divmod(a, 2), lambda: np.divmod(a, 2), lambda: np.modf(a)):
            with pytest.raises(TypeError):
                call()

    def test_unhashable(self):
        # element-wise __eq__: no set or dict may key on a TrackedArray
        with pytest.raises(TypeError):
            hash(TrackedArray(np.arange(2.0), name="A"))

    def test_reduce(self):
        a = TrackedArray(np.ones((2, 3)), name="A")
        out = np.add.reduce(a, axis=1)
        assert out.provenance[0] == frozenset({("A", (0, c)) for c in range(3)})

    def test_accumulate(self):
        a = TrackedArray(np.ones(4), name="A")
        out = np.add.accumulate(a)
        assert out.provenance[2] == frozenset({("A", (i,)) for i in range(3)})

    def test_outer(self):
        a = TrackedArray(np.ones(2), name="A")
        b = TrackedArray(np.ones(3), name="B")
        out = np.multiply.outer(a, b)
        assert out.provenance[1, 2] == frozenset({("A", (1,)), ("B", (2,))})


class TestArrayFunctions:
    def test_sum_axis(self):
        a = TrackedArray(np.ones((3, 2)), name="A")
        out = np.sum(a, axis=1)
        assert out.shape == (3,)
        assert out.provenance[1] == frozenset({("A", (1, 0)), ("A", (1, 1))})

    def test_sum_all(self):
        a = TrackedArray(np.ones((2, 2)), name="A")
        out = np.sum(a)
        assert out.shape == (1,)
        assert out.provenance[0] == frozenset({("A", c) for c in np.ndindex(2, 2)})

    def test_mean_and_max(self):
        a = TrackedArray(np.arange(4.0), name="A")
        assert np.mean(a).provenance[0] == frozenset({("A", (i,)) for i in range(4)})
        assert np.max(a).provenance[0] == frozenset({("A", (i,)) for i in range(4)})

    def test_sort_follows_values(self):
        a = TrackedArray(np.array([3.0, 1.0, 2.0]), name="A")
        out = np.sort(a)
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])
        assert out.provenance[0] == frozenset({("A", (1,))})
        assert out.provenance[2] == frozenset({("A", (0,))})

    def test_transpose_and_reshape(self):
        a = TrackedArray(np.arange(6.0).reshape(2, 3), name="A")
        assert np.transpose(a).provenance[2, 1] == frozenset({("A", (1, 2))})
        assert np.reshape(a, (3, 2)).provenance[2, 0] == frozenset({("A", (1, 1))})

    def test_flip_roll(self):
        a = TrackedArray(np.arange(4.0), name="A")
        assert np.flip(a).provenance[0] == frozenset({("A", (3,))})
        assert np.roll(a, 1).provenance[0] == frozenset({("A", (3,))})

    def test_cumsum(self):
        a = TrackedArray(np.ones(4), name="A")
        out = np.cumsum(a)
        assert out.provenance[2] == frozenset({("A", (i,)) for i in range(3)})

    def test_concatenate(self):
        a = TrackedArray(np.ones(2), name="A")
        b = TrackedArray(np.ones(2), name="B")
        out = np.concatenate([a, b])
        assert out.provenance[3] == frozenset({("B", (1,))})

    def test_diff(self):
        a = TrackedArray(np.arange(5.0), name="A")
        out = np.diff(a)
        assert out.provenance[1] == frozenset({("A", (1,)), ("A", (2,))})

    def test_where(self):
        cond = np.array([True, False, True])
        x = TrackedArray(np.ones(3), name="X")
        y = TrackedArray(np.zeros(3), name="Y")
        out = np.where(cond, x, y)
        assert out.provenance[0] == frozenset({("X", (0,))})
        assert out.provenance[1] == frozenset({("Y", (1,))})

    def test_matmul_2d(self):
        a = TrackedArray(np.ones((2, 3)), name="A")
        b = TrackedArray(np.ones((3, 2)), name="B")
        out = a @ b
        expected_a = {("A", (0, k)) for k in range(3)}
        expected_b = {("B", (k, 1)) for k in range(3)}
        assert out.provenance[0, 1] == frozenset(expected_a | expected_b)

    def test_matvec(self):
        a = TrackedArray(np.ones((2, 3)), name="A")
        v = TrackedArray(np.ones(3), name="V")
        out = np.matmul(a, v)
        assert {name for name, _ in out.provenance[0]} == {"A", "V"}

    def test_clip_and_take(self):
        a = TrackedArray(np.arange(5.0), name="A")
        assert np.clip(a, 0, 2).provenance[4] == frozenset({("A", (4,))})
        assert np.take(a, [3, 0]).provenance[0] == frozenset({("A", (3,))})

    def test_unsupported_function_raises(self):
        a = TrackedArray(np.arange(4.0), name="A")
        with pytest.raises(TypeError):
            np.fft.fft(a)


class TestRelationExport:
    def test_relation_to(self):
        a = TrackedArray(np.ones((3, 2)), name="A")
        out = np.sum(a, axis=1)
        relation = out.relation_to("A", (3, 2), out_name="B")
        assert relation.backward([(1,)]) == {(1, 0), (1, 1)}
        assert relation.out_name == "B" and relation.in_name == "A"

    def test_sources(self):
        a = TrackedArray(np.ones(2), name="A")
        b = TrackedArray(np.ones(2), name="B")
        assert (a + b).sources() == ("A", "B")

    def test_track_operation(self):
        data, relations = track_operation(
            lambda x: np.sum(np.negative(x), axis=1),
            inputs={"A": np.ones((4, 3))},
            out_name="B",
        )
        assert data.shape == (4,)
        assert relations["A"].backward([(2,)]) == {(2, c) for c in range(3)}

    def test_track_operation_two_inputs(self):
        data, relations = track_operation(
            lambda x, y: x + y,
            inputs={"X": np.ones(5), "Y": np.ones(5)},
        )
        assert relations["X"].forward([(1,)]) == {(1,)}
        assert relations["Y"].forward([(4,)]) == {(4,)}

    def test_track_operation_unsupported(self):
        with pytest.raises(TypeError):
            track_operation(lambda x: np.asarray(x) * 2, inputs={"A": np.ones(3)})
