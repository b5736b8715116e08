"""Unit tests for the relational lineage model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.relation import LineageRelation, _packed_key, default_axis_names, row_order


def axis_sum_relation():
    """Lineage of ``B = A.sum(axis=1)`` for a 3x2 array (paper Figure 1)."""
    pairs = []
    for row in range(3):
        for col in range(2):
            pairs.append(((row,), (row, col)))
    return LineageRelation.from_pairs(pairs, out_shape=(3,), in_shape=(3, 2))


class TestConstruction:
    def test_default_axis_names(self):
        assert default_axis_names("b", 2) == ("b1", "b2")

    def test_from_pairs_shapes(self):
        rel = axis_sum_relation()
        assert len(rel) == 6
        assert rel.out_ndim == 1 and rel.in_ndim == 2
        assert rel.attribute_names == ("b1", "a1", "a2")

    def test_from_capture(self):
        rel = LineageRelation.from_capture(
            capture=lambda out_cell: [(out_cell[0], col) for col in range(2)],
            out_shape=(3,),
            in_shape=(3, 2),
        )
        assert rel.as_set() == axis_sum_relation().as_set()

    def test_bad_column_count(self):
        with pytest.raises(ValueError):
            LineageRelation((3,), (3, 2), np.zeros((4, 2), dtype=np.int64))

    def test_empty_relation(self):
        rel = LineageRelation((3,), (3,), np.empty((0, 2)))
        assert len(rel) == 0
        assert rel.as_set() == set()

    def test_validate_bounds(self):
        rel = LineageRelation.from_pairs([((5,), (0, 0))], out_shape=(3,), in_shape=(3, 2))
        with pytest.raises(ValueError):
            rel.validate()

    def test_validate_ok(self):
        axis_sum_relation().validate()


class TestSemantics:
    def test_backward(self):
        rel = axis_sum_relation()
        assert rel.backward([(0,)]) == {(0, 0), (0, 1)}

    def test_forward(self):
        rel = axis_sum_relation()
        assert rel.forward([(2, 1)]) == {(2,)}

    def test_forward_multiple(self):
        rel = axis_sum_relation()
        assert rel.forward([(0, 0), (1, 1)]) == {(0,), (1,)}

    def test_deduplicated(self):
        pairs = [((0,), (0, 0)), ((0,), (0, 0))]
        rel = LineageRelation.from_pairs(pairs, out_shape=(1,), in_shape=(1, 1))
        assert len(rel.deduplicated()) == 1

    def test_sorted_is_lexicographic(self):
        rel = LineageRelation.from_pairs(
            [((1,), (1, 0)), ((0,), (0, 1)), ((0,), (0, 0))],
            out_shape=(2,),
            in_shape=(2, 2),
        ).sorted()
        assert [tuple(r) for r in rel.rows] == [(0, 0, 0), (0, 0, 1), (1, 1, 0)]

    def test_equality_is_set_semantics(self):
        a = LineageRelation.from_pairs([((0,), (0,)), ((1,), (1,))], (2,), (2,))
        b = LineageRelation.from_pairs([((1,), (1,)), ((0,), (0,))], (2,), (2,))
        assert a == b

    def test_iteration(self):
        rel = axis_sum_relation()
        pairs = list(rel)
        assert ((0,), (0, 0)) in pairs
        assert len(pairs) == 6


class TestSizeAccounting:
    def test_nbytes_raw(self):
        rel = axis_sum_relation()
        assert rel.nbytes_raw() == 6 * 3 * 8

    def test_csv_bytes_header_and_rows(self):
        data = axis_sum_relation().to_csv_bytes().decode()
        lines = data.strip().split("\n")
        assert lines[0] == "b1,a1,a2"
        assert len(lines) == 7


# ----------------------------------------------------------------------
# row ordering: the packed-key helper behind deduplicated()/sorted()
# ----------------------------------------------------------------------
@st.composite
def row_matrices(draw):
    """Row matrices of width 1-6 at a narrow or int64 dtype: a tiny value
    range makes duplicates, the dtype's full range makes (at int64) column
    extents that overflow the packed key; half come pre-sorted."""
    width = draw(st.integers(1, 6))
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64]))
    info = np.iinfo(dtype)
    elements = draw(
        st.sampled_from([st.integers(-2, 2), st.integers(int(info.min), int(info.max))])
    )
    rows = draw(hnp.arrays(dtype, (draw(st.integers(0, 40)), width), elements=elements))
    if draw(st.booleans()):
        rows = rows[np.lexsort(rows.T[::-1])]
    return rows


def _relation_of(rows):
    l = rows.shape[1] // 2
    return LineageRelation((1,) * l, (1,) * (rows.shape[1] - l), rows)


class TestRowOrder:
    @given(row_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_lexsort(self, rows):
        expected = np.lexsort(rows.T[::-1])
        order = row_order(list(rows.T))
        if order is None:  # lexsort is stable: in-order input gives the identity
            assert np.array_equal(expected, np.arange(rows.shape[0]))
        else:
            assert np.array_equal(order, expected)

    @given(row_matrices())
    @settings(max_examples=300, deadline=None)
    def test_deduplicated_matches_unique(self, rows):
        relation = _relation_of(rows)
        wide = rows.astype(np.int64)
        expected = np.unique(wide, axis=0) if rows.shape[0] else wide
        assert np.array_equal(relation.deduplicated().rows, expected)
        assert np.array_equal(relation.sorted().rows, wide[np.lexsort(wide.T[::-1])])

    @pytest.mark.parametrize(
        "rows",
        [
            # negative indices
            [[-3, 5], [-7, 0], [-3, 5], [2, -9], [-7, -1]],
            # indices far outside the declared (1,) x (1,) shape
            [[10**12, 4], [3, 10**15], [10**12, 4], [3, 0]],
            # three column extents of 2^40 + 1 multiply past 2^63
            [[2**40, 0, 2**40], [0, 2**40, 0], [2**40, 0, 2**40], [0, 0, 2**40], [0, 2**40, 0]],
            # one column spanning all of int64
            [[np.iinfo(np.int64).max, 1], [np.iinfo(np.int64).min, 1], [0, 0], [0, 0]],
        ],
        ids=["negative", "outside-shape", "radix-overflow", "int64-span"],
    )
    def test_edge_ranges_match_numpy(self, rows):
        rows = np.array(rows, dtype=np.int64)
        relation = _relation_of(rows)
        assert np.array_equal(relation.deduplicated().rows, np.unique(rows, axis=0))
        assert np.array_equal(relation.sorted().rows, rows[np.lexsort(rows.T[::-1])])

    def test_packed_key_overflow_boundary(self):
        # extents 2^32 x 2^31 fill int64 exactly; one more value overflows
        fits = [np.array([0, 2**32 - 1, 5]), np.array([2**31 - 1, 0, 7])]
        key = _packed_key(fits)
        assert key is not None and key.dtype == np.int64
        assert key.tolist() == [2**31 - 1, (2**32 - 1) * 2**31, 5 * 2**31 + 7]
        assert _packed_key([fits[0], np.array([2**31, 0, 7])]) is None
        # a lone column may span 2^63 values: its extent is never a factor
        assert _packed_key([np.array([2**63 - 1, 0])]).tolist() == [2**63 - 1, 0]
        # the fallback orders the overflowing rows exactly as lexsort does
        wide = [fits[0], np.array([2**31, 0, 7])]
        assert np.array_equal(row_order(wide), np.lexsort(wide[::-1]))

    @pytest.mark.parametrize(
        "rows",
        [[], [[4, 2]], [[0, 0], [0, 1], [1, 0], [3, -2]]],
        ids=["empty", "one-row", "canonical"],
    )
    def test_canonical_input_is_not_sorted(self, rows, monkeypatch):
        def no_sort(*args, **kwargs):
            raise AssertionError("canonical input must not be sorted")

        monkeypatch.setattr(np, "argsort", no_sort)
        monkeypatch.setattr(np, "lexsort", no_sort)
        relation = LineageRelation((5,), (5,), np.array(rows, dtype=np.int64))
        assert relation.deduplicated() is relation
        assert relation.sorted() is relation
