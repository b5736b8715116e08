"""Correctness tests for in-situ query processing (θ-joins over compressed tables)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.provrc import compress
from repro.core.query import CellBoxSet, execute_path, merge_boxes, theta_join
from repro.core.reference import query_path_reference
from repro.core.relation import LineageRelation


def elementwise_relation(shape, in_name="A", out_name="B"):
    pairs = [(cell, cell) for cell in np.ndindex(*shape)]
    return LineageRelation.from_pairs(pairs, shape, shape, in_name=in_name, out_name=out_name)


def aggregate_relation(shape, axis, in_name="A", out_name="B"):
    out_shape = tuple(d for i, d in enumerate(shape) if i != axis)
    pairs = []
    for in_cell in np.ndindex(*shape):
        out_cell = tuple(v for i, v in enumerate(in_cell) if i != axis)
        pairs.append((out_cell, in_cell))
    return LineageRelation.from_pairs(pairs, out_shape, shape, in_name=in_name, out_name=out_name)


class TestCellBoxSet:
    def test_from_cells_merges(self):
        box_set = CellBoxSet.from_cells("A", (10,), [(0,), (1,), (2,), (5,)])
        assert len(box_set) == 2
        assert box_set.to_cells() == {(0,), (1,), (2,), (5,)}

    def test_from_slices(self):
        box_set = CellBoxSet.from_slices("A", (10, 10), [slice(0, 3), slice(None)])
        assert box_set.count_cells() == 30

    def test_empty(self):
        box_set = CellBoxSet.empty("A", (4, 4))
        assert box_set.is_empty()
        assert box_set.count_cells() == 0

    def test_mask_and_count_agree(self):
        box_set = CellBoxSet.from_boxes("A", (6, 6), [[(0, 2), (0, 2)], [(2, 4), (2, 4)]])
        assert box_set.count_cells() == int(box_set.to_mask().sum())
        assert box_set.count_cells() == len(box_set.to_cells())

    def test_clipped_drops_out_of_bounds(self):
        box_set = CellBoxSet.from_boxes("A", (4,), [[(2, 9)], [(7, 9)]])
        clipped = box_set.clipped()
        assert clipped.to_cells() == {(2,), (3,)}

    def test_lo_hi_shape_mismatch(self):
        with pytest.raises(ValueError):
            CellBoxSet("A", (4,), np.zeros((2, 1)), np.zeros((3, 1)))


class TestMergeBoxes:
    def test_merges_adjacent_on_one_axis(self):
        lo = np.array([[0, 0], [0, 3]])
        hi = np.array([[0, 2], [0, 5]])
        mlo, mhi = merge_boxes(lo, hi)
        assert mlo.shape[0] == 1
        assert mlo[0].tolist() == [0, 0] and mhi[0].tolist() == [0, 5]

    def test_does_not_over_cover(self):
        # boxes differing on both axes must not be hulled together
        lo = np.array([[0, 0], [1, 3]])
        hi = np.array([[0, 0], [1, 3]])
        mlo, mhi = merge_boxes(lo, hi)
        assert mlo.shape[0] == 2

    def test_overlapping_boxes(self):
        lo = np.array([[0], [2]])
        hi = np.array([[5], [8]])
        mlo, mhi = merge_boxes(lo, hi)
        assert mlo.shape[0] == 1
        assert (mlo[0, 0], mhi[0, 0]) == (0, 8)

    def test_duplicates_removed(self):
        lo = np.array([[1], [1]])
        hi = np.array([[4], [4]])
        mlo, _ = merge_boxes(lo, hi)
        assert mlo.shape[0] == 1


class TestThetaJoin:
    def test_backward_matches_reference(self):
        relation = aggregate_relation((6, 5), axis=1)
        table = compress(relation)
        cells = [(0,), (3,)]
        query = CellBoxSet.from_cells("B", relation.out_shape, cells)
        result = theta_join(query, table)
        assert result.to_cells() == relation.backward(cells)

    def test_forward_matches_reference(self):
        relation = aggregate_relation((6, 5), axis=1)
        table = compress(relation)
        cells = [(2, 3), (5, 0)]
        query = CellBoxSet.from_cells("A", relation.in_shape, cells)
        result = theta_join(query, table)
        assert result.to_cells() == relation.forward(cells)

    def test_wrong_array_name_raises(self):
        relation = elementwise_relation((4,))
        table = compress(relation)
        query = CellBoxSet.from_cells("C", (4,), [(0,)])
        with pytest.raises(ValueError):
            theta_join(query, table)

    def test_dimension_mismatch_raises(self):
        relation = aggregate_relation((4, 4), axis=1)
        table = compress(relation)
        query = CellBoxSet.from_cells("B", (4, 4), [(0, 0)])
        with pytest.raises(ValueError):
            theta_join(query, table)

    def test_empty_query(self):
        relation = elementwise_relation((4,))
        table = compress(relation)
        query = CellBoxSet.empty("B", (4,))
        assert theta_join(query, table).is_empty()

    def test_no_match(self):
        relation = LineageRelation.from_pairs([((0,), (0,))], (4,), (4,))
        table = compress(relation)
        query = CellBoxSet.from_cells("B", (4,), [(3,)])
        assert theta_join(query, table).is_empty()

    def test_merge_flag_only_affects_box_count(self):
        relation = aggregate_relation((8, 3), axis=1)
        table = compress(relation)
        query = CellBoxSet.from_cells("A", relation.in_shape, [(r, c) for r in range(8) for c in range(3)])
        merged = theta_join(query, table, merge=True)
        unmerged = theta_join(query, table, merge=False)
        assert merged.to_cells() == unmerged.to_cells()
        assert len(merged) <= len(unmerged)


def diagonal_relation(n, in_name="A", out_name="B"):
    """B(i) <- A(i, i): the backward table compresses to one row whose two
    value attributes both reference the same key attribute."""
    pairs = [((i,), (i, i)) for i in range(n)]
    return LineageRelation.from_pairs(pairs, (n,), (n, n), in_name=in_name, out_name=out_name)


class TestSharedRefExpansion:
    """Regression: diagonal lineage queried with a key *range* must stay a
    diagonal.  Interval rel_back on two value attributes that reference the
    same key attribute used to produce the full Cartesian box."""

    def test_diagonal_backward_range_query_exact(self):
        relation = diagonal_relation(6)
        table = compress(relation)
        assert table.shared_ref_mask is not None
        query = CellBoxSet.from_boxes("B", (6,), [[(1, 4)]])
        cells = sorted(query.to_cells())
        assert theta_join(query, table).to_cells() == relation.backward(cells)
        assert theta_join(query, table).to_cells() == {(i, i) for i in range(1, 5)}

    def test_diagonal_forward_range_query_exact(self):
        # the inverse join intersects the two attributes' narrowings of the
        # shared key attribute, so a box over A meets only its diagonal
        relation = diagonal_relation(5)
        table = compress(relation)
        query = CellBoxSet.from_boxes("A", (5, 5), [[(0, 4), (0, 4)]])
        cells = list(query.to_cells())
        assert theta_join(query, table).to_cells() == relation.forward(cells)

    def test_point_queries_unaffected(self):
        relation = diagonal_relation(6)
        table = compress(relation)
        for i in range(6):
            query = CellBoxSet.from_cells("B", (6,), [(i,)])
            assert theta_join(query, table).to_cells() == {(i, i)}

    def test_multi_hop_chain_through_diagonal(self):
        # the falsifying shape of the original bug: an aggregation hop
        # widens the query into a key range before it meets the diagonal
        diag = diagonal_relation(6, in_name="A", out_name="B")
        collapse = LineageRelation.from_pairs(
            [((0,), (i,)) for i in range(6)], (1,), (6,), in_name="B", out_name="C"
        )
        tables = [compress(collapse), compress(diag)]
        query = CellBoxSet.from_cells("C", (1,), [(0,)])
        result = execute_path(tables, query)
        expected = query_path_reference([collapse, diag], ["backward", "backward"], [(0,)])
        assert result.to_cells() == expected
        assert result.to_cells() == {(i, i) for i in range(6)}

    def test_merge_flag_agrees(self):
        relation = diagonal_relation(7)
        table = compress(relation)
        query = CellBoxSet.from_boxes("B", (7,), [[(0, 6)]])
        assert (
            theta_join(query, table, merge=True).to_cells()
            == theta_join(query, table, merge=False).to_cells()
        )


class TestExecutePath:
    def make_chain(self):
        """A -> B (element-wise) -> C (sum over axis 1)."""
        r1 = elementwise_relation((6, 4), in_name="A", out_name="B")
        r2 = aggregate_relation((6, 4), axis=1, in_name="B", out_name="C")
        return r1, r2

    def test_forward_two_hops(self):
        r1, r2 = self.make_chain()
        tables = [compress(r1), compress(r2)]
        cells = [(0, 0), (2, 3)]
        query = CellBoxSet.from_cells("A", (6, 4), cells)
        result = execute_path(tables, query)
        expected = query_path_reference([r1, r2], ["forward", "forward"], cells)
        assert result.to_cells() == expected

    def test_backward_two_hops(self):
        r1, r2 = self.make_chain()
        tables = [compress(r2), compress(r1)]
        cells = [(1,), (4,)]
        query = CellBoxSet.from_cells("C", (6,), cells)
        result = execute_path(tables, query)
        expected = query_path_reference([r2, r1], ["backward", "backward"], cells)
        assert result.to_cells() == expected

    def test_hop_stats_recorded(self):
        r1, r2 = self.make_chain()
        tables = [compress(r1), compress(r2)]
        query = CellBoxSet.from_cells("A", (6, 4), [(0, 0)])
        result = execute_path(tables, query)
        assert len(result.hops) == 2
        assert result.hops[0].array_from == "A"
        assert result.hops[1].array_to == "C"

    def test_empty_frontier_short_circuits(self):
        r1 = LineageRelation.from_pairs([((0,), (0,))], (4,), (4,), in_name="A", out_name="B")
        r2 = elementwise_relation((4,), in_name="B", out_name="C")
        tables = [compress(r1), compress(r2)]
        query = CellBoxSet.from_cells("A", (4,), [(3,)])
        result = execute_path(tables, query)
        assert result.to_cells() == set()
        assert len(result.hops) == 1

    def test_no_merge_matches_merge(self):
        r1, r2 = self.make_chain()
        tables = [compress(r1), compress(r2)]
        cells = [(r, c) for r in range(6) for c in range(4) if (r + c) % 2 == 0]
        query = CellBoxSet.from_cells("A", (6, 4), cells)
        with_merge = execute_path(tables, query, merge=True)
        without_merge = execute_path(tables, query, merge=False)
        assert with_merge.to_cells() == without_merge.to_cells()


# ----------------------------------------------------------------------
# property-based: in-situ queries agree with brute force
# ----------------------------------------------------------------------
@st.composite
def relation_and_query(draw):
    out_ndim = draw(st.integers(1, 2))
    in_ndim = draw(st.integers(1, 2))
    out_shape = tuple(draw(st.integers(1, 5)) for _ in range(out_ndim))
    in_shape = tuple(draw(st.integers(1, 5)) for _ in range(in_ndim))
    n_rows = draw(st.integers(0, 30))
    pairs = []
    for _ in range(n_rows):
        out_cell = tuple(draw(st.integers(0, d - 1)) for d in out_shape)
        in_cell = tuple(draw(st.integers(0, d - 1)) for d in in_shape)
        pairs.append((out_cell, in_cell))
    relation = LineageRelation.from_pairs(pairs, out_shape, in_shape)
    n_query = draw(st.integers(0, 6))
    out_cells = [
        tuple(draw(st.integers(0, d - 1)) for d in out_shape) for _ in range(n_query)
    ]
    in_cells = [
        tuple(draw(st.integers(0, d - 1)) for d in in_shape) for _ in range(n_query)
    ]
    return relation, out_cells, in_cells


class TestQueryProperties:
    @settings(max_examples=100, deadline=None)
    @given(relation_and_query())
    def test_backward_equals_reference(self, data):
        relation, out_cells, _ = data
        table = compress(relation)
        query = CellBoxSet.from_cells("B", relation.out_shape, out_cells)
        result = theta_join(query, table)
        assert result.to_cells() == relation.backward(out_cells)

    @settings(max_examples=100, deadline=None)
    @given(relation_and_query())
    def test_forward_equals_reference(self, data):
        relation, _, in_cells = data
        table = compress(relation)
        query = CellBoxSet.from_cells("A", relation.in_shape, in_cells)
        result = theta_join(query, table)
        assert result.to_cells() == relation.forward(in_cells)

    @settings(max_examples=50, deadline=None)
    @given(relation_and_query())
    def test_merge_never_changes_answer(self, data):
        relation, out_cells, _ = data
        table = compress(relation)
        query = CellBoxSet.from_cells("B", relation.out_shape, out_cells)
        merged = theta_join(query, table, merge=True)
        plain = theta_join(query, table, merge=False)
        assert merged.to_cells() == plain.to_cells()


# ----------------------------------------------------------------------
# property-based: a forward hop is the inverse θ-join over the backward
# table, and it agrees with brute force on every lineage shape
# ----------------------------------------------------------------------
def _pairs(kind, n, shift):
    """``(out_shape, in_shape, pairs)`` of one lineage shape over extent *n*."""
    cells = list(np.ndindex(n, n))
    if kind == "diagonal":  # two value attributes sharing one key reference
        return (n,), (n, n + shift), [((i,), (i, i + shift)) for i in range(n)]
    if kind == "transpose":
        return (n, n), (n, n), [((i, j), (j, i)) for i, j in cells]
    if kind == "negative-delta":  # out[i] <- in[i - shift .. i]
        pairs = [((i,), (j,)) for i in range(n) for j in range(max(0, i - shift), i + 1)]
        return (n,), (n,), pairs
    if kind == "absolute":  # every row absolute: out[0] <- all of in
        return (1,), (n, n), [((0,), cell) for cell in cells]
    if kind == "broadcast":  # out[i, j] <- in[j]
        return (n, n), (n,), [((i, j), (j,)) for i, j in cells]
    if kind == "empty":
        return (n,), (n, n), []
    if kind == "1d-to-3d":  # a flatten: out[k] <- in[unravel(k)]
        shape = (n, 2, 2)
        return (n * 4,), shape, [((k,), np.unravel_index(k, shape)) for k in range(n * 4)]
    if kind == "3d-to-1d":  # out[i, j, k] <- in[2 * i + j]: a reshape and a broadcast
        shape = (n, 2, 2)
        return shape, (n * 2,), [(c, (c[0] * 2 + c[1],)) for c in np.ndindex(*shape)]
    raise AssertionError(kind)


KINDS = ["diagonal", "transpose", "negative-delta", "absolute", "broadcast", "empty", "1d-to-3d", "3d-to-1d", "random"]


@st.composite
def forward_cases(draw):
    """A relation of one of :data:`KINDS` and a set of input cells."""
    kind = draw(st.sampled_from(KINDS))
    n, shift = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    if kind == "random":
        out_shape = tuple(draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 3))))
        in_shape = tuple(draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 3))))
        cell = lambda shape: tuple(draw(st.integers(0, d - 1)) for d in shape)  # noqa: E731
        pairs = [(cell(out_shape), cell(in_shape)) for _ in range(draw(st.integers(0, 30)))]
    else:
        out_shape, in_shape, pairs = _pairs(kind, n, shift)
    relation = LineageRelation.from_pairs(pairs, out_shape, in_shape)
    in_cells = draw(
        st.lists(st.tuples(*(st.integers(0, d - 1) for d in in_shape)), max_size=8)
    )
    return relation, in_cells


class TestInverseJoinProperty:
    @settings(max_examples=300, deadline=None)
    @given(forward_cases(), st.booleans())
    def test_forward_hop_equals_reference(self, case, merge):
        relation, in_cells = case
        table = compress(relation)
        query = CellBoxSet.from_cells(relation.in_name, relation.in_shape, in_cells)
        result = execute_path([table], query, merge=merge)
        assert result.to_cells() == query_path_reference([relation], ["forward"], in_cells)
        assert result.cells.array_name == relation.out_name
        # one box per matching row before the merge
        raw = theta_join(query, table, merge=False)
        assert len(raw) <= len(query) * len(table)

    @settings(max_examples=100, deadline=None)
    @given(forward_cases(), st.data())
    def test_forward_chain_equals_reference(self, case, data):
        # a second hop of random pairs from the first one's output
        first, cells = case
        out_shape = tuple(data.draw(st.integers(1, 4)) for _ in range(data.draw(st.integers(1, 3))))
        cell = lambda shape: tuple(data.draw(st.integers(0, d - 1)) for d in shape)  # noqa: E731
        pairs = [(cell(out_shape), cell(first.out_shape)) for _ in range(data.draw(st.integers(0, 30)))]
        second = LineageRelation.from_pairs(pairs, out_shape, first.out_shape, in_name="B", out_name="C")
        query = CellBoxSet.from_cells("A", first.in_shape, cells)
        result = execute_path([compress(first), compress(second)], query)
        assert result.to_cells() == query_path_reference([first, second], ["forward"] * 2, cells)
