"""The paper's worked examples (Tables I-VI, Figures 1-6), pinned exactly.

Indices here are 0-based while the paper's figures are 1-based; the
structure (number of compressed rows, which attributes become relative,
which become ranges) is identical.
"""


from repro.core.compressed import KIND_ABS, KIND_REL
from repro.core.provrc import compress
from repro.core.query import CellBoxSet, execute_path, theta_join
from repro.core.relation import LineageRelation


def axis_sum_relation():
    """Figure 1: B = numpy.sum(A, axis=1) over a 3x2 array."""
    pairs = []
    for row in range(3):
        for col in range(2):
            pairs.append(((row,), (row, col)))
    return LineageRelation.from_pairs(pairs, out_shape=(3,), in_shape=(3, 2))


def full_aggregate_relation(n=4):
    """Figure 2/6: every input cell of a 1-D array contributes to one output cell."""
    pairs = [((0,), (i,)) for i in range(n)]
    return LineageRelation.from_pairs(pairs, out_shape=(1,), in_shape=(n,))


def one_to_one_relation(n=2):
    """Figure 3/5: an element-wise operation over a length-n array."""
    pairs = [((i,), (i,)) for i in range(n)]
    return LineageRelation.from_pairs(pairs, out_shape=(n,), in_shape=(n,))


class TestTableI_MultiAttributeRangeEncoding:
    """Step 1 collapses the 6-row axis-sum lineage to 3 rows (Table I)."""

    def test_row_count_after_compression(self):
        table = compress(axis_sum_relation())
        # Step 1 gives 3 rows (Table I); step 2 collapses them to one (Table II).
        assert len(table) == 1

    def test_step1_only_structure(self):
        # Disabling the relative transformation leaves exactly the Table I shape:
        # three rows, each with a2 encoded as the full range [0, 1].
        table = compress(axis_sum_relation(), relative=False)
        assert len(table) == 3
        for row in table.rows():
            a1, a2 = row.values
            assert a1.kind == KIND_ABS and a1.interval.is_point
            assert a2.kind == KIND_ABS
            assert (a2.interval.lo, a2.interval.hi) == (0, 1)


class TestTableII_RelativeTransformation:
    """Step 2 collapses the axis-sum lineage to a single row (Table II)."""

    def test_final_single_row(self):
        table = compress(axis_sum_relation())
        assert len(table) == 1
        row = table.row(0)
        # b1 spans all three output rows
        assert (row.key[0].lo, row.key[0].hi) == (0, 2)
        a1, a2 = row.values
        # a1 is stored relative to b1 with delta 0 (a1 = b1)
        assert a1.kind == KIND_REL and a1.ref == 0
        assert (a1.interval.lo, a1.interval.hi) == (0, 0)
        # a2 keeps its absolute range [0, 1]
        assert a2.kind == KIND_ABS
        assert (a2.interval.lo, a2.interval.hi) == (0, 1)

    def test_lossless(self):
        relation = axis_sum_relation()
        assert compress(relation).decompress() == relation


class TestTableIII_ForwardQueries:
    """Table III's forward table is not stored: the inverse θ-join answers
    forward queries over the Table II backward table instead."""

    def test_forward_hops_over_the_backward_table(self):
        relation = axis_sum_relation()
        table = compress(relation)
        for cells in ([(1, 0)], [(0, 1), (2, 0)], [(r, c) for r in range(3) for c in range(2)]):
            query = CellBoxSet.from_cells(relation.in_name, relation.in_shape, cells)
            assert theta_join(query, table).to_cells() == relation.forward(cells)

    def test_one_box_per_matching_row(self):
        # a1 in [1, 2], a2 = 1 narrows the one row's b1 in [0, 2] to [1, 2]
        relation = axis_sum_relation()
        query = CellBoxSet.from_boxes(relation.in_name, relation.in_shape, [[(1, 2), (1, 1)]])
        result = theta_join(query, compress(relation), merge=False)
        assert result.lo.tolist() == [[1]] and result.hi.tolist() == [[2]]


class TestFigure2_AggregatePattern:
    def test_single_row_with_full_range(self):
        table = compress(full_aggregate_relation(4))
        assert len(table) == 1
        row = table.row(0)
        assert (row.key[0].lo, row.key[0].hi) == (0, 0)
        value = row.values[0]
        assert value.kind == KIND_ABS
        assert (value.interval.lo, value.interval.hi) == (0, 3)


class TestFigure3_OneToOnePattern:
    def test_single_row_with_zero_delta(self):
        table = compress(one_to_one_relation(2))
        assert len(table) == 1
        row = table.row(0)
        assert (row.key[0].lo, row.key[0].hi) == (0, 1)
        value = row.values[0]
        assert value.kind == KIND_REL and value.ref == 0
        assert (value.interval.lo, value.interval.hi) == (0, 0)


class TestTableIV_to_VI_QueryExample:
    """The running backward-query example over the axis-sum lineage."""

    def test_backward_query_rows_0_and_1(self):
        # Query: cells with b1 in {0, 1} (paper's b1 = 1, 2).
        table = compress(axis_sum_relation())
        query = CellBoxSet.from_boxes("B", (3,), [[(0, 1)]])
        result = theta_join(query, table)
        # Table VI: a1 in [0,1] (paper [1,2]), a2 in [0,1] (paper [1,2]).
        assert result.to_cells() == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_full_backward_query(self):
        table = compress(axis_sum_relation())
        query = CellBoxSet.from_boxes("B", (3,), [[(0, 2)]])
        result = theta_join(query, table)
        assert result.to_cells() == axis_sum_relation().backward([(0,), (1,), (2,)])

    def test_figure4_range_join_aggregate(self):
        # Figure 4: all-to-all lineage [0,1] -> [0,2]; query output cells (0,1).
        pairs = [((b,), (a,)) for b in range(3) for a in range(2)]
        relation = LineageRelation.from_pairs(pairs, out_shape=(3,), in_shape=(2,))
        table = compress(relation)
        query = CellBoxSet.from_boxes("B", (3,), [[(0, 1)]])
        result = theta_join(query, table)
        assert result.to_cells() == {(0,), (1,)}

    def test_figure5_relative_range_join(self):
        # Figure 5: one-to-one lineage over a length-3 array, query cells (0,1).
        relation = one_to_one_relation(3)
        table = compress(relation)
        query = CellBoxSet.from_boxes("B", (3,), [[(0, 1)]])
        result = theta_join(query, table)
        assert result.to_cells() == {(0,), (1,)}

    def test_execute_path_single_hop(self):
        table = compress(axis_sum_relation())
        query = CellBoxSet.from_boxes("B", (3,), [[(0, 1)]])
        result = execute_path([table], query)
        assert result.to_cells() == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert len(result.hops) == 1
        assert result.hops[0].rows_scanned == 1
