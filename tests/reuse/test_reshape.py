"""Tests for index reshaping (shape-generalized lineage tables)."""

import numpy as np
import pytest

from repro.capture.analytic import axis_reduction_lineage, elementwise_lineage
from repro.core.provrc import compress
from repro.core.relation import LineageRelation
from repro.reuse.reshape import GeneralizedTable, generalize, instantiate


def full_aggregate(n):
    pairs = [((0,), (i,)) for i in range(n)]
    return LineageRelation.from_pairs(pairs, (1,), (n,))


class TestGeneralize:
    def test_figure6_aggregate_reshaping(self):
        # Figure 6: an aggregate captured at d1 = 2 generalizes to d1 = 4.
        small = compress(full_aggregate(2))
        generalized = generalize(small)
        instantiated = generalized.instantiate(out_shape=(1,), in_shape=(4,))
        expected = compress(full_aggregate(4))
        assert instantiated.decompress() == full_aggregate(4)
        assert len(instantiated) == len(expected)

    def test_elementwise_reshaping(self):
        small = compress(elementwise_lineage((6,)))
        generalized = generalize(small)
        bigger = generalized.instantiate(out_shape=(50,), in_shape=(50,))
        assert bigger.decompress() == elementwise_lineage((50,))

    def test_axis_sum_reshaping(self):
        small = compress(axis_reduction_lineage((4, 3), axis=1))
        generalized = generalize(small)
        bigger = generalized.instantiate(out_shape=(9,), in_shape=(9, 5))
        assert bigger.decompress() == axis_reduction_lineage((9, 5), axis=1)

    def test_relative_attrs_not_marked(self):
        table = compress(elementwise_lineage((8,)))
        generalized = generalize(table)
        # the single value attribute is relative (delta 0) and must not be marked
        assert not generalized.val_full.any()
        assert generalized.key_full.all()

    def test_partial_span_not_generalized(self):
        # lineage touching only part of an axis must keep its absolute bounds
        pairs = [((0,), (i,)) for i in range(3)]  # input has 6 cells, only 0..2 used
        relation = LineageRelation.from_pairs(pairs, (1,), (6,))
        generalized = generalize(compress(relation))
        reshaped = generalized.instantiate(out_shape=(1,), in_shape=(10,))
        assert reshaped.decompress().backward([(0,)]) == {(0,), (1,), (2,)}

    def test_empty_table(self):
        relation = LineageRelation((4,), (4,), np.empty((0, 2)))
        generalized = generalize(compress(relation))
        assert len(generalized.instantiate((7,), (7,))) == 0

    def test_dimension_mismatch_rejected(self):
        generalized = generalize(compress(elementwise_lineage((4,))))
        with pytest.raises(ValueError):
            generalized.instantiate(out_shape=(4, 4), in_shape=(4,))

    def test_bad_mask_shape_rejected(self):
        table = compress(elementwise_lineage((4,)))
        with pytest.raises(ValueError):
            GeneralizedTable(table, np.zeros((99, 1), bool), np.zeros((len(table), 1), bool))

    def test_functional_alias(self):
        generalized = generalize(compress(elementwise_lineage((5,))))
        table = instantiate(generalized, (12,), (12,))
        assert table.decompress() == elementwise_lineage((12,))
