"""Correctness tests for the ProvRC compression algorithm."""

import numpy as np
import pytest
from _reference import key_range_pass_reference, value_range_pass_reference
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.relation as relation_module
from repro.capture.analytic import elementwise_lineage
from repro.core.compressed import KIND_ABS, KIND_REL
from repro.core.provrc import ProvRCStats, compress
from repro.core.relation import LineageRelation


# ----------------------------------------------------------------------
# structured lineage generators (mirroring the Table VII operations)
# ----------------------------------------------------------------------
def aggregate_axis_relation(shape, axis):
    out_shape = tuple(d for i, d in enumerate(shape) if i != axis)
    pairs = []
    for in_cell in np.ndindex(*shape):
        out_cell = tuple(v for i, v in enumerate(in_cell) if i != axis)
        pairs.append((out_cell, in_cell))
    return LineageRelation.from_pairs(pairs, out_shape, shape)


def repetition_relation(n, reps):
    pairs = [((r * n + i,), (i,)) for r in range(reps) for i in range(n)]
    return LineageRelation.from_pairs(pairs, (n * reps,), (n,))


def matvec_relation(rows, cols):
    """Lineage of y = M @ x between M (rows x cols) and y (rows)."""
    pairs = [((r,), (r, c)) for r in range(rows) for c in range(cols)]
    return LineageRelation.from_pairs(pairs, (rows,), (rows, cols))


def permutation_relation(n, seed=0):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    pairs = [((i,), (int(perm[i]),)) for i in range(n)]
    return LineageRelation.from_pairs(pairs, (n,), (n,))


class TestStructuredPatterns:
    def test_elementwise_collapses_to_one_row(self):
        relation = elementwise_lineage((20, 15))
        table = compress(relation)
        assert len(table) == 1
        assert table.decompress() == relation

    def test_aggregate_collapses_to_one_row(self):
        relation = aggregate_axis_relation((10, 6), axis=1)
        table = compress(relation)
        assert len(table) == 1
        assert table.decompress() == relation

    def test_full_aggregate_2d(self):
        relation = aggregate_axis_relation((8, 8), axis=0)
        table = compress(relation)
        assert table.decompress() == relation
        assert len(table) <= 8

    def test_repetition(self):
        relation = repetition_relation(16, 4)
        table = compress(relation)
        assert table.decompress() == relation
        assert len(table) <= 4

    def test_matvec(self):
        relation = matvec_relation(12, 7)
        table = compress(relation)
        assert len(table) == 1
        assert table.decompress() == relation

    def test_permutation_worst_case_is_lossless(self):
        relation = permutation_relation(64)
        table = compress(relation)
        assert table.decompress() == relation
        # Sort-like lineage has no contiguous structure: almost no compression.
        assert len(table) > 32

    def test_stats_collected(self):
        stats = ProvRCStats()
        compress(elementwise_lineage((30,)), stats=stats)
        assert stats.input_rows == 30
        assert stats.after_key_pass == 1
        assert stats.as_dict()["after_value_pass"] == 30

    def test_compress_builds_the_backward_table(self):
        relation = aggregate_axis_relation((6, 4), axis=1)
        backward = compress(relation)
        # keyed on the output: the one orientation a table has
        assert (backward.key_name, backward.key_shape) == (relation.out_name, relation.out_shape)
        assert backward.decompress() == relation


class TestEdgeCases:
    def test_empty_relation(self):
        relation = LineageRelation((4,), (4,), np.empty((0, 2)))
        table = compress(relation)
        assert len(table) == 0
        assert table.decompress() == relation

    def test_single_row(self):
        relation = LineageRelation.from_pairs([((2,), (3,))], (5,), (5,))
        table = compress(relation)
        assert len(table) == 1
        assert table.decompress() == relation

    def test_duplicate_rows_are_set_semantics(self):
        relation = LineageRelation.from_pairs(
            [((0,), (1,)), ((0,), (1,)), ((1,), (2,))], (3,), (3,)
        )
        table = compress(relation)
        assert table.decompress() == relation.deduplicated()

    def test_scalar_arrays_rejected(self):
        relation = LineageRelation((), (3,), np.empty((0, 1)))
        with pytest.raises(ValueError):
            compress(relation)

    def test_negative_like_offsets(self):
        # Shifted one-to-one lineage (e.g. roll): delta is non-zero but constant.
        pairs = [((i,), ((i + 3) % 10,)) for i in range(10)]
        relation = LineageRelation.from_pairs(pairs, (10,), (10,))
        table = compress(relation)
        assert table.decompress() == relation
        # two runs: the wrapped prefix and the shifted suffix
        assert len(table) <= 3

    def test_relative_disabled_still_lossless(self):
        relation = elementwise_lineage((9, 4))
        table = compress(relation, relative=False)
        assert table.decompress() == relation
        assert len(table) > 1  # without deltas the element-wise pattern cannot collapse


# ----------------------------------------------------------------------
# property-based losslessness
# ----------------------------------------------------------------------
def relation_strategy(max_out=5, max_in=5, max_rows=40, max_dims=2):
    @st.composite
    def build(draw):
        out_ndim = draw(st.integers(1, max_dims))
        in_ndim = draw(st.integers(1, max_dims))
        out_shape = tuple(draw(st.integers(1, max_out)) for _ in range(out_ndim))
        in_shape = tuple(draw(st.integers(1, max_in)) for _ in range(in_ndim))
        n_rows = draw(st.integers(0, max_rows))
        pairs = []
        for _ in range(n_rows):
            out_cell = tuple(draw(st.integers(0, d - 1)) for d in out_shape)
            in_cell = tuple(draw(st.integers(0, d - 1)) for d in in_shape)
            pairs.append((out_cell, in_cell))
        return LineageRelation.from_pairs(pairs, out_shape, in_shape)

    return build()


class TestLosslessnessProperties:
    @settings(max_examples=120, deadline=None)
    @given(relation_strategy())
    def test_backward_roundtrip(self, relation):
        table = compress(relation)
        assert table.decompress() == relation.deduplicated()

    @settings(max_examples=60, deadline=None)
    @given(relation_strategy())
    def test_roundtrip_without_relative_transform(self, relation):
        table = compress(relation, relative=False)
        assert table.decompress() == relation.deduplicated()

    @settings(max_examples=60, deadline=None)
    @given(relation_strategy())
    def test_compression_never_exceeds_input_rows(self, relation):
        table = compress(relation)
        assert len(table) <= max(len(relation.deduplicated()), 0) or len(relation) == 0

    @settings(max_examples=60, deadline=None)
    @given(relation_strategy(max_out=4, max_in=4, max_rows=25))
    def test_relative_rows_reference_valid_keys(self, relation):
        table = compress(relation)
        relative = table.val_kind == KIND_REL
        assert np.isin(table.val_kind, (KIND_ABS, KIND_REL)).all()
        assert ((0 <= table.val_ref[relative]) & (table.val_ref[relative] < table.key_ndim)).all()


# ----------------------------------------------------------------------
# the served-write class and the packed sort key's reach
# ----------------------------------------------------------------------
def churn_relation(side, seed):
    """Each cell of a ``side x side`` array reads itself and two cells up to
    three places away in row-major order (clipped at the ends): three rows
    per output cell that ProvRC mostly cannot merge, the rows a served
    write of small relations carries."""
    shape = (side, side)
    rng = np.random.default_rng(seed)
    cell = np.arange(side * side)
    near = [np.clip(cell + rng.integers(-3, 4, cell.size), 0, cell.size - 1) for _ in range(2)]
    out_flat = np.repeat(cell, 3)
    in_flat = np.stack([cell, *near], axis=1).reshape(-1)
    rows = np.concatenate(
        [np.stack(np.unravel_index(flat, shape), axis=1) for flat in (out_flat, in_flat)], axis=1
    )
    return LineageRelation(shape, shape, rows)


class TestServedWriteClass:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 32), st.integers(0, 2**32 - 1), st.booleans())
    def test_tables_match_the_loop_oracles(self, side, seed, relative):
        # the greedy scan's tie-break decides these rows: compress must emit
        # the oracle's table column for column, dtypes included
        relation = churn_relation(side, seed)
        rows = np.unique(relation.rows, axis=0)
        klo, khi, vlo, vhi = value_range_pass_reference(rows[:, :2], rows[:, 2:])
        vkind = np.zeros(vlo.shape, dtype=np.int8)
        vref = np.full(vlo.shape, -1, dtype=np.int16)
        want = key_range_pass_reference(klo, khi, vkind, vref, vlo, vhi, relative=relative)
        table = compress(relation, relative=relative)
        for name, column in zip(("key_lo", "key_hi", "val_kind", "val_ref", "val_lo", "val_hi"), want):
            got = getattr(table, name)
            assert got.dtype == column.dtype, name
            assert np.array_equal(got, column), name

    def test_wide_coordinates_keep_a_packed_key(self, monkeypatch):
        # 300 rows spread over 1000 x 1000 arrays: every sort key fits in
        # int64 once degenerate hi rows and constant refs are left out, so
        # no step falls back to an attribute-by-attribute lexsort
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 1000, size=(300, 4))
        rows[:2] = [[0, 0, 0, 0], [999, 999, 999, 999]]
        relation = LineageRelation((1000, 1000), (1000, 1000), rows)

        def no_lexsort(*args, **kwargs):
            raise AssertionError("np.lexsort fallback taken")

        monkeypatch.setattr(relation_module.np, "lexsort", no_lexsort)
        table = compress(relation)
        assert table.decompress() == relation
