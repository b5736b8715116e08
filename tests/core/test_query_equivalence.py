"""Equivalence of the vectorized kernels with the loop oracles.

The vectorized θ-join, segmented box merge and ProvRC key-pass run scan in
:mod:`repro.core.query` / :mod:`repro.core.provrc` must reproduce the
original per-row loop implementations (kept in ``tests/core/_reference.py``)
*exactly* — same rows, same order, same dtypes — on randomized 1-D/2-D/3-D
relations, including relative encodings, out-of-bounds queries and empty
results.  Seeded numpy generators keep every run reproducible.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.query as query_mod
from _reference import (
    decompress_reference,
    key_range_pass_reference,
    merge_boxes_reference,
    theta_join_reference,
    value_range_pass_reference,
)
from repro.capture.analytic import elementwise_lineage
from repro.core.compressed import KIND_ABS, KIND_REL, CompressedLineage, _stable_sort
from repro.core.provrc import _block, _columns, _key_pass, _value_pass, compress
from repro.core.query import (
    THETA_JOIN_BLOCK_BUDGET_BYTES,
    CellBoxSet,
    _candidate_pairs,
    execute_path,
    execute_path_batch,
    merge_boxes,
    theta_join,
)
from repro.core.relation import LineageRelation

SEEDS = [0, 1, 2, 3, 4]


# ProvRC's two passes run on one attribute-major table; these wrap each on
# ``(n, width)`` column blocks, the shape the loop oracles take and return.
def _value_range_pass(key_cols: np.ndarray, val_cols: np.ndarray) -> tuple:
    """The value pass on ``(n, width)`` column blocks of a deduplicated
    relation, returning ``(key_lo, key_hi, val_lo, val_hi)`` at the input
    widths (the pass only compares and regroups, so every value fits)."""
    l, m = key_cols.shape[1], val_cols.shape[1]
    table = _value_pass(np.concatenate((key_cols, val_cols), axis=1, dtype=np.int64).T.copy(), l)
    key_lo = _block(table[:l], key_cols.dtype)
    return key_lo, key_lo.copy(), _block(table[l : l + m], val_cols.dtype), _block(table[l + m :], val_cols.dtype)


def _key_range_pass(klo, khi, vkind, vref, vlo, vhi, relative: bool) -> tuple:
    """The key pass on ``(n, width)`` column blocks (``vkind`` is ``vref >=
    0``).  Keys return at their input width, and values too unless deltas,
    which can leave a narrow dtype's range, make them int64."""
    if klo.shape[0] == 0:
        return klo, khi, vkind, vref, vlo, vhi
    table = np.concatenate((klo, khi, vlo, vhi, vref), axis=1, dtype=np.int64).T.copy()
    val_dtype = np.dtype(np.int64) if relative else vlo.dtype
    return _columns(_key_pass(table, klo.shape[1], relative), klo.shape[1], klo.dtype, val_dtype)


def random_relation(rng, max_ndim=3, max_dim=6, max_rows=60):
    out_ndim = int(rng.integers(1, max_ndim + 1))
    in_ndim = int(rng.integers(1, max_ndim + 1))
    out_shape = tuple(int(rng.integers(1, max_dim)) for _ in range(out_ndim))
    in_shape = tuple(int(rng.integers(1, max_dim)) for _ in range(in_ndim))
    n = int(rng.integers(0, max_rows))
    pairs = []
    for _ in range(n):
        out_cell = tuple(int(rng.integers(0, d)) for d in out_shape)
        in_cell = tuple(int(rng.integers(0, d)) for d in in_shape)
        pairs.append((out_cell, in_cell))
    return LineageRelation.from_pairs(pairs, out_shape, in_shape)


def random_boxes(rng, ndim, n, coord_range=12, max_extent=4):
    lo = rng.integers(0, coord_range, size=(n, ndim)).astype(np.int64)
    hi = lo + rng.integers(0, max_extent + 1, size=(n, ndim)).astype(np.int64)
    return lo, hi


def assert_box_sets_identical(result, oracle):
    assert result.array_name == oracle.array_name
    assert result.shape == oracle.shape
    assert np.array_equal(result.lo, oracle.lo)
    assert np.array_equal(result.hi, oracle.hi)


class TestMergeBoxesEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_boxes_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(80):
            ndim = int(rng.integers(1, 4))
            n = int(rng.integers(0, 50))
            lo, hi = random_boxes(rng, ndim, n)
            got = merge_boxes(lo, hi)
            want = merge_boxes_reference(lo, hi)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_empty_input(self):
        lo = np.empty((0, 2), np.int64)
        got = merge_boxes(lo, lo)
        assert got[0].shape == (0, 2)

    def test_heavily_overlapping_single_group(self):
        # one long chain of touching intervals must collapse to one box
        starts = np.arange(0, 3000, 3)[:, None]
        lo = starts.astype(np.int64)
        hi = lo + 3  # touches the next interval
        mlo, mhi = merge_boxes(lo, hi)
        assert mlo.shape[0] == 1
        assert (int(mlo[0, 0]), int(mhi[0, 0])) == (0, 3000)
        ref = merge_boxes_reference(lo, hi)
        assert np.array_equal(mlo, ref[0]) and np.array_equal(mhi, ref[1])


class TestThetaJoinEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("side", ["output", "input"])
    @pytest.mark.parametrize("merge", [True, False])
    def test_random_relations_match_oracle(self, seed, side, merge):
        # a query over the output takes the θ-join, one over the input the
        # inverse θ-join — both over the one backward table
        rng = np.random.default_rng(seed)
        for _ in range(30):
            relation = random_relation(rng)
            table = compress(relation)
            shape = relation.out_shape if side == "output" else relation.in_shape
            name = relation.out_name if side == "output" else relation.in_name
            n_boxes = int(rng.integers(0, 8))
            lo, hi = random_boxes(rng, len(shape), n_boxes, coord_range=max(shape), max_extent=2)
            query = CellBoxSet(name, shape, lo, hi)
            got = theta_join(query, table, merge=merge)
            want = theta_join_reference(query, table, merge=merge)
            assert_box_sets_identical(got, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_relative_encoding_round_trip(self, seed):
        # elementwise lineage compresses to relative rows; the join must
        # de-relativize them identically to the oracle's per-axis loop
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(4, 40)),) * 2
        pairs = [(cell, cell) for cell in np.ndindex(*shape)]
        relation = LineageRelation.from_pairs(pairs, shape, shape)
        table = compress(relation)
        assert (table.val_kind == KIND_REL).any()
        cells = [
            tuple(int(rng.integers(0, d)) for d in shape) for _ in range(10)
        ]
        query = CellBoxSet.from_cells(relation.out_name, shape, cells)
        got = theta_join(query, table)
        want = theta_join_reference(query, table)
        assert_box_sets_identical(got, want)
        assert got.to_cells() == relation.backward(cells)

    def test_empty_query_and_empty_table(self):
        relation = random_relation(np.random.default_rng(0))
        table = compress(relation)
        empty = CellBoxSet.empty(relation.out_name, relation.out_shape)
        assert theta_join(empty, table).is_empty()

        no_rows = LineageRelation.from_pairs([], (4,), (4,))
        empty_table = compress(no_rows)
        query = CellBoxSet.from_cells(no_rows.out_name, (4,), [(1,)])
        assert theta_join(query, empty_table).is_empty()

    def test_no_match_returns_empty(self):
        relation = LineageRelation.from_pairs([((0,), (0,))], (8,), (8,))
        table = compress(relation)
        query = CellBoxSet.from_cells(relation.out_name, (8,), [(7,)])
        got = theta_join(query, table)
        want = theta_join_reference(query, table)
        assert got.is_empty() and want.is_empty()

    def test_blocked_join_matches_single_block(self, monkeypatch):
        # force a tiny block budget so a moderate query spans many blocks,
        # then check the result is identical to the unblocked oracle
        rng = np.random.default_rng(11)
        relation = random_relation(rng, max_ndim=2, max_dim=8, max_rows=120)
        table = compress(relation)
        shape = relation.out_shape
        lo, hi = random_boxes(rng, len(shape), 64, coord_range=max(shape), max_extent=1)
        query = CellBoxSet(relation.out_name, shape, lo, hi)

        stats = {}
        monkeypatch.setattr(query_mod, "THETA_JOIN_BLOCK_BUDGET_BYTES", 256)
        got = query_mod.theta_join(query, table, merge=False, stats=stats)
        monkeypatch.undo()
        want = theta_join_reference(query, table, merge=False)
        assert_box_sets_identical(got, want)
        if len(table) and len(query):
            assert stats["join_blocks"] > 1

    def test_block_stats_reported(self):
        relation = random_relation(np.random.default_rng(3))
        table = compress(relation)
        query = CellBoxSet.from_cells(
            relation.out_name, relation.out_shape, [tuple(0 for _ in relation.out_shape)]
        )
        stats = {}
        theta_join(query, table, stats=stats)
        assert stats["join_blocks"] == (1 if len(table) else 0)
        # 1000 disjoint span-4 key ranges, every other row relative: a box of
        # at most 8 cells meets at most 3 of them, and 100 such boxes fit one
        # chunk of pair scratch
        n_rows, span = 1000, 4
        starts = np.arange(n_rows, dtype=np.int64) * span
        kinds = np.where(np.arange(n_rows) % 2 == 0, KIND_REL, KIND_ABS).astype(np.int8)
        table = CompressedLineage(
            "B", "A", (n_rows * span,), (n_rows * span,),
            starts[:, None], starts[:, None] + span - 1,
            kinds[:, None], np.where(kinds == KIND_REL, 0, -1).astype(np.int16)[:, None],
            np.where(kinds == KIND_REL, 0, starts)[:, None],
            np.where(kinds == KIND_REL, span - 1, starts + span - 1)[:, None],
        )
        rng = np.random.default_rng(0)
        lo = rng.integers(0, n_rows * span - 8, size=(100, 1))
        query = CellBoxSet("B", table.key_shape, lo, lo + rng.integers(0, 8, (100, 1)))
        hop = execute_path([table], query).hops[0]
        assert hop.rows_scanned <= 3 * 100
        assert hop.join_blocks == 1


class TestKeyRangePassEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("key", ["output", "input"])
    @pytest.mark.parametrize("relative", [True, False])
    def test_random_relations_match_oracle(self, seed, key, relative):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            relation = random_relation(rng).deduplicated()
            l = relation.out_ndim
            if key == "output":
                key_cols, val_cols = relation.rows[:, :l], relation.rows[:, l:]
            else:
                key_cols, val_cols = relation.rows[:, l:], relation.rows[:, :l]
            klo, khi, vlo, vhi = _value_range_pass(key_cols, val_cols)
            vkind = np.zeros(vlo.shape, dtype=np.int8)
            vref = np.full(vlo.shape, -1, dtype=np.int16)
            args = (klo, khi, vkind, vref, vlo, vhi)
            got = _key_range_pass(*(a.copy() for a in args), relative=relative)
            want = key_range_pass_reference(*(a.copy() for a in args), relative=relative)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
                assert g.dtype == w.dtype

    @pytest.mark.parametrize("seed", SEEDS)
    def test_compress_decompress_round_trip(self, seed):
        rng = np.random.default_rng(seed + 100)
        for _ in range(10):
            relation = random_relation(rng)
            restored = compress(relation).decompress()
            assert restored.rows.tolist() == relation.deduplicated().rows.tolist()

    def test_empty_relation(self):
        relation = LineageRelation.from_pairs([], (3, 3), (3,))
        table = compress(relation)
        assert len(table) == 0
        assert table.decompress().rows.shape[0] == 0

    @pytest.mark.parametrize("n", [5000, 50_000])
    def test_structured_lineage_collapses_to_single_row(self, n):
        pairs = [((i,), (i,)) for i in range(n)]
        relation = LineageRelation.from_pairs(pairs, (n,), (n,))
        assert len(compress(relation)) == 1
        assert len(compress(relation, relative=False)) == n


TABLE_COLUMNS = ("key_lo", "key_hi", "val_kind", "val_ref", "val_lo", "val_hi")


def compress_oracle(relation, relative):
    """The six columns ProvRC must emit, from numpy's own row dedup and the
    two ``_reference`` passes."""
    rows = np.unique(relation.rows, axis=0) if len(relation) else relation.rows
    l = relation.out_ndim
    klo, khi, vlo, vhi = value_range_pass_reference(rows[:, :l], rows[:, l:])
    vkind = np.zeros(vlo.shape, dtype=np.int8)
    vref = np.full(vlo.shape, -1, dtype=np.int16)
    return key_range_pass_reference(klo, khi, vkind, vref, vlo, vhi, relative=relative)


def assert_table_is(table, columns):
    for name, want in zip(TABLE_COLUMNS, columns):
        got = getattr(table, name)
        assert np.array_equal(got, want), name
        assert got.dtype == want.dtype, name


class TestCompressEquivalence:
    """Whole ``compress`` runs — canonicalisation, value pass, key pass —
    against the oracle, bit for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("relative", [True, False])
    def test_backward_table_matches_oracle(self, seed, relative):
        rng = np.random.default_rng(seed + 4000)
        for _ in range(25):
            relation = random_relation(rng)  # keeps its duplicate rows
            assert_table_is(compress(relation, relative=relative), compress_oracle(relation, relative))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_indices_outside_the_declared_shape(self, seed):
        # negative and far-out indices change the packed key's radix, never
        # the table (compress does not validate against the shapes)
        rng = np.random.default_rng(seed + 5000)
        for _ in range(10):
            relation = random_relation(rng)
            relation.rows = relation.rows * int(rng.integers(1, 2**20)) - int(rng.integers(0, 2**40))
            assert_table_is(compress(relation), compress_oracle(relation, True))

    def test_value_pass_matches_reference_on_larger_relations(self):
        rng = np.random.default_rng(6000)
        for _ in range(10):
            relation = random_relation(rng, max_dim=9, max_rows=600).deduplicated()
            l = relation.out_ndim
            got = _value_range_pass(relation.rows[:, :l], relation.rows[:, l:])
            want = value_range_pass_reference(relation.rows[:, :l], relation.rows[:, l:])
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
                assert g.dtype == w.dtype


class TestDecompressEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("relative", [True, False])
    def test_rows_match_the_per_cell_loop(self, seed, relative):
        from repro.core.serialize import deserialize_compressed, serialize_compressed

        rng = np.random.default_rng(seed + 7000)
        for _ in range(15):
            relation = random_relation(rng)
            table = compress(relation, relative=relative)
            want = decompress_reference(table)
            hydrated = deserialize_compressed(serialize_compressed(table))  # narrow columns
            for got in (table.decompress(), hydrated.decompress()):
                assert np.array_equal(got.rows, want.rows)
                assert got.rows.dtype == want.rows.dtype
                assert (got.out_shape, got.in_shape) == (want.out_shape, want.in_shape)
            assert np.array_equal(want.rows, relation.deduplicated().rows)

    def test_shared_key_reference_expands_the_diagonal(self):
        # two value attributes relative to one key attribute: a diagonal,
        # not the box of the two de-relativized intervals
        pairs = [((i,), (i, i + 1)) for i in range(6)]
        table = compress(LineageRelation.from_pairs(pairs, (6,), (6, 7)))
        assert len(table) == 1 and table.shared_ref_mask is not None
        assert np.array_equal(table.decompress().rows, decompress_reference(table).rows)
        assert len(table.decompress()) == 6

    def test_empty_interval_is_rejected(self):
        table = compress(LineageRelation.from_pairs([((0,), (0,))], (2,), (2,)))
        table.key_hi = table.key_lo - 1
        for expand in (table.decompress, lambda: decompress_reference(table)):
            with pytest.raises(ValueError, match="empty interval"):
                expand()


class TestNarrowDtypeEquivalence:
    """Hydrated (narrow-dtype) tables must answer every kernel identically
    to their int64 originals AND to the loop oracles — the zero-copy fast
    path must not change a single output bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("side", ["output", "input"])
    def test_theta_join_on_hydrated_tables(self, seed, side):
        from repro.core.serialize import deserialize_compressed, serialize_compressed

        rng = np.random.default_rng(seed + 1000)
        narrow_seen = False
        for _ in range(25):
            relation = random_relation(rng)
            table = compress(relation)
            hydrated = deserialize_compressed(serialize_compressed(table))
            if len(table) and hydrated.key_lo.dtype != np.int64:
                narrow_seen = True
            shape = relation.out_shape if side == "output" else relation.in_shape
            name = relation.out_name if side == "output" else relation.in_name
            n_boxes = int(rng.integers(0, 8))
            lo, hi = random_boxes(rng, len(shape), n_boxes, coord_range=max(shape), max_extent=2)
            query = CellBoxSet(name, shape, lo, hi)
            got = theta_join(query, hydrated)
            want_int64 = theta_join(query, table)
            oracle = theta_join_reference(query, hydrated)
            for other in (want_int64, oracle):
                assert_box_sets_identical(got, other)
            assert got.lo.dtype == np.int64  # box sets stay canonical int64
        assert narrow_seen, "the hydration path never produced a narrow table"

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("relative", [True, False])
    def test_key_range_pass_on_narrow_columns(self, seed, relative):
        # feed the run scan int8 columns directly: output values must match
        # the oracle run on the same narrow inputs AND the int64 run
        rng = np.random.default_rng(seed + 2000)
        for _ in range(25):
            relation = random_relation(rng).deduplicated()
            l = relation.out_ndim
            key_cols, val_cols = relation.rows[:, :l], relation.rows[:, l:]
            klo, khi, vlo, vhi = _value_range_pass(
                key_cols.astype(np.int8), val_cols.astype(np.int8)
            )
            assert klo.dtype == np.int8  # the value pass preserved the width
            vkind = np.zeros(vlo.shape, dtype=np.int8)
            vref = np.full(vlo.shape, -1, dtype=np.int16)
            args = (klo, khi, vkind, vref, vlo, vhi)
            got = _key_range_pass(*(a.copy() for a in args), relative=relative)
            want = key_range_pass_reference(*(a.copy() for a in args), relative=relative)
            wide = _key_range_pass(
                *(a.astype(np.int64) for a in args[:2]),
                args[2].copy(),
                args[3].copy(),
                *(a.astype(np.int64) for a in args[4:]),
                relative=relative,
            )
            for g, w, x in zip(got, want, wide):
                assert np.array_equal(g, w)
                assert g.dtype == w.dtype
                assert np.array_equal(g, x)

    def test_narrow_contiguity_probe_does_not_wrap(self):
        # two int8 runs meeting exactly at the dtype ceiling: ``hi + 1``
        # wraps to -128 in int8, which would break the merge either way
        # (false merge or missed merge); the int64 probe must see 126|127
        # as contiguous and merge them
        klo = np.array([[126], [127]], dtype=np.int8)
        khi = np.array([[126], [127]], dtype=np.int8)
        vkind = np.zeros((2, 1), dtype=np.int8)
        vref = np.full((2, 1), -1, dtype=np.int16)
        vlo = np.zeros((2, 1), dtype=np.int8)
        vhi = np.zeros((2, 1), dtype=np.int8)
        got = _key_range_pass(klo, khi, vkind, vref, vlo, vhi, relative=True)
        assert got[0].shape[0] == 1
        assert int(got[0][0, 0]) == 126 and int(got[1][0, 0]) == 127

    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_boxes_on_narrow_inputs(self, seed):
        rng = np.random.default_rng(seed + 3000)
        for _ in range(40):
            ndim = int(rng.integers(1, 4))
            n = int(rng.integers(0, 40))
            lo, hi = random_boxes(rng, ndim, n)
            got = merge_boxes(lo.astype(np.int8), hi.astype(np.int8))
            want = merge_boxes_reference(lo, hi)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


class TestCountCells:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_mask_count(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            ndim = int(rng.integers(1, 4))
            shape = tuple(int(rng.integers(2, 100)) for _ in range(ndim))
            n = int(rng.integers(0, 101))
            lo = np.stack(
                [rng.integers(0, shape[d], size=n) for d in range(ndim)], axis=1
            ).astype(np.int64) if n else np.empty((0, ndim), np.int64)
            hi = np.minimum(
                lo + rng.integers(0, 4, size=(n, ndim)), np.asarray(shape) - 1
            ).astype(np.int64) if n else lo
            box_set = CellBoxSet("A", shape, lo, hi)
            count = box_set.count_cells()
            assert count == int(box_set.to_mask().sum())
            assert len(box_set.to_cells()) == count

    def test_large_sparse_boxes_never_materialize_mask(self):
        # 1e12-cell array: the old mask/cell-set fallbacks would be unusable
        shape = (1_000_000, 1_000_000)
        box_set = CellBoxSet.from_boxes(
            "A",
            shape,
            [
                [(0, 999_999), (0, 0)],  # full first column
                [(0, 0), (0, 999_999)],  # full first row (overlaps in (0, 0))
                [(500, 600), (500, 600)],  # interior block
            ],
        )
        assert box_set.count_cells() == 1_000_000 + 1_000_000 - 1 + 101 * 101


class TestFromCells:
    def test_out_of_bounds_cells_dropped_on_construction(self):
        box_set = CellBoxSet.from_cells("A", (4, 4), [(-1, 0), (1, 1), (4, 0), (2, 7)])
        assert box_set.to_cells() == {(1, 1)}

    def test_all_out_of_bounds_gives_empty(self):
        box_set = CellBoxSet.from_cells("A", (4,), [(-3,), (9,)])
        assert box_set.is_empty()

    def test_accepts_ndarray_input(self):
        cells = np.array([[0, 0], [0, 1], [0, 2]])
        box_set = CellBoxSet.from_cells("A", (4, 4), cells)
        assert len(box_set) == 1
        assert box_set.count_cells() == 3

    def test_wrong_arity_raises(self):
        with pytest.raises(ValueError):
            CellBoxSet.from_cells("A", (4, 4), [(1, 2, 3)])


# ----------------------------------------------------------------------
# batched kernels vs the loop-over-queries oracles
# ----------------------------------------------------------------------
def random_chain(rng, max_hops=3, max_dim=6, max_rows=50, mixed=False):
    """A chain of compressed hop tables n0 -> n1 -> ... plus n0's shape;
    with *mixed*, each hop's relation points either way (a hop from its
    input side is an inverse θ-join)."""
    hops = int(rng.integers(1, max_hops + 1))
    ndims = [int(rng.integers(1, 3)) for _ in range(hops + 1)]
    shapes = [
        tuple(int(rng.integers(1, max_dim)) for _ in range(nd)) for nd in ndims
    ]
    tables = []
    for k in range(hops):
        n = int(rng.integers(0, max_rows))
        pairs = []
        for _ in range(n):
            out_cell = tuple(int(rng.integers(0, d)) for d in shapes[k])
            in_cell = tuple(int(rng.integers(0, d)) for d in shapes[k + 1])
            pairs.append((out_cell, in_cell))
        relation = LineageRelation.from_pairs(
            pairs, shapes[k], shapes[k + 1], out_name=f"n{k}", in_name=f"n{k + 1}"
        )
        if mixed and rng.integers(0, 2):
            relation = LineageRelation.from_pairs(
                [(b, a) for a, b in pairs], shapes[k + 1], shapes[k],
                out_name=f"n{k + 1}", in_name=f"n{k}",
            )
        tables.append(compress(relation))
    return tables, shapes[0]


def random_query_batch(rng, name, shape, max_queries=8, max_boxes=4):
    n_queries = int(rng.integers(0, max_queries + 1))
    queries = []
    for _ in range(n_queries):
        n_boxes = int(rng.integers(0, max_boxes + 1))
        lo, hi = random_boxes(rng, len(shape), n_boxes, coord_range=max(shape), max_extent=2)
        queries.append(CellBoxSet(name, shape, lo, hi))
    return queries


def assert_hops_identical(got_hops, want_hops):
    """Hop lists match field-for-field, excluding wall time (``seconds``)
    and ``join_blocks`` (the batch shares one blocked pass per hop)."""
    assert len(got_hops) == len(want_hops)
    for got, want in zip(got_hops, want_hops):
        assert got.array_from == want.array_from
        assert got.array_to == want.array_to
        assert got.rows_scanned == want.rows_scanned
        assert got.boxes_in == want.boxes_in
        assert got.boxes_out_raw == want.boxes_out_raw
        assert got.boxes_out_merged == want.boxes_out_merged


def execute_path_oracle(tables, query, merge):
    """The hop chain on the loop oracles alone: ``theta_join_reference``
    unmerged, then ``merge_boxes_reference``, one query at a time.  Returns
    the final box set and per hop ``(from, to, boxes_in, raw, merged)``."""
    current, hops = query, []
    for table in tables:
        joined = theta_join_reference(current, table, merge=False)
        raw = len(joined)
        if merge:
            joined = CellBoxSet(
                joined.array_name, joined.shape, *merge_boxes_reference(joined.lo, joined.hi)
            )
        hops.append((current.array_name, joined.array_name, len(current), raw, len(joined)))
        current = joined
        if current.is_empty():
            break
    return current, hops


def assert_path_results_match_oracle(tables, queries, merge):
    """A batch of N equals the loop oracle chained per query *and* N
    batches of one (``execute_path``), cells and hop statistics alike."""
    batch = execute_path_batch(tables, queries, merge=merge)
    assert len(batch) == len(queries)
    for query, got in zip(queries, batch):
        want_cells, want_hops = execute_path_oracle(tables, query, merge)
        assert_box_sets_identical(got.cells, want_cells)
        got_hops = [
            (h.array_from, h.array_to, h.boxes_in, h.boxes_out_raw, h.boxes_out_merged)
            for h in got.hops
        ]
        assert got_hops == want_hops
        alone = execute_path(tables, query, merge=merge)
        assert_box_sets_identical(got.cells, alone.cells)
        assert_hops_identical(got.hops, alone.hops)
    return batch


def merge_per_query_oracle(lo, hi, qid):
    """``merge_boxes_reference`` on each query's boxes alone, re-stacked in
    ascending query order."""
    parts = [
        (*merge_boxes_reference(lo[qid == q], hi[qid == q]), q) for q in np.unique(qid)
    ]
    if not parts:
        return lo[:0], hi[:0], qid[:0]
    return (
        np.concatenate([p[0] for p in parts], axis=0),
        np.concatenate([p[1] for p in parts], axis=0),
        np.concatenate([np.full(p[0].shape[0], p[2], np.int64) for p in parts]),
    )


class TestMergeBoxesBatchEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_batches_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            ndim = int(rng.integers(1, 4))
            n = int(rng.integers(0, 60))
            n_queries = int(rng.integers(1, 6))
            lo, hi = random_boxes(rng, ndim, n)
            qid = np.sort(rng.integers(0, n_queries, size=n)).astype(np.int64)
            got = merge_boxes(lo, hi, qid)
            want = merge_per_query_oracle(lo, hi, qid)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_query_batch_is_the_plain_merge(self, seed):
        # every box in one query: the group column is left out
        rng = np.random.default_rng(seed)
        lo, hi = random_boxes(rng, 2, 40)
        qid = np.full(40, 3, np.int64)
        out_lo, out_hi, out_qid = merge_boxes(lo, hi, qid)
        want_lo, want_hi = merge_boxes_reference(lo, hi)
        assert np.array_equal(out_lo, want_lo) and np.array_equal(out_hi, want_hi)
        assert np.array_equal(out_qid, np.full(want_lo.shape[0], 3))

    def test_qid_segments_stay_contiguous_and_ordered(self):
        rng = np.random.default_rng(7)
        lo, hi = random_boxes(rng, 2, 40)
        qid = np.sort(rng.integers(0, 5, size=40)).astype(np.int64)
        _, _, out_qid = merge_boxes(lo, hi, qid)
        assert np.array_equal(out_qid, np.sort(out_qid))

    def test_empty(self):
        lo = np.empty((0, 2), np.int64)
        qid = np.empty((0,), np.int64)
        got = merge_boxes(lo, lo, qid)
        assert got[0].shape == (0, 2) and got[2].shape == (0,)

    def test_identical_queries_merge_independently(self):
        # two queries with the same boxes must each keep their own copy —
        # the qid axis must prevent cross-query coalescing
        lo = np.array([[0], [0]], np.int64)
        hi = np.array([[3], [3]], np.int64)
        qid = np.array([0, 1], np.int64)
        out_lo, out_hi, out_qid = merge_boxes(lo, hi, qid)
        assert out_lo.shape == (2, 1)
        assert np.array_equal(out_qid, [0, 1])


def assert_joins_match_oracle(queries, table, merge):
    """One hop over a batch of N equals ``theta_join_reference`` per query
    and N batches of one."""
    got = execute_path_batch([table], queries, merge=merge)
    assert len(got) == len(queries)
    for query, g in zip(queries, got):
        assert_box_sets_identical(g.cells, theta_join_reference(query, table, merge=merge))
        (alone,) = execute_path_batch([table], [query], merge=merge)
        assert_box_sets_identical(g.cells, alone.cells)
    return got


class TestThetaJoinBatchEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("side", ["output", "input"])
    @pytest.mark.parametrize("merge", [True, False])
    def test_random_batches_match_oracle(self, seed, side, merge):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            relation = random_relation(rng)
            table = compress(relation)
            shape = relation.out_shape if side == "output" else relation.in_shape
            name = relation.out_name if side == "output" else relation.in_name
            queries = random_query_batch(rng, name, shape)
            assert_joins_match_oracle(queries, table, merge)

    def test_empty_batch(self):
        relation = random_relation(np.random.default_rng(0))
        table = compress(relation)
        assert execute_path_batch([table], []) == []

    def test_blocked_batch_matches_oracle(self, monkeypatch):
        rng = np.random.default_rng(13)
        relation = random_relation(rng, max_ndim=2, max_dim=8, max_rows=120)
        table = compress(relation)
        shape = relation.out_shape
        queries = random_query_batch(rng, relation.out_name, shape, max_queries=16, max_boxes=6)
        monkeypatch.setattr(query_mod, "THETA_JOIN_BLOCK_BUDGET_BYTES", 256)
        results = assert_joins_match_oracle(queries, table, False)
        if len(table) and sum(len(q) for q in queries):
            assert results[0].hops[0].join_blocks > 1

    def test_wrong_array_name_raises(self):
        relation = random_relation(np.random.default_rng(1))
        table = compress(relation)
        bad = CellBoxSet.empty("someone-else", (3,) * table.key_ndim)
        with pytest.raises(ValueError):
            execute_path_batch([table], [bad])

    @pytest.mark.parametrize("merge", [True, False])
    @pytest.mark.parametrize("budget", [40, 70, THETA_JOIN_BLOCK_BUDGET_BYTES])
    def test_rows_come_back_in_query_order(self, monkeypatch, merge, budget):
        # The kernel's order contract.  Diagonal lineage (two value
        # attributes relative to one key attribute) is expanded per key
        # point *behind* every exact pair of the whole batch, so queries
        # with a multi-index intersection on it interleave with queries
        # that have none; at 33 B of scratch per pair (every box here has
        # one candidate row) the budgets put one box, or two, in a chunk, so
        # chunk boundaries fall inside one query's boxes, between queries,
        # and chunks straddle two queries.
        pairs = [((i,), (i, i + 1)) for i in range(6)] + [((i,), (0, i)) for i in range(6, 12)]
        first = compress(
            LineageRelation.from_pairs(pairs, (12,), (12, 13), out_name="n0", in_name="n1")
        )
        assert first.shared_ref_mask is not None
        rng = np.random.default_rng(5)
        second = compress(
            LineageRelation.from_pairs(
                [((int(i), int(j)), (int(k),)) for i, j, k in rng.integers(0, 12, (80, 3))],
                (12, 13), (12,), out_name="n1", in_name="n2",
            )
        )

        def boxes(*intervals):
            lo, hi = zip(*intervals)
            return CellBoxSet("n0", (12,), np.array(lo)[:, None], np.array(hi)[:, None])

        queries = [
            boxes((0, 3)),  # expanded only
            boxes((1, 1), (7, 7)),  # exact only
            boxes((2, 4), (6, 9), (5, 5)),  # both, over three chunks
            CellBoxSet.empty("n0", (12,)),
            boxes((8, 11), (0, 5)),  # exact first, then expanded
            boxes((10, 10)),
        ]
        monkeypatch.setattr(query_mod, "THETA_JOIN_BLOCK_BUDGET_BYTES", budget)
        lo, hi, qid, _ = query_mod._stack_box_sets(queries)
        stats = {}
        *_, out_qid, _ = query_mod._theta_join_batch_raw(first, lo, hi, qid, stats=stats)
        assert (np.diff(out_qid) >= 0).all()
        assert set(out_qid.tolist()) == {0, 1, 2, 4, 5}
        assert stats["join_blocks"] == {40: 9, 70: 5}.get(budget, 1)  # of 9 boxes
        assert_joins_match_oracle(queries, first, merge)
        assert_path_results_match_oracle([first, second], queries, merge)


class TestExecutePathBatchEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("merge", [True, False])
    def test_random_chains_match_oracle(self, seed, merge):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            tables, shape = random_chain(rng)
            queries = random_query_batch(rng, tables[0].key_name, shape)
            assert_path_results_match_oracle(tables, queries, merge)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("merge", [True, False])
    def test_random_mixed_direction_chains_match_oracle(self, seed, merge):
        rng = np.random.default_rng(seed + 9000)
        for _ in range(25):
            tables, shape = random_chain(rng, mixed=True)
            queries = random_query_batch(rng, "n0", shape)
            assert_path_results_match_oracle(tables, queries, merge)

    @pytest.mark.parametrize("merge", [True, False])
    @pytest.mark.parametrize("budget", [40, 70, THETA_JOIN_BLOCK_BUDGET_BYTES])
    def test_forward_batch_is_n_single_runs(self, monkeypatch, merge, budget):
        # The inverse join's order contract: N forward queries in one batch
        # come back bit for bit as N runs alone, whatever the chunking (a
        # diagonal row, broadcast rows, and relative rows in one table)
        pairs = (
            [((i,), (i, i + 1)) for i in range(6)]
            + [((i,), (0, j)) for i in range(6, 9) for j in range(13)]
            + [((i,), (i - 3, 2)) for i in range(9, 12)]
        )
        relation = LineageRelation.from_pairs(pairs, (12,), (12, 13), out_name="n0", in_name="n1")
        table = compress(relation)
        assert table.shared_ref_mask is not None
        rng = np.random.default_rng(11)
        queries = [CellBoxSet.empty("n1", (12, 13))] + [
            CellBoxSet("n1", (12, 13), *random_boxes(rng, 2, int(n), coord_range=13, max_extent=3))
            for n in rng.integers(1, 5, 7)
        ]
        monkeypatch.setattr(query_mod, "THETA_JOIN_BLOCK_BUDGET_BYTES", budget)
        batch = execute_path_batch([table], queries, merge=merge)
        for query, got in zip(queries, batch):
            alone = execute_path([table], query, merge=merge)
            assert_box_sets_identical(got.cells, alone.cells)
            assert_hops_identical(got.hops, alone.hops)
            assert got.cells.to_cells() == relation.forward(query.to_cells())
        assert_joins_match_oracle(queries, table, merge)

    def test_early_exit_per_query(self):
        # query 0 dies at hop 1 of 2; query 1 survives both hops — each
        # must get exactly the hop list it records alone
        r1 = LineageRelation.from_pairs(
            [((0,), (0,))], (4,), (4,), out_name="C", in_name="B"
        )
        r2 = LineageRelation.from_pairs(
            [((i,), (i,)) for i in range(4)], (4,), (4,), out_name="B", in_name="A"
        )
        tables = [compress(r1), compress(r2)]
        dead = CellBoxSet.from_cells("C", (4,), [(3,)])  # no lineage rows
        live = CellBoxSet.from_cells("C", (4,), [(0,)])
        got = assert_path_results_match_oracle(tables, [dead, live], True)
        assert len(got[0].hops) == 1 and len(got[1].hops) == 2
        # the dead query's empty result lives on the array where it died
        assert got[0].cells.array_name == "B"
        assert got[1].cells.array_name == "A"

    def test_a_batch_is_one_kernel_pass_per_hop(self, monkeypatch):
        # 64 queries down a 3-hop chain share one θ-join pass per hop; as 64
        # batches of one they make 64 passes per hop
        calls = []
        kernel = query_mod._theta_join_batch_raw

        def counted(table, *args, **kwargs):
            calls.append(table.key_name)
            return kernel(table, *args, **kwargs)

        monkeypatch.setattr(query_mod, "_theta_join_batch_raw", counted)
        names = ["n0", "n1", "n2", "n3"]
        identity = [((i,), (i,)) for i in range(64)]
        tables = [
            compress(LineageRelation.from_pairs(identity, (64,), (64,), out_name=a, in_name=b))
            for a, b in zip(names, names[1:])
        ]
        queries = [CellBoxSet.from_cells("n0", (64,), [(i,)]) for i in range(64)]
        results = execute_path_batch(tables, queries)
        assert calls == names[:-1]
        assert all(len(r.hops) == 3 and r.count_cells() == 1 for r in results)
        calls.clear()
        for query in queries:
            execute_path(tables, query)
        assert len(calls) == 64 * len(tables)

    def test_empty_batch_and_empty_chain(self):
        assert execute_path_batch([], []) == []
        query = CellBoxSet.from_cells("X", (3,), [(1,)])
        results = execute_path_batch([], [query])
        assert len(results) == 1
        assert results[0].cells is query and results[0].hops == []

    def test_table_without_the_query_array_is_rejected(self):
        # every hop is checked, as theta_join checks its one: a table joins
        # from either of its arrays and from no third one
        b_of_a, d_of_c = (compress(elementwise_lineage((4,), in_name=i, out_name=o)) for i, o in ("AB", "CD"))
        query = CellBoxSet.from_cells("B", (4,), [(1,)])
        with pytest.raises(ValueError, match="the query targets 'A'"):
            execute_path_batch([b_of_a, d_of_c], [query])
        with pytest.raises(ValueError, match="the query targets 'B'"):
            execute_path([d_of_c], query)


# ----------------------------------------------------------------------
# the window index: candidates cover the matches, answers equal the oracle
# ----------------------------------------------------------------------
COLUMN_DTYPES = [np.int8, np.int16, np.int64]


@st.composite
def int_columns(draw, rows, width, low, high, dtype):
    cells = st.lists(st.integers(low, high), min_size=width, max_size=width)
    data = draw(st.lists(cells, min_size=rows, max_size=rows))
    return np.asarray(data, dtype=dtype).reshape(rows, width)


@st.composite
def hand_built_tables(draw, key_name, value_name, key_shape, value_shape):
    """A table no compressor made: rows in any order (so the index has to
    ``argsort``), key intervals nested and overlapping on every attribute
    (so the window start needs the running maximum), narrow column dtypes,
    per-row value encodings with shared key references, or no rows at all."""
    nkey, nval = len(key_shape), len(value_shape)
    rows = draw(st.integers(0, 14))
    key_dtype = draw(st.sampled_from(COLUMN_DTYPES))
    val_dtype = draw(st.sampled_from(COLUMN_DTYPES))
    key_lo = draw(int_columns(rows, nkey, 0, 11, key_dtype))
    key_hi = key_lo + draw(int_columns(rows, nkey, 0, 6, key_dtype))
    if draw(st.booleans()):  # stored in index order: the no-argsort branch
        order = np.argsort(key_lo[:, 0], kind="stable")
        key_lo, key_hi = key_lo[order], key_hi[order]
    val_kind = draw(int_columns(rows, nval, 0, 1, np.int8))
    val_ref = draw(int_columns(rows, nval, 0, nkey - 1, np.int16))
    val_ref[val_kind != KIND_REL] = -1
    val_lo = draw(int_columns(rows, nval, -3, 8, val_dtype))
    val_hi = val_lo + draw(int_columns(rows, nval, 0, 3, val_dtype))
    return CompressedLineage(
        key_name, value_name, key_shape, value_shape,
        key_lo, key_hi, val_kind, val_ref, val_lo, val_hi,
    )


@st.composite
def box_sets(draw, name, shape):
    """Boxes that overlap the key range, miss it on either side, and repeat."""
    ndim = len(shape)
    n = draw(st.integers(0, 6))
    lo = draw(int_columns(n, ndim, -6, 24, np.int64))
    hi = lo + draw(int_columns(n, ndim, 0, 5, np.int64))
    # ends past the int8 / int16 range of a narrow index
    lo -= draw(st.sampled_from([0, 0, 200, 40_000]))
    hi += draw(st.sampled_from([0, 0, 200, 40_000]))
    if n and draw(st.booleans()):
        lo, hi = np.concatenate([lo, lo[:2]]), np.concatenate([hi, hi[:2]])
    return CellBoxSet(name, shape, lo, hi)


@st.composite
def join_cases(draw):
    """A two-hop chain of tables keyed ``n0 -> n1 -> n2`` and a batch of
    queries on ``n0`` — or, inverse, the chain reversed and the queries on
    ``n2``, so every hop is an inverse θ-join — plus a pair-scratch budget
    (a few pairs per chunk, or the default)."""
    shapes = [(10,) * draw(st.integers(1, 3)) for _ in range(3)]
    tables = [
        draw(hand_built_tables(f"n{k}", f"n{k + 1}", shapes[k], shapes[k + 1]))
        for k in range(2)
    ]
    start = 0
    if draw(st.booleans()):
        tables, start = tables[::-1], 2
    queries = draw(st.lists(box_sets(f"n{start}", shapes[start]), min_size=1, max_size=4))
    budget = draw(st.sampled_from([100, THETA_JOIN_BLOCK_BUDGET_BYTES]))
    return tables, queries, budget


def index_intervals(table, inverse):
    """The per-row intervals a join's window index covers: the key boxes,
    or (inverse) each row's reach on the value axes, attribute by
    attribute."""
    if not inverse:
        return table.key_lo.astype(np.int64), table.key_hi.astype(np.int64)
    lo = table.val_lo.astype(np.int64)
    hi = table.val_hi.astype(np.int64)
    for r, i in zip(*np.nonzero(table.val_kind == KIND_REL)):
        j = table.val_ref[r, i]
        lo[r, i] += table.key_lo[r, j]
        hi[r, i] += table.key_hi[r, j]
    return lo, hi


@contextlib.contextmanager
def pair_budget(budget):
    """Run the kernels under another ``THETA_JOIN_BLOCK_BUDGET_BYTES``
    (``monkeypatch`` is function-scoped and cannot reset per example)."""
    old = query_mod.THETA_JOIN_BLOCK_BUDGET_BYTES
    query_mod.THETA_JOIN_BLOCK_BUDGET_BYTES = budget
    try:
        yield
    finally:
        query_mod.THETA_JOIN_BLOCK_BUDGET_BYTES = old


def mean_windows(lo_cols, hi_cols):
    """Per attribute: the mean number of rows the window index would name
    for one index point, over every point of the attribute's extent."""
    means = []
    for attr in range(lo_cols.shape[1]):
        lo, hi = lo_cols[:, attr], hi_cols[:, attr]
        order = np.argsort(lo, kind="stable")
        lo, reach = lo[order], np.maximum.accumulate(hi[order])
        points = np.arange(lo.min(), hi.max() + 1)
        windows = np.searchsorted(lo, points, "right") - np.searchsorted(reach, points, "left")
        means.append(windows.mean())
    return np.round(means, 9)  # ties go to the lower attribute


class TestWindowIndexProperty:
    @given(join_cases())
    @settings(max_examples=300, deadline=None)
    def test_candidates_cover_the_matches(self, case):
        (table, _), queries, budget = case
        lo = np.concatenate([q.lo for q in queries])
        hi = np.concatenate([q.hi for q in queries])
        if len(table) == 0 or lo.shape[0] == 0:
            return  # the kernel returns before it asks for candidates
        inverse = queries[0].array_name != table.key_name
        row_lo, row_hi = index_intervals(table, inverse)
        # every match meets the row's intervals on every attribute
        overlap = ((row_lo[None, :, :] <= hi[:, None, :]) & (row_hi[None, :, :] >= lo[:, None, :])).all(axis=2)
        index = table.value_index if inverse else table.key_index
        width = table.key_ndim + inverse
        with pair_budget(budget):
            count, chunks = _candidate_pairs(index, lo, hi, width)
            chunks = list(chunks)
        pairs = [pair for chunk in chunks for pair in zip(*map(np.ndarray.tolist, chunk))]
        # (box, stored row) order, no pair twice, every true match present
        assert pairs == sorted(set(pairs))
        assert count.tolist() == [sum(box == b for box, _ in pairs) for b in range(lo.shape[0])]
        assert set(zip(*map(np.ndarray.tolist, np.nonzero(overlap)))) <= set(pairs)
        # chunks are runs of whole boxes within the budget (or one wide box)
        bytes_per_pair = 16 * width + 17
        for box_idx, _ in chunks:
            assert box_idx.size * bytes_per_pair <= budget or len(set(box_idx.tolist())) == 1
        attr, order, index_lo, reach = index
        assert (order is None) == bool((np.diff(row_lo[:, attr]) >= 0).all())
        assert (np.diff(index_lo) >= 0).all() and (np.diff(reach) >= 0).all()
        if not inverse:  # the key index keeps the stored width
            assert index_lo.dtype == table.key_lo.dtype and reach.dtype == table.key_hi.dtype
        # the indexed attribute has the smallest mean window over its extent
        assert attr == int(np.argmin(mean_windows(row_lo, row_hi)))

    @given(join_cases(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_every_entry_point_matches_the_loop_oracle(self, case, merge):
        tables, queries, budget = case
        stats = {}
        with pair_budget(budget):
            single = [theta_join(q, tables[0], merge=merge, stats=stats) for q in queries]
            batch = [r.cells for r in execute_path_batch(tables[:1], queries, merge=merge)]
            paths = [execute_path(tables, q, merge=merge) for q in queries]
            path_batch = execute_path_batch(tables, queries, merge=merge)
        for q, got, in_batch, path, in_path_batch in zip(
            queries, single, batch, paths, path_batch
        ):
            want = theta_join_reference(q, tables[0], merge=merge)
            assert_box_sets_identical(got, want)
            assert_box_sets_identical(in_batch, want)
            assert got.lo.dtype == np.int64 and in_batch.lo.dtype == np.int64
            want, _ = execute_path_oracle(tables, q, merge)
            assert_box_sets_identical(path.cells, want)
            assert_box_sets_identical(in_path_batch.cells, want)
            assert_hops_identical(in_path_batch.hops, path.hops)
        # rows_scanned is the candidate pairs of the query's own boxes
        last = queries[-1]
        if len(tables[0]) and len(last):
            inverse = last.array_name != tables[0].key_name
            index = tables[0].value_index if inverse else tables[0].key_index
            count, _ = _candidate_pairs(index, last.lo, last.hi, 1)
            assert stats["rows_scanned"] == int(count.sum()) <= len(last) * len(tables[0])
            assert paths[-1].hops[0].rows_scanned == stats["rows_scanned"]

    @given(
        st.sampled_from(COLUMN_DTYPES),
        st.lists(st.integers(-130, 130), min_size=2, max_size=40),
        st.sampled_from([1, 1, 400, 2**33]),
    )
    @settings(max_examples=300, deadline=None)
    def test_stable_sort_is_a_stable_argsort(self, dtype, values, stretch):
        # permutations (placed by value), duplicates (the packed sort) and
        # spans past 2**31 (numpy's own stable sort), at every width
        if dtype != np.int64:
            stretch = 1
        column = np.asarray(values, np.int64) * stretch
        column = column.clip(np.iinfo(dtype).min, np.iinfo(dtype).max).astype(dtype)
        order, ordered = _stable_sort(column)
        want = np.argsort(column, kind="stable")
        assert np.array_equal(order, want) and np.array_equal(ordered, column[want])
        assert ordered.dtype == column.dtype

    @pytest.mark.parametrize("side", ["output", "input"])
    def test_row_broadcast_table_is_indexed_on_the_attribute_that_differs(self, side):
        # out[i, j] = in[perm[j]]: keyed on the output every row spans
        # attribute 0 (the broadcast axis), so only attribute 1 can narrow;
        # from the input, each row reaches one input cell
        rng = np.random.default_rng(7)
        n_rows, n_cols = 6, 400
        perm = rng.permutation(n_cols)
        out_cells = np.stack(np.meshgrid(np.arange(n_rows), np.arange(n_cols), indexing="ij"), -1)
        out_cells = out_cells.reshape(-1, 2)
        rows = np.concatenate([out_cells, perm[out_cells[:, 1:]]], axis=1)
        relation = LineageRelation((n_rows, n_cols), (n_cols,), rows)
        table = compress(relation)
        assert len(table) > n_cols // 2
        if side == "output":
            cells = rng.integers(0, [n_rows, n_cols], (25, 2))
            query = CellBoxSet.from_cells(relation.out_name, relation.out_shape, cells)
        else:
            cells = rng.integers(0, [n_cols], (25, 1))
            query = CellBoxSet.from_cells(relation.in_name, relation.in_shape, cells)
        stats = {}
        got = theta_join(query, table, merge=False, stats=stats)
        assert_box_sets_identical(got, theta_join_reference(query, table, merge=False))
        assert table.key_index[0] == table.key_ndim - 1
        assert stats["rows_scanned"] <= len(cells)  # one candidate row per cell
