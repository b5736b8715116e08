"""End-to-end tests for the DSLog public API."""

import gc
import sys
import threading

import numpy as np
import pytest

from repro import DSLog
from repro import dslog as dslog_module
from repro.capture.analytic import axis_reduction_lineage, elementwise_lineage
from repro.core.compressed import CompressedLineage
from repro.core.query import CellBoxSet
from repro.core.reference import query_path_reference
from repro.core.relation import LineageRelation


def build_pipeline(log: DSLog):
    """A (6,4) -> B (6,4) element-wise -> C (6,) axis sum."""
    log.define_array("A", (6, 4))
    log.define_array("B", (6, 4))
    log.define_array("C", (6,))
    log.add_lineage("A", "B", relation=elementwise_lineage((6, 4)), op_name="negative")
    relation = axis_reduction_lineage((6, 4), axis=1, in_name="B", out_name="C")
    log.add_lineage("B", "C", relation=relation, op_name="sum_axis1")


class TestDefineAndIngest:
    def test_define_array(self):
        log = DSLog()
        info = log.define_array("A", (3, 2))
        assert info.shape == (3, 2)

    def test_add_lineage_from_relation(self):
        log = DSLog()
        build_pipeline(log)
        assert len(log.catalog) == 2

    def test_add_lineage_from_capture(self):
        log = DSLog()
        log.define_array("A", (3, 2))
        log.define_array("B", (3,))
        log.add_lineage("A", "B", capture=lambda out: [(out[0], c) for c in range(2)])
        entry = log.catalog.entry("A", "B")
        assert entry.backward.decompress().backward([(1,)]) == {(1, 0), (1, 1)}

    def test_add_lineage_requires_relation_or_capture(self):
        log = DSLog()
        log.define_array("A", (3,))
        log.define_array("B", (3,))
        with pytest.raises(ValueError):
            log.add_lineage("A", "B")

    def test_shape_mismatch_rejected(self):
        log = DSLog()
        log.define_array("A", (4,))
        log.define_array("B", (4,))
        wrong = elementwise_lineage((5,))
        with pytest.raises(ValueError):
            log.add_lineage("A", "B", relation=wrong)

    def test_on_disk_flush(self, tmp_path):
        log = DSLog(root=tmp_path / "db")
        build_pipeline(log)
        assert log.storage_bytes() > 0
        # every ingest was published: a second open (no close) sees both entries
        reopened = DSLog.load(tmp_path / "db")
        assert len(reopened.catalog) == 2
        assert reopened.storage_bytes() == log.storage_bytes()
        assert reopened.prov_query(["C", "B", "A"], [(2,)]).to_cells() == {
            (2, c) for c in range(4)
        }


class TestBackendFollowsRoot:
    """``backend`` is not a choice: it is read off ``store`` (a root means
    the durable store, no root means memory), and naming anything else
    raises."""

    def test_derived_from_the_store(self, tmp_path):
        assert DSLog().backend == "memory" and DSLog().store is None
        durable = DSLog(tmp_path / "db")
        assert durable.backend == "sharded" and durable.store is not None
        with durable.snapshot() as view:
            assert view.backend == "sharded"  # the view reads the same store
        with pytest.raises(AttributeError):
            durable.backend = "memory"
        durable.close()

    def test_the_implied_name_is_accepted(self, tmp_path):
        assert DSLog(backend="memory").backend == "memory"
        log = DSLog(tmp_path / "db", backend="sharded", num_shards=1)
        assert log.store.num_shards == 1
        log.close()

    @pytest.mark.parametrize("backend", ["segment", "memory", "bogus"])
    def test_contradicting_a_root_raises(self, tmp_path, backend):
        with pytest.raises(ValueError, match="backend="):
            DSLog(tmp_path / "db", backend=backend)
        assert not (tmp_path / "db").exists()  # refused before touching disk

    @pytest.mark.parametrize("backend", ["segment", "sharded"])
    def test_durable_names_without_a_root_raise(self, backend):
        with pytest.raises(ValueError, match="backend="):
            DSLog(backend=backend)

    def test_memory_log_has_nothing_to_compact_or_scrub(self):
        log = DSLog()
        assert log.sync() is None
        for call in (log.compact, log.scrub):
            with pytest.raises(RuntimeError, match="durable log"):
                call()
        log.close()


class TestQueries:
    def test_forward_path_query(self):
        log = DSLog()
        build_pipeline(log)
        cells = [(0, 0), (3, 2)]
        result = log.prov_query(["A", "B", "C"], cells)
        expected = query_path_reference(
            [elementwise_lineage((6, 4)), axis_reduction_lineage((6, 4), axis=1, in_name="B", out_name="C")],
            ["forward", "forward"],
            cells,
        )
        assert result.to_cells() == expected

    def test_backward_path_query(self):
        log = DSLog()
        build_pipeline(log)
        result = log.prov_query(["C", "B", "A"], [(2,)])
        assert result.to_cells() == {(2, c) for c in range(4)}

    def test_query_with_slices(self):
        log = DSLog()
        build_pipeline(log)
        result = log.prov_query(["A", "B", "C"], [slice(0, 2), slice(None)])
        assert result.to_cells() == {(0,), (1,)}

    def test_query_with_boxset(self):
        log = DSLog()
        build_pipeline(log)
        query = CellBoxSet.from_boxes("C", (6,), [[(0, 1)]])
        result = log.prov_query(["C", "B", "A"], query)
        assert result.count_cells() == 8

    def test_boxset_wrong_array_rejected(self):
        log = DSLog()
        build_pipeline(log)
        query = CellBoxSet.from_boxes("A", (6, 4), [[(0, 1), (0, 1)]])
        with pytest.raises(ValueError):
            log.prov_query(["C", "B", "A"], query)

    def test_short_path_rejected(self):
        log = DSLog()
        build_pipeline(log)
        with pytest.raises(ValueError):
            log.prov_query(["A"], [(0, 0)])

    def test_unknown_array_rejected(self):
        log = DSLog()
        build_pipeline(log)
        with pytest.raises(KeyError):
            log.prov_query(["A", "Z"], [(0, 0)])

    def test_unconnected_path_rejected(self):
        log = DSLog()
        build_pipeline(log)
        log.define_array("D", (5,))
        with pytest.raises(KeyError):
            log.prov_query(["A", "D"], [(0, 0)])


class TestQueryCaches:
    """DSLog keeps no hop tables between queries; its query-box cache is
    content-keyed."""

    def test_replaced_lineage_is_seen_by_the_next_query(self):
        log = DSLog()
        build_pipeline(log)
        assert log.prov_query(["A", "B"], [(0, 0)]).to_cells() == {(0, 0)}
        # replace the A->B lineage with a row-shifted variant:
        # output (r, c) now derives from input ((r + 1) % 6, c)
        shifted = [((r, c), ((r + 1) % 6, c)) for r in range(6) for c in range(4)]
        relation = LineageRelation.from_pairs(shifted, (6, 4), (6, 4), in_name="A", out_name="B")
        log.add_lineage("A", "B", relation=relation, replace=True)
        assert log.prov_query(["A", "B"], [(0, 0)]).to_cells() == {(5, 0)}

    def test_queries_hold_no_tables_outside_the_cache_budget(self, tmp_path):
        # more paths than the table cache can hold: once a query returns,
        # the only hydrated tables left alive are the ones the store's
        # TableCache still holds, and its budget bounds their bytes
        shape, paths = (40, 3), 12
        rng = np.random.default_rng(0)
        log = DSLog(tmp_path / "db", num_shards=2, autosync=False)
        for i in range(paths):
            log.define_array(f"x{i}", shape)
            log.define_array(f"y{i}", shape)
            pairs = [(cell, (int(rng.integers(shape[0])), cell[1])) for cell in np.ndindex(*shape)]
            relation = LineageRelation.from_pairs(pairs, shape, shape, in_name=f"x{i}", out_name=f"y{i}")
            log.add_lineage(f"x{i}", f"y{i}", relation=relation)
        budget = int(3.5 * log.catalog.entry("x0", "y0").backward.nbytes())
        log.close()

        def live_table_bytes():
            gc.collect()
            return sum(
                obj.nbytes() for obj in gc.get_objects() if isinstance(obj, CompressedLineage)
            )

        before = live_table_bytes()
        log = DSLog.load(tmp_path / "db", cache_bytes=budget)
        for i in range(paths):
            assert log.prov_query([f"y{i}", f"x{i}"], [(1, 1)]).count_cells() == 1
        assert log.store.tables_deserialized == paths
        assert 0 < log.store.cache.current_bytes <= budget
        assert live_table_bytes() - before == log.store.cache.current_bytes
        log.close()

    def test_query_box_cache_reuses_conversion(self):
        log = DSLog()
        build_pipeline(log)
        cells = [(0, 0), (3, 2)]
        log.prov_query(["A", "B"], cells)
        cached = log._query_box_cache[("A", tuple(cells))]
        log.prov_query(["A", "B"], cells)
        assert log._query_box_cache[("A", tuple(cells))] is cached

    def test_query_box_cache_evicts_least_recently_used_at_capacity(self):
        log = DSLog()
        build_pipeline(log)
        log.prov_query(["A", "B"], [(2, 2)])
        for i in range(dslog_module.QUERY_BOX_MEMO_ENTRIES - 1):
            log._query_box_cache[("X", ((i,),))] = None
        log.prov_query(["A", "B"], [(2, 2)])  # a hit: now the most recent
        log.prov_query(["A", "B"], [(1, 1)])  # one over the bound
        assert len(log._query_box_cache) == dslog_module.QUERY_BOX_MEMO_ENTRIES
        assert ("X", ((0,),)) not in log._query_box_cache
        assert list(log._query_box_cache)[-2:] == [("A", ((2, 2),)), ("A", ((1, 1),))]

    def test_slice_queries_join_box_cache(self):
        log = DSLog()
        build_pipeline(log)
        slices = [slice(0, 2), slice(None)]
        result = log.prov_query(["A", "B", "C"], slices)
        assert result.to_cells() == {(0,), (1,)}
        (key,) = log._query_box_cache
        assert key == ("A", "slices", ((0, 2, None), (None, None, None)))
        memoized = log._query_box_cache[key]
        assert log._as_box_set("A", [slice(0, 2), slice(None)]) is memoized
        slices[0] = slice(1, 2)  # mutated after the first call: a new key
        moved = log._as_box_set("A", slices)
        assert moved is not memoized and moved.lo.tolist() == [[1, 0]]
        assert log.prov_query(["A", "B", "C"], slices).to_cells() == {(1,)}
        # a cell tuple equal to a slice's bounds is another query
        assert log._as_box_set("A", [(0, 2)]) is not log._as_box_set("A", [slice(0, 2)])

    def test_concurrent_queries_share_a_bounded_box_cache(self, monkeypatch):
        """Handler threads convert through one memo while it evicts: every
        box set equals a fresh conversion and the bound holds."""
        monkeypatch.setattr(dslog_module, "QUERY_BOX_MEMO_ENTRIES", 8)
        log = DSLog()
        build_pipeline(log)
        queries = [[(i % 6, i % 4)] for i in range(12)] + [[slice(i % 6, 6), slice(i % 3)] for i in range(12)]
        fresh = [
            CellBoxSet.from_slices("A", (6, 4), q) if isinstance(q[0], slice) else CellBoxSet.from_cells("A", (6, 4), q)
            for q in queries
        ]
        wrong, failed = [], []

        def convert(worker: int) -> None:
            try:
                for i in range(300):
                    k = (worker * 7 + i) % len(queries)
                    got = log._as_box_set("A", queries[k])
                    if got.lo.tolist() != fresh[k].lo.tolist() or got.hi.tolist() != fresh[k].hi.tolist():
                        wrong.append((worker, k))
            except Exception as error:  # noqa: BLE001 - reported below
                failed.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=convert, args=(worker,)) for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failed == [] and wrong == []
        assert len(log._query_box_cache) <= 8

    def test_unhashable_cells_bypass_box_cache(self):
        log = DSLog()
        build_pipeline(log)
        result = log.prov_query(["A", "B", "C"], [[0, 0], [1, 1]])
        assert result.to_cells() == {(0,), (1,)}
        assert len(log._query_box_cache) == 0


class TestCapturePairValidation:
    def test_single_pair_mis_keyed_relations_rejected(self):
        log = DSLog()
        log.define_array("A", (4,))
        log.define_array("B", (4,))
        with pytest.raises(ValueError, match="only \\(input, output\\) pair"):
            log.register_operation(
                "negative",
                in_arrs=["A"],
                out_arrs=["B"],
                relations={("X", "Y"): elementwise_lineage((4,))},
            )

    def test_correctly_keyed_single_pair_accepted(self):
        log = DSLog()
        log.define_array("A", (4,))
        log.define_array("B", (4,))
        record = log.register_operation(
            "negative",
            in_arrs=["A"],
            out_arrs=["B"],
            relations={("A", "B"): elementwise_lineage((4,))},
        )
        assert record.entries == [("A", "B")]

    def test_captures_win_over_mis_keyed_relations(self):
        log = DSLog()
        log.define_array("A", (3,))
        log.define_array("B", (3,))
        record = log.register_operation(
            "identity",
            in_arrs=["A"],
            out_arrs=["B"],
            relations={("X", "Y"): elementwise_lineage((3,))},
            captures={("A", "B"): lambda out: [out]},
        )
        assert record.entries == [("A", "B")]
        assert log.prov_query(["B", "A"], [(1,)]).to_cells() == {(1,)}

    def test_multi_pair_operations_skip_missing_pairs(self):
        log = DSLog()
        for name in ("A", "B", "C"):
            log.define_array(name, (4,))
        record = log.register_operation(
            "stack",
            in_arrs=["A", "B"],
            out_arrs=["C"],
            relations={("A", "C"): elementwise_lineage((4,), in_name="A", out_name="C")},
        )
        # the (B, C) pair has no lineage and is skipped, not guessed
        assert record.entries == [("A", "C")]


class TestRegisterOperationAndReuse:
    def test_register_operation_with_relation(self):
        log = DSLog()
        log.define_array("A", (8,))
        log.define_array("B", (8,))
        record = log.register_operation(
            "negative",
            in_arrs=["A"],
            out_arrs=["B"],
            relations={("A", "B"): elementwise_lineage((8,))},
            input_data={"A": np.arange(8.0)},
        )
        assert record.reuse_level is None
        assert log.catalog.entry("A", "B").backward.decompress() == elementwise_lineage((8,))

    def test_dim_reuse_after_confirmation(self):
        log = DSLog()
        for name in ("A", "B", "C", "D", "E", "F"):
            log.define_array(name, (8,))
        pairs = [("A", "B"), ("C", "D"), ("E", "F")]
        datas = [np.arange(8.0), np.arange(8.0) * 2, np.arange(8.0) + 5]
        records = []
        for (src, dst), data in zip(pairs, datas):
            records.append(
                log.register_operation(
                    "negative",
                    in_arrs=[src],
                    out_arrs=[dst],
                    relations={(src, dst): elementwise_lineage((8,), in_name=src, out_name=dst)},
                    input_data={src: data},
                )
            )
        # first call captures, second confirms the dim mapping, third reuses it
        assert records[0].reuse_level is None
        assert records[1].reuse_level is None
        assert records[2].reuse_level == "dim"
        # the reused entry still answers queries correctly
        assert log.prov_query(["F", "E"], [(3,)]).to_cells() == {(3,)}

    def test_gen_reuse_across_shapes(self):
        log = DSLog()
        shapes = [(6,), (9,), (14,)]
        names = [("A1", "B1"), ("A2", "B2"), ("A3", "B3")]
        records = []
        for shape, (src, dst) in zip(shapes, names):
            log.define_array(src, shape)
            log.define_array(dst, shape)
            records.append(
                log.register_operation(
                    "negative",
                    in_arrs=[src],
                    out_arrs=[dst],
                    relations={(src, dst): elementwise_lineage(shape, in_name=src, out_name=dst)},
                    input_data={src: np.arange(float(shape[0]))},
                )
            )
        assert records[2].reuse_level in ("dim", "gen")
        assert records[2].reuse_level == "gen"
        assert log.prov_query(["A3", "B3"], [(10,)]).to_cells() == {(10,)}

    def test_reuse_disabled(self):
        log = DSLog()
        log.define_array("A", (4,))
        log.define_array("B", (4,))
        log.define_array("C", (4,))
        log.define_array("D", (4,))
        for src, dst in [("A", "B"), ("C", "D")]:
            record = log.register_operation(
                "negative",
                in_arrs=[src],
                out_arrs=[dst],
                relations={(src, dst): elementwise_lineage((4,), in_name=src, out_name=dst)},
                input_data={src: np.zeros(4)},
                reuse=False,
            )
            assert record.reuse_level is None
