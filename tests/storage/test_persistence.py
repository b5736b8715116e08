"""Tests for DSLog on-disk persistence (write at ingest, re-open with load)."""

import numpy as np

from repro import DSLog
from repro.capture.analytic import axis_reduction_lineage, elementwise_lineage


class TestLoad:
    def _write(self, root, gzip=True):
        log = DSLog(root=root, gzip=gzip)
        log.define_array("A", (8, 3))
        log.define_array("B", (8, 3))
        log.define_array("C", (8,))
        log.add_lineage("A", "B", relation=elementwise_lineage((8, 3)))
        log.add_lineage("B", "C", relation=axis_reduction_lineage((8, 3), axis=1, in_name="B", out_name="C"))
        return log

    def test_roundtrip_gzip(self, tmp_path):
        original = self._write(tmp_path / "db")
        reopened = DSLog.load(tmp_path / "db")
        assert set(reopened.catalog.arrays) == {"A", "B", "C"}
        assert len(reopened.catalog) == 2
        expected = original.prov_query(["C", "B", "A"], [(4,)]).to_cells()
        assert reopened.prov_query(["C", "B", "A"], [(4,)]).to_cells() == expected

    def test_roundtrip_plain(self, tmp_path):
        self._write(tmp_path / "db", gzip=False)
        reopened = DSLog.load(tmp_path / "db", gzip=False)
        assert reopened.prov_query(["A", "B", "C"], [(2, 1)]).to_cells() == {(2,)}

    def test_forward_queries_after_load(self, tmp_path):
        self._write(tmp_path / "db")
        reopened = DSLog.load(tmp_path / "db")
        assert reopened.prov_query(["A", "B", "C"], [(5, 0)]).to_cells() == {(5,)}

    def test_load_empty_directory(self, tmp_path):
        """An empty directory opens as a new, empty durable catalog."""
        (tmp_path / "empty").mkdir()
        log = DSLog.load(tmp_path / "empty")
        assert len(log.catalog) == 0
        assert log.backend == "sharded" and log.store is not None
        log.define_array("A", (4,))
        log.define_array("B", (4,))
        log.add_lineage("A", "B", relation=elementwise_lineage((4,)))
        log.close()
        assert DSLog.load(tmp_path / "empty").prov_query(["B", "A"], [(1,)]).to_cells() == {(1,)}

    def test_storage_bytes_preserved(self, tmp_path):
        original = self._write(tmp_path / "db")
        reopened = DSLog.load(tmp_path / "db")
        assert reopened.storage_bytes() == original.storage_bytes()


class TestSingleShardRoundTrip:
    """Regression for the metadata loss of the legacy loader: op names,
    operation records and the reuse-predictor state must all survive a
    close/reopen cycle of the durable store (one shard: the layout the
    old ``segment`` backend became)."""

    def _write(self, root):
        log = DSLog(root=root, num_shards=1)
        log.define_array("A", (8, 3))
        log.define_array("B", (8, 3))
        log.define_array("C", (8,))
        log.add_lineage("A", "B", relation=elementwise_lineage((8, 3)), op_name="negative")
        relation = axis_reduction_lineage((8, 3), axis=1, in_name="B", out_name="C")
        log.add_lineage("B", "C", relation=relation, op_name="sum_axis1")
        return log

    def test_roundtrip_queries(self, tmp_path):
        original = self._write(tmp_path / "db")
        expected = original.prov_query(["C", "B", "A"], [(4,)]).to_cells()
        original.close()
        reopened = DSLog.load(tmp_path / "db")
        assert reopened.backend == "sharded" and reopened.store.num_shards == 1
        assert set(reopened.catalog.arrays) == {"A", "B", "C"}
        assert reopened.prov_query(["C", "B", "A"], [(4,)]).to_cells() == expected
        assert reopened.prov_query(["A", "B", "C"], [(5, 0)]).to_cells() == {(5,)}

    def test_op_names_and_reused_flag_survive(self, tmp_path):
        log = self._write(tmp_path / "db")
        log.close()
        reopened = DSLog.load(tmp_path / "db")
        assert reopened.catalog.entry("A", "B").op_name == "negative"
        assert reopened.catalog.entry("B", "C").op_name == "sum_axis1"
        assert reopened.catalog.entry("A", "B").reused is False

    def test_operation_records_survive(self, tmp_path):
        log = DSLog(root=tmp_path / "db", num_shards=1)
        log.define_array("A", (6,))
        log.define_array("B", (6,))
        record = log.register_operation(
            "negative",
            in_arrs=["A"],
            out_arrs=["B"],
            relations={("A", "B"): elementwise_lineage((6,))},
            input_data={"A": np.arange(6.0)},
            op_args={"dtype": "float64"},
        )
        log.close()
        reopened = DSLog.load(tmp_path / "db")
        assert len(reopened.catalog.operations) == 1
        restored = reopened.catalog.operations[0]
        assert restored.op_name == record.op_name
        assert restored.in_arrs == ("A",)
        assert restored.out_arrs == ("B",)
        assert restored.op_args == {"dtype": "float64"}
        assert restored.entries == [("A", "B")]

    def test_reuse_state_survives_and_keeps_predicting(self, tmp_path):
        log = DSLog(root=tmp_path / "db", num_shards=1)
        for name in ("A", "B", "C", "D"):
            log.define_array(name, (8,))
        # two confirmations in the first session promote the dim mapping
        for src, dst in [("A", "B"), ("C", "D")]:
            log.register_operation(
                "negative",
                in_arrs=[src],
                out_arrs=[dst],
                relations={(src, dst): elementwise_lineage((8,), in_name=src, out_name=dst)},
                input_data={src: np.arange(8.0) * (1 if src == "A" else 3)},
            )
        log.close()

        reopened = DSLog.load(tmp_path / "db")
        for name in ("E", "F"):
            reopened.define_array(name, (8,))
        # the third call, in a fresh session, must reuse without capture
        record = reopened.register_operation(
            "negative",
            in_arrs=["E"],
            out_arrs=["F"],
            relations={("E", "F"): elementwise_lineage((8,), in_name="E", out_name="F")},
            input_data={"E": np.arange(8.0) + 7},
        )
        assert record.reuse_level == "dim"
        assert reopened.catalog.entry("E", "F").reused is True
        assert reopened.prov_query(["F", "E"], [(2,)]).to_cells() == {(2,)}

    def test_reuse_state_hydrates_lazily(self, tmp_path):
        log = DSLog(root=tmp_path / "db", num_shards=1)
        log.define_array("A", (8,))
        log.define_array("B", (8,))
        log.register_operation(
            "negative",
            in_arrs=["A"],
            out_arrs=["B"],
            relations={("A", "B"): elementwise_lineage((8,))},
            input_data={"A": np.arange(8.0)},
        )
        log.close()
        reopened = DSLog.load(tmp_path / "db")
        assert reopened._reuse is None  # not hydrated by the open
        assert reopened.store.tables_deserialized == 0
        assert reopened.reuse.stats()["base_entries"] == 1  # hydrates on touch

    def test_numpy_op_args_roundtrip_as_native_numbers(self, tmp_path):
        log = DSLog(root=tmp_path / "db", num_shards=1)
        log.define_array("A", (4,))
        log.define_array("B", (4,))
        log.register_operation(
            "scale",
            in_arrs=["A"],
            out_arrs=["B"],
            relations={("A", "B"): elementwise_lineage((4,))},
            op_args={"factor": np.float64(0.5), "k": np.int64(3)},
        )
        log.close()
        reopened = DSLog.load(tmp_path / "db")
        assert reopened.catalog.operations[0].op_args == {"factor": 0.5, "k": 3}

    def test_reuse_confirmations_restored_from_manifest(self, tmp_path):
        log = DSLog(root=tmp_path / "db", num_shards=1, reuse_confirmations=3)
        log.define_array("A", (4,))
        log.define_array("B", (4,))
        log.register_operation(
            "negative",
            in_arrs=["A"],
            out_arrs=["B"],
            relations={("A", "B"): elementwise_lineage((4,))},
        )
        log.close()
        reopened = DSLog.load(tmp_path / "db")
        assert reopened.reuse.confirmations_required == 3

