"""Integration tests: capture → compression → storage → multi-hop queries → reuse."""

import numpy as np
import pytest

from repro import DSLog
from repro.baselines.stores import ColumnarStore, RawStore
from repro.capture.tracked import track_operation
from repro.core.reference import query_path_reference
from repro.workloads.pipelines import (
    image_pipeline,
    random_numpy_pipeline,
    relational_pipeline,
    resnet_block_pipeline,
)


class TestTrackedCaptureToQuery:
    """A workflow captured with TrackedArray, stored in DSLog, queried end to end."""

    def build(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(50, 6))
        b, lin_ab = track_operation(lambda x: np.abs(x) + 1.0, inputs={"A": a}, out_name="B")
        c, lin_bc = track_operation(lambda x: np.sum(x, axis=1), inputs={"B": b}, out_name="C")
        d, lin_cd = track_operation(np.sort, inputs={"C": c}, out_name="D")
        log = DSLog()
        for name, arr in [("A", a), ("B", b), ("C", c), ("D", d)]:
            log.define_array(name, arr.shape)
        log.add_lineage("A", "B", relation=lin_ab["A"])
        log.add_lineage("B", "C", relation=lin_bc["B"])
        log.add_lineage("C", "D", relation=lin_cd["C"])
        return log, [lin_ab["A"], lin_bc["B"], lin_cd["C"]]

    def test_forward_matches_reference(self):
        log, relations = self.build()
        cells = [(0, 0), (25, 3)]
        expected = query_path_reference(relations, ["forward"] * 3, cells)
        assert log.prov_query(["A", "B", "C", "D"], cells).to_cells() == expected

    def test_backward_matches_reference(self):
        log, relations = self.build()
        cells = [(10,), (49,)]
        expected = query_path_reference(list(reversed(relations)), ["backward"] * 3, cells)
        assert log.prov_query(["D", "C", "B", "A"], cells).to_cells() == expected

    def test_partial_path(self):
        log, relations = self.build()
        cells = [(7,)]
        expected = query_path_reference([relations[1]], ["backward"], cells)
        assert log.prov_query(["C", "B"], cells).to_cells() == expected

    def test_storage_much_smaller_than_raw(self):
        log, relations = self.build()
        raw = sum(rel.nbytes_raw() for rel in relations)
        assert log.storage_bytes() < raw / 5


class TestPipelinesAgainstBaselines:
    """DSLog and every baseline engine agree on all three Figure 8 workflows."""

    @pytest.mark.parametrize("factory,query", [
        (lambda: image_pipeline(32, 32, lime_samples=25), [(10, 10), (20, 20)]),
        (lambda: relational_pipeline(300, 200), [(5, 0), (17, 3)]),
        (lambda: resnet_block_pipeline(12, 12), [(6, 6), (0, 0)]),
    ], ids=["image", "relational", "resnet"])
    def test_forward_agreement(self, factory, query):
        pipeline = factory()
        log = pipeline.load_into_dslog()
        expected = log.prov_query(pipeline.path, query).to_cells()
        for store in (RawStore(), ColumnarStore()):
            db = pipeline.load_into_baseline(store)
            assert db.query_path(pipeline.path, query) == expected

    @pytest.mark.parametrize("length", [3, 6])
    def test_random_workflow_agreement(self, length):
        pipeline = random_numpy_pipeline(length, n_cells=800, seed=length)
        log = pipeline.load_into_dslog()
        db = pipeline.load_into_baseline(RawStore())
        cells = [(i,) for i in range(0, 100, 7)]
        assert log.prov_query(pipeline.path, cells).to_cells() == db.query_path(pipeline.path, cells)
        # reversing the path answers the backward question consistently too
        back_cells = [(0,)]
        back = log.prov_query(list(reversed(pipeline.path)), back_cells).to_cells()
        assert back == db.query_path(list(reversed(pipeline.path)), back_cells)


class TestReuseEndToEnd:
    def test_repeated_featurization_roundtrip(self, tmp_path):
        log = DSLog(root=tmp_path / "db")
        shapes = [(40, 4), (25, 4), (60, 4)]
        for i, shape in enumerate(shapes):
            in_name, out_name = f"X{i}", f"F{i}"
            log.define_array(in_name, shape)
            log.define_array(out_name, (shape[0],))
            from repro.capture.analytic import axis_reduction_lineage

            log.register_operation(
                "featurize",
                in_arrs=[in_name],
                out_arrs=[out_name],
                relations={(in_name, out_name): axis_reduction_lineage(shape, axis=1)},
                input_data={in_name: np.random.default_rng(i).normal(size=shape)},
            )
        record = log.catalog.operations[-1]
        assert record.reuse_level == "gen"
        # the reused lineage answers queries identically to a fresh capture
        assert log.prov_query(["F2", "X2"], [(10,)]).to_cells() == {(10, c) for c in range(4)}
        # and every entry, reused ones included, is on disk for the next session
        log.close()
        reopened = DSLog.load(tmp_path / "db")
        assert len(reopened.catalog) == 3
        assert reopened.catalog.entry("X2", "F2").reused is True
        assert reopened.prov_query(["F2", "X2"], [(10,)]).to_cells() == {(10, c) for c in range(4)}
