"""Tests for the baseline query engines (decode + join per hop)."""

import numpy as np
import pytest

from repro.baselines.engine import ArrayDatabase, BaselineDatabase
from repro.baselines.stores import ColumnarGzipStore, ColumnarStore, RawStore, TurboRCStore
from repro.capture.analytic import axis_reduction_lineage, elementwise_lineage
from repro.core.reference import query_path_reference
from repro.core.relation import LineageRelation


@pytest.fixture(params=[RawStore, ColumnarStore, ColumnarGzipStore, TurboRCStore],
                ids=lambda c: c.name)
def database(request):
    return BaselineDatabase(request.param())


def build(db):
    r1 = elementwise_lineage((6, 4))
    r2 = axis_reduction_lineage((6, 4), axis=1, in_name="B", out_name="C")
    db.ingest(r1)
    db.ingest(r2)
    return r1, r2


class TestBaselineDatabase:
    def test_forward_path(self, database):
        r1, r2 = build(database)
        cells = [(0, 0), (4, 3)]
        expected = query_path_reference([r1, r2], ["forward", "forward"], cells)
        assert database.query_path(["A", "B", "C"], cells) == expected

    def test_backward_path(self, database):
        r1, r2 = build(database)
        cells = [(2,), (5,)]
        expected = query_path_reference([r2, r1], ["backward", "backward"], cells)
        assert database.query_path(["C", "B", "A"], cells) == expected

    def test_empty_query(self, database):
        build(database)
        assert database.query_path(["A", "B", "C"], []) == set()

    def test_missing_hop(self, database):
        build(database)
        with pytest.raises(KeyError):
            database.query_path(["A", "Z"], [(0, 0)])

    def test_short_path(self, database):
        build(database)
        with pytest.raises(ValueError):
            database.query_path(["A"], [(0, 0)])

    def test_storage_bytes(self, database):
        build(database)
        assert database.storage_bytes() > 0


class TestArrayDatabase:
    def test_matches_reference(self):
        db = ArrayDatabase(batch_size=3)
        r1, r2 = build(db)
        cells = [(r, c) for r in range(6) for c in range(4) if (r + c) % 3 == 0]
        expected = query_path_reference([r1, r2], ["forward", "forward"], cells)
        assert db.query_path(["A", "B", "C"], cells) == expected

    def test_backward(self):
        db = ArrayDatabase()
        r1, r2 = build(db)
        assert db.query_path(["C", "B", "A"], [(1,)]) == {(1, c) for c in range(4)}

    def test_no_match(self):
        db = ArrayDatabase()
        r1 = LineageRelation.from_pairs([((0,), (0,))], (4,), (4,), in_name="A", out_name="B")
        db.ingest(r1)
        assert db.query_path(["A", "B"], [(3,)]) == set()


class TestAgainstDSLog:
    """Baselines and the in-situ engine must return identical answers."""

    def test_all_engines_agree(self):
        from repro import DSLog

        rng = np.random.default_rng(0)
        shape = (12, 5)
        r1 = elementwise_lineage(shape)
        r2 = axis_reduction_lineage(shape, axis=1, in_name="B", out_name="C")

        log = DSLog()
        for name, s in [("A", shape), ("B", shape), ("C", (shape[0],))]:
            log.define_array(name, s)
        log.add_lineage("A", "B", relation=r1)
        log.add_lineage("B", "C", relation=r2)

        cells = [tuple(map(int, (rng.integers(0, shape[0]), rng.integers(0, shape[1])))) for _ in range(6)]
        expected = query_path_reference([r1, r2], ["forward", "forward"], cells)
        assert log.prov_query(["A", "B", "C"], cells).to_cells() == expected

        for store in (RawStore(), ColumnarStore(), TurboRCStore()):
            db = BaselineDatabase(store)
            db.ingest(r1)
            db.ingest(r2)
            assert db.query_path(["A", "B", "C"], cells) == expected

        array_db = ArrayDatabase()
        array_db.ingest(r1)
        array_db.ingest(r2)
        assert array_db.query_path(["A", "B", "C"], cells) == expected
