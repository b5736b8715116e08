"""The durable store at catalog scale: a 1,000-entry chain opens lazily
(no table deserialized until a query needs it), a query hydrates only its
own path, and a catalog mixing hundreds of small tables with a few wide
ones hydrates every table and answers cold exactly as warm."""

import numpy as np
import pytest

from repro import DSLog
from repro.capture.analytic import elementwise_lineage
from repro.core.relation import LineageRelation

N_ENTRIES = 1_000
SHAPE = (8,)


def scrambled(shape, in_name, out_name, seed):
    """A permutation with no run structure: ProvRC keeps about one row per
    cell, so the table is wide."""
    perm = np.random.default_rng(seed).permutation(shape[0])
    pairs = [((int(i),), (int(perm[i]),)) for i in range(shape[0])]
    return LineageRelation.from_pairs(pairs, shape, shape, in_name=in_name, out_name=out_name)


def build_chain(root, n, prefix="A"):
    log = DSLog(root=root, num_shards=1, autosync=False)
    names = [f"{prefix}{i:05d}" for i in range(n + 1)]
    for name in names:
        log.define_array(name, SHAPE)
    for a, b in zip(names, names[1:]):
        log.add_lineage(a, b, relation=elementwise_lineage(SHAPE, in_name=a, out_name=b), op_name=f"op_{a}")
    return log, names


@pytest.fixture(scope="module")
def chain_db(tmp_path_factory):
    root = tmp_path_factory.mktemp("store_chain") / "db"
    log, names = build_chain(root, N_ENTRIES)
    log.close()
    return root, names


def test_segment_ingest_reopens(tmp_path):
    """A bulk load of 200 entries synced once reopens with all of them."""
    log, names = build_chain(tmp_path / "db", 200)
    log.close()
    log = DSLog.load(tmp_path / "db")
    try:
        assert len(log.catalog) == 200
        assert log.prov_query(names, [(6,)]).to_cells() == {(6,)}
    finally:
        log.close()


def test_cold_open_is_lazy(chain_db):
    root, _names = chain_db
    log = DSLog.load(root)
    try:
        assert len(log.catalog) == N_ENTRIES
        assert log.store.tables_deserialized == 0
    finally:
        log.close()


def test_first_query_after_cold_open_loads_only_its_path(chain_db):
    root, names = chain_db
    log = DSLog.load(root)
    try:
        assert log.prov_query(names[100:106], [(3,)]).to_cells() == {(3,)}
        # one table per hop, 5 of the 2,000 stored
        assert log.store.tables_deserialized == 5
    finally:
        log.close()


def test_eager_materialize_all(chain_db):
    root, _names = chain_db
    log = DSLog.load(root)
    try:
        assert log.catalog.materialize_all() == N_ENTRIES
        assert log.store.tables_deserialized == N_ENTRIES
    finally:
        log.close()


def test_planned_query_on_reopened_catalog(chain_db):
    """A two-array query with no hop list is planned over 20 hops."""
    root, names = chain_db
    log = DSLog.load(root)
    try:
        result = log.prov_query([names[200], names[220]], [(5,)])
        assert result.to_cells() == {(5,)}
        assert len(result.hops) == 20
    finally:
        log.close()


# ----------------------------------------------------------------------
# mixed narrow / wide catalog
# ----------------------------------------------------------------------
WIDE_SHAPE = (30_000,)


@pytest.fixture(scope="module")
def mixed_db(tmp_path_factory):
    root = tmp_path_factory.mktemp("store_mixed") / "db"
    log, chain = build_chain(root, 400, prefix="C")
    wide = [f"W{i}" for i in range(5)]
    for name in wide:
        log.define_array(name, WIDE_SHAPE)
    relations = []
    for i, (a, b) in enumerate(zip(wide, wide[1:])):
        relations.append(scrambled(WIDE_SHAPE, a, b, seed=i))
        log.add_lineage(a, b, relation=relations[-1], op_name=f"wop_{i}")
    log.close()
    return root, chain, wide, relations


def test_cold_hydration_materializes_every_table(mixed_db):
    root, _chain, _wide, _relations = mixed_db
    log = DSLog.load(root)
    try:
        assert log.catalog.materialize_all() == 400 + 4
        assert log.store.cache.stats()["bytes"] > 0
    finally:
        log.close()


def test_uncached_query_path_answers_like_warm(mixed_db):
    root, chain, wide, relations = mixed_db
    paths = [chain[40:48], chain[200:208], list(reversed(chain[100:106])), wide[:3]]
    log = DSLog.load(root)
    try:
        warm = [log.prov_query(path, [(3,)]).to_cells() for path in paths]
        log.store.cache.clear()
        loaded = log.store.tables_deserialized
        cold = [log.prov_query(path, [(3,)]).to_cells() for path in paths]
        assert log.store.tables_deserialized > loaded
    finally:
        log.close()
    assert cold == warm
    assert warm[:3] == [{(3,)}] * 3
    assert warm[3] == relations[1].forward(relations[0].forward([(3,)]))
