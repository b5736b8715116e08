"""The paper's evaluation workloads at the sizes its figures and tables
use, checked for what they store and answer rather than timed: every
format's payload decodes back to the lineage it holds (Figure 7, Table
VII), DSLog's in-situ answers equal the brute-force reference and every
decode-and-join baseline's (Figures 8 and 9, Table VII), and the merge and
GZip stages change no answer (the ablations).  The timings come from
``bench/``."""

import numpy as np
import pytest

from repro import DSLog
from repro.baselines.stores import ColumnarStore, RawStore, TurboRCStore, all_baseline_stores
from repro.capture.analytic import selection_lineage
from repro.core.provrc import compress
from repro.core.reference import query_path_reference
from repro.core.serialize import (
    deserialize_compressed,
    deserialize_compressed_gzip,
    serialize_compressed,
    serialize_compressed_gzip,
)
from repro.experiments.common import provrc_bytes
from repro.experiments.fig7_compression_latency import _build_relation
from repro.experiments.fig8_query_latency import query_cells_for_selectivity
from repro.experiments.table7_compression import run as run_table7
from repro.workloads.operations import build_workload, compression_workloads
from repro.workloads.pipelines import (
    image_pipeline,
    random_numpy_pipeline,
    relational_pipeline,
    resnet_block_pipeline,
)

STRUCTURED_OPS = ["Negative", "Aggregate", "Matrix*Vector", "Matrix*Matrix", "Repetition"]


def forward_reference(pipeline, cells):
    return query_path_reference(pipeline.steps, ["forward"] * len(pipeline.steps), cells)


# ----------------------------------------------------------------------
# Figure 7: what each format writes decodes back to the relation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["elementwise", "aggregate"])
@pytest.mark.parametrize("size", [10_000, 50_000])
@pytest.mark.parametrize("fmt", ["Raw", "Parquet", "Parquet-GZip", "Turbo-RC", "ProvRC-GZip"])
def test_fig7_payload_round_trips(fmt, size, kind):
    relation = _build_relation(kind, size)
    provrc = serialize_compressed_gzip(compress(relation, key="output"))
    if fmt == "ProvRC-GZip":
        assert deserialize_compressed_gzip(provrc).decompress() == relation.deduplicated()
        return
    store = all_baseline_stores()[fmt]
    payload = store.encode(relation.rows)
    assert np.array_equal(store.decode(payload), relation.rows)
    # both kinds are structured lineage: ProvRC-GZip writes fewer bytes
    assert len(provrc) < len(payload)


# ----------------------------------------------------------------------
# Figure 8: the three hand-built workflows, in situ vs decode-and-join
# ----------------------------------------------------------------------
FIG8_PIPELINES = {
    "image": lambda: image_pipeline(64, 64, lime_samples=40),
    "relational": lambda: relational_pipeline(800, 500),
    "resnet": lambda: resnet_block_pipeline(24, 24),
}


@pytest.fixture(scope="module")
def fig8():
    """``fig8(workflow)`` -> (pipeline, loaded DSLog, 5% query cells),
    built once per module."""
    built = {}

    def get(workflow):
        if workflow not in built:
            pipeline = FIG8_PIPELINES[workflow]()
            cells = query_cells_for_selectivity(pipeline.first_shape, 0.05, seed=1)
            built[workflow] = (pipeline, pipeline.load_into_dslog(), cells)
        return built[workflow]

    return get


@pytest.mark.parametrize("workflow", sorted(FIG8_PIPELINES))
def test_fig8_dslog_answers_like_reference(fig8, workflow):
    pipeline, log, cells = fig8(workflow)
    want = forward_reference(pipeline, cells)
    assert want
    assert log.prov_query(pipeline.path, cells).to_cells() == want
    assert log.prov_query(pipeline.path, cells, merge=False).to_cells() == want


@pytest.mark.parametrize("workflow", sorted(FIG8_PIPELINES))
@pytest.mark.parametrize("store_cls", [RawStore, ColumnarStore, TurboRCStore], ids=lambda c: c.name)
def test_fig8_baseline_answers_like_dslog(fig8, workflow, store_cls):
    pipeline, log, cells = fig8(workflow)
    db = pipeline.load_into_baseline(store_cls())
    assert db.query_path(pipeline.path, cells) == log.prov_query(pipeline.path, cells).to_cells()


def test_fig8_array_db_answers_like_dslog(fig8):
    pipeline, log, cells = fig8("resnet")
    db = pipeline.load_into_array_db()
    assert db.query_path(pipeline.path, cells) == log.prov_query(pipeline.path, cells).to_cells()


# ----------------------------------------------------------------------
# Figure 9: random numpy workflows of 5 and 10 operations
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig9():
    """``fig9(length)`` -> (pipeline, loaded DSLog, 200 query cells of 20k)."""
    built = {}

    def get(length):
        if length not in built:
            pipeline = random_numpy_pipeline(length, n_cells=20_000, seed=11)
            cells = query_cells_for_selectivity(pipeline.first_shape, 200 / 20_000, seed=11)
            built[length] = (pipeline, pipeline.load_into_dslog(), cells)
        return built[length]

    return get


@pytest.mark.parametrize("length", [5, 10])
def test_fig9_dslog_answers_like_reference(fig9, length):
    pipeline, log, cells = fig9(length)
    assert log.prov_query(pipeline.path, cells).to_cells() == forward_reference(pipeline, cells)


@pytest.mark.parametrize("length", [5, 10])
def test_fig9_unmerged_answers_like_merged(fig9, length):
    pipeline, log, cells = fig9(length)
    merged = log.prov_query(pipeline.path, cells)
    unmerged = log.prov_query(pipeline.path, cells, merge=False)
    assert unmerged.to_cells() == merged.to_cells()
    assert len(merged.cells.lo) <= len(unmerged.cells.lo)


@pytest.mark.parametrize("length", [5, 10])
@pytest.mark.parametrize("store_cls", [RawStore, ColumnarStore], ids=lambda c: c.name)
def test_fig9_baseline_answers_like_dslog(fig9, length, store_cls):
    pipeline, log, cells = fig9(length)
    db = pipeline.load_into_baseline(store_cls())
    assert db.query_path(pipeline.path, cells) == log.prov_query(pipeline.path, cells).to_cells()


# ----------------------------------------------------------------------
# Table VII: every operation, stored and queried
# ----------------------------------------------------------------------
@pytest.mark.parametrize("gzip", [False, True], ids=["provrc", "provrc-gzip"])
@pytest.mark.parametrize("operation", sorted(compression_workloads()))
def test_table7_provrc_round_trips_through_storage(operation, gzip):
    relations = build_workload(operation, scale=0.05)
    serialize, deserialize = (
        (serialize_compressed_gzip, deserialize_compressed_gzip)
        if gzip
        else (serialize_compressed, deserialize_compressed)
    )
    total = 0
    for relation in relations:
        payload = serialize(compress(relation, key="output"))
        assert deserialize(payload).decompress() == relation.deduplicated()
        total += len(payload)
    if not gzip:
        assert provrc_bytes(relations) == total


@pytest.mark.parametrize("fmt", ["Raw", "Parquet", "Parquet-GZip", "Turbo-RC"])
def test_table7_baseline_formats_round_trip(fmt):
    relations = build_workload("Negative", scale=0.05)
    store = all_baseline_stores()[fmt]
    for relation in relations:
        assert np.array_equal(store.decode(store.encode(relation.rows)), relation.rows)
    assert provrc_bytes(relations) < sum(store.size_bytes(r.rows) for r in relations)


def test_table7_full_harness():
    results = run_table7(scale=0.02)
    assert set(results) == set(compression_workloads())
    assert all(size > 0 for sizes in results.values() for size in sizes.values())
    for op in STRUCTURED_OPS:
        assert results[op]["ProvRC"] < results[op]["Raw"] / 100, op


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("operation", sorted(compression_workloads()))
def test_table7_in_situ_query_matches_reference(operation, direction):
    rng = np.random.default_rng(7)
    for relation in build_workload(operation, scale=0.02):
        log = DSLog()
        log.define_array(relation.in_name, relation.in_shape)
        log.define_array(relation.out_name, relation.out_shape)
        log.add_lineage(relation.in_name, relation.out_name, relation=relation)
        if direction == "forward":
            path, shape = [relation.in_name, relation.out_name], relation.in_shape
        else:
            path, shape = [relation.out_name, relation.in_name], relation.out_shape
        flat = rng.choice(int(np.prod(shape)), size=min(64, int(np.prod(shape))), replace=False)
        cells = [tuple(int(v) for v in cell) for cell in zip(*np.unravel_index(flat, shape))]
        want = relation.forward(cells) if direction == "forward" else relation.backward(cells)
        assert log.prov_query(path, cells).to_cells() == want


# ----------------------------------------------------------------------
# ablations: the merge step and the GZip stage change no answer
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def resnet_ablation():
    pipeline = resnet_block_pipeline(24, 24)
    cells = query_cells_for_selectivity(pipeline.first_shape, 0.1, seed=3)
    return pipeline, pipeline.load_into_dslog(), cells, forward_reference(pipeline, cells)


@pytest.mark.parametrize("merge", [True, False], ids=["merge", "no-merge"])
def test_ablation_merge_step(resnet_ablation, merge):
    pipeline, log, cells, want = resnet_ablation
    result = log.prov_query(pipeline.path, cells, merge=merge)
    assert result.to_cells() == want
    if merge:
        unmerged = log.prov_query(pipeline.path, cells, merge=False)
        assert len(result.cells.lo) < len(unmerged.cells.lo)


@pytest.mark.parametrize("gzip_stage", [False, True], ids=["provrc", "provrc-gzip"])
def test_ablation_gzip_stage(gzip_stage):
    rng = np.random.default_rng(5)
    order = np.argsort(rng.normal(size=30_000), kind="stable")
    relation = selection_lineage(order, (30_000,))
    table = compress(relation)
    plain = serialize_compressed(table)
    if gzip_stage:
        payload = serialize_compressed_gzip(table)
        # unstructured lineage: the GZip stage is what shrinks it
        assert len(payload) < len(plain)
        restored = deserialize_compressed_gzip(payload)
    else:
        restored = deserialize_compressed(plain)
    assert restored.decompress() == relation.deduplicated()
