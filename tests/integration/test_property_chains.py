"""Property-based end-to-end tests: random lineage chains through DSLog.

For arbitrary random relation chains and query cells, the full DSLog path
(ProvRC compression at ingest, in-situ θ-joins at query time) must return
exactly the same cells as the brute-force reference join over the
uncompressed relations — in both directions, with and without the merge
optimization, and after a serialization round trip.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DSLog
from repro.core.provrc import compress
from repro.core.reference import query_path_reference
from repro.core.relation import LineageRelation
from repro.core.serialize import deserialize_compressed_gzip, serialize_compressed_gzip


@st.composite
def relation_chain(draw, max_hops=3, max_dim=4, max_rows=25):
    """A chain of random relations A0 -> A1 -> ... with matching shapes."""
    n_hops = draw(st.integers(1, max_hops))
    shapes = []
    for _ in range(n_hops + 1):
        ndim = draw(st.integers(1, 2))
        shapes.append(tuple(draw(st.integers(1, max_dim)) for _ in range(ndim)))
    relations = []
    for hop in range(n_hops):
        in_shape, out_shape = shapes[hop], shapes[hop + 1]
        n_rows = draw(st.integers(0, max_rows))
        pairs = []
        for _ in range(n_rows):
            out_cell = tuple(draw(st.integers(0, d - 1)) for d in out_shape)
            in_cell = tuple(draw(st.integers(0, d - 1)) for d in in_shape)
            pairs.append((out_cell, in_cell))
        relations.append(
            LineageRelation.from_pairs(
                pairs, out_shape, in_shape, in_name=f"A{hop}", out_name=f"A{hop + 1}"
            )
        )
    n_query = draw(st.integers(0, 5))
    query = [tuple(draw(st.integers(0, d - 1)) for d in shapes[0]) for _ in range(n_query)]
    return shapes, relations, query


def _build_log(shapes, relations):
    log = DSLog()
    for index, shape in enumerate(shapes):
        log.define_array(f"A{index}", shape)
    for relation in relations:
        log.add_lineage(relation.in_name, relation.out_name, relation=relation)
    return log


class TestRandomChains:
    @settings(max_examples=60, deadline=None)
    @given(relation_chain())
    def test_forward_chain_matches_reference(self, data):
        shapes, relations, query = data
        log = _build_log(shapes, relations)
        path = [f"A{i}" for i in range(len(shapes))]
        expected = query_path_reference(relations, ["forward"] * len(relations), query)
        assert log.prov_query(path, query).to_cells() == expected

    @settings(max_examples=60, deadline=None)
    @given(relation_chain())
    def test_backward_chain_matches_reference(self, data):
        shapes, relations, _ = data
        rng = np.random.default_rng(0)
        last_shape = shapes[-1]
        query = [tuple(int(rng.integers(0, d)) for d in last_shape) for _ in range(3)]
        log = _build_log(shapes, relations)
        path = [f"A{i}" for i in reversed(range(len(shapes)))]
        expected = query_path_reference(
            list(reversed(relations)), ["backward"] * len(relations), query
        )
        assert log.prov_query(path, query).to_cells() == expected

    @settings(max_examples=40, deadline=None)
    @given(relation_chain())
    def test_merge_flag_never_changes_answer(self, data):
        shapes, relations, query = data
        log = _build_log(shapes, relations)
        path = [f"A{i}" for i in range(len(shapes))]
        merged = log.prov_query(path, query, merge=True).to_cells()
        plain = log.prov_query(path, query, merge=False).to_cells()
        assert merged == plain

    @settings(max_examples=40, deadline=None)
    @given(relation_chain(max_hops=1))
    def test_serialization_roundtrip_preserves_queries(self, data):
        shapes, relations, query = data
        relation = relations[0]
        table = compress(relation)
        restored = deserialize_compressed_gzip(serialize_compressed_gzip(table))
        from repro.core.query import CellBoxSet, theta_join

        box_query = CellBoxSet.from_cells(relation.in_name, relation.in_shape, query)
        assert (
            theta_join(box_query, restored).to_cells()
            == theta_join(box_query, table).to_cells()
            == relation.forward(query)
        )
