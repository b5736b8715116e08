"""Tests for the lineage graph planner (automatic paths, closures, summary)."""

import pytest

from repro import DSLog, LineageGraph
from repro.capture.analytic import elementwise_lineage
from repro.core.query import QueryResult
from repro.core.relation import LineageRelation


def shift(shape, delta, in_name, out_name):
    """Output (i,) derives from input ((i + delta) % n,)."""
    n = shape[0]
    pairs = [((i,), ((i + delta) % n,)) for i in range(n)]
    return LineageRelation.from_pairs(pairs, shape, shape, in_name=in_name, out_name=out_name)


def chain_log(names, shape=(6,)):
    log = DSLog()
    for name in names:
        log.define_array(name, shape)
    for a, b in zip(names, names[1:]):
        log.add_lineage(a, b, relation=elementwise_lineage(shape, in_name=a, out_name=b))
    return log


def diamond_log(shape=(6,)):
    """A -> B -> D and A -> C -> D, with C's edges shifted by one."""
    log = DSLog()
    for name in "ABCD":
        log.define_array(name, shape)
    log.add_lineage("A", "B", relation=elementwise_lineage(shape))
    log.add_lineage("B", "D", relation=elementwise_lineage(shape, in_name="B", out_name="D"))
    log.add_lineage("A", "C", relation=shift(shape, 1, "A", "C"))
    log.add_lineage("C", "D", relation=elementwise_lineage(shape, in_name="C", out_name="D"))
    return log


class TestShortestPaths:
    def test_chain_single_path(self):
        names = [f"A{i}" for i in range(6)]
        log = chain_log(names)
        assert log.graph.shortest_paths("A0", "A5")[0] == names
        assert log.graph.shortest_paths("A0", "A5") == [names]

    def test_backward_resolution(self):
        names = [f"A{i}" for i in range(4)]
        log = chain_log(names)
        assert log.graph.shortest_paths("A3", "A0")[0] == ["A3", "A2", "A1", "A0"]

    def test_diamond_returns_both_paths(self):
        log = diamond_log()
        assert log.graph.shortest_paths("A", "D") == [
            ["A", "B", "D"],
            ["A", "C", "D"],
        ]

    def test_shortest_wins_over_longer(self):
        names = [f"A{i}" for i in range(5)]
        log = chain_log(names)
        log.add_lineage("A0", "A3", relation=elementwise_lineage((6,), in_name="A0", out_name="A3"))
        assert log.graph.shortest_paths("A0", "A4")[0] == ["A0", "A3", "A4"]

    def test_unconnected_returns_empty(self):
        log = chain_log(["A", "B"])
        log.define_array("Z", (6,))
        assert log.graph.shortest_paths("A", "Z") == []

    def test_unknown_array_rejected(self):
        log = chain_log(["A", "B"])
        with pytest.raises(KeyError):
            log.graph.shortest_paths("A", "missing")

    def test_memo_survives_repeat_lookups(self):
        log = chain_log(["A", "B", "C"])
        first = log.graph.shortest_paths("A", "C")
        memoized = log.graph.shortest_paths("A", "C")
        assert first == memoized

    def test_graph_refreshed_incrementally_after_catalog_change(self):
        log = chain_log(["A", "B", "C"])
        graph = log.graph
        assert graph.shortest_paths("A", "C")[0] == ["A", "B", "C"]
        log.define_array("D", (6,))
        log.add_lineage("C", "D", relation=elementwise_lineage((6,), in_name="C", out_name="D"))
        # same instance, incrementally refreshed — not rebuilt from scratch
        assert log.graph is graph
        assert graph.version == log.catalog.version
        assert log.graph.shortest_paths("A", "D")[0] == ["A", "B", "C", "D"]


class TestAutomaticProvQuery:
    def test_chain_matches_explicit_hop_list(self):
        names = [f"A{i}" for i in range(6)]
        log = chain_log(names)
        explicit = log.prov_query(names, [(2,)]).to_cells()
        assert log.prov_query(["A0", "A5"], [(2,)]).to_cells() == explicit

    def test_backward_chain_matches_explicit(self):
        names = [f"A{i}" for i in range(6)]
        log = chain_log(names)
        explicit = log.prov_query(list(reversed(names)), [(4,)]).to_cells()
        assert log.prov_query(["A5", "A0"], [(4,)]).to_cells() == explicit

    def test_diamond_unions_both_paths(self):
        log = diamond_log()
        via_b = log.prov_query(["A", "B", "D"], [(2,)]).to_cells()
        via_c = log.prov_query(["A", "C", "D"], [(2,)]).to_cells()
        assert via_b != via_c  # the shifted branch contributes new cells
        auto = log.prov_query(["A", "D"], [(2,)]).to_cells()
        assert auto == via_b | via_c

    def test_direct_entry_still_preferred(self):
        log = diamond_log()
        log.add_lineage("A", "D", relation=shift((6,), 2, "A", "D"))
        # a stored (A, D) entry short-circuits the planner entirely
        assert log.prov_query(["A", "D"], [(0,)]).to_cells() == {(4,)}

    def test_unconnected_two_array_path_raises(self):
        log = chain_log(["A", "B"])
        log.define_array("Z", (6,))
        with pytest.raises(KeyError):
            log.prov_query(["A", "Z"], [(0,)])

    def test_merge_false_preserved_through_union(self):
        log = diamond_log()
        merged = log.prov_query(["A", "D"], [(1,)], merge=True).to_cells()
        unmerged = log.prov_query(["A", "D"], [(1,)], merge=False).to_cells()
        assert merged == unmerged


class TestClosures:
    def test_impact_with_depths(self):
        log = diamond_log()
        assert log.impact("A") == {"B": 1, "C": 1, "D": 2}
        assert log.impact("B") == {"D": 1}
        assert log.impact("D") == {}

    def test_dependencies_with_depths(self):
        log = diamond_log()
        assert log.dependencies("D") == {"B": 1, "C": 1, "A": 2}
        assert log.dependencies("A") == {}

    def test_unknown_array_rejected(self):
        log = diamond_log()
        with pytest.raises(KeyError):
            log.impact("missing")


class TestSummary:
    def test_diamond_summary(self):
        log = diamond_log()
        log.define_array("lonely", (3,))
        summary = log.lineage_summary()
        assert summary["arrays"] == 5
        assert summary["entries"] == 4
        assert summary["roots"] == ["A"]
        assert summary["leaves"] == ["D"]
        assert summary["isolated"] == ["lonely"]
        assert summary["max_depth"] == 2
        assert summary["fan_out"]["A"] == 2
        assert summary["fan_in"]["D"] == 2

    def test_cycle_reports_undefined_depth(self):
        log = DSLog()
        log.define_array("A", (4,))
        log.define_array("B", (4,))
        log.add_lineage("A", "B", relation=elementwise_lineage((4,)))
        log.add_lineage("B", "A", relation=elementwise_lineage((4,), in_name="B", out_name="A"))
        assert log.lineage_summary()["max_depth"] is None

    def test_operations_counted(self):
        log = DSLog()
        log.define_array("A", (4,))
        log.define_array("B", (4,))
        log.register_operation(
            "negative",
            in_arrs=["A"],
            out_arrs=["B"],
            relations={("A", "B"): elementwise_lineage((4,))},
        )
        summary = log.lineage_summary()
        assert summary["operations"] == 1
        assert summary["avg_arrays_per_operation"] == 2.0


class TestQueryResultUnion:
    def test_union_requires_same_array(self):
        log = diamond_log()
        a = log.prov_query(["A", "B"], [(0,)])
        b = log.prov_query(["B", "D"], [(0,)])
        with pytest.raises(ValueError):
            QueryResult.union([a, b])

    def test_path_that_emptied_midway_joins_the_union(self):
        # A -> B -> D reaches D; along A -> C -> D the query dies on C, and
        # its empty result lives there.  The diamond's answer is the first
        # path's (this raised "cannot union results over different arrays")
        log = DSLog()
        for name in "ABCD":
            log.define_array(name, (4,))
        for a, b in (("A", "B"), ("B", "D"), ("C", "D")):
            log.add_lineage(a, b, relation=elementwise_lineage((4,), in_name=a, out_name=b))
        log.add_lineage(
            "A", "C",
            relation=LineageRelation.from_pairs([((0,), (0,))], (4,), (4,), in_name="A", out_name="C"),
        )
        result = log.prov_query(["A", "D"], [(3,)])
        assert result.to_cells() == {(3,)} and result.cells.array_name == "D"
        assert [(h.array_from, h.array_to) for h in result.hops] == [
            ("A", "B"), ("B", "D"), ("A", "C"),
        ]
        # ... and when every path dies, the (empty) answer is the first one's
        assert log.prov_query(["D", "A"], [(1,)]).to_cells() == {(1,)}
        log.add_lineage(
            "A", "B", replace=True,
            relation=LineageRelation.from_pairs([((0,), (0,))], (4,), (4,), in_name="A", out_name="B"),
        )
        assert log.prov_query(["A", "D"], [(3,)]).to_cells() == set()

    def test_union_of_empty_list_rejected(self):
        with pytest.raises(ValueError):
            QueryResult.union([])

    def test_union_keeps_hop_stats(self):
        log = diamond_log()
        result = log.prov_query(["A", "D"], [(3,)])
        assert len(result.hops) == 4  # two hops per planned path


class TestIncrementalRefresh:
    """The graph is memoized on the catalog's generation counter and folds
    new entries in incrementally instead of rebuilding."""

    def test_unchanged_catalog_is_a_noop(self):
        log = chain_log(["A", "B", "C"])
        graph = log.graph
        refreshes = graph.refresh_count
        for _ in range(5):
            assert log.graph is graph
        assert graph.refresh_count == refreshes  # version key short-circuits

    def test_new_entry_invalidates_path_memo(self):
        log = chain_log(["A", "B", "C"])
        graph = log.graph
        assert graph.shortest_paths("A", "C") == [["A", "B", "C"]]
        assert ("A", "C") in graph._path_memo
        # add a shortcut edge: the memoized 2-hop path would now be wrong
        log.add_lineage("A", "C", relation=elementwise_lineage((6,), in_name="A", out_name="C"))
        assert log.graph is graph
        assert graph.shortest_paths("A", "C") == [["A", "C"]]

    def test_refresh_picks_up_arrays_defined_after_build(self):
        log = chain_log(["A", "B"])
        graph = log.graph
        log.define_array("C", (6,))
        # arrays alone don't bump the entry version, but refresh still sees
        # them (the old rebuild-on-version design missed this case)
        assert log.graph.shortest_paths("C", "B") == []
        log.add_lineage("B", "C", relation=elementwise_lineage((6,), in_name="B", out_name="C"))
        assert log.graph.shortest_paths("A", "C")[0] == ["A", "B", "C"]
        assert log.graph is graph

    def test_incremental_equals_fresh_build(self):
        from repro.graph import LineageGraph

        names = [f"N{i}" for i in range(8)]
        log = chain_log(names[:4])
        log.graph  # force the initial build so later accesses refresh it
        for name in names[4:]:
            log.define_array(name, (6,))
        for a, b in zip(names[3:], names[4:]):
            log.add_lineage(a, b, relation=elementwise_lineage((6,), in_name=a, out_name=b))
        log.add_lineage("N0", "N5", relation=elementwise_lineage((6,), in_name="N0", out_name="N5"))
        refreshed = log.graph
        fresh = LineageGraph(log.catalog)
        assert refreshed._out == fresh._out
        assert refreshed._in == fresh._in
        assert refreshed.shortest_paths("N0", "N7") == fresh.shortest_paths("N0", "N7")
        assert refreshed.lineage_summary() == fresh.lineage_summary()

    def test_replace_bumps_version_but_keeps_adjacency(self):
        log = chain_log(["A", "B", "C"])
        graph = log.graph
        out_before = {k: list(v) for k, v in graph._out.items()}
        log.add_lineage("A", "B", relation=elementwise_lineage((6,)), replace=True)
        assert log.graph is graph
        assert graph.version == log.catalog.version
        assert graph._out == out_before  # same edges, no duplicates
