"""Tests for the DSLog catalog layer."""

import pytest

from repro.core.query import CellBoxSet, theta_join
from repro.core.relation import LineageRelation
from repro.dslog import DSLog
from repro.service.pipeline import LineageService
from repro.storage import sharded
from repro.storage.catalog import (
    AmbiguousLineageError,
    ArrayInfo,
    Catalog,
    LineageConflictError,
    OperationRecord,
)


def relation(in_name="A", out_name="B", n=8):
    pairs = [((i,), (i,)) for i in range(n)]
    return LineageRelation.from_pairs(pairs, (n,), (n,), in_name=in_name, out_name=out_name)


class TestArrays:
    def test_define_and_lookup(self):
        catalog = Catalog()
        info = catalog.define_array("A", (4, 5))
        assert info == ArrayInfo("A", (4, 5))
        assert catalog.array("A").ncells == 20
        assert catalog.array("A").ndim == 2

    def test_redefine_same_shape_ok(self):
        catalog = Catalog()
        catalog.define_array("A", (4,))
        catalog.define_array("A", (4,))

    def test_redefine_different_shape_rejected(self):
        catalog = Catalog()
        catalog.define_array("A", (4,))
        with pytest.raises(ValueError):
            catalog.define_array("A", (5,))

    def test_unknown_array(self):
        with pytest.raises(KeyError):
            Catalog().array("missing")


class TestLineageEntries:
    def test_add_relation_stores_one_backward_table(self):
        catalog = Catalog()
        entry = catalog.add_relation(relation())
        # keyed on the output: the one orientation a table has
        assert (entry.backward.key_name, entry.backward.value_name) == ("B", "A")
        assert not hasattr(entry, "forward") and not hasattr(entry.backward, "key_side")
        assert entry.is_resident()
        # a hop from either side joins the one table
        for start, end in (("A", "B"), ("B", "A")):
            hop = theta_join(CellBoxSet.from_cells(start, (8,), [(3,)]), entry.backward)
            assert (hop.array_name, hop.to_cells()) == (end, {(3,)})

    def test_hop_from_unknown_array(self):
        catalog = Catalog()
        entry = catalog.add_relation(relation())
        with pytest.raises(ValueError, match="'Z'"):
            theta_join(CellBoxSet.from_cells("Z", (8,), [(3,)]), entry.backward)

    def test_entry_between_directions(self):
        catalog = Catalog()
        catalog.add_relation(relation())
        entry, direction = catalog.entry_between("A", "B")
        assert direction == "forward"
        entry, direction = catalog.entry_between("B", "A")
        assert direction == "backward"

    def test_entry_between_missing(self):
        with pytest.raises(KeyError):
            Catalog().entry_between("A", "B")

    @pytest.mark.parametrize("durable", [False, True])
    def test_self_loop_refused(self, tmp_path, durable):
        """An entry from an array to itself could never be queried (the
        path ``["a", "a"]`` names both directions), so every way in
        refuses it, naming the pair, and stores nothing."""
        loop = "lineage between 'a' and 'a' is from an array to itself"
        log = DSLog(tmp_path / "db" if durable else None)
        for name in ("a", "x", "y"):
            log.define_array(name, (8,))
        with pytest.raises(ValueError, match=loop):
            log.add_lineage("a", "a", relation=relation("a", "a"))
        with pytest.raises(ValueError, match=loop):
            log.register_operation("op", ["a"], ["a"], relations={("a", "a"): relation("a", "a")})
        # reused: the second call's table comes from the first's signature
        log.register_operation("op", ["x"], ["y"], relations={("x", "y"): relation("x", "y")})
        with pytest.raises(ValueError, match=loop):
            log.register_operation("op", ["a"], ["a"])
        assert [(e.in_name, e.out_name) for e in log.catalog.entries()] == [("x", "y")]
        log.close()

    def test_self_loop_refused_by_a_service_ticket(self, tmp_path):
        with LineageService(tmp_path / "db", workers=1) as svc:
            svc.define_array("a", (8,))
            ticket = svc.submit_lineage("a", "a", relation=relation("a", "a"))
            with pytest.raises(ValueError, match="'a' and 'a'"):
                ticket.result(timeout=10)
            assert ticket.failed and len(svc.log.catalog) == 0

    def test_stored_self_loop_still_opens(self, tmp_path, monkeypatch):
        """A store an older build wrote with a self-loop row opens as it
        is: the refusal is at ingest, and there is no migration."""
        monkeypatch.setattr(sharded, "_entry_pair", lambda t: (t.in_name, t.out_name))
        with DSLog(tmp_path / "db") as log:
            log.define_array("a", (8,))
            log.add_lineage("a", "a", relation=relation("a", "a"))
        monkeypatch.undo()
        with DSLog.load(tmp_path / "db") as log:
            assert [(e.in_name, e.out_name) for e in log.catalog.entries()] == [("a", "a")]
            assert log.scrub()["clean"]

    def test_storage_bytes_positive_and_gzip_smaller_or_close(self):
        catalog = Catalog()
        catalog.add_relation(relation(n=1000))
        plain = catalog.storage_bytes(gzip=False)
        gz = catalog.storage_bytes(gzip=True)
        assert plain > 0 and gz > 0

    def test_len_counts_entries(self):
        catalog = Catalog()
        catalog.add_relation(relation("A", "B"))
        catalog.add_relation(relation("B", "C"))
        assert len(catalog) == 2
        assert len(catalog.entries()) == 2


class TestOverwriteSemantics:
    def test_silent_overwrite_rejected(self):
        catalog = Catalog()
        catalog.add_relation(relation())
        with pytest.raises(LineageConflictError):
            catalog.add_relation(relation())

    def test_explicit_replace_versions_the_entry(self):
        catalog = Catalog()
        first = catalog.add_relation(relation(), op_name="first")
        assert first.version == 1
        second = catalog.add_relation(relation(), op_name="second", replace=True)
        assert second.version == 2
        assert catalog.entry("A", "B").op_name == "second"
        assert len(catalog) == 1

    def test_replace_bumps_catalog_version_for_cache_invalidation(self):
        catalog = Catalog()
        catalog.add_relation(relation())
        before = catalog.version
        catalog.add_relation(relation(), replace=True)
        assert catalog.version > before

    def test_entry_between_ambiguous_orientations(self):
        catalog = Catalog()
        catalog.add_relation(relation("A", "B"))
        catalog.add_relation(relation("B", "A"))
        with pytest.raises(AmbiguousLineageError):
            catalog.entry_between("A", "B")
        # the explicit lookups stay unambiguous
        assert catalog.entry("A", "B").in_name == "A"
        assert catalog.entry("B", "A").in_name == "B"

    def test_conflict_error_is_a_value_error(self):
        catalog = Catalog()
        catalog.add_relation(relation())
        with pytest.raises(ValueError):
            catalog.add_relation(relation())


class TestOperations:
    def test_operation_records(self):
        catalog = Catalog()
        record = OperationRecord(op_name="neg", in_arrs=("A",), out_arrs=("B",))
        catalog.add_operation(record)
        assert catalog.operations[0].op_name == "neg"


class TestStoreProtocol:
    """What the serving tier asks of any catalog: a home shard per pair
    (an in-memory catalog is one shard), one generation counter every
    mutation bumps, and a token per install that no other install shares."""

    def test_memory_catalog_is_one_shard(self):
        catalog = Catalog()
        catalog.add_relation(relation("A", "B"))
        catalog.add_relation(relation("B", "C"))
        assert catalog.entry_shard(("A", "B")) == catalog.entry_shard(("B", "C")) == 0
        assert catalog.materialize_all() == 2  # one table per entry

    def test_every_mutation_bumps_the_one_counter(self):
        catalog = Catalog()
        seen = [catalog.version]
        catalog.define_array("A", (8,))
        seen.append(catalog.version)
        catalog.define_array("A", (8,))  # already defined: nothing changed
        assert catalog.version == seen[-1]
        catalog.add_relation(relation("A", "B"))
        seen.append(catalog.version)
        catalog.add_relation(relation("A", "B"), replace=True)
        seen.append(catalog.version)
        catalog.add_operation(OperationRecord(op_name="neg", in_arrs=("A",), out_arrs=("B",)))
        seen.append(catalog.version)
        assert seen == sorted(set(seen))

    def test_installs_never_share_a_token(self):
        catalog = Catalog()
        tokens = [catalog.add_relation(relation("A", "B")).token]
        catalog.define_array("Z", (8,))
        tokens.append(catalog.add_relation(relation("B", "C")).token)
        tokens.append(catalog.add_relation(relation("A", "B"), replace=True).token)
        assert len(set(tokens)) == 3 and 0 not in tokens
        assert catalog.entry("A", "B").token == tokens[2]

    def test_dropped_and_re_added_pair_gets_a_fresh_token(self, tmp_path):
        # ``entry.version`` restarts at 1 here, which is why it cannot be
        # the token; lazy installs at open take part too
        from repro import DSLog

        log = DSLog(tmp_path / "db", num_shards=2)
        for name in "AB":
            log.define_array(name, (8,))
        log.add_lineage("A", "B", relation=relation("A", "B"))
        log.add_lineage("A", "B", relation=relation("A", "B"), replace=True)
        log.close()
        log = DSLog.load(tmp_path / "db")
        seen = {log.catalog.entry("A", "B").token}
        log.catalog.drop_entries([("A", "B")])
        again = log.add_lineage("A", "B", relation=relation("A", "B"))
        assert again.version == 1
        assert again.token not in seen and again.token == log.catalog.version
        log.close()
