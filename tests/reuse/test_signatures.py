"""Tests for operation signatures and automatic reuse prediction."""

import numpy as np

from repro.capture.analytic import elementwise_lineage
from repro.core.provrc import compress
from repro.core.relation import LineageRelation
from repro.reuse.signatures import (
    OperationSignature,
    ReuseManager,
    fingerprint_array,
    tables_equal,
)


def shape_dependent(n):
    """A lineage whose pattern changes with shape (like numpy.cross)."""
    if n % 2 == 0:
        pairs = [((i,), (i,)) for i in range(n)]
    else:
        pairs = [((i,), ((i + 1) % n,)) for i in range(n)]
    return LineageRelation.from_pairs(pairs, (n,), (n,))


def signature_for(op_name, data, out_shape, args=None):
    return OperationSignature.build(op_name, [data], [out_shape], op_args=args)


def tables_for(relation):
    return {(relation.in_name, relation.out_name): compress(relation)}


class TestFingerprintsAndEquality:
    def test_fingerprint_depends_on_content(self):
        a = np.arange(10.0)
        b = np.arange(10.0) + 1
        assert fingerprint_array(a) != fingerprint_array(b)
        assert fingerprint_array(a) == fingerprint_array(np.arange(10.0))

    def test_fingerprint_depends_on_shape(self):
        a = np.arange(12.0)
        assert fingerprint_array(a) != fingerprint_array(a.reshape(3, 4))

    def test_tables_equal_identical(self):
        t1 = compress(elementwise_lineage((8,)))
        t2 = compress(elementwise_lineage((8,)))
        assert tables_equal(t1, t2)

    def test_tables_equal_detects_difference(self):
        assert not tables_equal(compress(elementwise_lineage((8,))), compress(elementwise_lineage((9,))))

    def test_signature_keys(self):
        data = np.ones((4, 3))
        sig = signature_for("op", data, (4,), args={"axis": 1})
        assert sig.base_key[0] == "op"
        assert sig.dim_key == ("op", ((4, 3),), (("axis", "1"),))
        assert sig.gen_key == ("op", (("axis", "1"),))


class TestBaseSignatureReuse:
    def test_exact_input_match_reuses(self):
        manager = ReuseManager()
        data = np.arange(6.0)
        relation = elementwise_lineage((6,))
        sig = signature_for("negative", data, (6,))
        assert not manager.lookup(sig).reused
        manager.observe(sig, tables_for(relation))
        decision = manager.lookup(sig)
        assert decision.reused and decision.level == "base"

    def test_different_input_does_not_match_base(self):
        manager = ReuseManager()
        relation = elementwise_lineage((6,))
        manager.observe(signature_for("negative", np.arange(6.0), (6,)), tables_for(relation))
        other = manager.lookup(signature_for("negative", np.arange(6.0) * 2, (6,)))
        # base does not match; dim is not yet confirmed (m = 1 needs one repeat)
        assert not other.reused


class TestDimSignatureReuse:
    def test_promoted_after_confirmation(self):
        manager = ReuseManager(confirmations_required=1)
        relation = elementwise_lineage((6,))
        first = signature_for("negative", np.arange(6.0), (6,))
        second = signature_for("negative", np.arange(6.0) * 3, (6,))
        manager.observe(first, tables_for(relation))
        assert not manager.lookup(second).reused
        manager.observe(second, tables_for(relation))
        third = signature_for("negative", np.arange(6.0) + 7, (6,))
        decision = manager.lookup(third)
        assert decision.reused and decision.level == "dim"

    def test_mismatch_blocks_dim(self):
        manager = ReuseManager()
        sig1 = signature_for("weird", np.arange(5.0), (5,))
        sig2 = signature_for("weird", np.arange(5.0) * 2, (5,))
        manager.observe(sig1, tables_for(shape_dependent(5)))
        manager.observe(sig2, tables_for(elementwise_lineage((5,))))  # different lineage, same shape
        assert manager.stats()["dim_entries"] == 0 and manager.stats()["blocked_dim"] == 1
        assert not manager.lookup(signature_for("weird", np.ones(5), (5,))).reused

    def test_higher_confirmation_threshold(self):
        manager = ReuseManager(confirmations_required=2)
        relation = elementwise_lineage((4,))
        for i in range(2):
            manager.observe(signature_for("neg", np.arange(4.0) + i, (4,)), tables_for(relation))
        assert manager.stats()["dim_entries"] == 0
        manager.observe(signature_for("neg", np.arange(4.0) + 9, (4,)), tables_for(relation))
        assert manager.lookup(signature_for("neg", np.zeros(4), (4,))).level == "dim"


class TestGenSignatureReuse:
    def test_promoted_across_shapes(self):
        manager = ReuseManager()
        manager.observe(signature_for("negative", np.arange(6.0), (6,)), tables_for(elementwise_lineage((6,))))
        manager.observe(signature_for("negative", np.arange(9.0), (9,)), tables_for(elementwise_lineage((9,))))
        new_sig = signature_for("negative", np.arange(20.0), (20,))
        decision = manager.lookup(new_sig)
        assert decision.reused and decision.level == "gen"
        table = next(iter(decision.tables.values()))
        assert table.decompress() == elementwise_lineage((20,))

    def test_same_shape_does_not_confirm_gen(self):
        manager = ReuseManager()
        manager.observe(signature_for("negative", np.arange(6.0), (6,)), tables_for(elementwise_lineage((6,))))
        manager.observe(signature_for("negative", np.ones(6), (6,)), tables_for(elementwise_lineage((6,))))
        # dim is confirmed, but gen needs a different shape before promotion
        assert manager.lookup(signature_for("negative", np.zeros(6), (6,))).level == "dim"
        assert not manager.lookup(signature_for("negative", np.zeros(17), (17,))).reused

    def test_shape_dependent_lineage_blocks_gen(self):
        # Mirrors the paper's `cross` misprediction case: lineage pattern
        # changes with shape, so the generalized mapping must be rejected.
        manager = ReuseManager()
        manager.observe(signature_for("cross", np.arange(4.0), (4,)), tables_for(shape_dependent(4)))
        manager.observe(signature_for("cross", np.arange(5.0), (5,)), tables_for(shape_dependent(5)))
        assert not manager.lookup(signature_for("cross", np.arange(7.0), (7,))).reused
        assert manager.stats()["blocked_gen"] >= 1

    def test_stats_shape(self):
        manager = ReuseManager()
        manager.observe(signature_for("negative", np.arange(6.0), (6,)), tables_for(elementwise_lineage((6,))))
        stats = manager.stats()
        assert set(stats) == {
            "base_entries",
            "dim_entries",
            "gen_entries",
            "blocked_dim",
            "blocked_gen",
            "mispredictions",
        }
        manager.record_misprediction()
        assert manager.stats()["mispredictions"] == 1
