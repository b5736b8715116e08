"""Fault soak: seeded random fault schedules against the real storage and
service stacks, asserting the recovery invariants rather than specific
outcomes.

Every seed drives a deterministic :class:`FaultPlan` (mixed EIO, ENOSPC,
torn short writes and fsync faults) through a full ingest run; afterwards
the catalog must be mechanically recoverable: ``scrub(repair=True)`` never
raises, a second scrub is clean, every surviving entry hydrates and
answers queries correctly, and no durably-acknowledged write is lost.
Compactions that meet seeded read and publish faults must leave every
record where the manifest says, so their recovery drops nothing.  An
entry stores one table, so the repair drops exactly the entries whose
sole record the scrub found corrupt — no entry with a valid record.

Marked ``faults`` so tier-1 stays fast: CI's fault-soak job runs
``pytest -m faults`` over a seed matrix (``DSLOG_SOAK_SEEDS`` /
``DSLOG_SOAK_RATE`` widen it).
"""

import os

import numpy as np
import pytest

from repro import DSLog, FaultPlan, LineageService
from repro.core.relation import LineageRelation
from repro.faults import FaultRule

pytestmark = pytest.mark.faults

SHAPE = (4,)
SEEDS = [int(s) for s in os.environ.get("DSLOG_SOAK_SEEDS", "101,202,303").split(",")]
RATE = float(os.environ.get("DSLOG_SOAK_RATE", "0.08"))


def elementwise(in_name, out_name, shape=SHAPE):
    pairs = [(cell, cell) for cell in np.ndindex(*shape)]
    return LineageRelation.from_pairs(
        pairs, shape, shape, in_name=in_name, out_name=out_name
    )


def mixed_plan(seed):
    """EIO + ENOSPC + torn short writes + fsync/manifest faults, each on
    its own deterministic sub-seed."""
    return FaultPlan(
        [
            FaultRule("segment.write", kind="short_write", rate=RATE / 2, seed=seed),
            FaultRule("segment.write", kind="error", rate=RATE, seed=seed + 1),
            FaultRule("segment.fsync", kind="error", rate=RATE, seed=seed + 2),
            FaultRule("segment.fsync", kind="enospc", rate=RATE / 2, seed=seed + 3),
            FaultRule("manifest.write", kind="error", rate=RATE, seed=seed + 4),
        ]
    )


def assert_recovered_consistent(root):
    """Cold-open the catalog, heal it, and prove that only entries with a
    corrupt record were dropped and every surviving entry is fully
    readable; returns the surviving (in, out) pairs."""
    recovered = DSLog.load(root, autosync=False)
    try:
        opened = {(e.in_name, e.out_name) for e in recovered.catalog.entries()}
        report = recovered.scrub(repair=True)  # must never raise
        corrupt, dropped = set(), set()
        for shard in report["shards"].values():
            corrupt |= {tuple(r["pair"]) for r in shard["corrupt_records"] if "pair" in r}
            dropped |= {tuple(pair) for pair in shard["dropped_entries"]}
        assert dropped == corrupt  # a corrupt sole record drops its entry, nothing else
        second = recovered.scrub(repair=False)
        assert all(r["clean"] for r in second["shards"].values())
        assert recovered.catalog.materialize_all() == len(recovered.catalog)
        survivors = {(e.in_name, e.out_name) for e in recovered.catalog.entries()}
        assert survivors == opened - dropped
        for a, b in survivors:
            assert recovered.prov_query([a, b], [(1,)]).to_cells() == {(1,)}
    finally:
        recovered.close()
    return survivors


@pytest.mark.parametrize("seed", SEEDS)
def test_storage_soak_scrub_always_heals(seed, tmp_path):
    root = tmp_path / "db"
    plan = mixed_plan(seed)
    log = DSLog(root, num_shards=1, autosync=False, faults=plan)
    names = [f"A{i}" for i in range(41)]
    for name in names:
        log.define_array(name, SHAPE)
    plan.arm()
    for i, (a, b) in enumerate(zip(names, names[1:])):
        try:
            log.add_lineage(a, b, relation=elementwise(a, b), op_name=f"op_{a}")
        except OSError:
            continue
        if i % 4 == 3:
            try:
                log.sync()
            except OSError:
                pass
    plan.disarm()
    try:
        log.close()
    except OSError:
        pass
    assert_recovered_consistent(root)


@pytest.mark.parametrize("seed", SEEDS)
def test_service_soak_durable_tickets_never_lost(seed, tmp_path):
    root = tmp_path / "db"
    plan = mixed_plan(seed)
    log = DSLog(root, num_shards=2, autosync=False, faults=plan)
    svc = LineageService(log=log, workers=2)
    names = [f"B{i}" for i in range(25)]
    for name in names:
        svc.define_array(name, SHAPE)
    plan.arm()
    tickets = []
    for a, b in zip(names, names[1:]):
        tickets.append(
            svc.submit_lineage(a, b, relation=elementwise(a, b), op_name=f"op_{a}")
        )
    svc.flush(timeout=60)
    plan.disarm()
    svc.close()

    survivors = assert_recovered_consistent(root)
    # the durability contract under fire: an acknowledged (durable) ticket
    # is NEVER lost — failed tickets may or may not have landed
    for ticket in tickets:
        assert ticket.done
        if not ticket.failed:
            entry = ticket._record
            assert (entry.in_name, entry.out_name) in survivors


@pytest.mark.parametrize("seed", SEEDS)
def test_compaction_soak_under_read_faults_loses_nothing(seed, tmp_path):
    """Compactions that meet seeded read and publish faults raise or
    finish, and either way leave every record where the manifest says:
    nothing on disk is corrupt, so recovery drops no entry and every
    entry ingested before the compactions still answers."""
    root = tmp_path / "db"
    plan = FaultPlan(
        [
            FaultRule("segment.read", kind="error", rate=RATE, seed=seed),
            FaultRule("manifest.write", kind="error", rate=RATE, seed=seed + 1),
        ]
    )
    log = DSLog(root, num_shards=2, autosync=False, faults=plan)
    names = [f"C{i}" for i in range(25)] + ["Z"]
    for name in names:
        log.define_array(name, SHAPE)
    pairs = list(zip(names[:-1], names[1:-1]))
    for a, b in pairs:
        log.add_lineage(a, b, relation=elementwise(a, b), op_name=f"op_{a}")
    log.sync()
    plan.arm()
    for shard in log.store.shards:
        shard.reset_io()  # every record is read from disk again
    for _ in range(4):
        try:
            log.compact()
        except OSError:
            pass
    plan.disarm()
    log.add_lineage(names[-2], "Z", relation=elementwise(names[-2], "Z"))
    log.close()
    assert assert_recovered_consistent(root) == set(pairs) | {(names[-2], "Z")}
