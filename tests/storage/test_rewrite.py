"""Records move in one place, ``LineageStore.rewrite``: a compaction that
meets a fault raises and changes nothing.

Each case compacts a one-shard catalog A0 -> A1 -> A2 -> A3 that meets
one fault: an injected ``segment.read`` EIO, a flipped payload byte, or
an injected ``manifest.write`` error.  ``MANIFEST.json``, the in-memory
manifest and every segment file the manifest names must be exactly as
they were, with no fresh file left behind; after a further write, a
close and a cold reopen, every intact entry answers as before.  A
compaction that emptied the segment list and re-pointed refs as it
copied would lose the intact entries the next publish no longer names.
"""

import json

import numpy as np
import pytest

from repro import DSLog, FaultPlan
from repro.core.relation import LineageRelation
from repro.storage.manifest import MANIFEST_NAME
from repro.storage.segments import CorruptRecordError, record_overhead
from repro.storage.store import TableRef

SHAPE = (4,)
STORE = "shard-00"
NAMES = ["A0", "A1", "A2", "A3"]
PAIRS = list(zip(NAMES, NAMES[1:]))
CELLS = [(1,), (3,)]


def elementwise(in_name, out_name):
    pairs = [(cell, cell) for cell in np.ndindex(*SHAPE)]
    return LineageRelation.from_pairs(pairs, SHAPE, SHAPE, in_name=in_name, out_name=out_name)


def build(root):
    log = DSLog(root, num_shards=1, autosync=False)
    for name in NAMES:
        log.define_array(name, SHAPE)
    for a, b in PAIRS:
        log.add_lineage(a, b, relation=elementwise(a, b), op_name=f"op_{a}")
    log.close()


def flip_payload_byte(store_dir, pair):
    """Corrupt one byte in the middle of *pair*'s record on disk."""
    manifest = json.loads((store_dir / MANIFEST_NAME).read_text())
    row = next(r for r in manifest["entries"] if (r["in"], r["out"]) == pair)
    ref = TableRef.from_json(row["backward"])
    path = store_dir / ref.segment
    data = bytearray(path.read_bytes())
    data[ref.offset + record_overhead() + ref.length // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def state(log):
    """Everything a failed compaction must leave alone: the published
    manifest, the in-memory one, and the bytes of every segment file."""
    store_dir = log.store.shards[0].root
    return (
        (store_dir / MANIFEST_NAME).read_bytes(),
        json.dumps(log.store.shards[0].manifest.to_json(), sort_keys=True),
        {p.name: p.read_bytes() for p in sorted(store_dir.glob("segment-*.seg"))},
    )


def answers(log, pairs):
    return {pair: log.prov_query(list(pair), CELLS).to_cells() for pair in pairs}


def fault_on_second_read(plan):
    plan.on("segment.read", kind="error", at=2, times=1)


def fault_on_publish(plan):
    plan.on("manifest.write", kind="error", at=1, times=1)


@pytest.mark.parametrize(
    "arm, error",
    [(fault_on_second_read, OSError), (fault_on_publish, OSError), (None, CorruptRecordError)],
    ids=["segment-read-eio", "manifest-write-error", "flipped-payload-byte"],
)
def test_failed_compaction_changes_nothing_and_loses_nothing(tmp_path, arm, error):
    root = tmp_path / "db"
    build(root)
    corrupt = None
    if arm is None:
        corrupt = PAIRS[1]
        flip_payload_byte(root / STORE, corrupt)
    intact = [pair for pair in PAIRS if pair != corrupt]
    with DSLog.load(root, autosync=False) as log:
        expected = answers(log, intact)
    plan = FaultPlan()
    log = DSLog.load(root, autosync=False, faults=plan)
    before = state(log)
    if arm is not None:
        arm(plan)
    plan.arm()
    with pytest.raises(error):
        log.compact()
    assert plan.fired() == (1 if arm is not None else 0)
    plan.disarm()
    assert state(log) == before

    log.define_array("E", SHAPE)
    log.add_lineage("A3", "E", relation=elementwise("A3", "E"))
    log.close()
    with DSLog.load(root, autosync=False) as reopened:
        assert answers(reopened, intact) == expected
        assert reopened.prov_query(["A3", "E"], CELLS).to_cells() == set(CELLS)
        if corrupt is not None:
            report = reopened.scrub(repair=True)
            assert report["shards"][0]["dropped_entries"] == [list(corrupt)]
            assert answers(reopened, intact) == expected


def test_compaction_after_a_failed_one_reclaims_and_keeps_every_entry(tmp_path):
    root = tmp_path / "db"
    build(root)
    with DSLog.load(root, autosync=False) as log:
        expected = answers(log, PAIRS)
    plan = FaultPlan()
    log = DSLog.load(root, autosync=False, faults=plan)
    fault_on_second_read(plan)
    plan.arm()
    with pytest.raises(OSError):
        log.compact()
    stats = log.compact()[0]
    assert stats["records_copied"] == len(PAIRS)
    assert answers(log, PAIRS) == expected
    segments = log.store.shards[0].manifest.segments
    assert sorted(p.name for p in (root / STORE).glob("segment-*.seg")) == segments
    log.close()
    with DSLog.load(root, autosync=False) as reopened:
        assert answers(reopened, PAIRS) == expected


def test_failed_repair_leaves_the_manifest_as_it_was(tmp_path):
    root = tmp_path / "db"
    build(root)
    flip_payload_byte(root / STORE, PAIRS[1])
    plan = FaultPlan()
    log = DSLog.load(root, autosync=False, faults=plan)
    before = state(log)
    fault_on_publish(plan)
    plan.arm()
    with pytest.raises(OSError):
        log.scrub(repair=True)
    plan.disarm()
    assert state(log) == before
    assert len(log.catalog) == len(PAIRS)
    assert not (root / STORE / "quarantine").exists()
    report = log.scrub(repair=True)["shards"][0]
    assert report["dropped_entries"] == [list(PAIRS[1])]
    assert report["evacuated_records"] == len(PAIRS) - 1
    log.close()
