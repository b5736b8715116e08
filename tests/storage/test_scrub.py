"""Scrub-and-repair: every injected corruption class must be detected, and
repair must heal with zero valid-record loss: an entry stores one table,
so an entry whose record is damaged is dropped and every other entry is
kept.

Corruption classes exercised (against a catalog whose ground truth we can
recompute): a flipped payload byte mid-record (CRC mismatch), a torn tail,
a segment truncated mid-record, a segment deleted outright, and an orphan
segment file.  Repair is verified three ways: the catalog still answers
every query of every entry it kept correctly, a second scrub comes back
clean, and a cold reopen from disk sees the healed state.
"""

import json

import pytest

from repro import DSLog, QueryExecutor
from repro.capture.analytic import elementwise_lineage
from repro.storage.manifest import MANIFEST_NAME, load_manifest
from repro.storage.scrub import QUARANTINE_DIR
from repro.storage.segments import record_overhead
from repro.storage.store import TableRef
from repro.tools.scrub import main as scrub_main

SHAPE = (4,)
OVERHEAD = record_overhead()
# a one-shard catalog keeps its whole store (manifest, segments, quarantine)
# in this subdirectory, and its scrub report under ["shards"][0]
STORE = "shard-00"


def build(root, n, num_shards=1, **kwargs):
    log = DSLog(root, num_shards=num_shards, autosync=False, **kwargs)
    names = [f"A{i}" for i in range(n + 1)]
    for name in names:
        log.define_array(name, SHAPE)
    for a, b in zip(names, names[1:]):
        log.add_lineage(a, b, relation=elementwise_lineage(SHAPE, in_name=a, out_name=b), op_name=f"op_{a}")
    log.sync()
    log.close()
    return names


def flip_payload_byte(root, ref: TableRef) -> None:
    """Corrupt one byte inside the payload a manifest ref addresses."""
    path = root / ref.segment
    data = bytearray(path.read_bytes())
    target = ref.offset + OVERHEAD + ref.length // 2
    data[target] ^= 0xFF
    path.write_bytes(bytes(data))


def entry_ref(root, index=0) -> TableRef:
    manifest = load_manifest(root)
    return TableRef.from_json(manifest.entries[index]["backward"])


def redirect_ref(root, victim=0, donor=1) -> None:
    """Point one entry's ref at another entry's (perfectly valid) record."""
    path = root / MANIFEST_NAME
    data = json.loads(path.read_text())
    data["entries"][victim]["backward"] = dict(data["entries"][donor]["backward"])
    path.write_text(json.dumps(data))


def assert_fully_readable(root, names, dropped=()):
    """The zero-loss check: reopen cold and recompute every entry of the
    chain *names* but the *dropped* ``(in, out)`` pairs, which are gone."""
    log = DSLog.load(root, autosync=False)
    try:
        pairs = list(zip(names, names[1:]))
        assert log.catalog.materialize_all() == len(pairs) - len(dropped)
        for a, b in pairs:
            if (a, b) in dropped:
                with pytest.raises(KeyError):
                    log.catalog.entry(a, b)
                continue
            assert log.prov_query([a, b], [(1,)]).to_cells() == {(1,)}
            assert log.prov_query([b, a], [(2,)]).to_cells() == {(2,)}
    finally:
        log.close()


class TestDetect:
    def test_clean_catalog_reports_clean(self, tmp_path):
        root = tmp_path / "db"
        build(root, 4)
        log = DSLog.load(root, autosync=False)
        report = log.scrub(repair=False)["shards"][0]
        log.close()
        assert report["clean"]
        assert report["repaired"] is False
        assert report["records_checked"] >= 4  # one record per entry
        assert not report["corrupt_records"]

    def test_flipped_byte_detected_as_checksum(self, tmp_path):
        root = tmp_path / "db"
        build(root, 3)
        flip_payload_byte(root / STORE, entry_ref(root / STORE, index=1))
        log = DSLog.load(root, autosync=False)
        report = log.scrub(repair=False)["shards"][0]
        log.close()
        assert not report["clean"]
        classes = {r["class"] for r in report["corrupt_records"]}
        assert classes == {"checksum"}
        assert report["corrupt_records"][0]["kind"] == "entry"
        assert any(
            "checksum-mismatch" in d["reason"] for d in report["damaged_segments"]
        )

    def test_torn_tail_detected(self, tmp_path):
        root = tmp_path / "db"
        build(root, 3)
        segment = root / STORE / load_manifest(root / STORE).segments[-1]
        with open(segment, "ab") as fh:
            fh.write((5000).to_bytes(4, "little") + b"short")
        log = DSLog.load(root, autosync=False)
        report = log.scrub(repair=False)["shards"][0]
        log.close()
        assert not report["clean"]
        assert not report["corrupt_records"]  # every referenced record intact
        [damage] = report["damaged_segments"]
        assert "torn" in damage["reason"]
        assert damage["torn_bytes"] == 4 + len(b"short")

    def test_truncated_segment_detected(self, tmp_path):
        root = tmp_path / "db"
        build(root, 3)
        manifest = load_manifest(root / STORE)
        segment = root / STORE / manifest.segments[-1]
        last = max(
            (TableRef.from_json(row["backward"]) for row in manifest.entries),
            key=lambda r: r.offset,
        )
        with open(segment, "r+b") as fh:
            fh.truncate(last.offset + OVERHEAD + last.length // 2)
        log = DSLog.load(root, autosync=False)
        report = log.scrub(repair=False)["shards"][0]
        log.close()
        assert not report["clean"]
        assert any(r["class"] == "truncated" for r in report["corrupt_records"])

    def test_missing_segment_detected(self, tmp_path):
        root = tmp_path / "db"
        build(root, 3)
        (root / STORE / load_manifest(root / STORE).segments[-1]).unlink()
        log = DSLog.load(root, autosync=False)
        report = log.scrub(repair=False)["shards"][0]
        log.close()
        assert not report["clean"]
        assert any(r["class"] == "missing" for r in report["corrupt_records"])
        assert any(d["reason"] == "missing" for d in report["damaged_segments"])

    def test_garbled_header_opens_and_is_reported(self, tmp_path):
        # the open-time wire-version guard refuses only well-formed headers
        # of a retired version; a header that is damage stays scrub's
        root = tmp_path / "db"
        build(root, 2)
        segment = root / STORE / load_manifest(root / STORE).segments[-1]
        data = bytearray(segment.read_bytes())
        data[:4] = b"XXXX"
        segment.write_bytes(bytes(data))
        log = DSLog.load(root, autosync=False)
        report = log.scrub(repair=False)["shards"][0]
        log.close()
        assert [d["reason"] for d in report["damaged_segments"]] == ["corrupt-header"]

    def test_misdirected_ref_detected(self, tmp_path):
        # a valid-checksum record that belongs to a *different* entry (the
        # wreckage a torn batch used to leave when dropped offsets were
        # reassigned): only the identity check can see it
        root = tmp_path / "db"
        build(root, 3)
        redirect_ref(root / STORE, victim=0, donor=1)
        log = DSLog.load(root, autosync=False)
        report = log.scrub(repair=False)["shards"][0]
        log.close()
        assert not report["clean"]
        [bad] = report["corrupt_records"]
        assert bad["class"] == "misdirected"
        assert bad["kind"] == "entry"
        assert bad["pair"] == ["A0", "A1"]

    def test_orphan_segment_detected(self, tmp_path):
        root = tmp_path / "db"
        build(root, 2)
        log = DSLog.load(root, autosync=False)
        # created after open: reopen itself unlinks pre-existing orphans
        orphan = root / STORE / "segment-000099.seg"
        orphan.write_bytes(b"DSEG" + (2).to_bytes(2, "little") + b"junk")
        report = log.scrub(repair=False)["shards"][0]
        log.close()
        assert not report["clean"]
        assert report["orphan_segments"] == ["segment-000099.seg"]


class TestRepair:
    def test_misdirected_ref_drops_only_that_entry(self, tmp_path):
        # the donor's record is valid and stays its own
        root = tmp_path / "db"
        names = build(root, 3)
        redirect_ref(root / STORE, victim=0, donor=1)
        log = DSLog.load(root, autosync=False)
        report = log.scrub(repair=True)["shards"][0]
        assert report["repaired"]
        assert report["dropped_entries"] == [["A0", "A1"]]
        assert log.scrub(repair=False)["clean"]
        log.close()
        assert_fully_readable(root, names, dropped=[("A0", "A1")])

    def test_flipped_byte_drops_only_that_entry(self, tmp_path):
        root = tmp_path / "db"
        names = build(root, 4)
        flip_payload_byte(root / STORE, entry_ref(root / STORE, index=2))
        log = DSLog.load(root, autosync=False)
        report = log.scrub(repair=True)["shards"][0]
        assert report["repaired"]
        assert report["dropped_entries"] == [["A2", "A3"]]
        assert report["evacuated_records"] == 3  # the others, out of the damaged segment
        assert log.scrub(repair=False)["clean"]
        log.close()
        assert_fully_readable(root, names, dropped=[("A2", "A3")])
        qdir = root / STORE / QUARANTINE_DIR
        quarantined = list(qdir.glob("segment-*.seg"))
        assert len(quarantined) == 1
        why = json.loads((qdir / f"{quarantined[0].name}.json").read_text())
        assert "corrupt-records" in why["reason"]

    def test_dropped_entry_leaves_the_live_catalog(self, tmp_path):
        root = tmp_path / "db"
        build(root, 4)
        flip_payload_byte(root / STORE, entry_ref(root / STORE, index=1))
        manifest = load_manifest(root / STORE)
        dropped_pair = [manifest.entries[1]["in"], manifest.entries[1]["out"]]
        log = DSLog.load(root, autosync=False)
        report = log.scrub(repair=True)["shards"][0]
        assert report["dropped_entries"] == [dropped_pair]
        # the catalog pruned the dropped entry: no dangling refs anywhere
        assert len(log.catalog) == 3
        assert log.catalog.materialize_all() == 3
        assert log.scrub(repair=False)["clean"]
        log.close()
        reopened = DSLog.load(root)
        assert len(reopened.catalog) == 3
        reopened.close()

    def test_dropped_entry_leaves_the_result_cache(self, tmp_path):
        # the cached executor must answer as an uncached one does: before
        # the cache validated per lineage entry, scrub's drop bumped no
        # counter it read, and the dropped pair's result kept hitting
        root = tmp_path / "db"
        build(root, 4)
        log = DSLog.load(root, autosync=False)
        with QueryExecutor(log) as cached, QueryExecutor(log, cache_entries=0) as uncached:
            for path in (["A2", "A1"], ["A1", "A0"]):
                cached.query(path, [(1,)])
                assert cached.query(path, [(1,)]).cached
            flip_payload_byte(root / STORE, entry_ref(root / STORE, index=1))
            report = log.scrub(repair=True)["shards"][0]
            assert report["dropped_entries"] == [["A1", "A2"]]
            for executor in (uncached, cached):
                with pytest.raises(KeyError):
                    executor.query(["A2", "A1"], [(1,)])
            # re-ingested, the pair is a new install whose per-pair
            # ``version`` is 1 again: the old result must not come back
            log.add_lineage("A1", "A2", relation=elementwise_lineage(SHAPE, in_name="A1", out_name="A2"))
            assert log.catalog.entry("A1", "A2").version == 1
            assert not cached.query(["A2", "A1"], [(1,)]).cached
            # the entries scrub kept still hit
            kept = cached.query(["A1", "A0"], [(1,)])
            assert kept.cached and not kept.degraded
            assert kept.result.to_cells() == uncached.query(["A1", "A0"], [(1,)]).result.to_cells()
        log.close()

    def test_torn_tail_repair_evacuates_all_records(self, tmp_path):
        root = tmp_path / "db"
        names = build(root, 4)
        segment = root / STORE / load_manifest(root / STORE).segments[-1]
        with open(segment, "ab") as fh:
            fh.write(b"\xff" * 17)
        log = DSLog.load(root, autosync=False)
        report = log.scrub(repair=True)["shards"][0]
        assert report["repaired"]
        assert report["evacuated_records"] >= 1
        assert report["dropped_entries"] == []
        assert log.scrub(repair=False)["clean"]
        log.close()
        assert_fully_readable(root, names)
        assert not segment.exists()  # quarantined
        assert (root / STORE / QUARANTINE_DIR / segment.name).exists()

    def test_truncated_segment_salvages_valid_prefix(self, tmp_path):
        root = tmp_path / "db"
        names = build(root, 4)
        manifest = load_manifest(root / STORE)
        segment = root / STORE / manifest.segments[-1]
        last = max(
            (TableRef.from_json(row["backward"]) for row in manifest.entries),
            key=lambda r: r.offset,
        )
        with open(segment, "r+b") as fh:
            fh.truncate(last.offset + 3)  # cut mid-prefix of the last record
        log = DSLog.load(root, autosync=False)
        report = log.scrub(repair=True)["shards"][0]
        assert report["repaired"]
        assert report["dropped_entries"] == [["A3", "A4"]]  # the cut record's
        assert report["evacuated_records"] == 3  # everything before the cut
        assert log.scrub(repair=False)["clean"]
        log.close()
        assert_fully_readable(root, names, dropped=[("A3", "A4")])

    def test_orphan_quarantined_not_deleted(self, tmp_path):
        root = tmp_path / "db"
        build(root, 2)
        log = DSLog.load(root, autosync=False)
        orphan = root / STORE / "segment-000099.seg"
        orphan.write_bytes(b"DSEG" + (2).to_bytes(2, "little") + b"junk")
        report = log.scrub(repair=True)["shards"][0]
        log.close()
        assert "segment-000099.seg" in report["quarantined"]
        assert not orphan.exists()
        moved = root / STORE / QUARANTINE_DIR / "segment-000099.seg"
        assert moved.exists()
        why = json.loads((moved.parent / "segment-000099.seg.json").read_text())
        assert why["reason"] == "orphan"

    def test_segment_retired_under_a_snapshot_pin_is_not_an_orphan(self, tmp_path):
        # a compaction under a pin retires the old segments instead of
        # deleting them; until the pin goes, a snapshot still reads them
        root = tmp_path / "db"
        names = build(root, 2)
        log = DSLog.load(root, autosync=False)
        view = log.snapshot()
        log.add_lineage(names[0], names[1], relation=elementwise_lineage(SHAPE, in_name=names[0], out_name=names[1]),
                        op_name="v2", replace=True)
        log.sync()
        log.compact()
        report = log.scrub(repair=True)["shards"][0]
        assert report["orphan_segments"] == [] and report["quarantined"] == []
        want = elementwise_lineage(SHAPE, in_name=names[0], out_name=names[1])
        assert view.catalog.entry(names[0], names[1]).backward.decompress() == want
        view.close()
        log.close()
        assert_fully_readable(root, names)

    def test_repair_survives_cold_restart_and_keeps_ingesting(self, tmp_path):
        root = tmp_path / "db"
        names = build(root, 3)
        flip_payload_byte(root / STORE, entry_ref(root / STORE, index=0))
        log = DSLog.load(root, autosync=False)
        assert log.scrub(repair=True)["shards"][0]["dropped_entries"] == [["A0", "A1"]]
        log.close()
        log = DSLog.load(root, autosync=False)
        log.define_array("B", SHAPE)
        log.add_lineage(names[3], "B", relation=elementwise_lineage(SHAPE, in_name=names[3], out_name="B"))
        log.sync()
        log.close()
        assert_fully_readable(root, names + ["B"], dropped=[("A0", "A1")])


class TestShardedScrub:
    def test_one_damaged_shard_healed_others_untouched(self, tmp_path):
        root = tmp_path / "db"
        names = build(root, 8, num_shards=3)
        damaged = None
        for idx in range(3):
            manifest = load_manifest(root / f"shard-{idx:02d}")
            if manifest.entries:
                damaged = idx
                ref = TableRef.from_json(manifest.entries[0]["backward"])
                flip_payload_byte(root / f"shard-{idx:02d}", ref)
                lost = (manifest.entries[0]["in"], manifest.entries[0]["out"])
                break
        assert damaged is not None
        log = DSLog.load(root, autosync=False)
        detect = log.scrub(repair=False)
        assert not detect["shards"][damaged]["clean"]
        assert all(r["clean"] for i, r in detect["shards"].items() if i != damaged)
        report = log.scrub(repair=True)
        assert report["shards"][damaged]["repaired"]
        assert report["shards"][damaged]["dropped_entries"] == [list(lost)]
        again = log.scrub(repair=False)
        assert again["clean"] and all(r["clean"] for r in again["shards"].values())
        log.close()
        assert_fully_readable(root, names, dropped=[lost])


class TestScrubCLI:
    def test_exit_codes_detect_repair_clean(self, tmp_path, capsys):
        root = tmp_path / "db"
        build(root, 3)
        flip_payload_byte(root / STORE, entry_ref(root / STORE, index=0))
        assert scrub_main([str(root)]) == 1  # damage found, left in place
        out = capsys.readouterr().out
        assert "DAMAGED" in out and "checksum" in out
        assert scrub_main([str(root), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "repaired" in out and "healed" in out and "DROPPED entry A0 -> A1" in out
        assert scrub_main([str(root)]) == 0  # clean after the repair
        assert "clean" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        root = tmp_path / "db"
        build(root, 2)
        assert scrub_main([str(root), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is True

    def test_not_a_catalog_is_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "not-a-catalog"
        empty.mkdir()
        assert scrub_main([str(empty)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_memory_backend_refuses_scrub(self):
        log = DSLog()
        with pytest.raises(RuntimeError, match="durable log"):
            log.scrub()
