"""``python -m repro.tools.scrub`` — fsck a DSLog catalog directory.

Verifies every manifest-referenced record (structure and CRC32 checksums),
reports torn tails, truncated and missing segments, and orphan files; with
``--repair``, quarantines the damage into ``<root>/quarantine/`` and heals
the catalog with zero valid-record loss: an entry whose one table is
damaged is dropped (see :mod:`repro.storage.scrub`).

Usage::

    python -m repro.tools.scrub /path/to/catalog            # detect only
    python -m repro.tools.scrub /path/to/catalog --repair   # heal in place
    python -m repro.tools.scrub /path/to/catalog --json     # raw report

Exit status: 0 when the catalog is clean (or was fully repaired), 1 when
damage was found and left in place (detect-only run), 2 when the directory
is not a DSLog catalog or the scrub itself failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..core.serialize import OLD_FORMAT_HINT
from ..dslog import DSLog
from ..storage.sharded import load_shards_file

__all__ = ["main"]


def _summarize(report: dict, out) -> None:
    """Print a human summary of one shard's report."""
    status = "clean" if report["clean"] else "DAMAGED"
    if report.get("repaired"):
        status = "repaired"
    print(
        f"{report['root']}: {status} "
        f"({report['segments_checked']} segments, "
        f"{report['records_checked']} records checked)",
        file=out,
    )
    for rec in report["corrupt_records"]:
        print(
            f"  corrupt record [{rec['class']}] {rec['kind']} "
            f"{rec['segment']}@{rec['offset']}+{rec['length']}",
            file=out,
        )
    for seg in report["damaged_segments"]:
        print(
            f"  damaged segment {seg['segment']} ({seg['reason']}, "
            f"{seg['torn_bytes']} torn bytes)",
            file=out,
        )
    for name in report["orphan_segments"]:
        print(f"  orphan segment {name}", file=out)
    if report.get("repaired"):
        print(
            f"  healed: {report['evacuated_records']} records evacuated, "
            f"{len(report['dropped_entries'])} entries dropped, "
            f"{len(report['quarantined'])} files quarantined "
            f"-> generation {report['generation']}",
            file=out,
        )
        for pair in report["dropped_entries"]:
            print(f"  DROPPED entry {pair[0]} -> {pair[1]} (its table is damaged)", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.scrub",
        description="fsck a DSLog catalog directory",
    )
    parser.add_argument("root", help="catalog directory (holds SHARDS.json)")
    parser.add_argument(
        "--repair",
        action="store_true",
        help="quarantine damage and heal the catalog (default: detect only)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the raw scrub report as JSON"
    )
    args = parser.parse_args(argv)

    try:
        if load_shards_file(args.root) is None:
            # opening would create an empty catalog here; fsck must not write
            raise ValueError(
                f"{args.root} holds no SHARDS.json: not a DSLog catalog, or one an "
                f"older build wrote ({OLD_FORMAT_HINT})"
            )
        log = DSLog.load(args.root, autosync=False)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = log.scrub(repair=args.repair)
    finally:
        log.close()

    shards = report["shards"]
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        for idx in sorted(shards):
            _summarize(shards[idx], sys.stdout)
    return 0 if all(r["clean"] or r["repaired"] for r in shards.values()) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
