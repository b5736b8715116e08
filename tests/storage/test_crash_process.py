"""A real process crash: a child ingests a seeded stream into a 4-shard
catalog, syncing as it goes, and closing and reopening it halfway (so the
second half writes the fresh segments a new session opens), and is
``SIGKILL``\\ ed at a seeded point — just before one of its ``os.fsync``
or ``os.replace`` calls, or, when the stream ends first, after it, with no
close and so no checkpoint.

The parent reopens the catalog: every entry whose ``sync()`` returned is
there, at least at the version that sync published and with that
version's rows; ``scrub()`` reports the catalog clean; and the reopened
catalog publishes, closes and reopens again.

Tier-1 runs one seed; CI's fault-soak job re-runs the test under the
widened ``DSLOG_SOAK_SEEDS`` matrix.  Run as a script, this file is the
child: ``python test_crash_process.py <root> <seed>``.
"""

import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
if __name__ == "__main__":
    sys.path.insert(0, str(SRC))

from repro import DSLog  # noqa: E402
from repro.core.relation import LineageRelation  # noqa: E402

SEEDS = [int(s) for s in os.environ.get("DSLOG_SOAK_SEEDS", "101").split(",")]
SHAPE = (8,)
ARRAYS = [f"X{i}" for i in range(10)]
WRITES = 40
DURABILITY_CALLS = 120  # more than a stream of WRITES makes: some seeds run to the end


def relation(a, b, version):
    """The rows of version *version* of entry ``(a, b)``: out cell ``i``
    reads in cell ``i + version``."""
    pairs = [((i,), ((i + version) % SHAPE[0],)) for i in range(SHAPE[0])]
    return LineageRelation.from_pairs(pairs, SHAPE, SHAPE, in_name=a, out_name=b)


def rows(rel):
    return {tuple(row) for row in rel.rows.tolist()}


def child(root, seed):
    """Ingest the seeded stream, printing each entry's version once the sync
    that publishes it returned; die by SIGKILL at the seeded call."""
    rng = random.Random(seed)
    kill_at = rng.randint(1, DURABILITY_CALLS)
    log = DSLog(root, num_shards=4, autosync=False)
    for name in ARRAYS:
        log.define_array(name, SHAPE)
    log.sync()
    calls = 0

    def deadly(real):
        def call(*args):
            nonlocal calls
            calls += 1
            if calls == kill_at:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)
        return call

    os.fsync, os.replace = deadly(os.fsync), deadly(os.replace)
    versions = {}
    for i in range(WRITES):
        if i == WRITES // 2:
            log.close()
            log = DSLog.load(root, autosync=False)
        a, b = rng.sample(ARRAYS, 2)
        if (b, a) in versions:
            a, b = b, a
        version = versions.get((a, b), 0) + 1
        log.add_lineage(a, b, relation=relation(a, b, version), replace=version > 1)
        versions[a, b] = version
        if rng.random() < 0.1:
            log.compact()  # a sync, then a rewrite of every shard
        else:
            log.sync()
        print(json.dumps([a, b, version]), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_killed_writer_loses_no_returned_sync(tmp_path, seed):
    root = tmp_path / "db"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, __file__, str(root), str(seed)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
    acked = {}
    for line in proc.stdout.decode().splitlines():
        a, b, version = json.loads(line)
        acked[a, b] = version

    log = DSLog.load(root, autosync=False)
    entries = {(e.in_name, e.out_name): e for e in log.catalog.entries()}
    for pair, version in acked.items():
        assert pair in entries, (seed, pair)
        got = entries[pair].version
        assert version <= got <= version + 1, (seed, pair, version, got)
        assert rows(entries[pair].backward.decompress()) == rows(relation(*pair, got)), (seed, pair)
    report = log.scrub()
    assert report["clean"], report

    # the reopened catalog keeps publishing across a close and a reopen
    a, b = next(iter(acked), ("X0", "X1"))
    version = entries[a, b].version + 1 if (a, b) in entries else 1
    log.add_lineage(a, b, relation=relation(a, b, version), replace=version > 1)
    log.sync()
    log.close()
    reopened = DSLog.load(root)
    assert reopened.catalog.entry(a, b).version == version
    assert reopened.scrub()["clean"]
    reopened.close()


if __name__ == "__main__":
    child(Path(sys.argv[1]), int(sys.argv[2]))
