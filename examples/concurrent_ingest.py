"""Concurrent ingest: the lineage service, sharding, and snapshot readers.

The single-threaded ``DSLog.register_operation`` runs ProvRC compression
and (with autosync) a full manifest publish on the caller's thread — fine
for a notebook, a stall for a host pipeline under load.  The
``LineageService`` decouples the two:

    submit() -> bounded queue -> worker pool -> 4 shards -> group commit

``submit`` returns a ticket in ~50 microseconds; worker threads compress
and append off the caller's path; the committer publishes manifests in
batches, so concurrent writers share each fsync instead of paying one
apiece.  ``ticket.result()`` resolves once the op is *durable*.  Readers
meanwhile take ``snapshot()`` views — consistent cuts pinned against both
later ingest and compaction.

The example drives four writer threads over one shared catalog, queries a
snapshot while ingest is still running, compacts one shard mid-flight,
then reopens the directory cold and checks nothing was lost.

Run with:  python examples/concurrent_ingest.py
"""

import sys
import tempfile
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import DSLog, LineageService
from repro.core.relation import LineageRelation

SHAPE = (8, 8)
WRITERS = 4
STEPS = 6  # pipeline stages per writer


def blur3(shape, in_name, out_name):
    """Each output cell depends on its row neighborhood (a 1-D blur)."""
    rows, cols = shape
    pairs = []
    for r in range(rows):
        for c in range(cols):
            for dc in (-1, 0, 1):
                if 0 <= c + dc < cols:
                    pairs.append(((r, c), (r, c + dc)))
    return LineageRelation.from_pairs(pairs, shape, shape, in_name=in_name, out_name=out_name)


def main() -> None:
    root = Path(tempfile.mkdtemp()) / "catalog"
    print(f"catalog root: {root}\n")

    with LineageService(root, num_shards=4) as service:
        # --- declare every pipeline's arrays up front (cheap metadata) ---
        for w in range(WRITERS):
            for step in range(STEPS + 1):
                service.define_array(f"p{w}_s{step}", SHAPE)

        # --- four host pipelines ingest concurrently ---------------------
        def pipeline(w: int) -> None:
            for step in range(STEPS):
                a, b = f"p{w}_s{step}", f"p{w}_s{step + 1}"
                ticket = service.submit(
                    f"blur_w{w}_{step}",
                    [a],
                    [b],
                    relations={(a, b): blur3(SHAPE, a, b)},
                    input_data={a: np.full(SHAPE, w, dtype=np.int64)},
                    op_args={"kernel": 3},
                )
                ticket.result(timeout=30)  # durable before the next stage

        threads = [threading.Thread(target=pipeline, args=(w,)) for w in range(WRITERS)]
        for t in threads:
            t.start()

        # --- a reader works from a consistent snapshot mid-ingest --------
        snapshot = service.snapshot()
        print(f"snapshot: {len(snapshot.catalog)} entries at generations "
              f"{snapshot.generation_vector} (ingest still running)")
        snapshot.close()

        for t in threads:
            t.join()
        service.flush()

        stats = service.stats()
        print(f"ingested {stats['committed_ops']} ops in {stats['commits']} group "
              f"commits (avg batch {stats['avg_commit_batch']:.1f})\n")

        # --- queries over the shared catalog ------------------------------
        final = service.snapshot()
        source = final.prov_query([f"p0_s{STEPS}", "p0_s0"], [(4, 4)])
        print(f"p0 backward query: cell (4,4) of stage {STEPS} derives from "
              f"{len(source.to_cells())} source cells")
        print(f"impact of p1_s0: {len(final.impact('p1_s0'))} downstream arrays")
        final.close()

        # --- per-shard compaction while the service is live ---------------
        compaction = service.compact(shard=1)
        print(f"compacted shard 1: {compaction[1]['records_copied']} live records, "
              f"{compaction[1]['reclaimed_bytes']} bytes reclaimed\n")

    # --- cold reopen: everything survived ---------------------------------
    log = DSLog.load(root)
    print(f"reopened: {len(log.catalog)} entries, "
          f"{len(log.catalog.operations)} operation records, "
          f"{log.reuse.stats()['base_entries']} reuse signatures, "
          f"backend={log.backend}")
    assert len(log.catalog) == WRITERS * STEPS
    result = log.prov_query(["p2_s0", f"p2_s{STEPS}"], [(3, 3)])
    print(f"forward query across p2's whole pipeline: {len(result.to_cells())} cells")
    log.close()


if __name__ == "__main__":
    main()
