"""Golden digests of ProvRC's output: one of the columns, one of the bytes.

``COLUMNS_SHA256`` covers the six columns of every table ProvRC emits, cast
to int64: *what* the compression kernel decided.  A kernel PR may
reorganise ``core/provrc.py`` for speed but may **never** change it —
``stored_bytes_per_raw_byte`` is compared to the last digit and every
query-equivalence suite assumes the same rows.  It was recorded at the
commit before the row-delta layout (PR 15), before any edit, and equals
what the commit before the packed-row-key kernel (PR 12) emitted.

``PAYLOAD_SHA256`` covers ``serialize_compressed``'s bytes: *how* those
columns are laid out at rest.  A format PR changes it deliberately, once,
with the column digest unchanged beside it as the proof that only the
layout moved (re-recorded for the row-delta layout, PR 15, and for the
attr-delta layout and its terse header, PR 18).  Payloads of the earlier
layouts are read only by ``python -m repro.tools.upgrade``, which rewrites
them; ``tests/tools/test_upgrade.py`` holds a copy of each of their
writers.

Both digests cover the backward table of each relation, the one table an
entry stores; they were recomputed over backward tables alone at the last
commit that also built forward tables, when the forward table was dropped.

``python tests/core/test_provrc_golden.py`` prints both.
"""

import hashlib

import numpy as np

from repro.capture.numpy_catalog import pipeline_ops
from repro.core.provrc import compress
from repro.core.serialize import _COLUMNS, serialize_compressed
from repro.workloads.pipelines import (
    image_pipeline,
    relational_pipeline,
    resnet_block_pipeline,
)

COLUMNS_SHA256 = "77ebea853ead11d38bc5859a69d9961876c701b8ae4eb235bffe05ceb067c364"
PAYLOAD_SHA256 = "2929998f084d60264596b9f8b40a5dae8d8721c355517da4ac63af2502021797"
GOLDEN_TABLES = 93


def _relations():
    rng = np.random.default_rng(20240611)
    for op in pipeline_ops():
        yield op.lineage(rng.normal(size=96))
    for pipeline in (
        resnet_block_pipeline(12, 12),
        relational_pipeline(300, 200),
        image_pipeline(24, 24, lime_samples=10),
    ):
        yield from pipeline.steps


def golden_digests():
    columns = hashlib.sha256()
    payloads = hashlib.sha256()
    tables = 0
    for relation in _relations():
        table = compress(relation)
        for name in _COLUMNS:
            column = np.ascontiguousarray(getattr(table, name), dtype=np.int64)
            columns.update(repr(column.shape).encode())
            columns.update(column.tobytes())
        payload = serialize_compressed(table)
        payloads.update(len(payload).to_bytes(8, "little"))
        payloads.update(payload)
        tables += 1
    return columns.hexdigest(), payloads.hexdigest(), tables


def test_tables_match_recorded_digests():
    assert golden_digests() == (COLUMNS_SHA256, PAYLOAD_SHA256, GOLDEN_TABLES)


if __name__ == "__main__":
    print("columns  %s\npayloads %s\ntables   %d" % golden_digests())
