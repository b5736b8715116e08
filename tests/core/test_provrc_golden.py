"""Golden digest of ProvRC's output bytes.

The compression kernel may be reorganised for speed, but the tables it
emits are a stored format: segments written by one commit are read by the
next, and ``stored_bytes_per_raw_byte`` is compared to the last digit.  The
digest below was recorded at the commit *before* the packed-row-key kernel
(PR 12) and must only change together with a deliberate format change.
"""

import hashlib

import numpy as np

from repro.capture.numpy_catalog import pipeline_ops
from repro.core.provrc import compress_both
from repro.core.serialize import serialize_compressed
from repro.workloads.pipelines import (
    image_pipeline,
    relational_pipeline,
    resnet_block_pipeline,
)

GOLDEN_SHA256 = "e1c450a3232be86f2eba129ce6ef869e282c78bbd417c8c40962984cb0e3db3a"
GOLDEN_TABLES = 186


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


def golden_digest():
    digest = hashlib.sha256()
    tables = 0
    for relation in _relations():
        for table in compress_both(relation):
            payload = serialize_compressed(table)
            digest.update(len(payload).to_bytes(8, "little"))
            digest.update(payload)
            tables += 1
    return digest.hexdigest(), tables


def test_serialized_tables_match_recorded_digest():
    assert golden_digest() == (GOLDEN_SHA256, GOLDEN_TABLES)


if __name__ == "__main__":
    print(*golden_digest())
