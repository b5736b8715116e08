"""Core data structures and algorithms: the paper's primary contribution.

* :mod:`repro.core.relation` — the relational lineage model.
* :mod:`repro.core.provrc` — the ProvRC compression algorithm.
* :mod:`repro.core.compressed` — the compressed table representation.
* :mod:`repro.core.serialize` — on-disk formats (ProvRC / ProvRC-GZip).
* :mod:`repro.core.query` — in-situ θ-join query processing.
* :mod:`repro.core.reference` — brute-force ground-truth queries.
"""

from .compressed import CompressedLineage
from .provrc import ProvRCStats, compress
from .query import CellBoxSet, QueryResult, execute_path, theta_join
from .reference import query_path_reference, single_hop_reference
from .relation import LineageRelation
from .serialize import (
    deserialize_compressed,
    deserialize_compressed_gzip,
    read_compressed,
    serialize_compressed,
    serialize_compressed_gzip,
    write_compressed,
)

__all__ = [
    "LineageRelation",
    "CompressedLineage",
    "compress",
    "ProvRCStats",
    "CellBoxSet",
    "QueryResult",
    "execute_path",
    "theta_join",
    "query_path_reference",
    "single_hop_reference",
    "serialize_compressed",
    "deserialize_compressed",
    "serialize_compressed_gzip",
    "deserialize_compressed_gzip",
    "write_compressed",
    "read_compressed",
]
