"""The durable half of DSLog: catalog, segments, manifests, and the one
engine built on them — :class:`ShardedLineageStore` /
:class:`ShardedCatalog` (:mod:`repro.storage.sharded`), ProvRC tables
packed into per-shard segments and queried in situ.  Nothing here imports
the serving tier (:mod:`repro.service`), the tools or :mod:`repro.dslog`."""

from .catalog import (
    AmbiguousLineageError,
    ArrayInfo,
    Catalog,
    LineageConflictError,
    LineageEntry,
    OperationRecord,
)
from .manifest import Manifest, load_manifest
from .segments import SegmentWriter, read_record
from .sharded import (
    DEFAULT_NUM_SHARDS,
    SHARDS_NAME,
    ShardedCatalog,
    ShardedLineageStore,
    load_shards_file,
    shard_index,
)
from .store import (
    DEFAULT_CACHE_BYTES,
    DEFAULT_SEGMENT_MAX_BYTES,
    LineageStore,
    StoredLineageEntry,
    TableCache,
    TableRef,
)

__all__ = [
    "ArrayInfo",
    "Catalog",
    "LineageEntry",
    "OperationRecord",
    "LineageConflictError",
    "AmbiguousLineageError",
    "LineageStore",
    "StoredLineageEntry",
    "TableCache",
    "TableRef",
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_SEGMENT_MAX_BYTES",
    "Manifest",
    "load_manifest",
    "SegmentWriter",
    "read_record",
    "ShardedLineageStore",
    "ShardedCatalog",
    "shard_index",
    "DEFAULT_NUM_SHARDS",
    "SHARDS_NAME",
    "load_shards_file",
]
