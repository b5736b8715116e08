"""Storage manager internals: catalog, durable segment store, manifest.

The sharded multi-writer layer built on these pieces lives in
:mod:`repro.service.shards`."""

from .catalog import (
    AmbiguousLineageError,
    ArrayInfo,
    Catalog,
    LineageConflictError,
    LineageEntry,
    OperationRecord,
)
from .manifest import Manifest, load_manifest, save_manifest
from .segments import SegmentWriter, iter_records, read_record, valid_length
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
    "save_manifest",
    "SegmentWriter",
    "read_record",
    "iter_records",
    "valid_length",
]
