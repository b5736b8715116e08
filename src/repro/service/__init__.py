"""The concurrent lineage service: sharded multi-writer storage, async
ingest and snapshot-isolated readers.

* :mod:`repro.service.shards` — the sharded store: entries partitioned
  over N single-writer segment stores by a stable hash of the
  ``(input, output)`` pair, one manifest per shard, one root
  ``SHARDS.json``.
* :mod:`repro.service.pipeline` — :class:`LineageService`: bounded ingest
  queue, worker threads running ProvRC compression off the caller's path,
  and a group-commit committer that amortizes manifest publishes across
  concurrent writers.
* :mod:`repro.service.snapshot` — :class:`SnapshotDSLog`: read-only
  catalog views pinned at a per-shard generation vector, isolated from
  concurrent ingest and compaction.
* :mod:`repro.service.query` — :class:`QueryExecutor`: the scale-out read
  path — parallel per-shard fan-out over a thread pool behind a
  generation-keyed :class:`ResultCache` (writers invalidate exactly the
  results computed from the entries they replaced).
* :mod:`repro.service.server` — :class:`LineageServer` /
  :class:`LineageClient`: the catalog over a stdlib HTTP JSON API
  (``/query``, ``/graph/impact``, ``/graph/dependencies``,
  ``/graph/summary``, ``/healthz``).
"""

from .api import ServiceCore
from .pipeline import IngestTicket, LineageService, ServiceClosedError
from .query import QueryExecutor, QueryOutcome, ResultCache
from .rpc import DualServer, RPCClient, RPCServer
from .server import (
    LineageClient,
    LineageConnectionError,
    LineageServer,
    LineageServerError,
)
from .shards import (
    DEFAULT_NUM_SHARDS,
    ShardedCatalog,
    ShardedLineageStore,
    shard_index,
)
from .snapshot import SnapshotDSLog, SnapshotReadOnlyError, take_snapshot

__all__ = [
    "LineageService",
    "IngestTicket",
    "ServiceClosedError",
    "ShardedLineageStore",
    "ShardedCatalog",
    "shard_index",
    "DEFAULT_NUM_SHARDS",
    "SnapshotDSLog",
    "SnapshotReadOnlyError",
    "take_snapshot",
    "QueryExecutor",
    "QueryOutcome",
    "ResultCache",
    "LineageServer",
    "LineageClient",
    "LineageServerError",
    "LineageConnectionError",
    "ServiceCore",
    "RPCServer",
    "RPCClient",
    "DualServer",
]
