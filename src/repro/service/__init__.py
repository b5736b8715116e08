"""The concurrent lineage service over the durable store
(:mod:`repro.storage.sharded`): async ingest, snapshot-isolated readers
and the serving tier.

* :mod:`repro.service.pipeline` — :class:`LineageService`: bounded ingest
  queue, worker threads running ProvRC compression off the caller's path,
  and a group-commit committer that amortizes manifest publishes across
  concurrent writers.
* :mod:`repro.service.snapshot` — :class:`SnapshotDSLog`: read-only
  catalog views pinned at a per-shard generation vector, isolated from
  concurrent ingest and compaction.
* :mod:`repro.service.query` — :class:`QueryExecutor`: the scale-out read
  path — batched θ-joins behind a generation-keyed :class:`ResultCache`
  (writers invalidate exactly the results computed from the entries they
  replaced); a query with a deadline awaits each cold shard's tables on a
  thread pool against its budget.
* :mod:`repro.service.server` — :class:`LineageServer` /
  :class:`LineageClient`: the catalog over a stdlib HTTP JSON API
  (``/query``, ``/graph/impact``, ``/graph/dependencies``,
  ``/graph/summary``, ``/healthz``) and, on an ``rpc_port``, the framed
  binary wire of :mod:`repro.service.rpc` (:class:`RPCClient`).
"""

from .api import ServiceCore
from .pipeline import IngestTicket, LineageService, ServiceClosedError
from .query import QueryExecutor, QueryOutcome, ResultCache
from .rpc import RPCClient
from .server import (
    LineageClient,
    LineageConnectionError,
    LineageServer,
    LineageServerError,
)
from .snapshot import SnapshotDSLog, SnapshotReadOnlyError, take_snapshot

__all__ = [
    "LineageService",
    "IngestTicket",
    "ServiceClosedError",
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
    "RPCClient",
]
