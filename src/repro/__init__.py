"""repro: a reproduction of DSLog / ProvRC (ICDE 2024).

"Compression and In-Situ Query Processing for Fine-Grained Array Lineage"
— a storage system for cell-level array lineage built around the ProvRC
compression algorithm, in-situ θ-join query processing and lineage reuse.

Public entry points
-------------------
* :class:`repro.DSLog` — the lineage index (define arrays, register
  operations, run forward/backward path queries).
* :mod:`repro.core` — the ProvRC algorithm, compressed tables and the
  in-situ query processor.
* :mod:`repro.capture` — prototype capture methods (cell-level numpy
  tracking, explainable-AI capture, relational operators).
* :class:`repro.LineageService` — the concurrent ingest service: sharded
  multi-writer storage, async compression off the caller's path, group
  commit and snapshot-isolated readers.
* :class:`repro.QueryExecutor` / :class:`repro.LineageServer` /
  :class:`repro.LineageClient` / :class:`repro.RPCClient` — the serving
  tier: batched θ-joins behind a generation-keyed result cache, served
  over a stdlib HTTP JSON API and a framed binary RPC wire by one server
  (``dslog.serve(port, rpc_port=None)`` / ``LineageClient.connect(url)``).
* :mod:`repro.faults` — deterministic fault injection (:class:`FaultPlan`)
  and the failure-domain primitives (:class:`CircuitBreaker`, the
  structured :class:`DeadlineExceeded` / :class:`IngestOverloaded` /
  :class:`ShardUnavailable` errors) behind the self-healing storage and
  degraded-serving paths (``python -m repro.tools.scrub`` heals on disk).
* :mod:`repro.baselines` — the storage/query baselines of the evaluation.
* :mod:`repro.workloads` — workload and dataset generators.
* :mod:`repro.experiments` — one harness per paper table/figure.
"""

from .core.compressed import CompressedLineage
from .core.provrc import compress
from .core.query import CellBoxSet, QueryResult
from .core.relation import LineageRelation
from .dslog import DSLog
from .faults import (
    CircuitBreaker,
    DeadlineExceeded,
    FaultPlan,
    FaultRule,
    IngestOverloaded,
    InjectedFault,
    ShardUnavailable,
)
from .graph import LineageGraph
from .service import (
    IngestTicket,
    LineageClient,
    LineageServer,
    LineageService,
    QueryExecutor,
    RPCClient,
    SnapshotDSLog,
)
from .storage.store import LineageStore

__version__ = "0.4.0"

__all__ = [
    "DSLog",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "CircuitBreaker",
    "DeadlineExceeded",
    "IngestOverloaded",
    "ShardUnavailable",
    "LineageRelation",
    "LineageGraph",
    "LineageStore",
    "LineageService",
    "IngestTicket",
    "SnapshotDSLog",
    "QueryExecutor",
    "LineageServer",
    "LineageClient",
    "RPCClient",
    "CompressedLineage",
    "CellBoxSet",
    "QueryResult",
    "compress",
    "__version__",
]
