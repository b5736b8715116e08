"""The transport-agnostic service layer: one endpoint table, one core.

Everything about the **service** rather than the **wire** lives here, once:

* :data:`ENDPOINTS` — the serving surface, one :class:`Endpoint` row per
  operation: its name (the :data:`~repro.service.wire.OPCODES` name, also
  the RPC metric label), its HTTP method and route, whether a request
  opens a trace, which reply kind the transport encodes, and ``run(core,
  args)``.  :mod:`repro.service.server` derives ``{(method, route): row}``
  from it and :mod:`repro.service.rpc` ``{opcode: row}``; the argument
  checks (``array``, ``limit``, ``repair``) take the HTTP query-string
  dict and the JSON body alike, so both wires reject the same requests
  with the same words;
* :func:`parse_query_request` — validate a query body (``path`` +
  ``cells``/``slices`` + flags) into a :class:`QuerySpec`;
* :class:`ServiceCore` — one object owning the
  :class:`~repro.service.query.QueryExecutor` and the health/scrub/traces
  plumbing; servers
  sharing a core share its executor, so a result cached through one
  transport is a cache hit through the other;
* :func:`error_info` — the one exception → ``(status, type, message)``
  taxonomy, used verbatim for HTTP status codes, per-item batch errors
  and RPC error frames;
* :func:`result_payload` — the JSON-encodable form of a query result
  (the RPC transport encodes the same fields binary via
  :mod:`repro.service.wire`);
* :data:`MAX_BODY_BYTES` — the one bound on a request, whichever wire
  declared it.

What is left to a transport is its codec (one encoder per reply kind) and
its sockets.
"""

from __future__ import annotations

import ipaddress
import json
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..faults import DeadlineExceeded, IngestOverloaded, ShardUnavailable
from ..obs import REGISTRY, tracing
from ..storage.catalog import AmbiguousLineageError
from .query import DEFAULT_CACHE_ENTRIES, QueryExecutor, QueryOutcome

__all__ = [
    "Endpoint",
    "ENDPOINTS",
    "MAX_BODY_BYTES",
    "QuerySpec",
    "parse_query_request",
    "result_payload",
    "error_info",
    "BadJson",
    "BodyTooLarge",
    "Forbidden",
    "run_endpoint",
    "ServiceCore",
    "storage_stats",
]


class BadJson(ValueError):
    """A body was present but not valid JSON (distinct 400 type)."""


class BodyTooLarge(ValueError):
    """A request declared a body above :data:`MAX_BODY_BYTES` (413)."""


class Forbidden(Exception):
    """A request this server answers only for a peer on its own host (403)."""


# requests are small JSON on either wire (a 64-query batch of 256-cell
# queries is ~100 KB); one that declares more is refused without reading it
MAX_BODY_BYTES = 16 * 1024 * 1024


class QuerySpec(NamedTuple):
    """A validated ``/query`` request body."""

    path: list
    query: Any
    merge: bool
    include_boxes: bool
    include_cells: bool
    deadline: Optional[float]


def _parse_deadline(value) -> Optional[float]:
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
        raise ValueError("'deadline' must be a positive number of seconds")
    return float(value)


def parse_query_request(body: dict) -> QuerySpec:
    """Validate one query request body (shared by both transports)."""
    path = body.get("path")
    if not isinstance(path, list) or len(path) < 2 or not all(
        isinstance(name, str) for name in path
    ):
        raise ValueError("'path' must be a list of at least two array names")
    cells = body.get("cells")
    slices = body.get("slices")
    if (cells is None) == (slices is None):
        raise ValueError("exactly one of 'cells' or 'slices' is required")
    if cells is not None:
        if not isinstance(cells, list):
            raise ValueError("'cells' must be a list of cell coordinates")
        query: Any = []
        for cell in cells:
            if isinstance(cell, list) and all(isinstance(c, int) for c in cell):
                query.append(tuple(cell))
            elif isinstance(cell, int):
                query.append(cell)
            else:
                raise ValueError(
                    "'cells' entries must be integer coordinate lists (or bare "
                    f"integers for 1-D arrays), got {cell!r}"
                )
    else:
        if not isinstance(slices, list):
            raise ValueError("'slices' must be a list of [start, stop] pairs")
        query = []
        for pair in slices:
            if pair is None:
                query.append(slice(None, None))
            elif (
                isinstance(pair, list)
                and len(pair) == 2
                and all(p is None or isinstance(p, int) for p in pair)
            ):
                query.append(slice(pair[0], pair[1]))
            else:
                raise ValueError(
                    f"'slices' entries must be [start, stop] pairs or null, got {pair!r}"
                )
    return QuerySpec(
        path=path,
        query=query,
        merge=bool(body.get("merge", True)),
        include_boxes=bool(body.get("include_boxes", True)),
        include_cells=bool(body.get("include_cells", False)),
        deadline=_parse_deadline(body.get("deadline")),
    )


def result_payload(
    result, include_boxes: bool = True, include_cells: bool = False
) -> dict:
    """JSON-encodable form of a :class:`~repro.core.query.QueryResult`.

    Each ``hops`` entry's ``rows_scanned`` is the number of (box, row)
    pairs the hop's index lookup made it compare, not the table's length.
    """
    cells = result.cells
    payload: Dict[str, Any] = {
        "array": cells.array_name,
        "shape": list(cells.shape),
        "boxes_merged": int(len(cells)),
        "count": int(result.count_cells()),
        "hops": [
            {
                "from": hop.array_from,
                "to": hop.array_to,
                "rows_scanned": hop.rows_scanned,
                "boxes_in": hop.boxes_in,
                "boxes_out_raw": hop.boxes_out_raw,
                "boxes_out_merged": hop.boxes_out_merged,
                "seconds": hop.seconds,
            }
            for hop in result.hops
        ],
    }
    if include_boxes:
        payload["boxes"] = [
            [cells.lo[i].tolist(), cells.hi[i].tolist()] for i in range(len(cells))
        ]
    if include_cells:
        payload["cells"] = result.to_cells_array().tolist()
    return payload


def error_info(error: BaseException) -> Tuple[int, str, str]:
    """Map an exception to its structured ``(status, type, message)``
    triple — the one taxonomy behind whole-request errors, the per-item
    errors of batched queries, and RPC error frames."""
    if isinstance(error, BadJson):
        return 400, "bad-json", f"malformed JSON body: {error}"
    if isinstance(error, BodyTooLarge):
        return 413, "payload-too-large", str(error)
    if isinstance(error, Forbidden):
        return 403, "forbidden", str(error)
    if isinstance(error, (ValueError, AmbiguousLineageError)):
        return 400, "bad-request", str(error)
    if isinstance(error, KeyError):
        return 404, "not-found", str(error.args[0] if error.args else error)
    if isinstance(error, DeadlineExceeded):
        # before OSError: TimeoutError is an OSError subclass on 3.10+
        return 504, "deadline-exceeded", str(error)
    if isinstance(error, ShardUnavailable):
        return 503, "shard-unavailable", str(error)
    if isinstance(error, IngestOverloaded):
        return 503, "overloaded", str(error)
    if isinstance(error, OSError):
        return 503, "io-error", f"{type(error).__name__}: {error}"
    return 500, "internal", f"{type(error).__name__}: {error}"


def storage_stats(store) -> dict:
    """Write coalescing, table cache (a list of one: the store's cache)
    and mmap reader stats, pulled from the same objects the metrics registry meters; empty
    for a memory log."""
    if store is None:
        return {}
    return {
        "writes": store.write_stats(),
        "table_cache": store.cache_stats(),
        "readers": store.reader_stats(),
    }


# argument checks shared by every wire: *args* is the query-string dict of
# an HTTP GET (string values) or a JSON body / RPC payload (typed values)
def _array_arg(args: dict) -> str:
    name = args.get("array")
    if not isinstance(name, str) or not name:
        raise ValueError("the 'array' parameter is required")
    return name


def _limit_arg(args: dict) -> Optional[int]:
    limit = args.get("limit")
    if limit is None:
        return None
    if isinstance(limit, str) and limit.removeprefix("-").isdecimal():
        limit = int(limit)  # the query-string form
    if not isinstance(limit, int) or isinstance(limit, bool):
        raise ValueError("the 'limit' parameter must be an integer")
    if limit <= 0:
        raise ValueError("the 'limit' parameter must be positive")
    return limit


class ServiceCore:
    """Everything both transports share: the executor and the
    catalog-level request handlers.

    Parameters
    ----------
    log:
        The :class:`~repro.dslog.DSLog` to serve (memory or durable).  The core
        only reads; a colocated writer keeps ingesting through the same
        log object and the result cache invalidates per replaced lineage
        entry.
    executor:
        A pre-built :class:`QueryExecutor` to share; by default the core
        owns one (and closes it on :meth:`close`).
    max_workers / cache_entries:
        Forwarded to the owned executor.
    """

    def __init__(
        self,
        log,
        executor: Optional[QueryExecutor] = None,
        max_workers: Optional[int] = None,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
    ) -> None:
        self.log = log
        self._owns_executor = executor is None
        self.executor = executor or QueryExecutor(
            log, max_workers=max_workers, cache_entries=cache_entries
        )
        self._closed = False

    # -- queries --------------------------------------------------------
    # Every handler below is the ``run`` of one ENDPOINTS row: it takes the
    # request's argument dict and returns the reply the transport encodes.
    def execute_query(self, body: dict) -> Tuple[QueryOutcome, QuerySpec, float]:
        """Validate and run one query body; returns the outcome, the
        validated request and the milliseconds it took, for the transport
        to encode (JSON or binary)."""
        started = time.monotonic()
        spec = parse_query_request(body)
        outcome = self.executor.query(
            spec.path, spec.query, merge=spec.merge, deadline=spec.deadline
        )
        return outcome, spec, (time.monotonic() - started) * 1000.0

    def execute_query_batch(self, body: dict) -> Tuple[List[Any], float]:
        """Validate and run a batched query body.

        Returns ``(entries, elapsed_ms)``, one entry per input query and in
        order: ``(outcome, spec)`` for the transport to encode, or the
        structured ``{"error": {...}}`` dict of an entry that was rejected
        or failed.  One malformed or failing entry never fails its
        batch-mates.
        """
        started = time.monotonic()
        items = body.get("queries")
        if not isinstance(items, list) or not items:
            raise ValueError("'queries' must be a non-empty list of query objects")
        deadline = _parse_deadline(body.get("deadline"))
        specs: List[Any] = []
        for item in items:
            try:
                if not isinstance(item, dict):
                    raise ValueError("each 'queries' entry must be a JSON object")
                specs.append(parse_query_request(item))
            except ValueError as error:
                specs.append(error)
        outcomes: List[Any] = list(specs)  # rejected entries keep their error
        # one executor batch per merge flavor (batches share a merge flag);
        # almost all real batches are homogeneous, so this is one call
        for merge_value in (True, False):
            idxs = [
                i
                for i, spec in enumerate(specs)
                if not isinstance(spec, BaseException) and spec.merge is merge_value
            ]
            if not idxs:
                continue
            group = self.executor.query_batch(
                [(specs[i].path, specs[i].query) for i in idxs],
                merge=merge_value,
                deadline=deadline,
            )
            for i, outcome in zip(idxs, group):
                outcomes[i] = outcome
        entries: List[Any] = []
        for spec, outcome in zip(specs, outcomes):
            if isinstance(outcome, BaseException):
                status, kind, message = error_info(outcome)
                entries.append({"error": {"type": kind, "message": message, "status": status}})
            else:
                entries.append((outcome, spec))
        return entries, (time.monotonic() - started) * 1000.0

    # -- graph ----------------------------------------------------------
    def impact_payload(self, args: dict) -> dict:
        name = _array_arg(args)
        return {"array": name, "impact": self.log.impact(name)}

    def dependencies_payload(self, args: dict) -> dict:
        name = _array_arg(args)
        return {"array": name, "dependencies": self.log.dependencies(name)}

    def summary_payload(self, args: dict) -> dict:
        payload = self.log.lineage_summary()
        payload["edges"] = [list(pair) for pair in self.log.graph.edges()]
        return payload

    # -- health / admin -------------------------------------------------
    def healthz_payload(self, args: dict) -> dict:
        log = self.log
        store = log.store
        generations = (
            list(store.generation_vector()) if store is not None else [log.catalog.version]
        )
        breakers = self.executor.breaker_stats()
        degraded = any(b["state"] != "closed" for b in breakers.values())
        return {
            "status": "degraded" if degraded else "ok",
            "backend": log.backend,
            "arrays": len(log.catalog.arrays),
            "entries": len(log.catalog),
            "operations": len(log.catalog.operations),
            "generations": generations,
            "breakers": {str(shard): stats for shard, stats in breakers.items()},
            "executor": self.executor.stats(),
            "storage": storage_stats(store),
            "metrics": REGISTRY.snapshot(),
        }

    def traces_payload(self, args: dict) -> dict:
        return {"traces": tracing.recent_traces(_limit_arg(args))}

    def scrub_payload(self, args: dict) -> dict:
        try:
            report = self.log.scrub(repair=bool(args.get("repair", False)))
        except RuntimeError as error:  # a memory log has nothing on disk to scrub
            raise ValueError(str(error)) from None
        # reports may carry Paths / int shard keys; normalize to pure JSON
        return {"scrub": json.loads(json.dumps(report, default=str))}

    def metrics_text(self, args: dict) -> str:
        return REGISTRY.render()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release the executor (when owned); only the first call acts."""
        if self._closed:
            return
        self._closed = True
        if self._owns_executor:
            self.executor.close()


# ----------------------------------------------------------------------
# the endpoint table
# ----------------------------------------------------------------------
class Endpoint(NamedTuple):
    """One operation of the serving surface (a row of :data:`ENDPOINTS`).

    *name* is the :data:`~repro.service.wire.OPCODES` name — the RPC
    dispatch key and metric label; *method* and *route* place the row over
    HTTP (``None``: RPC only); a *traced* row opens a per-request trace (the
    observability endpoints themselves would only self-spam);
    ``run(core, args)`` produces the reply and *reply* names its kind for
    the transport's encoder — ``"json"`` (a dict), ``"text"`` (a str),
    ``"query"`` or ``"batch"`` (what :meth:`ServiceCore.execute_query` /
    :meth:`~ServiceCore.execute_query_batch` return); *bare_ok* lets an
    HTTP POST omit its JSON body (every argument is optional).
    """

    name: str
    method: Optional[str]
    route: Optional[str]
    traced: bool
    reply: str
    run: Callable[[ServiceCore, dict], Any]
    bare_ok: bool = False


def _is_loopback(peer: str) -> bool:
    try:
        address = ipaddress.ip_address(peer.partition("%")[0])
    except ValueError:
        return False
    return (getattr(address, "ipv4_mapped", None) or address).is_loopback


def run_endpoint(row: Endpoint, core: ServiceCore, args: dict, peer: str) -> Any:
    """Run *row* for a request from the IP address *peer*, on either wire.

    A scrub with ``"repair": true`` rewrites the store and drops every
    entry whose one table is damaged, so it is refused (:class:`Forbidden`)
    unless *peer* is a loopback address: repair is for an operator on the
    server's own host."""
    if row.name == "scrub" and args.get("repair") and not _is_loopback(peer):
        raise Forbidden(f"a repairing scrub is accepted from this host only, not from {peer}")
    return row.run(core, args)


ENDPOINTS: Dict[str, Endpoint] = {
    row.name: row
    for row in (
        Endpoint("query", "POST", "/query", True, "query", ServiceCore.execute_query),
        Endpoint("query_batch", "POST", "/query_batch", True, "batch", ServiceCore.execute_query_batch),
        Endpoint("impact", "GET", "/graph/impact", True, "json", ServiceCore.impact_payload),
        Endpoint("dependencies", "GET", "/graph/dependencies", True, "json", ServiceCore.dependencies_payload),
        Endpoint("summary", "GET", "/graph/summary", True, "json", ServiceCore.summary_payload),
        Endpoint("healthz", "GET", "/healthz", False, "json", ServiceCore.healthz_payload),
        Endpoint("metrics", "GET", "/metrics", False, "text", ServiceCore.metrics_text),
        Endpoint("traces", "GET", "/debug/traces", False, "json", ServiceCore.traces_payload),
        Endpoint("scrub", "POST", "/admin/scrub", True, "json", ServiceCore.scrub_payload, bare_ok=True),
        # liveness probe of a framed connection: the empty text is a
        # zero-byte payload
        Endpoint("ping", None, None, False, "text", lambda core, args: ""),
    )
}
