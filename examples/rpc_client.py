"""Binary RPC transport: one catalog served over HTTP and frames at once.

``log.serve(rpc_port=0)`` runs the JSON HTTP API and the framed binary
RPC protocol side by side: one server, a listener per port, over one
shared ``ServiceCore`` — same executor, same result cache, same
handlers, so the two transports can never disagree about an answer.
What differs is the envelope: HTTP pays
header parsing and numpy → list → JSON double-encoding per round trip,
while RPC ships length-prefixed frames over persistent pooled sockets
and hydrates result boxes with ``np.frombuffer`` (zero copies).

The example:

1. builds a 3-hop sharded catalog and serves it over both transports,
2. proves HTTP and RPC return byte-identical payloads for the same query,
   one at a time and as one ``prov_query_batch`` (one reply layout: a
   single RPC result is a batch of one) whose one failing item (an
   unknown array) comes back as the same structured error on both,
3. races the two transports over an uncached query mix, sequential and
   request-id pipelined (`prov_query_pipelined`: N frames in flight on
   one socket, responses matched by id),
4. scrapes the RPC request counters (``dslog_requests_total{wire="rpc"}``,
   one series per op and status) from the *HTTP* ``/metrics`` endpoint —
   observability stays on the debuggable port.

Run with:  python examples/rpc_client.py
"""

import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import DSLog
from repro.core.relation import LineageRelation
from repro.service.rpc import RPCClient
from repro.service.server import LineageClient

SHAPE = (24, 24)
CHAIN = ["raw", "cleaned", "scores"]
ROUNDS = 20


def scatter(in_name, out_name):
    """Each output cell reads itself plus two wrap-around neighbors."""
    rows, cols = SHAPE
    pairs = []
    for i in range(rows):
        for j in range(cols):
            pairs.append(((i, j), (i, j)))
            pairs.append(((i, j), ((i + 1) % rows, j)))
            pairs.append(((i, j), (i, (j + 1) % cols)))
    return LineageRelation.from_pairs(
        pairs, SHAPE, SHAPE, in_name=in_name, out_name=out_name
    )


def build_catalog(root):
    log = DSLog(root, num_shards=4, autosync=False)
    for name in CHAIN:
        log.define_array(name, SHAPE)
    for a, b in zip(CHAIN, CHAIN[1:]):
        log.add_lineage(a, b, relation=scatter(a, b))
    log.sync()
    return log


def query_mix():
    rows, cols = SHAPE
    one_hop = CHAIN[:2]
    return [
        {"path": one_hop, "slices": [[0, rows], [0, cols]], "merge": False},
        {"path": one_hop, "slices": [[0, rows], [0, cols]], "include_cells": True},
        {"path": CHAIN, "slices": [[0, rows // 2], [0, cols // 2]]},
        {"path": one_hop, "cells": [[1, 1], [5, 9], [12, 3]]},
    ]


def stable(payload):
    """Strip the per-run timing fields so payloads compare equal."""
    if "error" in payload:
        return json.dumps(payload, sort_keys=True)
    payload = dict(payload)
    payload.pop("elapsed_ms", None)
    payload.pop("cached", None)
    payload["hops"] = [
        {k: v for k, v in hop.items() if k != "seconds"} for hop in payload["hops"]
    ]
    return json.dumps(payload, sort_keys=True)


def run_mix(prov_query, mix, rounds):
    start = time.monotonic()
    for _ in range(rounds):
        for request in mix:
            request = dict(request)
            prov_query(request.pop("path"), **request)
    return time.monotonic() - start


def main():
    with tempfile.TemporaryDirectory() as root:
        log = build_catalog(root)
        # cache off so every round trip re-runs the θ-join chain — the
        # difference between the transports is pure envelope cost
        server = log.serve(rpc_port=0, cache_entries=0)
        http = LineageClient.connect(server.url)
        rpc = RPCClient.connect(server.rpc_address)
        print(f"HTTP at {server.url}, RPC at {server.rpc_address}\n")

        # -- 1. the transports agree, byte for byte ---------------------
        mix = query_mix()
        for request in mix:
            request = dict(request)
            path = request.pop("path")
            assert stable(http.prov_query(path, **request)) == stable(
                rpc.prov_query(path, **request)
            )
        # one item of the batch fails alone: both wires carry the same
        # per-item error (over RPC, the reply's error-item record)
        batch = mix + [{"path": ["ghost", CHAIN[1]], "cells": [[0, 0]]}]
        http_batch = http.prov_query_batch(batch)
        rpc_batch = rpc.prov_query_batch(batch)
        assert [stable(r) for r in http_batch] == [stable(r) for r in rpc_batch]
        http_error, rpc_error = http_batch[-1]["error"], rpc_batch[-1]["error"]
        assert (rpc_error["type"], rpc_error["status"]) == (http_error["type"], http_error["status"]) == ("not-found", 404)
        print(
            f"byte-identical answers across transports: {len(mix)} query shapes, alone and batched, "
            f"and the same per-item error ({rpc_error['status']} {rpc_error['type']})"
        )

        # -- 2. uncached round-trip race -------------------------------
        run_mix(http.prov_query, mix, 1)  # warm tables + connections
        run_mix(rpc.prov_query, mix, 1)
        http_wall = run_mix(http.prov_query, mix, ROUNDS)
        rpc_wall = run_mix(rpc.prov_query, mix, ROUNDS)
        start = time.monotonic()
        for _ in range(ROUNDS):
            rpc.prov_query_pipelined(mix, window=len(mix))
        pipelined_wall = time.monotonic() - start
        queries = ROUNDS * len(mix)
        print(f"\n{queries} uncached queries per transport:")
        print(f"  HTTP keep-alive : {http_wall * 1000:7.1f} ms")
        print(
            f"  RPC sequential  : {rpc_wall * 1000:7.1f} ms "
            f"({http_wall / rpc_wall:.1f}x)"
        )
        print(
            f"  RPC pipelined   : {pipelined_wall * 1000:7.1f} ms "
            f"({http_wall / pipelined_wall:.1f}x)"
        )

        # -- 3. per-opcode RPC metrics, scraped over HTTP ---------------
        families = http.metrics_text()
        print("\nper-opcode RPC counters (from HTTP /metrics):")
        for line in families.splitlines():
            if line.startswith('dslog_requests_total{wire="rpc"'):
                print(f"  {line}")

        http.close()
        rpc.close()
        server.close()
        log.close()


if __name__ == "__main__":
    main()
