"""RPC transport under injected faults: stalls, connection kills and torn
(short-write) response frames at the ``rpc.send`` site must degrade to
reconnect-and-retry on the client — bounded by the retry budget, never a
hang, and never a corrupt result.

Marked ``faults`` so tier-1 stays fast; CI's fault-soak job re-runs these
under the widened ``DSLOG_SOAK_SEEDS`` matrix."""

import os

import pytest

from repro import DSLog, FaultPlan
from repro.capture.analytic import elementwise_lineage
from repro.faults import FaultRule
from repro.service.rpc import RPCClient
from repro.service.server import LineageConnectionError, LineageServer

pytestmark = pytest.mark.faults

SHAPE = (4, 4)
SEEDS = [int(s) for s in os.environ.get("DSLOG_SOAK_SEEDS", "101,202,303").split(",")]


@pytest.fixture
def log():
    log = DSLog()
    for name in ("a", "b", "c"):
        log.define_array(name, SHAPE)
    log.add_lineage("a", "b", relation=elementwise_lineage(SHAPE, in_name="a", out_name="b"))
    log.add_lineage("b", "c", relation=elementwise_lineage(SHAPE, in_name="b", out_name="c"))
    return log


def serve_with_plan(log, plan):
    return LineageServer(log, port=None, rpc_port=0, fault_plan=plan).start()


def test_short_write_mid_frame_degrades_to_retry(log):
    """A response frame torn partway through transmission must surface to
    the client as a short read, and the retried request must succeed."""
    plan = FaultPlan().on("rpc.send", kind="short_write", at=2, fraction=0.3)
    server = serve_with_plan(log, plan)
    try:
        client = RPCClient.connect(server.rpc_address)  # consumes send #1
        plan.arm()
        result = client.prov_query(["a", "b", "c"], cells=[[1, 1]])  # send #2 torn
        assert result["count"] == 1
        assert result["boxes"] == [[[1, 1], [1, 1]]]
        assert client.retries_used >= 1
        assert plan.fired("rpc.send") == 1
        client.close()
    finally:
        server.close()


def test_connection_kill_before_response_degrades_to_retry(log):
    plan = FaultPlan().on("rpc.send", kind="error", at=2)
    server = serve_with_plan(log, plan)
    try:
        client = RPCClient.connect(server.rpc_address)
        plan.arm()
        result = client.prov_query(["a", "b"], cells=[[2, 3]])
        assert result["count"] == 1
        assert client.retries_used >= 1
        client.close()
    finally:
        server.close()


def test_stall_is_waited_out_not_hung(log):
    """A stalled response delays the reply; the client must ride it out
    within its socket timeout rather than erroring or hanging."""
    plan = FaultPlan().on("rpc.send", kind="stall", at=2, seconds=0.2)
    server = serve_with_plan(log, plan)
    try:
        client = RPCClient.connect(server.rpc_address, timeout=5.0)
        plan.arm()
        result = client.prov_query(["a", "b"], cells=[[0, 0]])
        assert result["count"] == 1
        assert client.retries_used == 0  # delayed, not broken
        assert plan.fired("rpc.send") == 1
        client.close()
    finally:
        server.close()


def test_stall_past_socket_timeout_is_retried(log):
    """A stall longer than the client's socket timeout must become a
    timeout → reconnect → retry, never an indefinite wait."""
    plan = FaultPlan().on("rpc.send", kind="stall", at=2, seconds=1.0)
    server = serve_with_plan(log, plan)
    try:
        # construct directly: RPCClient.connect's timeout is the rendezvous
        # deadline, while this test needs a short per-socket timeout
        client = RPCClient(server.rpc_address, timeout=0.2, backoff=0.01)
        client.ping()  # send #1, warms the pooled connection
        plan.arm()
        result = client.prov_query(["a", "b"], cells=[[1, 2]])
        assert result["count"] == 1
        assert client.retries_used >= 1
        client.close()
    finally:
        server.close()


def test_persistent_faults_exhaust_budget_with_structured_error(log):
    """When every response dies, the client must give up inside its retry
    budget with a LineageConnectionError — not loop forever."""
    plan = FaultPlan().on("rpc.send", kind="error", every=1)
    server = serve_with_plan(log, plan)
    try:
        plan.arm()
        client = RPCClient(
            server.rpc_address, retries=2, backoff=0.01, retry_budget=1.0
        )
        with pytest.raises(LineageConnectionError, match="attempts"):
            client.prov_query(["a", "b"], cells=[[0, 1]])
        assert plan.fired("rpc.send") >= 3  # initial try + 2 retries
        client.close()
    finally:
        server.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_random_send_faults_soak(log, seed):
    """Seeded random mix of kills and torn frames on the response path: a
    generously-budgeted client must land every query with the right answer
    (results are idempotent reads, so retry is always safe)."""
    plan = FaultPlan(
        [
            # independent seeded schedules so kills and tears interleave
            FaultRule("rpc.send", kind="error", rate=0.15, seed=seed),
            FaultRule("rpc.send", kind="short_write", rate=0.15, seed=seed + 1),
        ]
    )
    server = serve_with_plan(log, plan)
    try:
        client = RPCClient.connect(
            server.rpc_address, retries=8, backoff=0.005, retry_budget=10.0
        )
        plan.arm()
        expected = [(cell, 1) for cell in ([[0, 0]], [[1, 2]], [[3, 3]])]
        for _ in range(15):
            for cells, count in expected:
                result = client.prov_query(["a", "b", "c"], cells=cells)
                assert result["count"] == count
                assert result["boxes"] == [[cells[0], cells[0]]]
        client.close()
    finally:
        server.close()
