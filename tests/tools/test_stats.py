"""``python -m repro.tools.stats`` against a live server: the report, the
JSON snapshot, the exit status of an unreachable server or an oversized
reply, the ``--watch`` rates computed from a previous scrape, and a Ctrl-C
under ``--watch``."""

import http.server
import io
import json
import threading

import pytest

from repro import DSLog, LineageClient
from repro.capture.analytic import elementwise_lineage
from repro.service.server import LineageServer
from repro.tools import stats
from repro.tools.stats import fetch_families, main, render_report

SHAPE = (4,)
PATH = ["a", "b", "c"]


def ask(client, n):
    for i in range(n):
        client.prov_query(PATH, cells=[(i % SHAPE[0],)])


@pytest.fixture(scope="module")
def server():
    log = DSLog()
    for name in PATH:
        log.define_array(name, SHAPE)
    for a, b in zip(PATH, PATH[1:]):
        log.add_lineage(a, b, relation=elementwise_lineage(SHAPE, in_name=a, out_name=b))
    with LineageServer(log, port=0) as server:
        ask(LineageClient(server.url), 3)
        yield server


def requests_only(families):
    return {name: family for name, family in families.items() if "dslog_request" in name}


def test_grep_prints_the_request_families_with_quantiles(server, capsys):
    assert main([server.url, "--grep", "dslog_request"]) == 0
    out = capsys.readouterr().out
    assert "dslog_request_seconds (histogram)" in out
    assert "dslog_requests_total (counter)" in out
    assert "dslog_table_cache" not in out  # --grep filters the other families
    query_line = next(line for line in out.splitlines() if "op=query,wire=http}  count=" in line)
    for quantile in ("p50=", "p95=", "p99="):
        assert quantile in query_line


def test_json_prints_parseable_families(server, capsys):
    assert main([server.url, "--json", "--grep", "dslog_request"]) == 0
    families = json.loads(capsys.readouterr().out)
    assert set(families) == {"dslog_request_seconds", "dslog_requests_total"}
    assert families["dslog_requests_total"]["type"] == "counter"
    assert families["dslog_request_seconds"]["type"] == "histogram"


def test_unreachable_server_exits_1(capsys):
    # nothing listens on the discard port
    assert main(["http://127.0.0.1:9", "--timeout", "1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_report_given_a_previous_scrape_prints_rates(server):
    previous = render_report(requests_only(fetch_families(server.url)), io.StringIO())
    ask(LineageClient(server.url), 4)
    out = io.StringIO()
    render_report(requests_only(fetch_families(server.url)), out, previous=previous, interval=2.0)
    lines = out.getvalue().splitlines()
    # four queries over a two-second interval, in the counter and the histogram count
    assert any(line.startswith("  {op=query,status=200,wire=http}") and line.endswith("[2.0/s]") for line in lines)
    assert any(line.startswith("  {op=query,wire=http}  count=") and line.endswith("[2.0/s]") for line in lines)


def test_a_reply_over_the_bound_is_refused(monkeypatch, capsys):
    """At most ``MAX_METRICS_BYTES`` are read: a reply of exactly that many
    bytes is parsed, one byte more is exit status 1."""
    body = b"# TYPE up counter\nup 1\n"

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    with http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler) as server:
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        monkeypatch.setattr(stats, "MAX_METRICS_BYTES", len(body))
        assert main([url, "--json"]) == 0
        monkeypatch.setattr(stats, "MAX_METRICS_BYTES", len(body) - 1)
        assert main([url, "--json"]) == 1
        server.shutdown()
    assert f"more than {len(body) - 1} bytes" in capsys.readouterr().err


def test_ctrl_c_during_a_watch_fetch_exits_0(monkeypatch):
    def interrupted(url, timeout):
        raise KeyboardInterrupt

    monkeypatch.setattr(stats, "fetch_families", interrupted)
    assert main(["http://127.0.0.1:9", "--watch", "1"]) == 0
