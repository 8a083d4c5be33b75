"""End-to-end telemetry: one request id, /metrics, probes, monitor.

The acceptance path of the observability slice: a violating mutation
sent with a sampled span context must (a) come back as an error frame
echoing that context's trace id with the constraint kind and paper
rule, (b) leave a ``reject`` event naming the same kind and rule on
that trace's spans, and (c) show up in the scraped ``/metrics``
exposition as a violation counter labeled with that rule.
"""

from __future__ import annotations

import re
import socket
import urllib.error
import urllib.request

import pytest

from repro.client import Client, RemoteConstraintViolation
from repro.engine.database import Database
from repro.engine.wal import MemoryStorage, WriteAheadLog
from repro.obs.spans import (
    SpanSink,
    assemble_traces,
    encode_context,
    new_span_id,
    new_trace_id,
    read_span_lines,
)
from repro.obs.trace import RingBufferTracer
from repro.server import DatabaseService, ServerConfig, ServerThread
from repro.server.protocol import decode_frame, encode_frame
from repro.workloads.university import university_relational


def _http_get(url: str):
    """``(status, body text)`` of one GET, 4xx/5xx included."""
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


@pytest.fixture
def span_server(tmp_path):
    """A served database with a span sink (and no engine tracer of its
    own) plus the metrics endpoint; yields ``(server, spans path)``."""
    spans_path = str(tmp_path / "spans.jsonl")
    db = Database(
        university_relational(), wal=WriteAheadLog(MemoryStorage())
    )
    st = ServerThread(
        db,
        ServerConfig(
            max_connections=8, metrics_port=0, span_sink=spans_path
        ),
    )
    st.start()
    yield st, spans_path
    st.stop()


def _run_load(st: ServerThread) -> tuple[str, str]:
    """A small load ending in one restrict-delete violation sent under
    a sampled span context; returns ``(rule, trace id)``."""
    trace_id = new_trace_id()
    with Client(port=st.port, timeout=30) as c:
        c.insert("DEPARTMENT", {"D.NAME": "d1"})
        c.insert("COURSE", {"C.NR": "c1"})
        c.insert(
            "OFFER", {"O.D.NAME": "d1", "O.C.NR": "c1"}
        )
        with pytest.raises(RemoteConstraintViolation) as exc_info:
            c.call(
                "delete",
                span_ctx=encode_context(trace_id, new_span_id(), True),
                scheme="COURSE",
                pk=["c1"],
            )
        err = exc_info.value
        assert err.kind == "restrict-delete"
        assert "restrict rule" in err.rule
        # (a) the error frame echoes the context's trace id.
        assert err.extra.get("trace_id") == trace_id
        return err.rule, trace_id


def test_violation_trace_and_metrics_end_to_end(span_server):
    st, spans_path = span_server
    rule, trace_id = _run_load(st)

    # (c) the scraped /metrics shows the violation counter labeled
    # with the paper rule, plus per-verb counters and histograms.
    assert st.metrics_port is not None
    status, body = _http_get(
        f"http://{st.host}:{st.metrics_port}/metrics"
    )
    assert status == 200
    assert (
        f'repro_server_violations_total{{kind="restrict-delete",'
        f'rule="{rule}"}} 1' in body
    )
    assert 'repro_server_requests_total{verb="insert"} 3' in body
    assert 'repro_server_request_seconds_bucket{verb="insert"' in body
    assert 'repro_server_request_seconds_count{verb="delete"} 1' in body
    assert 'repro_server_errors_total{type="constraint-violation"} 1' in body
    assert "repro_engine_inserts 3" in body  # engine section included
    assert "repro_server_commit_batch_size_count" in body

    # Probes answer while serving.
    assert _http_get(f"http://{st.host}:{st.metrics_port}/healthz") == (
        200,
        "ok\n",
    )
    assert _http_get(f"http://{st.host}:{st.metrics_port}/readyz") == (
        200,
        "ready\n",
    )
    status, _ = _http_get(f"http://{st.host}:{st.metrics_port}/nope")
    assert status == 404

    # (b) the trace of that id holds the request's engine decisions,
    # each naming its paper rule.
    st.stop()
    with open(spans_path) as f:
        traces = assemble_traces(read_span_lines(f))
    spans = traces[trace_id]
    server = next(s for s in spans if s["name"] == "server:delete")
    assert server["status"] == "constraint-violation"
    events = [e for s in spans for e in s.get("events", [])]
    by_name = {e["name"] for e in events}
    assert "restrict-check" in by_name
    reject = next(e for e in events if e["name"] == "reject")
    assert reject["kind"] == "restrict-delete"
    assert reject["rule"] == rule
    assert reject["scheme"] == "COURSE"
    assert reject["constraint"]
    # Nothing about this request leaked into other traces.
    for other_id, other in traces.items():
        if other_id != trace_id:
            assert not any(
                e["name"] == "reject"
                for s in other
                for e in s.get("events", [])
            )


def _raw_calls(port: int, frames: list[dict]) -> list[dict]:
    """Send ``frames`` on one raw connection; the response frames."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        fh = sock.makefile("rwb")
        out = []
        for frame in frames:
            fh.write(encode_frame(frame))
            fh.flush()
            out.append(decode_frame(fh.readline()))
        return out


def test_client_trace_id_on_success_and_generated_ids(span_server):
    st, _ = span_server
    joined = new_trace_id()
    unsampled = encode_context(joined, new_span_id(), sampled=False)
    responses = _raw_calls(
        st.port,
        [
            {
                "id": 1,
                "verb": "insert",
                "scheme": "COURSE",
                "row": {"C.NR": "cx"},
                "span": unsampled,
            },
            {"id": 2, "verb": "get", "scheme": "COURSE", "pk": ["cx"]},
            {"id": 3, "verb": "get", "scheme": "COURSE", "pk": ["cx"]},
            # A malformed context and a stray legacy ``trace_id``
            # field are both ignored: the request gets a fresh id.
            {
                "id": 4,
                "verb": "get",
                "scheme": "COURSE",
                "pk": ["cx"],
                "span": "00-" + joined.upper() + "-" + "1" * 16 + "-01",
                "trace_id": "legacy-id",
            },
            {"id": 5, "verb": "nope"},
        ],
    )
    assert all(r["ok"] for r in responses[:4])
    # A context's trace id is echoed, sampled or not.
    assert responses[0]["trace_id"] == joined
    generated = [r["trace_id"] for r in responses[1:]]
    assert responses[4]["error"]["trace_id"] == generated[-1]
    for trace_id in generated:
        assert re.fullmatch(r"[0-9a-f]{32}", trace_id), trace_id
    assert len(set(generated)) == len(generated)
    assert joined not in generated
    # A generated id roots the request's server span.
    with Client(port=st.port, timeout=30) as c:
        spans = c.spans()["spans"]
    roots = {s["trace_id"]: s["name"] for s in spans}
    assert roots[generated[0]] == "server:get"
    assert joined not in roots  # the unsampled context was respected


def test_span_sink_refuses_a_database_with_its_own_tracer():
    tracer = RingBufferTracer()
    db = Database(university_relational(), tracer=tracer)
    with pytest.raises(ValueError, match="span sink"):
        DatabaseService(db, span_sink=SpanSink())
    assert db.tracer is tracer  # never silently overwritten
    # Without a span sink the database keeps its tracer.
    DatabaseService(db)
    assert db.tracer is tracer


def test_readyz_ready_while_serving(tmp_path):
    db = Database(university_relational())
    st = ServerThread(db, ServerConfig(metrics_port=0))
    st.start()
    try:
        url = f"http://{st.host}:{st.metrics_port}/readyz"
        assert _http_get(url)[0] == 200
    finally:
        st.stop()


def test_oversized_metrics_header_gets_431_and_endpoint_stays_up():
    """A header line over the stream limit is answered ``431``, not
    dropped with an empty reply; the endpoint keeps serving."""
    db = Database(university_relational())
    st = ServerThread(db, ServerConfig(metrics_port=0))
    st.start()
    try:
        request = (
            b"GET /metrics HTTP/1.1\r\nHost: x\r\n"
            + b"X-Big: " + b"a" * 70_000 + b"\r\n\r\n"
        )
        with socket.create_connection(
            (st.host, st.metrics_port), timeout=30
        ) as sock:
            sock.sendall(request)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.split(b"\r\n", 1)[0] == (
            b"HTTP/1.1 431 Request Header Fields Too Large"
        )
        url = f"http://{st.host}:{st.metrics_port}/healthz"
        assert _http_get(url) == (200, "ok\n")
    finally:
        st.stop()


def _raw_http(host: str, port: int, method: str, path: str) -> bytes:
    """The full reply to one ``method path`` request."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(f"{method} {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


def test_head_replies_match_get_without_a_body(monkeypatch):
    """``HEAD`` gets the status line and ``Content-Length`` its ``GET``
    gets, and no body -- for a served path and for a missing one."""
    # A still clock keeps the uptime gauge, so the body length, fixed.
    monkeypatch.setattr("repro.server.service.time", lambda: 1000.0)
    db = Database(university_relational())
    st = ServerThread(db, ServerConfig(metrics_port=0))
    st.start()
    try:
        for path in ("/metrics", "/nope"):
            get = _raw_http(st.host, st.metrics_port, "GET", path)
            head = _raw_http(st.host, st.metrics_port, "HEAD", path)
            get_head, get_body = get.split(b"\r\n\r\n", 1)
            head_head, head_body = head.split(b"\r\n\r\n", 1)
            assert head_head == get_head, path
            assert head_body == b"", path
            length = re.search(rb"Content-Length: (\d+)", get_head)
            assert int(length.group(1)) == len(get_body) > 0, path
        assert head_head.split(b"\r\n", 1)[0] == b"HTTP/1.1 404 Not Found"
    finally:
        st.stop()


def test_stats_verb_carries_server_section(span_server):
    st, _ = span_server
    with Client(port=st.port, timeout=30) as c:
        c.insert("COURSE", {"C.NR": "c9"})
        stats = c.stats()
    # Engine fields stay top-level; the server section is additive.
    assert stats["inserts"] == 1
    server = stats["server"]
    assert server["requests_served"] >= 2
    assert server["connections"] >= 1
    names = {f["name"] for f in server["metrics"]}
    assert "repro_server_requests_total" in names
    assert "repro_server_queue_depth" in names


def test_monitor_renders_dashboard_from_stats(span_server):
    from repro.obs.monitor import render_dashboard

    st, _ = span_server
    _run_load(st)
    with Client(port=st.port, timeout=30) as c:
        prev = c.stats()
        c.insert("COURSE", {"C.NR": "c2"})
        cur = c.stats()
    out = render_dashboard(cur, prev, interval=1.0, title="repro monitor t")
    assert "repro monitor t" in out
    assert "insert" in out
    assert "violations by rule" in out
    assert "restrict-delete" in out
    assert "engine:" in out


def test_monitor_cli_once(span_server, capsys):
    from repro.cli import main

    st, _ = span_server
    _run_load(st)
    rc = main(
        [
            "monitor",
            f"{st.host}:{st.port}",
            "--once",
            "--no-clear",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert f"repro monitor {st.host}:{st.port}" in out
    assert "requests" in out
    assert "restrict-delete" in out
