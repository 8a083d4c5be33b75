"""Span tracing over the wire: server spans, context propagation, the
``spans`` verb, the slow-request log, and THE acceptance path -- one
cross-shard 2PC insert through a real 2-worker fleet with a replica
fleet attached, reassembled by ``repro trace`` into a single trace
whose every ``parent_id`` resolves.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.client import Client, RemoteConstraintViolation, ShardedClient
from repro.engine.database import Database
from repro.engine.wal import FileStorage, MemoryStorage, WriteAheadLog
from repro.io import relational_schema_to_dict
from repro.obs.spans import (
    SpanSink,
    assemble_traces,
    critical_path,
    encode_context,
    new_span_id,
    new_trace_id,
    read_span_lines,
    unresolved_parents,
)
from repro.server import ServerConfig, ServerThread
from repro.server.router import shard_of
from repro.server.supervisor import FleetProcess, ServerProcess
from repro.workloads.university import university_relational

WORKERS = 2


def _span_server(tmp_path, **config):
    db = Database(
        university_relational(), wal=WriteAheadLog(MemoryStorage())
    )
    return ServerThread(
        db,
        ServerConfig(span_sink=str(tmp_path / "spans.jsonl"), **config),
    )


@pytest.fixture
def span_server(tmp_path):
    with _span_server(tmp_path) as st:
        yield st


def test_server_span_per_verb_with_children(span_server):
    with Client(port=span_server.port, timeout=30) as c:
        c.insert("COURSE", {"C.NR": "c1"})
        c.get("COURSE", "c1")
        body = c.spans()
    spans = body["spans"]
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    insert = by_name["server:insert"][0]
    assert insert["kind"] == "server"
    assert insert["process"] == "server"
    assert insert["status"] == "ok"
    assert insert["attributes"]["lsn"] >= 1
    assert insert["end_s"] >= insert["start_s"]
    # The mutation path's children: queue wait, engine apply (carrying
    # the engine's TraceEvents), and the group-commit barrier.
    children = {
        s["name"]: s
        for s in spans
        if s.get("parent_id") == insert["span_id"]
    }
    assert {"queue-wait", "apply", "group-commit"} <= set(children)
    assert children["apply"]["kind"] == "engine"
    assert children["group-commit"]["kind"] == "wal"
    assert any(
        e["name"] == "mutation" for e in children["apply"].get("events", [])
    )
    assert children["group-commit"]["attributes"]["batch"] == 1
    # The read got its own root span, in a different trace.
    get = by_name["server:get"][0]
    assert get["trace_id"] != insert["trace_id"]
    # The spans verb itself is never traced.
    assert "server:spans" not in by_name
    # Sink accounting rides along on the verb...
    assert body["exported"] == len(spans)
    assert body["depth"] == len(spans)
    assert body["dropped"] == 0
    assert body["sample"] == 1.0
    # ...and on the stats server section.
    with Client(port=span_server.port, timeout=30) as c:
        server = c.stats()["server"]
    assert server["uptime_s"] >= 0.0
    assert server["spans"]["exported"] >= len(spans)


def test_spans_verb_without_sink_and_limit_validation(tmp_path):
    db = Database(university_relational())
    with ServerThread(db, ServerConfig()) as st:
        with Client(port=st.port, timeout=30) as c:
            body = c.spans()
            assert body == {
                "spans": [],
                "depth": 0,
                "dropped": 0,
                "exported": 0,
                "sample": None,
            }
            with pytest.raises(Exception):
                c.spans(limit=0)


def test_incoming_context_joined_and_unsampled_respected(span_server):
    trace_id, parent_id = new_trace_id(), new_span_id()
    with Client(port=span_server.port, timeout=30) as c:
        c.call(
            "insert",
            span_ctx=encode_context(trace_id, parent_id, sampled=True),
            scheme="COURSE",
            row={"C.NR": "j1"},
        )
        joined = [
            s
            for s in c.spans()["spans"]
            if s["name"] == "server:insert"
        ]
        assert joined[0]["trace_id"] == trace_id
        assert joined[0]["parent_id"] == parent_id
        before = c.spans()["exported"]
        # An unsampled context suppresses tracing entirely...
        c.call(
            "insert",
            span_ctx=encode_context(trace_id, parent_id, sampled=False),
            scheme="COURSE",
            row={"C.NR": "j2"},
        )
        assert c.spans()["exported"] == before
        # ...while a malformed one degrades to a fresh root trace.
        c.call(
            "insert",
            span_ctx="not-a-context",
            scheme="COURSE",
            row={"C.NR": "j3"},
        )
        fresh = [
            s
            for s in c.spans()["spans"]
            if s["name"] == "server:insert" and "parent_id" not in s
        ]
        assert len(fresh) == 1  # j1 joined, j2 suppressed, j3 rooted
        assert fresh[0]["trace_id"] != trace_id


def test_error_request_marks_span_status(span_server):
    with Client(port=span_server.port, timeout=30) as c:
        with pytest.raises(Exception):
            c.call("get", scheme="NOPE", pk=["x"])
        bad = [
            s for s in c.spans()["spans"] if s["name"] == "server:get"
        ]
    assert bad[0]["status"] != "ok"


def test_client_root_span_parents_server_span(span_server, tmp_path):
    sink = SpanSink(path=str(tmp_path / "client.jsonl"), process="client")
    with Client(
        port=span_server.port, timeout=30, span_sink=sink
    ) as c:
        c.insert("COURSE", {"C.NR": "root1"})
        server_spans = c.spans()["spans"]
    sink.close()
    client_spans = sink.recent()
    root = next(
        s for s in client_spans if s["name"] == "client:insert"
    )
    server = next(
        s for s in server_spans if s["name"] == "server:insert"
    )
    assert server["trace_id"] == root["trace_id"]
    assert server["parent_id"] == root["span_id"]
    merged = client_spans + server_spans
    trace = assemble_traces(merged)[root["trace_id"]]
    assert unresolved_parents(trace) == []
    path = [s["name"] for s in critical_path(trace)]
    assert path[0] == "client:insert"
    assert path[1] == "server:insert"


def test_zero_sampling_traces_nothing(tmp_path):
    with _span_server(tmp_path, span_sample=0.0) as st:
        with Client(port=st.port, timeout=30) as c:
            c.insert("COURSE", {"C.NR": "z1"})
            body = c.spans()
    assert body["spans"] == []
    assert body["sample"] == 0.0


def test_slow_ms_dumps_waterfall_to_stderr(tmp_path, capfd):
    with _span_server(tmp_path, slow_ms=0.0) as st:
        with Client(port=st.port, timeout=30) as c:
            c.insert("COURSE", {"C.NR": "slow1"})
    err = capfd.readouterr().err
    assert "slow request: insert took" in err
    assert "threshold 0 ms" in err
    assert "server:insert" in err
    assert "critical path:" in err


def test_trace_cli_against_live_server(span_server, capsys):
    from repro.cli import main

    with Client(port=span_server.port, timeout=30) as c:
        c.insert("COURSE", {"C.NR": "live1"})
    rc = main(["trace", f"127.0.0.1:{span_server.port}", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trace(s) from 1 source(s)" in out
    rc = main(["trace", f"127.0.0.1:{span_server.port}", "--slowest", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "server:insert" in out
    assert "critical path:" in out


def test_trace_cli_lists_only_the_served_workload(span_server, capsys):
    """The trace CLI's own requests (the ``topology`` probe and the
    ``spans`` fetch) leave no spans: otherwise an earlier run's probe
    shows up as a trace of its own, and under CPU load it can be the
    slowest one ``--slowest 1`` picks instead of the workload's."""
    from repro.cli import main

    with Client(port=span_server.port, timeout=30) as c:
        c.insert("COURSE", {"C.NR": "live1"})
    for _ in range(2):
        assert main(["trace", f"127.0.0.1:{span_server.port}", "--list"]) == 0
        out = capsys.readouterr().out
        assert " in 1 trace(s) from 1 source(s)" in out
        assert "server:topology" not in out


def test_trace_cli_names_the_rule_of_a_rejected_request(span_server, capsys):
    from repro.cli import main

    with Client(port=span_server.port, timeout=30) as c:
        c.insert("DEPARTMENT", {"D.NAME": "d1"})
        c.insert("COURSE", {"C.NR": "c1"})
        c.insert("OFFER", {"O.D.NAME": "d1", "O.C.NR": "c1"})
        with pytest.raises(RemoteConstraintViolation) as exc_info:
            c.delete("COURSE", "c1")
    trace_id = exc_info.value.extra["trace_id"]
    rc = main(
        ["trace", f"127.0.0.1:{span_server.port}", "--trace-id", trace_id]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert f"trace {trace_id}" in out
    assert "server:delete" in out
    rejected = [
        line for line in out.splitlines() if line.startswith("rejected:")
    ]
    assert len(rejected) == 1
    assert rejected[0].startswith("rejected: restrict-delete ")
    assert exc_info.value.rule in rejected[0]
    assert "restrict rule" in rejected[0]


def test_serve_recovery_runs_under_a_root_span(tmp_path):
    schema = tmp_path / "university.json"
    schema.write_text(
        json.dumps(relational_schema_to_dict(university_relational()))
    )
    wal = str(tmp_path / "db.wal")
    db = Database(university_relational(), wal=WriteAheadLog(FileStorage(wal)))
    db.insert("COURSE", {"C.NR": "c1"})
    db.wal.close()
    spans_path = str(tmp_path / "spans.jsonl")
    with ServerProcess(
        str(schema), wal=wal, extra_args=("--span-sink", spans_path)
    ) as server:
        server.wait_ready()
        with Client(port=server.port, timeout=30) as c:
            assert c.get("COURSE", "c1")["C.NR"] == "c1"
    with open(spans_path) as f:
        spans = read_span_lines(f)
    (recover,) = [s for s in spans if s["name"] == "server:recover"]
    assert recover["kind"] == "server"
    assert recover["process"] == "server"
    assert "parent_id" not in recover  # a root of its own trace
    steps = [e for e in recover["events"] if e["name"] == "recovery"]
    assert any(e.get("op") == "replay" for e in steps)


def test_trace_cli_no_spans(tmp_path, capsys):
    from repro.cli import main

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["trace", str(empty)]) == 1
    assert "no spans collected" in capsys.readouterr().out


# -- THE acceptance path: cross-shard 2PC + replica, reassembled ---------------


def _keys_for_shard(scheme: str, shard: int, count: int, tag: str):
    out = []
    i = 0
    while len(out) < count:
        key = f"{tag}-{i}"
        if shard_of(scheme, [key], WORKERS) == shard:
            out.append(key)
        i += 1
    return out


def _await_line(paths, predicate, timeout=60.0):
    """Poll span JSONL files until ``predicate`` matches a span."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for path in paths:
            try:
                with open(path) as f:
                    for span in read_span_lines(f):
                        if predicate(span):
                            return span
            except FileNotFoundError:
                pass
        time.sleep(0.1)
    raise AssertionError(f"no matching span in {paths}")


def test_cross_shard_2pc_trace_with_replica_reassembles(
    tmp_path, capsys
):
    from repro.cli import main

    schema_file = tmp_path / "university.json"
    schema_file.write_text(
        json.dumps(relational_schema_to_dict(university_relational()))
    )
    primary_sink = tmp_path / "primary-spans.jsonl"
    replica_sink = tmp_path / "replica-spans.jsonl"
    client_sink_path = tmp_path / "client-spans.jsonl"
    with FleetProcess(
        str(schema_file),
        workers=WORKERS,
        wal=str(tmp_path / "primary.wal"),
        extra_args=("--span-sink", str(primary_sink)),
    ) as primary:
        with FleetProcess(
            str(schema_file),
            workers=WORKERS,
            wal=str(tmp_path / "replica.wal"),
            extra_args=(
                "--replicate-from",
                f"127.0.0.1:{primary.port}",
                "--span-sink",
                str(replica_sink),
            ),
        ) as replica:
            # Both primary workers must see their replica before the
            # semi-sync ack gate applies to the traced batch.
            for index in range(WORKERS):
                deadline = time.monotonic() + 60
                with Client(
                    port=primary.worker_ports[index], timeout=30
                ) as c:
                    while c.repl_status()["replicas"] < 1:
                        assert time.monotonic() < deadline
                        time.sleep(0.05)
            key0 = _keys_for_shard("COURSE", 0, 1, "e2e-a")[0]
            key1 = _keys_for_shard("COURSE", 1, 1, "e2e-b")[0]
            sink = SpanSink(path=str(client_sink_path), process="client")
            with ShardedClient(
                port=primary.port, timeout=30, span_sink=sink
            ) as sc:
                assert sc.n_shards == WORKERS
                rows = sc.insert_many(
                    "COURSE", [{"C.NR": key0}, {"C.NR": key1}]
                )
            sink.close()
            assert {r["C.NR"] for r in rows} == {key0, key1}
            replica_files = [
                f"{replica_sink}.w{i}" for i in range(WORKERS)
            ]
            # Both shards committed one record each; wait until both
            # replica workers exported their replica-apply span.
            for index in range(WORKERS):
                _await_line(
                    [replica_files[index]],
                    lambda s: s["name"] == "replica-apply",
                )
        # replica fleet drained
    # primary fleet drained; every span file is complete.

    worker_files = [f"{primary_sink}.w{i}" for i in range(WORKERS)]
    all_files = [str(client_sink_path)] + worker_files + replica_files
    spans = []
    for path in all_files:
        with open(path) as f:
            spans.extend(read_span_lines(f))
    traces = assemble_traces(spans)
    batch_traces = [
        members
        for members in traces.values()
        if any(s["name"] == "client:batch" for s in members)
    ]
    assert len(batch_traces) == 1  # ONE trace for the whole request
    members = batch_traces[0]

    names = {s["name"] for s in members}
    assert {
        "client:batch",
        "router:2pc",
        "server:batch_prepare",
        "prepare",
        "server:batch_commit",
        "group-commit",
        "replica-apply",
    } <= names
    by_name = {}
    for s in members:
        by_name.setdefault(s["name"], []).append(s)
    # Both participant shards prepared and committed...
    assert {s["process"] for s in by_name["server:batch_prepare"]} == {
        "w0",
        "w1",
    }
    assert {s["process"] for s in by_name["server:batch_commit"]} == {
        "w0",
        "w1",
    }
    # ...each with an engine prepare and a wal group-commit span...
    assert {s["process"] for s in by_name["group-commit"]} == {"w0", "w1"}
    assert all(s["kind"] == "wal" for s in by_name["group-commit"])
    # ...and each replica worker joined the trace applying its record.
    assert {s["process"] for s in by_name["replica-apply"]} == {
        "w0-replica",
        "w1-replica",
    }
    for s in by_name["replica-apply"]:
        assert s["kind"] == "repl"
        assert s["attributes"]["lsn"] >= 1
    # Every parent_id resolves within the trace.
    assert unresolved_parents(members) == []
    # The router fan-out parents both prepares.
    router = by_name["router:2pc"][0]
    assert all(
        s["parent_id"] == router["span_id"]
        for s in by_name["server:batch_prepare"]
    )

    # And `repro trace` over the collected files reports the same
    # trace with a critical path.
    rc = main(["trace", *all_files, "--slowest", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    trace_id = members[0]["trace_id"]
    assert f"trace {trace_id}" in out
    assert "client:batch" in out
    assert "replica-apply" in out
    assert "critical path: client:batch -> router:2pc" in out
    assert "time by kind:" in out


def test_served_insert_many_events_name_the_verb_and_scheme(span_server):
    """A served ``insert_many`` labels its engine events as in process:
    ``insert_many`` and its scheme, accepted or rejected."""
    with Client(port=span_server.port, timeout=30) as c:
        c.insert_many("COURSE", [{"C.NR": "c1"}, {"C.NR": "c2"}])
        with pytest.raises(RemoteConstraintViolation):
            c.insert_many("COURSE", [{"C.NR": "c3"}, {"C.NR": "c1"}])
        spans = c.spans()["spans"]
    served = [s for s in spans if s["name"] == "server:insert_many"]
    assert [s["status"] for s in served] == ["ok", "constraint-violation"]
    for server, names in zip(served, ({"mutation", "wal"}, {"reject"})):
        events = [
            e
            for s in spans
            if s.get("parent_id") == server["span_id"] and s["name"] == "apply"
            for e in s.get("events", [])
        ]
        assert {e["name"] for e in events} == names
        for e in events:
            assert e["op"] == "insert_many", e
            assert e.get("scheme") == "COURSE", e
