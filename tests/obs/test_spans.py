"""Unit tests for the span layer: context codec, span lifecycle, the
sink's ring/sampling/JSONL behaviour, and trace reassembly/rendering.

These are the process-local guarantees the distributed tests build on:
a malformed wire context degrades to "new trace" instead of erroring,
an ended span's duration never goes negative, the sink never blocks
(evict + count), and a reassembled trace renders with every parent
resolved and a critical path.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.spans import (
    Span,
    SpanSink,
    assemble_traces,
    critical_path,
    decode_context,
    encode_context,
    kind_breakdown,
    new_span_id,
    new_trace_id,
    read_span_lines,
    render_trace,
    render_waterfall,
    unresolved_parents,
)
from repro.obs.trace import TraceEvent


def test_context_roundtrip_sampled_and_not():
    trace_id, span_id = new_trace_id(), new_span_id()
    assert len(trace_id) == 32 and len(span_id) == 16
    for sampled in (True, False):
        ctx = encode_context(trace_id, span_id, sampled)
        assert decode_context(ctx) == (trace_id, span_id, sampled)


@pytest.mark.parametrize(
    "bad",
    [
        None,
        7,
        "",
        "00-abc-def-01",  # wrong widths
        "00-" + "g" * 32 + "-" + "0" * 16 + "-01",  # non-hex trace id
        "00-" + "0" * 32 + "-" + "0" * 16,  # wrong arity
        "0-" + "0" * 32 + "-" + "0" * 16 + "-01",  # short version
        "00-" + "0" * 32 + "-" + "0" * 16 + "-zz",  # non-hex flags
        "00-4b_f4b_f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  # _
        "00-+bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  # sign
        "00-" + "0" * 32 + "-00f067aa0ba902b7-01",  # all-zero trace id
        "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0x01",  # 0x
        "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  # upper
        "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  # ff
        "00-4bf92f3577b34da6a3ce929d0e0e4736-" + "0" * 16 + "-01",  # span 0
        "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01\n",
    ],
)
def test_decode_context_rejects_malformed(bad):
    assert decode_context(bad) is None


def test_decode_context_accepts_the_canonical_form():
    ctx = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-03"
    assert decode_context(ctx) == (
        "4bf92f3577b34da6a3ce929d0e0e4736",
        "00f067aa0ba902b7",
        True,
    )


def test_span_emit_records_every_trace_event_field():
    span = Span.start("apply", kind="engine")
    span.emit(
        TraceEvent(
            event="reject",
            op="delete",
            scheme="COURSE",
            constraint="ind:OFFER[O.C.NR]<=COURSE[C.NR]",
            kind="restrict-delete",
            rule="Section 5.1 restrict rule",
            access_path="index",
            detail="still referenced",
            elapsed_us=3.5,
        )
    )
    (event,) = span.to_dict()["events"]
    at_s = event.pop("at_s")
    assert span.start_s <= at_s
    assert event == {
        "name": "reject",
        "op": "delete",
        "scheme": "COURSE",
        "constraint": "ind:OFFER[O.C.NR]<=COURSE[C.NR]",
        "kind": "restrict-delete",
        "rule": "Section 5.1 restrict rule",
        "access_path": "index",
        "detail": "still referenced",
        "elapsed_us": 3.5,
    }


def test_span_lifecycle_child_events_and_export_form():
    root = Span.start("server:insert", kind="server", process="w0", verb="insert")
    child = root.child("prepare", kind="engine")
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert child.process == "w0"
    child.add_event("wal", lsn=3, nothing=None)
    child.end("ok")
    first_end = child.end_s
    child.end("ignored-late-status" if False else None)
    assert child.end_s == first_end  # idempotent
    assert child.duration_s >= 0.0
    d = child.to_dict()
    assert d["kind"] == "engine"
    assert d["events"][0]["name"] == "wal"
    assert d["events"][0]["lsn"] == 3
    assert "nothing" not in d["events"][0]  # None attrs dropped
    assert json.loads(child.to_json()) == d
    # An open span reports zero duration and exports without end_s.
    assert root.duration_s == 0.0
    assert "end_s" not in root.to_dict()


def test_sink_ring_eviction_recent_and_jsonl(tmp_path):
    path = tmp_path / "spans.jsonl"
    sink = SpanSink(path=str(path), capacity=3, process="w1")
    for i in range(5):
        sink.export(sink.start_span(f"op{i}"))
    assert sink.exported == 5
    assert sink.dropped == 2
    assert sink.depth == 3
    names = [s["name"] for s in sink.recent()]
    assert names == ["op2", "op3", "op4"]  # oldest first
    assert [s["name"] for s in sink.recent(limit=2)] == ["op3", "op4"]
    assert all(s["process"] == "w1" for s in sink.recent())
    sink.close()
    sink.close()  # idempotent
    with open(path) as f:
        on_disk = read_span_lines(f)
    assert [s["name"] for s in on_disk] == [f"op{i}" for i in range(5)]


def test_sink_sampling_edges_and_validation():
    with pytest.raises(ValueError):
        SpanSink(capacity=0)
    always = SpanSink(sample=1.0)
    never = SpanSink(sample=0.0)
    assert all(always.sample_root() for _ in range(50))
    assert not any(never.sample_root() for _ in range(50))
    clamped = SpanSink(sample=7.5)
    assert clamped.sample == 1.0


def _fake_trace():
    """A hand-built two-process trace: client -> server -> (wal, engine)."""
    t = new_trace_id()
    client = {
        "name": "client:insert", "trace_id": t, "span_id": "a" * 16,
        "kind": "client", "process": "client",
        "start_s": 100.0, "end_s": 100.010, "status": "ok",
    }
    server = {
        "name": "server:insert", "trace_id": t, "span_id": "b" * 16,
        "parent_id": "a" * 16, "kind": "server", "process": "w0",
        "start_s": 100.001, "end_s": 100.009, "status": "ok",
    }
    engine = {
        "name": "apply", "trace_id": t, "span_id": "c" * 16,
        "parent_id": "b" * 16, "kind": "engine", "process": "w0",
        "start_s": 100.002, "end_s": 100.004, "status": "ok",
    }
    wal = {
        "name": "group-commit", "trace_id": t, "span_id": "d" * 16,
        "parent_id": "b" * 16, "kind": "wal", "process": "w0",
        "start_s": 100.004, "end_s": 100.008, "status": "wal-error",
    }
    return t, [client, server, engine, wal]


def test_assemble_traces_groups_and_sorts():
    t, members = _fake_trace()
    other = dict(members[0], trace_id=new_trace_id())
    shuffled = [members[3], other, members[0], members[2], members[1]]
    shuffled.append({"name": "no-trace-id"})  # ignored
    traces = assemble_traces(shuffled)
    assert set(traces) == {t, other["trace_id"]}
    assert [s["name"] for s in traces[t]] == [
        "client:insert", "server:insert", "apply", "group-commit"
    ]


def test_unresolved_parents_and_orphan_rendering():
    _, members = _fake_trace()
    assert unresolved_parents(members) == []
    without_root = members[1:]
    assert unresolved_parents(without_root) == ["a" * 16]
    # Orphans are rooted, not dropped: the waterfall still renders all.
    out = render_waterfall(without_root)
    assert "server:insert" in out


def test_critical_path_follows_last_finishing_child():
    _, members = _fake_trace()
    names = [s["name"] for s in critical_path(members)]
    # wal finishes after engine, so the path descends through it.
    assert names == ["client:insert", "server:insert", "group-commit"]
    assert critical_path([]) == []


def test_kind_breakdown_totals_per_kind():
    _, members = _fake_trace()
    totals = kind_breakdown(members)
    assert totals["client"] == pytest.approx(0.010)
    assert totals["engine"] == pytest.approx(0.002)
    assert list(totals)[0] == "client"  # sorted descending


def test_render_trace_full_report():
    t, members = _fake_trace()
    out = render_trace(t, members)
    assert f"trace {t}" in out
    assert "2 process(es)" in out
    assert "critical path: client:insert -> server:insert -> group-commit" in out
    assert "time by kind:" in out
    assert " !" in out  # non-ok status marked
    assert render_waterfall([]) == "(no spans)\n"
    assert render_trace(t, []).startswith(f"trace {t}: no spans")


def test_render_trace_names_each_rejection_rule():
    t, members = _fake_trace()
    members[1]["events"] = [
        {
            "name": "reject",
            "at_s": members[1]["start_s"],
            "kind": "restrict-delete",
            "constraint": "c7",
            "rule": "Section 5.1 restrict rule",
        },
        {"name": "mutation", "at_s": members[1]["start_s"]},
    ]
    out = render_trace(t, members)
    assert out.count("rejected:") == 1
    assert (
        "rejected: restrict-delete c7 — Section 5.1 restrict rule" in out
    )


def test_render_trace_warns_on_unresolved_parent():
    t, members = _fake_trace()
    out = render_trace(t, members[1:])
    assert "unresolved parent span id(s): " + "a" * 16 in out
