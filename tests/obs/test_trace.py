"""Trace events, sinks, and the golden JSONL decision traces.

The golden tests pin the exact serialized form of the events the
engine and planner emit -- constraint ids and paper-rule labels are a
public interface (docs/PERFORMANCE.md documents them); breaking them
breaks every consumer that greps a trace.
"""

import io
import json

import pytest

from repro.core.planner import MergePlanner, MergeStrategy
from repro.engine.database import ConstraintViolationError, Database
from repro.relational.tuples import NULL
from repro.obs.spans import read_span_lines
from repro.obs.trace import JsonlTracer, RingBufferTracer, TraceEvent
from repro.workloads.university import university_relational


def test_event_serialization_drops_none_fields():
    event = TraceEvent(event="reject", op="insert", rows=None)
    assert event.to_dict() == {"event": "reject", "op": "insert"}
    assert json.loads(event.to_json()) == {"event": "reject", "op": "insert"}


def test_ring_buffer_evicts_oldest():
    tracer = RingBufferTracer(capacity=2)
    for i in range(3):
        tracer.emit(TraceEvent(event="mutation", op=f"op{i}"))
    assert [e.op for e in tracer.events] == ["op1", "op2"]
    assert tracer.find("mutation") == tracer.events
    assert tracer.find("reject") == ()
    tracer.clear()
    assert tracer.events == ()


def test_ring_buffer_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        RingBufferTracer(capacity=0)


def test_jsonl_tracer_streams_and_counts():
    buf = io.StringIO()
    tracer = JsonlTracer(buf)
    tracer.emit(TraceEvent(event="check", constraint="c1"))
    tracer.emit(TraceEvent(event="violation", constraint="c2"))
    assert tracer.events_written == 2
    parsed = read_span_lines(buf.getvalue().splitlines())
    assert [d["event"] for d in parsed] == ["check", "violation"]
    tracer.close()  # caller-owned stream stays open
    assert not buf.closed


def test_jsonl_tracer_to_path_owns_its_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = JsonlTracer.to_path(str(path))
    tracer.emit(TraceEvent(event="mutation", op="insert"))
    tracer.close()
    assert read_span_lines(path.read_text().splitlines()) == [
        {"event": "mutation", "op": "insert"}
    ]


# -- golden traces -------------------------------------------------------------


def _strip_timing(d: dict) -> dict:
    d.pop("elapsed_us", None)
    return d


def test_golden_restrict_delete_rejection_trace():
    """A restrict-delete rejection names the blocking inclusion
    dependency and the Section 5.1 restrict rule -- byte-for-byte."""
    buf = io.StringIO()
    db = Database(university_relational(), tracer=JsonlTracer(buf))
    db.insert("DEPARTMENT", {"D.NAME": "d1"})
    db.insert("COURSE", {"C.NR": "c1"})
    db.insert("OFFER", {"O.C.NR": "c1", "O.D.NAME": "d1"})
    buf.seek(0)
    buf.truncate()
    with pytest.raises(ConstraintViolationError):
        db.delete("DEPARTMENT", "d1")
    events = [
        _strip_timing(d)
        for d in read_span_lines(buf.getvalue().splitlines())
    ]
    assert events == [
        {
            "access_path": "group-index",
            "constraint": "OFFER[O.D.NAME] <= DEPARTMENT[D.NAME]",
            "detail": "OFFER[O.D.NAME] <= DEPARTMENT[D.NAME] (from OFFER)",
            "event": "restrict-check",
            "kind": "inclusion-dependency",
            "op": "referencers",
            "outcome": "blocked",
            "rows": 0,
            "rule": (
                "Section 2 (key-based inclusion dependency); "
                "Definition 4.1 step 4(b)/4(c) rewriting"
            ),
            "scheme": "OFFER",
        },
        {
            "constraint": "restrict-delete",
            "detail": (
                "DEPARTMENT row ('d1',) referenced via "
                "OFFER[O.D.NAME] <= DEPARTMENT[D.NAME] (from OFFER)"
            ),
            "event": "reject",
            "kind": "restrict-delete",
            "op": "delete",
            "outcome": "rejected",
            "rule": (
                "Section 5.1 (referential integrity, restrict rule on delete)"
            ),
            "scheme": "DEPARTMENT",
        },
    ]


def test_golden_merge_plan_decision_trace():
    """The key-based strategy's admit/skip decisions on the Figure 3
    schema, with Proposition 5.1 reasons -- byte-for-byte."""
    tracer = RingBufferTracer()
    MergePlanner(
        university_relational(), MergeStrategy.KEY_BASED, tracer=tracer
    ).apply()
    decisions = [e.to_dict() for e in tracer.find("merge-decision")]
    assert decisions == [
        {
            "constraint": (
                "COURSE <- {COURSE, ASSIST, OFFER, TEACH} "
                "[key-based RI, non-null keys]"
            ),
            "detail": (
                "Proposition 5.1 holds: every inclusion dependency stays "
                "key-based and the merged key stays non-null"
            ),
            "event": "merge-decision",
            "kind": "merge-admission",
            "op": "plan",
            "outcome": "admitted",
            "rule": "Proposition 5.1 (key-based RI, non-null keys)",
            "scheme": "COURSE",
        },
        {
            "constraint": "PERSON <- {PERSON, FACULTY, STUDENT} [non-null keys]",
            "detail": (
                "Proposition 5.1 fails: some inclusion dependency would "
                "not be key-based (Proposition 5.1(i))"
            ),
            "event": "merge-decision",
            "kind": "merge-admission",
            "op": "plan",
            "outcome": "skipped",
            "rule": "Proposition 5.1 (key-based RI, non-null keys)",
            "scheme": "PERSON",
        },
    ]
    applied = tracer.find("merge-applied")
    assert [e.scheme for e in applied] == ["COURSE'"]
    assert applied[0].rule == "Definition 4.1 (Merge) + Definition 4.3 (Remove)"


def test_mutation_events_carry_timing_and_null_rules(university_schema):
    """Accepted mutations emit timed events; null-constraint rejections
    name the Section 3 form and Definition 4.1 step that generated it."""
    tracer = RingBufferTracer()
    db = Database(university_schema, tracer=tracer)
    db.insert("COURSE", {"C.NR": "c1"})
    (accepted,) = tracer.find("mutation")
    assert accepted.op == "insert"
    assert accepted.scheme == "COURSE"
    assert accepted.rows == 1
    assert accepted.elapsed_us is not None and accepted.elapsed_us >= 0
    tracer.clear()
    with pytest.raises(ConstraintViolationError):
        db.insert("COURSE", {"C.NR": NULL})
    (reject,) = tracer.find("reject")
    assert reject.kind == "nulls-not-allowed"
    assert "Definition 4.1 step 3(a)" in reject.rule
