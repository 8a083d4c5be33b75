"""Distributed request spans: follow one request across the fleet.

The flat :class:`~repro.obs.trace.TraceEvent` layer answers *what* an
engine decided; this module answers *where a request's time went* once
the reproduction became a distributed system -- across the client, the
router's two-phase fan-out, each participant shard's prepare/commit,
the group-commit queue wait and fsync barrier, and the replication
apply on a replica.  It is deliberately dependency-free and speaks a
W3C-traceparent-style context so any hop can join a trace knowing only
the string it was handed.

A :class:`Span` is one timed operation: ``trace_id`` (shared by every
span of one request), ``span_id``, ``parent_id`` (how the waterfall
nests), a ``kind`` (``client``/``router``/``server``/``engine``/
``wal``/``repl``), wall-clock start/end stamped from a monotonic
delta, free-form ``attributes``, and point-in-time ``events``.  A span
is itself a tracer (:meth:`Span.emit`): attached to the engine while
its request runs, it records every :class:`TraceEvent` -- rule and
scheme included -- as a span event.  Context travels on the wire as ::

    00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01

(version - 32-hex trace id - 16-hex parent span id - flags; bit 0 of
the flags is the head-sampling decision, so one client-side coin toss
governs every process the request touches).

Each process exports finished spans to a :class:`SpanSink` -- a ring
buffer (served live by the ``spans`` protocol verb) plus an optional
JSONL file (one ``Span.to_dict()`` per line; a fleet writes one file
per worker, ``<path>.w<i>``).  The ``repro trace`` CLI collects those
files, reassembles traces with :func:`assemble_traces`, and renders
:func:`render_waterfall` with :func:`critical_path` and
:func:`kind_breakdown` -- see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import random
import re
import threading
import uuid
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter, time
from typing import IO, Any, Iterable, Mapping

from repro.obs.trace import TraceEvent

__all__ = [
    "Span",
    "SpanSink",
    "assemble_traces",
    "critical_path",
    "decode_context",
    "encode_context",
    "kind_breakdown",
    "new_span_id",
    "new_trace_id",
    "read_span_lines",
    "render_trace",
    "render_waterfall",
    "unresolved_parents",
]


def new_trace_id() -> str:
    """A fresh 32-hex trace id."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex span id."""
    return uuid.uuid4().hex[:16]


def encode_context(
    trace_id: str, span_id: str, sampled: bool = True
) -> str:
    """The traceparent-style wire form of a span context."""
    return f"00-{trace_id}-{span_id}-{'01' if sampled else '00'}"


_CONTEXT = re.compile(
    r"([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})"
)


def decode_context(value: Any) -> tuple[str, str, bool] | None:
    """Parse a wire context back to ``(trace_id, span_id, sampled)``.

    Anything malformed -- wrong arity or field widths, anything but
    lowercase hex, version ``ff``, an all-zero id -- returns ``None``:
    an unreadable context must degrade to "start a new trace", never
    reject the request carrying it.
    """
    if not isinstance(value, str):
        return None
    match = _CONTEXT.fullmatch(value)
    if match is None:
        return None
    version, trace_id, span_id, flags = match.groups()
    if version == "ff" or not int(trace_id, 16) or not int(span_id, 16):
        return None
    return trace_id, span_id, bool(int(flags, 16) & 0x01)


@dataclass
class Span:
    """One timed operation inside a distributed request.

    Start it with :meth:`Span.start` (which stamps both a wall-clock
    anchor and a monotonic origin, so durations never go backwards
    under clock steps) and finish it with :meth:`end`; an ended span is
    what a :class:`SpanSink` exports.
    """

    name: str
    trace_id: str
    span_id: str = field(default_factory=new_span_id)
    parent_id: str | None = None
    kind: str = "internal"
    #: Wall-clock start, epoch seconds (comparable across processes on
    #: one host; the waterfall's x axis).
    start_s: float = 0.0
    end_s: float | None = None
    #: Which process recorded the span (``client``, ``w0``, ``replica``).
    process: str | None = None
    status: str = "ok"
    attributes: dict[str, Any] = field(default_factory=dict)
    #: Point-in-time marks: ``{"name": ..., "at_s": ..., ...}`` -- the
    #: emitted :class:`~repro.obs.trace.TraceEvent` dicts land here.
    events: list[dict[str, Any]] = field(default_factory=list)
    _t0: float = field(default=0.0, repr=False, compare=False)

    @classmethod
    def start(
        cls,
        name: str,
        *,
        trace_id: str | None = None,
        parent_id: str | None = None,
        kind: str = "internal",
        process: str | None = None,
        **attributes: Any,
    ) -> "Span":
        """Open a span now; omit ``trace_id`` to root a new trace."""
        return cls(
            name=name,
            trace_id=trace_id or new_trace_id(),
            parent_id=parent_id,
            kind=kind,
            start_s=time(),
            process=process,
            attributes=dict(attributes),
            _t0=perf_counter(),
        )

    def context(self, sampled: bool = True) -> str:
        """This span's wire context (children parent onto it)."""
        return encode_context(self.trace_id, self.span_id, sampled)

    def child(
        self, name: str, kind: str = "internal", **attributes: Any
    ) -> "Span":
        """Open a child span in the same trace and process."""
        return Span.start(
            name,
            trace_id=self.trace_id,
            parent_id=self.span_id,
            kind=kind,
            process=self.process,
            **attributes,
        )

    def add_event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time mark at "now"."""
        event = {"name": name, "at_s": round(self._now(), 6)}
        event.update({k: v for k, v in attrs.items() if v is not None})
        self.events.append(event)

    def emit(self, event: TraceEvent) -> None:
        """Record an engine :class:`~repro.obs.trace.TraceEvent` as a
        span event named after it, every field kept -- this makes a
        span a :class:`~repro.obs.trace.Tracer`."""
        fields = event.to_dict()
        self.add_event(fields.pop("event"), **fields)

    def _now(self) -> float:
        """Wall-clock "now" derived from the monotonic origin."""
        return self.start_s + (perf_counter() - self._t0)

    def end(self, status: str | None = None) -> "Span":
        """Close the span (idempotent); returns it for chaining."""
        if self.end_s is None:
            self.end_s = self._now()
        if status is not None:
            self.status = status
        return self

    @property
    def duration_s(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        if self.end_s is None:
            return 0.0
        return max(0.0, self.end_s - self.start_s)

    def to_dict(self) -> dict[str, Any]:
        """The JSONL export form (empty/``None`` fields dropped)."""
        out: dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "kind": self.kind,
            "start_s": round(self.start_s, 6),
            "end_s": round(self.end_s, 6) if self.end_s is not None else None,
            "status": self.status,
        }
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.process is not None:
            out["process"] = self.process
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.events:
            out["events"] = list(self.events)
        return {k: v for k, v in out.items() if v is not None}

    def to_json(self) -> str:
        """One JSONL line (stable key order)."""
        return json.dumps(self.to_dict(), sort_keys=True)


class SpanSink:
    """Where a process's finished spans go: a bounded ring buffer (the
    live ``spans`` verb's source) plus an optional JSONL file.

    ``sample`` is the head-sampling rate for *new* traces rooted in
    this process (requests arriving with a context follow the caller's
    decision instead).  The ring never blocks: at capacity the oldest
    span is evicted and counted in :attr:`dropped`, so the sink is safe
    on the server's hot path.  Thread-safe -- client threads and the
    server loop may share one.
    """

    def __init__(
        self,
        path: str | None = None,
        capacity: int = 2048,
        sample: float = 1.0,
        process: str | None = None,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.path = path
        self.sample = min(1.0, max(0.0, float(sample)))
        self.process = process
        self.exported = 0
        self.dropped = 0
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._stream: IO[str] | None = (
            open(path, "w") if path is not None else None
        )

    def sample_root(self) -> bool:
        """The head-sampling coin toss for one new trace."""
        if self.sample >= 1.0:
            return True
        if self.sample <= 0.0:
            return False
        return random.random() < self.sample

    def start_span(
        self,
        name: str,
        *,
        trace_id: str | None = None,
        parent_id: str | None = None,
        kind: str = "internal",
        **attributes: Any,
    ) -> Span:
        """Open a span stamped with this sink's process name."""
        return Span.start(
            name,
            trace_id=trace_id,
            parent_id=parent_id,
            kind=kind,
            process=self.process,
            **attributes,
        )

    def export(self, span: Span) -> None:
        """Record one finished span (ending it if still open)."""
        span.end()
        record = span.to_dict()
        with self._lock:
            if len(self._ring) == self._ring.maxlen:
                self.dropped += 1
            self._ring.append(record)
            self.exported += 1
            if self._stream is not None:
                self._stream.write(json.dumps(record, sort_keys=True))
                self._stream.write("\n")
                self._stream.flush()

    @property
    def depth(self) -> int:
        """Spans currently held in the ring."""
        return len(self._ring)

    def recent(self, limit: int | None = None) -> list[dict[str, Any]]:
        """The ring's spans, oldest first (the ``spans`` verb's body)."""
        with self._lock:
            spans = list(self._ring)
        if limit is not None and limit >= 0:
            spans = spans[-limit:]
        return spans

    def close(self) -> None:
        """Close the JSONL stream (idempotent)."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None


# -- trace reassembly and rendering -------------------------------------------


def read_span_lines(lines: Iterable[str]) -> list[dict]:
    """Parse JSONL span lines back into dicts (blank-safe)."""
    return [json.loads(line) for line in lines if line.strip()]


def assemble_traces(
    spans: Iterable[Mapping[str, Any]],
) -> dict[str, list[dict]]:
    """Group span dicts by ``trace_id``, each trace sorted by start
    time (ties broken parent-before-child so rendering is stable)."""
    traces: dict[str, list[dict]] = {}
    for span in spans:
        trace_id = span.get("trace_id")
        if trace_id:
            traces.setdefault(str(trace_id), []).append(dict(span))
    for members in traces.values():
        members.sort(
            key=lambda s: (s.get("start_s", 0.0), s.get("parent_id") or "")
        )
    return traces


def unresolved_parents(spans: Iterable[Mapping[str, Any]]) -> list[str]:
    """Parent ids referenced by a trace's spans but present in none of
    them -- empty iff every ``parent_id`` resolves."""
    spans = list(spans)
    known = {s.get("span_id") for s in spans}
    missing: list[str] = []
    for span in spans:
        parent = span.get("parent_id")
        if parent and parent not in known and parent not in missing:
            missing.append(parent)
    return missing


def _children(spans: list[dict]) -> dict[str | None, list[dict]]:
    by_parent: dict[str | None, list[dict]] = {}
    known = {s.get("span_id") for s in spans}
    for span in spans:
        parent = span.get("parent_id")
        if parent not in known:
            parent = None  # orphan (e.g. parent lost to sampling): root it
        by_parent.setdefault(parent, []).append(span)
    for members in by_parent.values():
        members.sort(key=lambda s: s.get("start_s", 0.0))
    return by_parent


def _end_s(span: Mapping[str, Any]) -> float:
    end = span.get("end_s")
    if end is None:
        end = span.get("start_s", 0.0)
    return float(end)


def critical_path(spans: Iterable[Mapping[str, Any]]) -> list[dict]:
    """The chain of spans that bounded the trace's wall time: from the
    earliest root, repeatedly descend into the child that finished
    last.  A span off this path could have been faster without the
    request finishing sooner."""
    members = [dict(s) for s in spans]
    if not members:
        return []
    by_parent = _children(members)
    roots = by_parent.get(None, [])
    node = min(roots or members, key=lambda s: s.get("start_s", 0.0))
    path = [node]
    while True:
        kids = by_parent.get(node.get("span_id"), [])
        if not kids:
            return path
        node = max(kids, key=_end_s)
        path.append(node)


def kind_breakdown(
    spans: Iterable[Mapping[str, Any]],
) -> dict[str, float]:
    """Total span seconds per ``kind`` (spans of one kind may overlap
    across processes, so these sum to more than the trace's wall time;
    they answer "where was the work", not "where was the wall")."""
    totals: dict[str, float] = {}
    for span in spans:
        kind = str(span.get("kind", "internal"))
        seconds = max(0.0, _end_s(span) - float(span.get("start_s", 0.0)))
        totals[kind] = totals.get(kind, 0.0) + seconds
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 0.001:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def render_waterfall(
    spans: Iterable[Mapping[str, Any]], width: int = 48
) -> str:
    """An ASCII waterfall of one trace: a row per span, indented by
    parent depth, with a ``=`` bar positioned on the trace's timeline."""
    members = [dict(s) for s in spans]
    if not members:
        return "(no spans)\n"
    t0 = min(float(s.get("start_s", 0.0)) for s in members)
    t1 = max(_end_s(s) for s in members)
    window = max(t1 - t0, 1e-9)
    by_parent = _children(members)
    lines: list[str] = []

    def row(span: dict, depth: int) -> None:
        start = float(span.get("start_s", 0.0))
        duration = max(0.0, _end_s(span) - start)
        lo = int((start - t0) / window * width)
        hi = max(lo + 1, int((_end_s(span) - t0) / window * width))
        bar = " " * lo + "=" * (hi - lo) + " " * (width - hi)
        label = "  " * depth + str(span.get("name", "?"))
        process = str(span.get("process") or "-")
        mark = " !" if span.get("status") not in (None, "ok") else ""
        lines.append(
            f"{process:<8}{label:<34}|{bar}| {_fmt_s(duration):>7}{mark}"
        )
        for kid in by_parent.get(span.get("span_id"), []):
            row(kid, depth + 1)

    for root in by_parent.get(None, []):
        row(root, 0)
    return "\n".join(lines) + "\n"


def render_trace(
    trace_id: str, spans: Iterable[Mapping[str, Any]], width: int = 48
) -> str:
    """The full ``repro trace`` report for one trace: header,
    waterfall, one line per rejection naming its paper rule, critical
    path, and the per-kind time breakdown."""
    members = [dict(s) for s in spans]
    if not members:
        return f"trace {trace_id}: no spans\n"
    t0 = min(float(s.get("start_s", 0.0)) for s in members)
    t1 = max(_end_s(s) for s in members)
    processes = sorted({str(s.get("process") or "-") for s in members})
    lines = [
        f"trace {trace_id} — {len(members)} span(s) across "
        f"{len(processes)} process(es) ({', '.join(processes)}) — "
        f"{_fmt_s(max(0.0, t1 - t0))}"
    ]
    missing = unresolved_parents(members)
    if missing:
        lines.append(
            "warning: unresolved parent span id(s): " + ", ".join(missing)
        )
    lines.append(render_waterfall(members, width=width).rstrip("\n"))
    for span in members:
        for event in span.get("events", ()):
            if event.get("name") == "reject":
                lines.append(
                    f"rejected: {event.get('kind')} "
                    f"{event.get('constraint')} — {event.get('rule')}"
                )
    path = critical_path(members)
    if path:
        path_s = max(0.0, _end_s(path[-1]) - float(path[0].get("start_s", 0)))
        lines.append(
            "critical path: "
            + " -> ".join(str(s.get("name", "?")) for s in path)
            + f" ({_fmt_s(path_s)})"
        )
    breakdown = kind_breakdown(members)
    if breakdown:
        lines.append(
            "time by kind: "
            + " · ".join(
                f"{kind} {_fmt_s(seconds)}"
                for kind, seconds in breakdown.items()
            )
        )
    return "\n".join(lines) + "\n"
