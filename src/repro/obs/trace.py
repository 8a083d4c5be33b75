"""The structured trace layer: events, the sink protocol, and sinks.

A :class:`TraceEvent` records one enforcement decision -- a mutation
outcome, a constraint rejection, a reference-check access path, a
consistency-check verdict, or a planner merge decision -- with the
constraint id, its paper-rule label, the access path taken, rows
touched and wall time.  Emitters hold a :class:`Tracer` (or ``None``
for zero overhead); the two stock sinks keep the last *n* events in
memory (:class:`RingBufferTracer`) or stream JSON lines
(:class:`JsonlTracer`).  A :class:`~repro.obs.spans.Span` is a
tracer too: the server attaches a sampled request's span, so the
events land on that request's trace.

Event vocabulary (the ``event`` field):

``mutation``        an accepted engine mutation (``op`` says which)
``reject``          a rejected mutation, with ``constraint``/``rule``
``ref-check``       one reference-existence probe with its access path
``restrict-check``  one incoming-reference restrict probe
``check``           one constraint evaluated by the consistency checker
``violation``       a constraint the checker found violated
``merge-decision``  one family admitted/skipped by the merge planner
``merge-applied``   one merge the planner actually performed
``wal``             one mutation record appended to the write-ahead log
``checkpoint``      the log compacted into a snapshot
``recovery``        one crash-recovery step (truncate/rollback/replay/verify)
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass
from typing import IO, Protocol


@dataclass(frozen=True)
class TraceEvent:
    """One enforcement decision.  ``None`` fields are omitted from the
    serialized form, so every sink sees only what the decision recorded."""

    event: str
    op: str | None = None
    scheme: str | None = None
    constraint: str | None = None
    kind: str | None = None
    rule: str | None = None
    outcome: str | None = None
    access_path: str | None = None
    rows: int | None = None
    elapsed_us: float | None = None
    detail: str | None = None

    def to_dict(self) -> dict:
        """A plain dict with the ``None`` fields dropped."""
        return {k: v for k, v in asdict(self).items() if v is not None}

    def to_json(self) -> str:
        """One JSONL line (stable key order)."""
        return json.dumps(self.to_dict(), sort_keys=True)


class Tracer(Protocol):
    """Anything that accepts trace events (a sink)."""

    def emit(self, event: TraceEvent) -> None:
        """Record one event."""
        ...  # pragma: no cover - protocol


class RingBufferTracer:
    """Keeps the last ``capacity`` events in memory.

    The cheap always-on sink: attach one to a long-lived database and
    inspect ``tracer.events`` after a surprising rejection.
    """

    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)

    def emit(self, event: TraceEvent) -> None:
        """Record one event (evicting the oldest at capacity)."""
        self._buffer.append(event)

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """The buffered events, oldest first."""
        return tuple(self._buffer)

    def clear(self) -> None:
        """Drop every buffered event."""
        self._buffer.clear()

    def find(self, event: str) -> tuple[TraceEvent, ...]:
        """The buffered events of one kind, oldest first."""
        return tuple(e for e in self._buffer if e.event == event)


class JsonlTracer:
    """Streams events as JSON lines to a writable text stream.

    The stream is flushed per event so a trace survives a crash;
    :meth:`close` closes the stream only when this tracer opened it
    (``JsonlTracer.to_path``), never a caller-owned one like stdout.
    """

    def __init__(self, stream: IO[str]):
        self._stream = stream
        self._owns_stream = False
        self.events_written = 0

    @classmethod
    def to_path(cls, path: str) -> "JsonlTracer":
        """A tracer writing (truncating) the file at ``path``."""
        tracer = cls(open(path, "w"))
        tracer._owns_stream = True
        return tracer

    def emit(self, event: TraceEvent) -> None:
        """Write one JSONL line."""
        self._stream.write(event.to_json())
        self._stream.write("\n")
        self._stream.flush()
        self.events_written += 1

    def close(self) -> None:
        """Close the underlying stream if this tracer opened it."""
        if self._owns_stream:
            self._stream.close()
