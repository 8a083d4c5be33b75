"""Sessions, verb dispatch, and the single-writer transaction manager.

One :class:`DatabaseService` multiplexes every connection over one
:class:`~repro.engine.database.Database`:

* **Reads** (``get``/``join_to``/``find_referencing``/``check``/
  ``explain``/``metrics``/``stats``) execute inline in the connection's
  coroutine.  The event loop is single-threaded and the handlers never
  await while touching the database, so a read always sees a consistent
  snapshot between mutations; ``Database.scan``'s version guard would
  turn any future violation of that invariant into a loud
  ``RuntimeError`` rather than a silently torn read.

* **Mutations** (``insert``/``update``/``delete``/``insert_many``/
  ``apply_batch``) are funneled through a bounded queue to a single
  writer task -- the serialization point that makes "the server is the
  sole enforcer" true under concurrency.  The queue bound is the
  backpressure mechanism: when writers outrun the engine, connection
  handlers block on ``put`` (and stop reading their sockets) instead of
  buffering unboundedly.

* **Group commit**: the writer drains up to ``max_batch`` queued
  mutations, applies them one by one -- each validated, WAL-appended
  *unflushed*, and stored -- then issues one
  :meth:`~repro.engine.database.Database.sync_wal` barrier and only then
  acknowledges the whole batch.  Concurrent writers' records thus share
  a single flush/fsync instead of paying one each; the
  ``wal_group_commits`` / ``wal_batched_records`` counters report the
  achieved batching factor.  A client is never acked before its record
  is durable, so a crash loses only unacknowledged mutations.

* **Who a group waits for**: after the first mutation, a forming group
  waits at most ``max_delay`` seconds, and only for sessions that are
  writing -- one the previous group committed a mutation for that is
  still connected and not yet in this group, or a mutation already
  submitted but not yet queued.  Idle, read-only and replication-poll
  connections never delay a commit.

If the sync barrier itself fails, the log is poisoned (the WAL module's
standing discipline): every mutation in the batch -- and every later
one -- is answered with a ``wal-error`` frame, and the process must be
restarted through :meth:`Database.recover`, which drops whatever the
log cannot prove committed.  The failed group stays applied in memory,
so every read answers ``wal-error`` as well, except the few that report
on the server itself (:data:`POISON_EXEMPT_VERBS`: ``stats``,
``metrics``, ``spans`` and ``topology``).

Two jobs live in modules of their own, which the service calls
directly: WAL shipping, both the primary's and the replica's half
(:mod:`repro.server.replication`, including the semi-synchronous ack
gate every mutation ack passes), and the shard/2PC participant
(:mod:`repro.server.participant`: ownership checks, ``topology``, held
cross-shard prepares).  Every request path turns an exception into its
error frame through the one mapping,
:func:`~repro.server.errors.exception_frame`.
"""

from __future__ import annotations

import asyncio
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter, time
from typing import Any, Mapping

from repro.engine.database import Database
from repro.engine.query import QueryEngine
from repro.engine.wal import WalCursor, WalError, op_runs
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import (
    Span,
    SpanSink,
    decode_context,
    new_trace_id,
    render_trace,
)
from repro.server.errors import exception_frame
from repro.server.participant import Participant, ShardInfo
from repro.server.protocol import (
    DECISION_VERBS,
    MUTATION_VERBS,
    REPLICATION_VERBS,
    VERBS,
    ProtocolError,
    decode_batch_ops,
    decode_pk,
    decode_row,
    decode_rows,
    error_frame,
    ok_frame,
    require,
)
from repro.server.replication import Replication

#: Bound on queued-but-uncommitted mutations (the backpressure
#: threshold).
QUEUE_DEPTH = 1024

#: The read verbs that still answer once a barrier has failed: they
#: report on the server itself, not on the stored rows.  Memory may then
#: hold rows no recovery brings back, so every other read answers
#: ``wal-error``.
POISON_EXEMPT_VERBS = frozenset(("stats", "metrics", "spans", "topology"))


@dataclass
class Session:
    """One client connection's state and counters."""

    id: int
    peer: str = ""
    requests: int = 0
    mutations: int = 0
    rejections: int = 0
    opened_at: float = field(default_factory=perf_counter)
    #: This session's WAL-shipping cursor, created on its first
    #: ``repl_poll`` (each replica connection tails independently).
    repl_cursor: WalCursor | None = None


class ServerMetrics:
    """The server-layer metric families, on one shared registry.

    Counters and histograms are recorded by the request path; the three
    gauges are callback-backed, reading the live quantity (connections,
    in-flight mutations, queue depth) at scrape time so they can never
    drift.  The registry renders after the engine's own exposition in
    :meth:`DatabaseService.render_metrics` and snapshots into the
    ``stats`` verb's ``server.metrics`` key.
    """

    def __init__(self, service: "DatabaseService"):
        self.registry = MetricsRegistry()
        r = self.registry
        self.requests = r.counter(
            "repro_server_requests_total",
            "Requests handled, by verb (unknown verbs count as 'invalid').",
            labelnames=("verb",),
        )
        self.request_seconds = r.histogram(
            "repro_server_request_seconds",
            "End-to-end request latency by verb, queueing and group "
            "commit included.",
            labelnames=("verb",),
        )
        self.errors = r.counter(
            "repro_server_errors_total",
            "Error frames returned, by error type.",
            labelnames=("type",),
        )
        self.violations = r.counter(
            "repro_server_violations_total",
            "Constraint-violation rejections, by constraint kind and "
            "paper rule.",
            labelnames=("kind", "rule"),
        )
        self.sessions = r.counter(
            "repro_server_sessions_total", "Client sessions accepted."
        )
        self.rejected_connections = r.counter(
            "repro_server_rejected_connections_total",
            "Connections refused (overloaded or draining).",
        )
        connections = r.gauge(
            "repro_server_connections", "Open client connections."
        )
        connections.set_callback(lambda: service.connections)
        inflight = r.gauge(
            "repro_server_inflight_mutations",
            "Mutations submitted but not yet acknowledged.",
        )
        inflight.set_callback(lambda: service.inflight)
        depth = r.gauge(
            "repro_server_queue_depth",
            "Mutations queued for the single writer.",
        )
        depth.set_callback(lambda: service._queue.qsize())
        self.batch_size = r.histogram(
            "repro_server_commit_batch_size",
            "Mutations covered by one group-commit barrier.",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
        )
        self.wal_sync_seconds = r.histogram(
            "repro_server_wal_sync_seconds",
            "Latency of the group-commit WAL sync barrier.",
        )
        #: Always-on per-phase timers, traced or not.
        phase_seconds = r.histogram(
            "repro_server_phase_seconds",
            "Time spent in one phase of the request path, by phase "
            "(group-wait: a forming group's wait for straggling "
            "writers).",
            labelnames=("phase",),
        )
        self.group_wait = phase_seconds.labels(phase="group-wait")
        self.prepares = r.counter(
            "repro_server_prepares_total",
            "Cross-shard batch prepares, by final outcome "
            "(committed / aborted / expired).",
            labelnames=("outcome",),
        )
        self.repl_shipped = r.counter(
            "repro_server_repl_shipped_records_total",
            "WAL records shipped to replicas (primary side).",
        )
        self.repl_applied = r.counter(
            "repro_server_repl_applied_records_total",
            "Replicated WAL records applied locally (replica side).",
        )
        replicas = r.gauge(
            "repro_server_repl_replicas",
            "Synchronous replicas currently attached (primary side).",
        )
        replicas.set_callback(lambda: len(service.replication.replicas))
        lag = r.gauge(
            "repro_server_repl_lag_records",
            "Records between the primary's durable lsn and this "
            "replica's applied lsn (0 on a primary).",
        )
        lag.set_callback(service.replication.lag)
        # -- process-level gauges (PR 10) ------------------------------
        uptime = r.gauge(
            "repro_process_uptime_seconds",
            "Seconds since this server process started serving.",
        )
        uptime.set_callback(lambda: time() - service.started_at)
        wal_size = r.gauge(
            "repro_server_wal_size_bytes",
            "Current on-disk size of the write-ahead log (0 without "
            "file storage).",
        )
        wal_size.set_callback(service.wal_size_bytes)
        snapshots = r.gauge(
            "repro_server_wal_snapshots",
            "Checkpoint snapshots taken by this process (WAL "
            "compactions).",
        )
        snapshots.set_callback(lambda: service.db.stats.checkpoints)
        span_depth = r.gauge(
            "repro_server_span_queue_depth",
            "Finished spans held in the span sink's ring buffer.",
        )
        span_depth.set_callback(
            lambda: service.span_sink.depth if service.span_sink else 0
        )
        span_dropped = r.gauge(
            "repro_server_spans_dropped_total",
            "Spans evicted from the span ring buffer before collection.",
        )
        span_dropped.set_callback(
            lambda: service.span_sink.dropped if service.span_sink else 0
        )


class DatabaseService:
    """Verb dispatch plus the single-writer group-commit pipeline."""

    def __init__(
        self,
        db: Database,
        max_batch: int = 64,
        max_delay: float = 0.002,
        shard: ShardInfo | None = None,
        prepare_timeout: float = 30.0,
        role: str = "primary",
        primary: str | None = None,
        span_sink: SpanSink | None = None,
        slow_ms: float | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        if role not in ("primary", "replica"):
            raise ValueError("role must be 'primary' or 'replica'")
        if span_sink is not None and db.tracer is not None:
            raise ValueError(
                "a span sink owns the engine tracer; detach the "
                "database's tracer first"
            )
        self.db = db
        self.query = QueryEngine(db)
        self.max_batch = max_batch
        self.max_delay = max_delay
        #: Why the WAL is unusable (``None`` = healthy).  Set on the
        #: first storage fault; every later mutation gets a
        #: ``wal-error`` frame until the process crash-recovers.
        self.poisoned: str | None = None
        self.requests_served = 0
        #: Mutations submitted whose future is not yet resolved.  One
        #: of the writer's two straggler signals: more of them than the
        #: forming group holds means a mutation is mid-submission, worth
        #: waiting up to ``max_delay`` for.
        self.inflight = 0
        #: Session ids the previous group committed a mutation for,
        #: minus those that disconnected since: the writer's other
        #: straggler signal.  A session that wrote last time is likely
        #: about to write again, so waiting for it turns near-
        #: simultaneous writers into one barrier instead of many; a
        #: session that only reads, polls or idles is never waited for.
        self._last_writers: set[int] = set()
        #: Open connections (maintained by the server's accept loop),
        #: reported by ``stats`` and the connections gauge.
        self.connections = 0
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=QUEUE_DEPTH)
        self._writer: asyncio.Task | None = None
        self._stopping = False
        #: A ``batch_prepare`` item pulled out of a forming group; the
        #: writer handles it solo on its next iteration.
        self._deferred: tuple | None = None
        #: Wall-clock start of this service, behind the
        #: ``repro_process_uptime_seconds`` gauge.
        self.started_at = time()
        #: Where finished spans go (``None`` disables span tracing);
        #: see :mod:`repro.obs.spans` and docs/OBSERVABILITY.md.
        self.span_sink = span_sink
        #: Dump an ASCII waterfall to stderr for any request whose
        #: server span runs at least this many milliseconds (``None``
        #: disables the slow-request log).
        self.slow_ms = slow_ms
        #: The shard/2PC participant: ownership checks, ``topology``,
        #: and held cross-shard prepares.
        self.participant = Participant(self, shard, prepare_timeout)
        #: WAL shipping, both halves (see docs/REPLICATION.md).
        self.replication = Replication(self, role, primary)
        #: Server-layer metric families; also the one count of
        #: prepare outcomes, shipped/applied records and rejected
        #: connections that ``stats`` and the drain summary read.
        self.metrics = ServerMetrics(self)

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Spawn the single writer task."""
        if self._writer is None:
            self._writer = asyncio.ensure_future(self._write_loop())

    async def stop(self) -> None:
        """Drain the mutation queue and stop the writer.

        The caller (the server's drain path) guarantees no handler will
        enqueue after this: the sentinel is FIFO-ordered behind every
        already-queued mutation, so in-flight work completes first.
        """
        if self._writer is None:
            return
        self._stopping = True
        # A held prepare parks the writer on the decision queue; the
        # drain decision aborts it so the sentinel below can be reached.
        self.participant.drain()
        await self._queue.put(None)
        await self._writer
        self._writer = None

    # -- request dispatch ------------------------------------------------

    async def handle(
        self, session: Session, frame: Mapping[str, Any]
    ) -> dict[str, Any]:
        """One request frame in, one response frame out (never raises).

        Every response echoes a ``trace_id``: the trace id of the
        request's ``span`` context, or a fresh one that also roots the
        server span when the sink samples it -- so the id in any error
        frame is a valid ``repro trace --trace-id``.
        """
        request_id = frame.get("id")
        verb = frame.get("verb")
        session.requests += 1
        self.requests_served += 1
        started = perf_counter()
        ctx = decode_context(frame.get("span"))
        trace_id = ctx[0] if ctx is not None else new_trace_id()
        if not isinstance(verb, str) or verb not in VERBS:
            response = error_frame(
                request_id,
                "bad-request",
                f"unknown verb {verb!r}; expected one of {', '.join(VERBS)}",
            )
            return self._finish(session, "invalid", trace_id, started, response)
        if verb in REPLICATION_VERBS:
            response = await self.replication.handle(
                verb, frame, request_id, session
            )
            return self._finish(session, verb, trace_id, started, response)
        if self.replication.role == "replica" and (
            verb in MUTATION_VERBS or verb in DECISION_VERBS
        ):
            response = error_frame(
                request_id,
                "read-only-replica",
                "this server is a read-only replica; send writes to the "
                "primary",
                primary=self.replication.primary,
            )
            return self._finish(session, verb, trace_id, started, response)
        span = self._open_server_span(verb, trace_id, ctx)
        if verb in DECISION_VERBS:
            session.mutations += 1
            response = await self.participant.handle_decision(
                verb, frame, request_id, span
            )
            return self._finish(
                session, verb, trace_id, started, response, span
            )
        if verb in MUTATION_VERBS:
            session.mutations += 1
            if self._stopping:
                response = error_frame(
                    request_id,
                    "shutting-down",
                    "server is draining; no further mutations accepted",
                )
                return self._finish(
                    session, verb, trace_id, started, response, span
                )
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self.inflight += 1
            try:
                await self._queue.put(
                    (
                        verb,
                        frame,
                        request_id,
                        trace_id,
                        span,
                        future,
                        session.id,
                    )
                )
            except BaseException:
                self.inflight -= 1
                raise
            response = await future
        else:
            self.activate_span(span)
            try:
                response = self._execute_read(verb, frame, request_id)
            finally:
                self.activate_span(None)
        return self._finish(session, verb, trace_id, started, response, span)

    def _open_server_span(
        self,
        verb: str,
        trace_id: str,
        ctx: tuple[str, str, bool] | None,
    ) -> Span | None:
        """Open the server-side span for one request.

        An incoming ``span`` wire context (``ctx``, already decoded)
        dictates the trace: we join it as a child span and follow its
        head-sampling flag.  Without one (or with a malformed one) this
        request roots ``trace_id``, subject to the sink's sampling
        rate.  Replication polls, the ``spans`` verb itself and the
        ``topology`` probe are never traced: they are observability
        and discovery plumbing (``repro trace HOST:PORT`` sends the
        last two), and tracing them would fill the ring with noise.
        """
        sink = self.span_sink
        if sink is None or verb in ("spans", "topology"):
            return None
        if ctx is not None:
            _, parent_id, sampled = ctx
            if not sampled:
                return None
            return sink.start_span(
                f"server:{verb}",
                trace_id=trace_id,
                parent_id=parent_id,
                kind="server",
            )
        if not sink.sample_root():
            return None
        return sink.start_span(
            f"server:{verb}", trace_id=trace_id, kind="server"
        )

    def _finish(
        self,
        session: Session,
        verb: str,
        trace_id: str,
        started: float,
        response: dict[str, Any],
        span: Span | None = None,
    ) -> dict[str, Any]:
        """Common response tail: echo the trace id (top-level and inside
        the error object, so client exceptions carry it), bump the
        session counters, record the request metrics, and close out the
        server span (export + slow-request log)."""
        response["trace_id"] = trace_id
        error = response.get("error")
        if isinstance(error, dict):
            error.setdefault("trace_id", trace_id)
        if not response.get("ok"):
            session.rejections += 1
        self.metrics.requests.labels(verb=verb).inc()
        self.metrics.request_seconds.labels(verb=verb).observe(
            perf_counter() - started
        )
        if isinstance(error, dict):
            self.metrics.errors.labels(
                type=error.get("type", "server-error")
            ).inc()
            if error.get("type") == "constraint-violation":
                self.metrics.violations.labels(
                    kind=error.get("kind", ""),
                    rule=error.get("rule", ""),
                ).inc()
        if span is not None and self.span_sink is not None:
            if response.get("lsn") is not None:
                span.attributes["lsn"] = response["lsn"]
            status = (
                error.get("type", "error") if isinstance(error, dict) else None
            )
            self.span_sink.export(span.end(status))
            self._maybe_log_slow(verb, span)
        return response

    def _maybe_log_slow(self, verb: str, span: Span) -> None:
        """Auto-dump the waterfall for an outlier request (``--slow-ms``):
        render every span of the offending trace still in the local ring
        buffer to stderr, so slow requests explain themselves without a
        separate collection step."""
        if self.slow_ms is None:
            return
        duration_ms = span.duration_s * 1000.0
        if duration_ms < self.slow_ms:
            return
        members = [
            s
            for s in self.span_sink.recent()
            if s.get("trace_id") == span.trace_id
        ]
        print(
            f"slow request: {verb} took {duration_ms:.1f} ms "
            f"(threshold {self.slow_ms:g} ms)",
            file=sys.stderr,
        )
        print(render_trace(span.trace_id, members), file=sys.stderr)

    def forget_session(self, session: Session) -> None:
        """Connection-close cleanup: a vanished session is no longer a
        straggler worth waiting for, and a vanished replica must stop
        gating acks."""
        self._last_writers.discard(session.id)
        self.replication.forget(session)

    # -- reads (inline, snapshot-consistent) ------------------------------

    def _execute_read(
        self, verb: str, frame: Mapping[str, Any], request_id: Any
    ) -> dict[str, Any]:
        if self.poisoned is not None and verb not in POISON_EXEMPT_VERBS:
            return self.poisoned_frame(request_id)
        try:
            if verb == "get":
                self.participant.check_shard("get", frame)
                t = self.db.get(
                    require(frame, "scheme", str),
                    decode_pk(require(frame, "pk", list)),
                )
                return ok_frame(request_id, t.mapping if t else None)
            if verb == "topology":
                return ok_frame(request_id, self.participant.topology())
            if verb == "exists":
                scheme = require(frame, "scheme", str)
                attrs = tuple(require(frame, "attrs", list))
                value = decode_pk(require(frame, "value", list))
                self.db.table(scheme)  # unknown scheme -> not-found
                return ok_frame(
                    request_id,
                    {"exists": self.db._referenced_exists(scheme, attrs, value)},
                )
            if verb == "join_to":
                return ok_frame(request_id, self._join_to(frame))
            if verb == "find_referencing":
                return ok_frame(request_id, self._find_referencing(frame))
            if verb == "check":
                violations = self.db.violations()
                return ok_frame(
                    request_id,
                    {
                        "consistent": not violations,
                        "violations": [str(v) for v in violations],
                    },
                )
            if verb == "explain":
                return ok_frame(
                    request_id,
                    self.db.explain(
                        require(frame, "op", str),
                        require(frame, "scheme", str),
                    ),
                )
            if verb == "advise":
                from repro.advisor import advise as advise_db

                strategy = frame.get("strategy")
                if strategy is not None and not isinstance(strategy, str):
                    raise ProtocolError(
                        "parameter 'strategy' must be a string"
                    )
                return ok_frame(
                    request_id, advise_db(self.db, strategy=strategy)
                )
            if verb == "metrics":
                return ok_frame(request_id, self.render_metrics())
            if verb == "stats":
                snap = self.db.stats.snapshot()
                snap["server"] = self.server_stats()
                return ok_frame(request_id, snap)
            if verb == "spans":
                limit = frame.get("limit")
                if limit is not None and (
                    not isinstance(limit, int) or limit < 1
                ):
                    raise ProtocolError(
                        "parameter 'limit' must be a positive integer"
                    )
                sink = self.span_sink
                if sink is None:
                    return ok_frame(
                        request_id,
                        {
                            "spans": [],
                            "depth": 0,
                            "dropped": 0,
                            "exported": 0,
                            "sample": None,
                        },
                    )
                return ok_frame(
                    request_id,
                    {
                        "spans": sink.recent(limit),
                        "depth": sink.depth,
                        "dropped": sink.dropped,
                        "exported": sink.exported,
                        "sample": sink.sample,
                    },
                )
            raise ProtocolError(f"unhandled read verb {verb!r}")
        except Exception as exc:  # a read must never kill the connection
            return exception_frame(request_id, exc)

    def render_metrics(self) -> str:
        """The full Prometheus text exposition: the engine's counters
        and latency histograms followed by the server-layer registry
        (the body of the ``metrics`` verb and the ``/metrics`` HTTP
        endpoint)."""
        return self.db.stats.to_prometheus() + self.metrics.registry.render()

    def server_stats(self) -> dict[str, Any]:
        """Live server-layer state for the ``stats`` verb: request and
        queue gauges plus the metric registry's JSON snapshot -- what
        ``python -m repro monitor`` polls."""
        prepares = self.metrics.prepares
        participant, replication = self.participant, self.replication
        out: dict[str, Any] = {
            "requests_served": self.requests_served,
            "connections": self.connections,
            "inflight": self.inflight,
            "queue_depth": self._queue.qsize(),
            "uptime_s": round(time() - self.started_at, 3),
            "poisoned": self.poisoned,
            "prepares": {
                "held": participant.held_xid is not None,
                "prepared": participant.prepares,
                "committed": int(prepares.value(outcome="committed")),
                "aborted": int(prepares.value(outcome="aborted")),
                "expired": int(prepares.value(outcome="expired")),
            },
            "replication": {
                "role": replication.role,
                "primary": replication.primary,
                "replicas": len(replication.replicas),
                "shipped": int(self.metrics.repl_shipped.value()),
                "applied": int(self.metrics.repl_applied.value()),
                "applied_lsn": replication.applied_lsn,
                "lag": replication.lag(),
            },
        }
        if participant.shard is not None:
            out["shard"] = {
                "worker_id": participant.shard.worker_id,
                "workers": participant.shard.n_shards,
            }
        if self.span_sink is not None:
            out["spans"] = {
                "depth": self.span_sink.depth,
                "dropped": self.span_sink.dropped,
                "exported": self.span_sink.exported,
                "sample": self.span_sink.sample,
            }
        out["metrics"] = self.metrics.registry.snapshot()
        return out

    def wal_size_bytes(self) -> int:
        """WAL size for the process gauge (0 when the WAL is detached
        or unreadable).  A drained server has closed its log, which then
        refuses reads; its file still holds the final length."""
        wal = self.db.wal
        if wal is None:
            return 0
        try:
            return int(wal.storage.size())
        except Exception:
            try:
                return os.path.getsize(wal.storage.path)
            except (AttributeError, OSError):
                return 0

    def _source_row(self, frame: Mapping[str, Any]):
        scheme = require(frame, "scheme", str)
        pk = decode_pk(require(frame, "pk", list))
        t = self.db.get(scheme, pk)
        if t is None:
            raise KeyError(f"{scheme}: no row with key {pk!r}")
        return t

    def _join_to(self, frame: Mapping[str, Any]):
        source = self._source_row(frame)
        target_attrs = frame.get("target_attrs")
        if target_attrs is not None and not isinstance(target_attrs, list):
            raise ProtocolError("parameter 'target_attrs' must be a list")
        t = self.query.join_to(
            source,
            require(frame, "via", list),
            require(frame, "target_scheme", str),
            target_attrs,
        )
        return t.mapping if t else None

    def _find_referencing(self, frame: Mapping[str, Any]):
        target = self._source_row(frame)
        rows = self.query.find_referencing(
            target,
            require(frame, "source_scheme", str),
            require(frame, "via", list),
            require(frame, "target_attrs", list),
        )
        return [t.mapping for t in rows]

    # -- the single-writer group-commit pipeline ---------------------------

    async def _write_loop(self) -> None:
        """Pop mutation batches off the queue forever (until sentinel).

        ``batch_prepare`` items never join a group: the writer handles
        each solo (:meth:`_run_prepare`), holding the open transaction
        until the router's decision arrives, so no other mutation can
        interleave with a half-decided cross-shard batch.
        """
        loop = asyncio.get_running_loop()
        while True:
            if self._deferred is not None:
                item, self._deferred = self._deferred, None
            else:
                item = await self._queue.get()
            if item is None:
                return
            if item[0] == "batch_prepare":
                await self.participant.run_prepare(item)
                continue
            batch = [item]
            writers = {item[6]}
            stop_after = False
            started = loop.time()
            deadline = started + self.max_delay
            while len(batch) < self.max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    # Wait only for sessions that are writing: a
                    # mutation submitted but not yet queued, or a
                    # previous-group writer that has not joined this
                    # group.  When the batch covers them all, waiting
                    # cannot grow it -- commit immediately.
                    remaining = deadline - loop.time()
                    if remaining <= 0 or (
                        self.inflight <= len(batch)
                        and self._last_writers <= writers
                    ):
                        break
                    try:
                        nxt = await asyncio.wait_for(
                            self._queue.get(), remaining
                        )
                    except asyncio.TimeoutError:
                        break
                if nxt is None:
                    stop_after = True
                    break
                if nxt[0] == "batch_prepare":
                    self._deferred = nxt  # solo, after this group commits
                    break
                batch.append(nxt)
                writers.add(nxt[6])
            self.metrics.group_wait.observe(loop.time() - started)
            self._last_writers = writers
            self._commit_group(batch)
            if stop_after:
                return

    def ack_mutation(self, future: asyncio.Future, outcome: dict) -> None:
        """Resolve one queued mutation's future (inflight bookkeeping
        included -- every queued item must pass through exactly one
        ack)."""
        self.inflight -= 1
        if not future.done():
            future.set_result(outcome)

    def activate_span(self, span: Span | None) -> None:
        """Make ``span`` the engine's tracer (``None`` detaches).

        With a span sink the service owns ``db.tracer``: a span is
        attached exactly while its sampled work runs -- everything here
        runs on the one event-loop thread, so the swap cannot race --
        and unsampled requests never pay for trace-event construction.
        """
        if self.span_sink is not None:
            self.db.set_tracer(span)

    def export_queue_wait(self, span: Span) -> None:
        """Export a back-dated ``queue-wait`` child covering the time a
        mutation sat on the writer's queue (server-span open to writer
        pickup -- the handler does no meaningful work in between)."""
        waited = perf_counter() - span._t0
        child = span.child("queue-wait", kind="server")
        child.start_s -= waited
        child._t0 -= waited
        self.span_sink.export(child.end())

    def _commit_group(self, batch: list[tuple]) -> None:
        """Apply one batch, issue the group-commit barrier, then ack.

        Runs synchronously (no awaits): the whole group is one
        scheduling step, so reads interleave between groups, never
        inside one.
        """
        replication = self.replication
        outcomes: list[dict] = []
        for verb, frame, request_id, _trace_id, span, _future, _ in batch:
            if self.poisoned is not None:
                outcomes.append(self.poisoned_frame(request_id))
                continue
            if span is not None:
                self.export_queue_wait(span)
            apply_span = (
                span.child("apply", kind="engine", verb=verb)
                if span is not None
                else None
            )
            self.activate_span(apply_span)
            lsn_before = (
                self.db.wal.next_lsn if self.db.wal is not None else 0
            )
            try:
                outcome = ok_frame(
                    request_id, self._execute_mutation(verb, frame)
                )
                replication.stamp(outcome, lsn_before, span)
            except Exception as exc:
                if isinstance(exc, WalError):
                    self.poisoned = str(exc)
                outcome = exception_frame(request_id, exc)
            finally:
                self.activate_span(None)
            outcomes.append(outcome)
            if apply_span is not None:
                error = outcome.get("error")
                self.span_sink.export(
                    apply_span.end(
                        None if error is None else error.get("type", "error")
                    )
                )
        if self.poisoned is None:
            # The barrier covers the whole batch; hang its span (and
            # so its trace events) under the first sampled request's
            # server span.
            span_parent = next(
                (s for _, _, _, _, s, _, _ in batch if s is not None), None
            )
            group_span = (
                span_parent.child("group-commit", kind="wal", batch=len(batch))
                if span_parent is not None
                else None
            )
            if group_span is not None and len(batch) > 1:
                group_span.attributes["trace_ids"] = [
                    t for _, _, _, t, _, _, _ in batch
                ]
            self.activate_span(group_span)
            sync_started = perf_counter()
            try:
                self.db.sync_wal()
            except (WalError, OSError) as exc:
                # Nothing in this group is durable: poison the service
                # and turn every would-be ack into a wal-error frame.
                self.poisoned = str(exc)
                outcomes = [
                    self.poisoned_frame(request_id)
                    if outcome.get("ok")
                    else outcome
                    for outcome, (_, _, request_id, _, _, _, _) in zip(
                        outcomes, batch
                    )
                ]
            else:
                self.metrics.wal_sync_seconds.observe(
                    perf_counter() - sync_started
                )
                # Wake parked replica polls: new durable records exist.
                replication.signal_commit()
            finally:
                self.activate_span(None)
                if group_span is not None:
                    self.span_sink.export(
                        group_span.end(
                            None if self.poisoned is None else "wal-error"
                        )
                    )
        self.metrics.batch_size.observe(len(batch))
        acked_lsn = (
            self.db.wal.durable_lsn
            if self.db.wal is not None and self.poisoned is None
            else 0
        )
        self.inflight -= len(batch)
        replication.ack(
            [(item[5], outcome) for item, outcome in zip(batch, outcomes)],
            acked_lsn,
        )

    def poisoned_frame(self, request_id: Any) -> dict[str, Any]:
        """The ``wal-error`` frame every request gets once the log is
        poisoned."""
        return error_frame(
            request_id,
            "wal-error",
            "write-ahead log is poisoned by an earlier storage fault "
            f"({self.poisoned}); restart the server through recovery",
        )

    def _execute_mutation(self, verb: str, frame: Mapping[str, Any]) -> Any:
        self.participant.check_shard(verb, frame)
        if verb == "insert":
            t = self.db.insert(
                require(frame, "scheme", str),
                decode_row(require(frame, "row", dict)),
            )
            return t.mapping
        if verb == "update":
            t = self.db.update(
                require(frame, "scheme", str),
                decode_pk(require(frame, "pk", list)),
                decode_row(require(frame, "updates", dict)),
            )
            return t.mapping
        if verb == "delete":
            self.db.delete(
                require(frame, "scheme", str),
                decode_pk(require(frame, "pk", list)),
            )
            return None
        # The bulk verbs answer with the stored row dicts themselves
        # (Database.insert_rows and apply_runs build no row views): the
        # response only serializes them.
        if verb == "insert_many":
            raw_rows = require(frame, "rows", list)
            if not set(map(type, raw_rows)) <= {dict}:
                raise ProtocolError("every element of 'rows' must be a row")
            return self.db.insert_rows(
                require(frame, "scheme", str), decode_rows(raw_rows)
            )
        if verb == "apply_batch":
            ops = decode_batch_ops(require(frame, "ops", list))
            return self.db.apply_runs(op_runs(ops))
        if verb == "apply_merge":
            return self._apply_merge(frame)
        raise ProtocolError(f"unhandled mutation verb {verb!r}")

    def _apply_merge(self, frame: Mapping[str, Any]) -> dict[str, Any]:
        """Execute one online merge on the single-writer path.

        Runs inside :meth:`_commit_group`, so every concurrent read
        observes either the old schema or the fully-merged one -- the
        group-commit loop *is* the quiesce point.  With no ``members``
        the advisor picks the best-scoring admissible family from the
        live mined counters.
        """
        if self.participant.sharded:
            raise ProtocolError(
                "apply_merge is not supported on a sharded fleet: the "
                "merged relation would span shard ownership; merge "
                "offline and re-shard instead"
            )
        members = frame.get("members")
        if members is None:
            from repro.advisor import advise as advise_db

            strategy = frame.get("strategy")
            if strategy is not None and not isinstance(strategy, str):
                raise ProtocolError("parameter 'strategy' must be a string")
            report = advise_db(self.db, strategy=strategy)
            recommendation = report.get("recommendation")
            if recommendation is None:
                raise ProtocolError(
                    "advisor has no recommendation: no admissible family "
                    "pays for itself on the observed workload"
                )
            members = recommendation["members"]
            key_relation = recommendation["key_relation"]
            merged_name = None
        else:
            if not isinstance(members, list) or not all(
                isinstance(m, str) for m in members
            ):
                raise ProtocolError(
                    "parameter 'members' must be a list of scheme names"
                )
            key_relation = frame.get("key_relation")
            merged_name = frame.get("merged_name")
        simplified = self.db.apply_merge_online(
            members, key_relation=key_relation, merged_name=merged_name
        )
        return {
            "merged_name": simplified.info.merged_name,
            "members": list(simplified.info.family),
            "key_relation": simplified.info.key_relation,
            "removed": [list(r.attrs) for r in simplified.removed],
            "schemes": list(self.db.schema.scheme_names),
        }
