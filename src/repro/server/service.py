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
log cannot prove committed.
"""

from __future__ import annotations

import asyncio
import os
import sys
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import is_, itemgetter
from time import perf_counter, time
from typing import Any, Mapping

from repro.engine.database import ConstraintViolationError, Database
from repro.engine.query import QueryEngine
from repro.engine.recovery import RecoveryError, WalApplier
from repro.engine.wal import WalCursor, WalError
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import (
    Span,
    SpanSink,
    decode_context,
    new_trace_id,
    render_trace,
)
from repro.server import protocol
from repro.server.protocol import (
    DECISION_VERBS,
    MUTATION_VERBS,
    REPLICATION_VERBS,
    VERBS,
    ProtocolError,
    decode_pk,
    decode_row,
    decode_rows,
    error_frame,
    ok_frame,
    violation_frame,
)
from repro.server.router import shard_of

#: Bound on queued-but-uncommitted mutations (the backpressure
#: threshold).
QUEUE_DEPTH = 1024
#: Primary side: how long (seconds) a mutation ack may wait on
#: synchronous-replica receipt before the stalled replicas are
#: detached.  Bounds the damage a frozen replica can do to primary
#: availability.
REPL_ACK_TIMEOUT = 5.0


class WrongShardError(Exception):
    """A single-shard request landed on a worker that does not own its
    primary key; the error frame carries the owning worker index so a
    router-less client can still find its way."""

    def __init__(self, worker: int):
        super().__init__(f"row belongs to worker {worker}")
        self.worker = worker


@dataclass
class ShardInfo:
    """This worker's place in a sharded fleet (``None`` on a plain
    single-process server): its index, the fleet size, and where every
    worker listens -- what the ``topology`` verb reports."""

    worker_id: int = 0
    n_shards: int = 1
    host: str = "127.0.0.1"
    ports: list[int] = field(default_factory=list)
    shared_port: int | None = None


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


def _require(frame: Mapping[str, Any], key: str, kind: type) -> Any:
    """A typed parameter, or :class:`ProtocolError` naming what's wrong."""
    try:
        value = frame[key]
    except KeyError:
        raise ProtocolError(f"missing parameter {key!r}") from None
    if not isinstance(value, kind):
        raise ProtocolError(
            f"parameter {key!r} must be {kind.__name__}, not "
            f"{type(value).__name__}"
        )
    return value


#: The exact wire shape of each batch op: ``(kind, length, type of
#: element 2, type of the last element)``.
_OP_SHAPES = frozenset(
    (
        ("insert", 3, dict, dict),
        ("update", 4, list, dict),
        ("delete", 3, list, list),
    )
)


def _op_tuple(raw: list) -> tuple:
    """One well-formed, marker-free wire op as an engine op tuple."""
    if raw[0] == "insert":
        return ("insert", raw[1], raw[2])
    if raw[0] == "update":
        return ("update", raw[1], tuple(raw[2]), raw[3])
    return ("delete", raw[1], tuple(raw[2]))


def _plain_batch_ops(raw_ops: list) -> list[tuple] | None:
    """The engine op tuples of a well-formed batch that carries no
    ``NULL`` marker, built by C-level passes over the ops; ``None``
    for anything else.

    Shape is proved batch-wide with exact types (every op is a list,
    and its kind, length and element types form one of
    :data:`_OP_SHAPES`); one type probe over every row value and key
    component then finds any marker, since only a marker is a JSON
    object.  Rows are passed on as parsed.
    """
    if set(map(type, raw_ops)) != {list}:
        return None  # empty batch, or some op is not an array
    try:
        kinds = list(map(itemgetter(0), raw_ops))
        thirds = list(map(itemgetter(2), raw_ops))
        lasts = list(map(itemgetter(-1), raw_ops))
        shapes = set(
            zip(kinds, map(len, raw_ops), map(type, thirds), map(type, lasts))
        )
    except (IndexError, TypeError):
        return None  # a short op, or an unhashable kind
    if not shapes <= _OP_SHAPES:
        return None
    # Row dicts are the dict-typed last elements (insert rows, update
    # maps); keys are the list-typed third elements (update, delete).
    rows = compress(lasts, map(is_, map(type, lasts), repeat(dict)))
    pks = compress(thirds, map(is_, map(type, thirds), repeat(list)))
    values = chain(
        chain.from_iterable(map(dict.values, rows)),
        chain.from_iterable(pks),
    )
    if dict in set(map(type, values)):
        return None  # a marker somewhere: decode value by value
    schemes = map(itemgetter(1), raw_ops)
    if len(shapes) > 1:
        return list(map(_op_tuple, raw_ops))
    if kinds[0] == "insert":
        return list(zip(kinds, schemes, thirds))
    keys = map(tuple, thirds)
    if kinds[0] == "delete":
        return list(zip(kinds, schemes, keys))
    return list(zip(kinds, schemes, keys, lasts))


def _decode_batch_ops(raw_ops: list) -> list[tuple]:
    """Wire-form ``apply_batch`` op arrays as engine op tuples.

    A well-formed, marker-free batch converts without a per-value loop
    (:func:`_plain_batch_ops`); anything else is decoded op by op,
    which also names the first malformed op.
    """
    plain = _plain_batch_ops(raw_ops)
    if plain is not None:
        return plain
    ops: list[tuple] = []
    for i, raw in enumerate(raw_ops):
        if not isinstance(raw, list) or not raw:
            raise ProtocolError(f"ops[{i}] must be a non-empty array")
        kind = raw[0]
        if kind == "insert" and len(raw) == 3 and isinstance(raw[2], dict):
            ops.append(("insert", raw[1], decode_row(raw[2])))
        elif (
            kind == "update"
            and len(raw) == 4
            and isinstance(raw[2], list)
            and isinstance(raw[3], dict)
        ):
            ops.append(
                ("update", raw[1], decode_pk(raw[2]), decode_row(raw[3]))
            )
        elif kind == "delete" and len(raw) == 3 and isinstance(raw[2], list):
            ops.append(("delete", raw[1], decode_pk(raw[2])))
        else:
            raise ProtocolError(
                f"ops[{i}] is not a valid insert/update/delete op array"
            )
    return ops


def _result_rows(results: list) -> list:
    """A bulk result in response form: each stored row's mapping as it
    is (:func:`~repro.server.protocol.encode_frame` writes any
    ``NULL`` in it), ``None`` for a delete."""
    return [t.mapping if t is not None else None for t in results]


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
        replicas.set_callback(lambda: len(service._replicas))
        lag = r.gauge(
            "repro_server_repl_lag_records",
            "Records between the primary's durable lsn and this "
            "replica's applied lsn (0 on a primary).",
        )
        lag.set_callback(service.replication_lag)
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
        #: This worker's place in a sharded fleet; ``None`` disables
        #: shard ownership enforcement and makes ``topology`` report a
        #: one-worker world.
        self.shard = shard
        #: How long the writer holds a prepared batch awaiting its
        #: commit/abort decision before aborting it unilaterally.
        self.prepare_timeout = prepare_timeout
        self._key_names: dict[str, tuple[str, ...]] = {
            s.name: s.key_names for s in db.schema.schemes
        }
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
        #: Commit/abort decisions for a held prepare, routed around the
        #: mutation queue (the writer is parked on this queue while it
        #: holds one).
        self._decisions: asyncio.Queue = asyncio.Queue()
        #: A ``batch_prepare`` item pulled out of a forming group; the
        #: writer handles it solo on its next iteration.
        self._deferred: tuple | None = None
        #: The transfer id of the currently held prepare (``None`` when
        #: no prepare is in flight) and the last few ids whose holds
        #: timed out, so a late decision gets ``prepare-expired`` rather
        #: than the generic ``no-prepared-batch``.
        self._held_xid: str | None = None
        self._expired_xids: deque[str] = deque(maxlen=8)
        #: Prepares this worker has held (their outcomes are counted
        #: by ``repro_server_prepares_total``).
        self.prepares = 0
        # -- replication state (see docs/REPLICATION.md) ---------------
        #: ``"primary"`` (read-write, ships its WAL) or ``"replica"``
        #: (read-only, applies a primary's records); flipped by the
        #: ``promote`` verb.
        self.role = role
        #: ``host:port`` of the primary this replica follows (display
        #: and error frames only -- the replica loop owns the socket).
        self.primary = primary
        #: Primary side: session id -> highest lsn that synchronous
        #: replica has confirmed received.  Mutation acks gate on
        #: ``min(values) >= the batch's lsn``.
        self._replicas: dict[int, int] = {}
        #: Resolved (and replaced) after every successful durability
        #: barrier; parked ``repl_poll`` long-polls wait on it.
        self._commit_waiter: asyncio.Future | None = None
        #: Resolved (and replaced) whenever a sync replica confirms
        #: receipt; deferred mutation acks wait on it.
        self._confirm_waiter: asyncio.Future | None = None
        self._draining = False
        #: Replica side: the primary's lsn of the last applied record,
        #: and the primary's durable lsn as of the last poll (their
        #: difference is the replication lag).
        self.applied_lsn = 0
        self.primary_durable_lsn = 0
        #: Incremental redo machine (replica side), fed records in
        #: primary-log order; ``None`` on a primary.
        self._applier: WalApplier | None = (
            WalApplier(db) if role == "replica" else None
        )
        #: Async callback the server installs; runs after ``promote``
        #: flips the role (cancels the replica loop, prints the line).
        self.on_promote = None
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
        #: lsn -> encoded span context for recently committed WAL
        #: records, so replication shipping can stamp the originating
        #: context onto shipped records and the replica's apply joins
        #: the same trace.  Bounded; WAL payloads stay untouched (their
        #: checksums cover exact bytes).
        self._span_ctx_by_lsn: dict[int, str] = {}
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
        self._decisions.put_nowait(("__drain__", False, None, None, None))
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
            response = await self._handle_replication(
                verb, frame, request_id, session
            )
            return self._finish(session, verb, trace_id, started, response)
        if self.role == "replica" and (
            verb in MUTATION_VERBS or verb in DECISION_VERBS
        ):
            response = error_frame(
                request_id,
                "read-only-replica",
                "this server is a read-only replica; send writes to the "
                "primary",
                primary=self.primary,
            )
            return self._finish(session, verb, trace_id, started, response)
        span = self._open_server_span(verb, trace_id, ctx)
        if verb in DECISION_VERBS:
            session.mutations += 1
            response = await self._handle_decision(
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
            self._activate_span(span)
            try:
                response = self._execute_read(verb, frame, request_id)
            finally:
                self._activate_span(None)
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

    # -- sharding ----------------------------------------------------------

    async def _handle_decision(
        self,
        verb: str,
        frame: Mapping[str, Any],
        request_id: Any,
        span: Span | None = None,
    ) -> dict[str, Any]:
        """Route a ``batch_commit``/``batch_abort`` to the writer
        holding the named prepare (decisions skip the mutation queue --
        the writer is parked on the decision queue, not draining
        mutations, while it holds one)."""
        xid = frame.get("xid")
        if not isinstance(xid, str):
            return error_frame(
                request_id, "bad-request", "parameter 'xid' must be a string"
            )
        if self._held_xid != xid:
            if xid in self._expired_xids:
                return error_frame(
                    request_id,
                    "prepare-expired",
                    f"prepared batch {xid!r} timed out and was aborted",
                )
            return error_frame(
                request_id,
                "no-prepared-batch",
                f"no prepared batch {xid!r} is held here",
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._decisions.put_nowait(
            (xid, verb == "batch_commit", future, request_id, span)
        )
        return await future

    # -- replication (WAL shipping; see docs/REPLICATION.md) ---------------

    def replication_lag(self) -> int:
        """Records between the primary's durable lsn and this replica's
        applied lsn (0 on a primary, by definition)."""
        if self.role != "replica":
            return 0
        return max(0, self.primary_durable_lsn - self.applied_lsn)

    def _commit_signal(self) -> asyncio.Future:
        """The future the next durability barrier resolves (parked
        ``repl_poll`` long-polls wait on it)."""
        if self._commit_waiter is None or self._commit_waiter.done():
            self._commit_waiter = (
                asyncio.get_running_loop().create_future()
            )
        return self._commit_waiter

    def _confirm_signal(self) -> asyncio.Future:
        """The future the next replica receipt-confirmation resolves
        (deferred mutation acks wait on it)."""
        if self._confirm_waiter is None or self._confirm_waiter.done():
            self._confirm_waiter = (
                asyncio.get_running_loop().create_future()
            )
        return self._confirm_waiter

    def _signal_commit(self) -> None:
        if self._commit_waiter is not None and not self._commit_waiter.done():
            self._commit_waiter.set_result(None)

    def _signal_confirm(self) -> None:
        if (
            self._confirm_waiter is not None
            and not self._confirm_waiter.done()
        ):
            self._confirm_waiter.set_result(None)

    def forget_session(self, session: Session) -> None:
        """Connection-close cleanup: a vanished session is no longer a
        straggler worth waiting for, and a vanished replica must stop
        gating acks (the confirm waiters re-evaluate without it)."""
        session.repl_cursor = None
        self._last_writers.discard(session.id)
        if self._replicas.pop(session.id, None) is not None:
            self._signal_confirm()

    def begin_drain(self) -> None:
        """Entering drain: release parked replica polls and deferred
        acks promptly instead of letting them ride out their waits."""
        self._draining = True
        self._signal_commit()
        self._signal_confirm()

    async def _await_replication(self, lsn: int) -> None:
        """Hold a mutation ack until every synchronous replica has
        confirmed receipt of everything up to ``lsn``.

        A replica confirms by issuing its *next* poll with an advanced
        ``after`` -- which it does before applying, so this wait costs
        one round trip, not a replica replay.  Replicas that stay
        silent past :data:`REPL_ACK_TIMEOUT` are detached (they
        re-attach on their next poll): a stalled or dead replica slows
        acks by at most the timeout, never forever.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + REPL_ACK_TIMEOUT
        while self._replicas and not self._draining:
            if min(self._replicas.values()) >= lsn:
                return
            remaining = deadline - loop.time()
            if remaining <= 0:
                stalled = [
                    sid for sid, c in self._replicas.items() if c < lsn
                ]
                for sid in stalled:
                    self._replicas.pop(sid, None)
                return
            try:
                await asyncio.wait_for(
                    asyncio.shield(self._confirm_signal()), remaining
                )
            except asyncio.TimeoutError:
                continue

    async def _resolve_after_confirm(
        self, batch: list[tuple], outcomes: list, lsn: int
    ) -> None:
        """Deferred tail of :meth:`_commit_group` under semi-synchronous
        replication: resolve the batch's futures only once the
        replicas hold its records (or proved themselves stalled)."""
        try:
            await self._await_replication(lsn)
        finally:
            for (_, _, _, _, _, future, _), outcome in zip(batch, outcomes):
                if not future.done():
                    future.set_result(outcome)

    async def _handle_replication(
        self,
        verb: str,
        frame: Mapping[str, Any],
        request_id: Any,
        session: Session,
    ) -> dict[str, Any]:
        try:
            if verb == "promote":
                return await self._handle_promote(request_id)
            if verb == "repl_status":
                return ok_frame(
                    request_id,
                    {
                        "role": self.role,
                        "primary": self.primary,
                        "applied_lsn": self.applied_lsn,
                        "durable_lsn": (
                            self.db.wal.durable_lsn
                            if self.db.wal is not None
                            else 0
                        ),
                        "replicas": len(self._replicas),
                        "lag": self.replication_lag(),
                    },
                )
            if self.db.wal is None:
                return error_frame(
                    request_id,
                    "bad-request",
                    "server has no write-ahead log to replicate "
                    "(start it with --wal)",
                )
            if self.poisoned is not None:
                return self._poisoned_frame(request_id)
            if verb == "repl_snapshot":
                return self._handle_repl_snapshot(request_id)
            if verb == "repl_poll":
                return await self._handle_repl_poll(
                    frame, request_id, session
                )
            raise ProtocolError(f"unhandled replication verb {verb!r}")
        except ProtocolError as exc:
            return error_frame(request_id, "bad-request", str(exc))
        except Exception as exc:
            return error_frame(request_id, "server-error", repr(exc))

    async def _handle_promote(self, request_id: Any) -> dict[str, Any]:
        was = self.role
        if was == "replica":
            # Seal the redo stream: a group whose commit never arrived
            # was never acked by the dead primary, so dropping it is
            # exactly the recovery semantics.
            if self._applier is not None:
                self._applier.seal()
            self.role = "primary"
            self.primary = None
            if self.on_promote is not None:
                await self.on_promote()
        return ok_frame(
            request_id,
            {"was": was, "role": self.role, "applied_lsn": self.applied_lsn},
        )

    def _handle_repl_snapshot(self, request_id: Any) -> dict[str, Any]:
        if self._held_xid is not None:
            # The state holds an undecided prepare's rows; an image
            # taken now would leak uncommitted mutations to the replica.
            return error_frame(
                request_id,
                "busy",
                "a cross-shard prepare is held; retry the snapshot "
                "shortly",
            )
        # No awaits between a mutation's apply and its barrier, so at
        # any scheduling point the live state is exactly the durable
        # prefix: this image covers precisely lsn <= durable_lsn.  It
        # holds the stored rows themselves (an evolved schema too), and
        # mutations applied before the frame is written replace rows
        # without changing the image's.
        return ok_frame(
            request_id,
            {
                **self.db.snapshot_image(),
                "lsn": self.db.wal.durable_lsn,
                "role": self.role,
            },
        )

    async def _handle_repl_poll(
        self, frame: Mapping[str, Any], request_id: Any, session: Session
    ) -> dict[str, Any]:
        after = frame.get("after", 0)
        if not isinstance(after, int) or after < 0:
            raise ProtocolError(
                "parameter 'after' must be a non-negative integer"
            )
        wait = frame.get("wait", 0)
        if not isinstance(wait, (int, float)) or wait < 0:
            raise ProtocolError(
                "parameter 'wait' must be a non-negative number"
            )
        max_records = frame.get("max_records", 512)
        if not isinstance(max_records, int) or max_records < 1:
            raise ProtocolError(
                "parameter 'max_records' must be a positive integer"
            )
        if frame.get("sync"):
            # This poll *is* the receipt confirmation for everything
            # up to ``after``: the replica holds those records (it
            # confirms before applying, never re-requesting them).
            self._replicas[session.id] = after
            self._signal_confirm()
        if session.repl_cursor is None:
            session.repl_cursor = WalCursor(self.db.wal.storage)
        records = session.repl_cursor.read_after(
            after, self.db.wal.durable_lsn, max_records
        )
        if not records and wait > 0:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + float(wait)
            while not records and not self._draining:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    await asyncio.wait_for(
                        asyncio.shield(self._commit_signal()), remaining
                    )
                except asyncio.TimeoutError:
                    break
                records = session.repl_cursor.read_after(
                    after, self.db.wal.durable_lsn, max_records
                )
        if records:
            self.metrics.repl_shipped.inc(len(records))
            if self._span_ctx_by_lsn:
                # Stamp the originating span context onto shipped
                # *copies* (never the WAL payloads themselves -- their
                # checksums cover exact bytes), so the replica's apply
                # joins the trace that produced each record.
                records = [
                    (
                        {**record, "span_ctx": ctx}
                        if (
                            ctx := self._span_ctx_by_lsn.get(
                                record.get("lsn")
                            )
                        )
                        is not None
                        else record
                    )
                    for record in records
                ]
        return ok_frame(
            request_id,
            {"records": records, "durable_lsn": self.db.wal.durable_lsn},
        )

    def load_replica_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Replica side: seed the local state (and local log) from a
        primary's ``repl_snapshot`` image.  The install adopts the
        primary's evolved schema first when the image carries one, and
        logs a ``load_state`` record of the rows (and that schema), so
        the replica's own log recovers to the primary's state."""
        self.db.load_image(snapshot)
        self._refresh_schema_caches()
        self.db.sync_wal()
        self.applied_lsn = int(snapshot["lsn"])
        self.primary_durable_lsn = max(
            self.primary_durable_lsn, self.applied_lsn
        )

    def apply_replicated(
        self, records: list[Mapping[str, Any]], durable_lsn: int
    ) -> None:
        """Replica side: redo a polled batch of primary records.

        Runs synchronously (no awaits), so a ``promote`` arriving on
        another connection can never observe half a batch.  Records
        re-log through the replica's *own* WAL (its lsns, its group
        markers), so the local log is independently recoverable.

        Bare inserts redo through :meth:`Database.redo_insert`, which
        trusts the primary's validation instead of re-running every
        constraint probe; everything else takes the applier's
        validating replay.  A ``batch`` record (of any log version) is
        read back as its runs and handed to ``Database.apply_runs``,
        the columnar validators a live ``apply_batch`` uses, and the
        replica re-logs it in its own (version 3) format.  Divergence
        (a record the primary committed but this state rejects) raises
        :class:`RecoveryError` and the replica loop treats it as fatal.
        """
        applier = self._applier
        if applier is None:
            raise RecoveryError("not a replica (already promoted?)")
        db = self.db
        sink = self.span_sink
        schema_before = db.schema
        applied = self.applied_lsn
        for shipped in records:
            record = dict(shipped)
            # Shipped records may carry the originating span context
            # (stamped by the primary's ``repl_poll``); strip it before
            # redo so the replica re-logs the exact primary payload.
            ctx = record.pop("span_ctx", None)
            span = None
            if ctx is not None and sink is not None:
                decoded = decode_context(ctx)
                if decoded is not None and decoded[2]:
                    span = sink.start_span(
                        "replica-apply",
                        trace_id=decoded[0],
                        parent_id=decoded[1],
                        kind="repl",
                        lsn=record.get("lsn"),
                        op=record.get("op"),
                    )
            self._activate_span(span)
            try:
                lsn = record.get("lsn", 0)
                if record.get("op") == "insert" and not applier.in_txn:
                    try:
                        db.redo_insert(record)
                    except (ConstraintViolationError, KeyError) as exc:
                        raise RecoveryError(
                            f"logged record lsn={lsn} was rejected on "
                            f"replay: {exc}"
                        ) from exc
                    applier.max_lsn = max(applier.max_lsn, lsn)
                    applier.report.records_replayed += 1
                    db.stats.wal_replayed_records += 1
                else:
                    applier.feed(record)
            finally:
                self._activate_span(None)
                if span is not None:
                    sink.export(span.end())
            if lsn > applied:
                applied = lsn
        self.applied_lsn = applied
        if db.schema is not schema_before:
            # A shipped merge record evolved the schema (the applier
            # replays it through apply_merge_online).
            self._refresh_schema_caches()
        self.db.sync_wal()
        self.primary_durable_lsn = max(self.primary_durable_lsn, durable_lsn)
        if records:
            self.metrics.repl_applied.inc(len(records))

    def _check_shard(self, verb: str, frame: Mapping[str, Any]) -> None:
        """Reject single-shard requests whose primary key this worker
        does not own (:class:`WrongShardError` names the owner).

        Malformed parameters are left alone -- the normal decode path
        produces the right ``bad-request``/``not-found`` answer, and a
        row the engine would reject is rejected identically on every
        worker.
        """
        shard = self.shard
        if shard is None or shard.n_shards <= 1:
            return
        me, n = shard.worker_id, shard.n_shards
        if verb == "insert":
            owner = self._owner_of_row(frame.get("scheme"), frame.get("row"), n)
        elif verb in ("update", "delete", "get"):
            pk = frame.get("pk")
            if not isinstance(frame.get("scheme"), str) or not isinstance(
                pk, list
            ):
                return
            owner = shard_of(frame["scheme"], pk, n)
            if verb == "update" and owner == me:
                owner = self._owner_after_update(
                    frame["scheme"], pk, frame.get("updates"), n
                )
        elif verb == "insert_many":
            scheme = frame.get("scheme")
            rows = frame.get("rows")
            if not isinstance(rows, list):
                return
            for row in rows:
                owner = self._owner_of_row(scheme, row, n)
                if owner is not None and owner != me:
                    raise WrongShardError(owner)
            return
        elif verb in ("apply_batch", "batch_prepare"):
            ops = frame.get("ops")
            if not isinstance(ops, list):
                return
            for op in ops:
                owner = self._owner_of_op(op, n)
                if owner is not None and owner != me:
                    raise WrongShardError(owner)
            return
        else:
            return
        if owner is not None and owner != me:
            raise WrongShardError(owner)

    def _owner_after_update(
        self, scheme: str, pk: Any, updates: Any, n: int
    ) -> int | None:
        """Owning shard of the row an update would produce.  A key
        change that would hash the row onto another worker is rejected
        (rows never migrate between shards; model it as delete +
        insert)."""
        keys = self._key_names.get(scheme)
        if (
            not keys
            or not isinstance(updates, dict)
            or not isinstance(pk, list)
            or len(pk) != len(keys)
            or not any(k in updates for k in keys)
        ):
            return None
        new_pk = [updates.get(k, old) for k, old in zip(keys, pk)]
        return shard_of(scheme, new_pk, n)

    def _owner_of_row(self, scheme: Any, row: Any, n: int) -> int | None:
        if not isinstance(scheme, str) or not isinstance(row, dict):
            return None
        keys = self._key_names.get(scheme)
        if keys is None:
            return None
        try:
            pk_wire = [row[k] for k in keys]
        except KeyError:
            return None  # shape check rejects it identically everywhere
        return shard_of(scheme, pk_wire, n)

    def _owner_of_op(self, op: Any, n: int) -> int | None:
        if not isinstance(op, list) or len(op) < 3:
            return None
        kind, scheme = op[0], op[1]
        if kind == "insert":
            return self._owner_of_row(scheme, op[2], n)
        if kind in ("update", "delete") and isinstance(scheme, str):
            pk = op[2]
            if not isinstance(pk, list):
                pk = [pk]
            owner = shard_of(scheme, pk, n)
            if (
                kind == "update"
                and self.shard is not None
                and owner == self.shard.worker_id
                and len(op) > 3
            ):
                after = self._owner_after_update(scheme, pk, op[3], n)
                if after is not None:
                    return after
            return owner
        return None

    def _topology(self) -> dict[str, Any]:
        schema = self.db.schema
        referencing = {ind.lhs_scheme for ind in schema.inds}
        referenced = {ind.rhs_scheme for ind in schema.inds}
        schemes = {
            s.name: {
                "key": list(s.key_names),
                "refs_out": s.name in referencing,
                "refs_in": s.name in referenced,
            }
            for s in schema.schemes
        }
        shard = self.shard
        if shard is None:
            return {
                "workers": 1,
                "worker_id": 0,
                "host": "",
                "ports": [],
                "shared_port": None,
                "schemes": schemes,
            }
        return {
            "workers": shard.n_shards,
            "worker_id": shard.worker_id,
            "host": shard.host,
            "ports": list(shard.ports),
            "shared_port": shard.shared_port,
            "schemes": schemes,
        }

    # -- reads (inline, snapshot-consistent) ------------------------------

    def _execute_read(
        self, verb: str, frame: Mapping[str, Any], request_id: Any
    ) -> dict[str, Any]:
        try:
            if verb == "get":
                self._check_shard("get", frame)
                t = self.db.get(
                    _require(frame, "scheme", str),
                    decode_pk(_require(frame, "pk", list)),
                )
                return ok_frame(request_id, t.mapping if t else None)
            if verb == "topology":
                return ok_frame(request_id, self._topology())
            if verb == "exists":
                scheme = _require(frame, "scheme", str)
                attrs = tuple(_require(frame, "attrs", list))
                value = decode_pk(_require(frame, "value", list))
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
                        _require(frame, "op", str),
                        _require(frame, "scheme", str),
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
        except WrongShardError as exc:
            return error_frame(
                request_id, "wrong-shard", str(exc), worker=exc.worker
            )
        except ProtocolError as exc:
            return error_frame(request_id, "bad-request", str(exc))
        except KeyError as exc:
            return error_frame(request_id, "not-found", str(exc))
        except ValueError as exc:
            return error_frame(request_id, "bad-request", str(exc))
        except Exception as exc:  # a read must never kill the connection
            return error_frame(request_id, "server-error", repr(exc))

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
        out: dict[str, Any] = {
            "requests_served": self.requests_served,
            "connections": self.connections,
            "inflight": self.inflight,
            "queue_depth": self._queue.qsize(),
            "uptime_s": round(time() - self.started_at, 3),
            "poisoned": self.poisoned,
            "prepares": {
                "held": self._held_xid is not None,
                "prepared": self.prepares,
                "committed": int(prepares.value(outcome="committed")),
                "aborted": int(prepares.value(outcome="aborted")),
                "expired": int(prepares.value(outcome="expired")),
            },
            "replication": {
                "role": self.role,
                "primary": self.primary,
                "replicas": len(self._replicas),
                "shipped": int(self.metrics.repl_shipped.value()),
                "applied": int(self.metrics.repl_applied.value()),
                "applied_lsn": self.applied_lsn,
                "lag": self.replication_lag(),
            },
        }
        if self.shard is not None:
            out["shard"] = {
                "worker_id": self.shard.worker_id,
                "workers": self.shard.n_shards,
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
        scheme = _require(frame, "scheme", str)
        pk = decode_pk(_require(frame, "pk", list))
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
            _require(frame, "via", list),
            _require(frame, "target_scheme", str),
            target_attrs,
        )
        return t.mapping if t else None

    def _find_referencing(self, frame: Mapping[str, Any]):
        target = self._source_row(frame)
        rows = self.query.find_referencing(
            target,
            _require(frame, "source_scheme", str),
            _require(frame, "via", list),
            _require(frame, "target_attrs", list),
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
                await self._run_prepare(item)
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

    async def _run_prepare(self, item: tuple) -> None:
        """Phase one of a sharded batch, run solo by the writer.

        Applies the ops in an open engine transaction, acks the prepare
        with the requirements only other shards can answer, then parks
        on the decision queue until ``batch_commit``/``batch_abort``
        arrives (or :attr:`prepare_timeout` expires, which aborts).  The
        commit path ends with the same :meth:`Database.sync_wal`
        durability barrier as a group commit -- results are never acked
        before the batch is durable.  The prepare itself is volatile:
        its WAL bracket has no commit marker until the decision, so a
        crash while holding aborts it on recovery.
        """
        _verb, frame, request_id, _trace_id, span, future, _ = item
        if self.poisoned is not None:
            self._ack_mutation(future, self._poisoned_frame(request_id))
            return
        if span is not None:
            self._export_queue_wait(span)
        apply_span = (
            span.child("prepare", kind="engine") if span is not None else None
        )
        self._activate_span(apply_span)
        lsn_before = self.db.wal.next_lsn if self.db.wal is not None else 0
        prepared = None
        try:
            xid = _require(frame, "xid", str)
            self._check_shard("batch_prepare", frame)
            ops = _decode_batch_ops(_require(frame, "ops", list))
            prepared = self.db.apply_batch_prepare(ops)
        except ConstraintViolationError as exc:
            self._ack_mutation(future, violation_frame(request_id, exc))
        except WrongShardError as exc:
            self._ack_mutation(
                future,
                error_frame(
                    request_id, "wrong-shard", str(exc), worker=exc.worker
                ),
            )
        except ProtocolError as exc:
            self._ack_mutation(
                future, error_frame(request_id, "bad-request", str(exc))
            )
        except KeyError as exc:
            self._ack_mutation(
                future, error_frame(request_id, "not-found", str(exc))
            )
        except WalError as exc:
            self.poisoned = str(exc)
            self._ack_mutation(
                future, error_frame(request_id, "wal-error", str(exc))
            )
        except ValueError as exc:
            self._ack_mutation(
                future, error_frame(request_id, "bad-request", str(exc))
            )
        except Exception as exc:
            self._ack_mutation(
                future, error_frame(request_id, "server-error", repr(exc))
            )
        finally:
            self._activate_span(None)
            if apply_span is not None:
                self.span_sink.export(
                    apply_span.end(None if prepared is not None else "error")
                )
        if prepared is None:
            return
        self.prepares += 1
        self._held_xid = xid
        requirements = [
            {
                "kind": r["kind"],
                "scheme": r["scheme"],
                "attrs": r["attrs"],
                "value": list(r["value"]),
                "constraint": r["constraint"],
                **(
                    {
                        "child_scheme": r["child_scheme"],
                        "child_attrs": r["child_attrs"],
                    }
                    if r["kind"] == "restrict"
                    else {}
                ),
            }
            for r in prepared.requirements
        ]
        self._ack_mutation(
            future,
            ok_frame(request_id, {"xid": xid, "requirements": requirements}),
        )
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.prepare_timeout
        try:
            while True:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    raise asyncio.TimeoutError
                (
                    dxid,
                    commit,
                    dfuture,
                    drequest_id,
                    dspan,
                ) = await asyncio.wait_for(self._decisions.get(), remaining)
                if dxid == "__drain__":
                    prepared.abort()
                    self.metrics.prepares.labels(outcome="aborted").inc()
                    return
                if dxid != xid:
                    # A stale decision (its hold already resolved).
                    if dfuture is not None and not dfuture.done():
                        dfuture.set_result(
                            error_frame(
                                drequest_id,
                                "no-prepared-batch",
                                f"no prepared batch {dxid!r} is held here",
                            )
                        )
                    continue
                break
        except asyncio.TimeoutError:
            prepared.abort()
            self._expired_xids.append(xid)
            self.metrics.prepares.labels(outcome="expired").inc()
            return
        finally:
            self._held_xid = None
        if not commit:
            prepared.abort()
            self.metrics.prepares.labels(outcome="aborted").inc()
            if not dfuture.done():
                dfuture.set_result(ok_frame(drequest_id, None))
            return
        commit_parent = dspan if dspan is not None else span
        commit_span = (
            commit_parent.child("group-commit", kind="wal", xid=xid)
            if commit_parent is not None
            else None
        )
        self._activate_span(commit_span)
        try:
            results = prepared.commit()
            self.db.sync_wal()
        except (WalError, OSError) as exc:
            self.poisoned = str(exc)
            outcome = self._poisoned_frame(drequest_id)
        except Exception as exc:
            outcome = error_frame(drequest_id, "server-error", repr(exc))
        else:
            self.metrics.prepares.labels(outcome="committed").inc()
            outcome = ok_frame(drequest_id, _result_rows(results))
            if self.db.wal is not None:
                outcome["lsn"] = self.db.wal.next_lsn - 1
                if span is not None:
                    ctx = span.context()
                    for lsn in range(lsn_before, self.db.wal.next_lsn):
                        self._remember_span_ctx(lsn, ctx)
                self._signal_commit()
        finally:
            self._activate_span(None)
            if commit_span is not None:
                self.span_sink.export(
                    commit_span.end(
                        None if self.poisoned is None else "wal-error"
                    )
                )
        if (
            outcome.get("ok")
            and self.db.wal is not None
            and self._replicas
            and not self._draining
        ):
            # Same semi-sync gate as a group commit: the decision ack
            # implies replica receipt.
            await self._await_replication(self.db.wal.durable_lsn)
        if not dfuture.done():
            dfuture.set_result(outcome)

    def _ack_mutation(self, future: asyncio.Future, outcome: dict) -> None:
        """Resolve one queued mutation's future (inflight bookkeeping
        included -- every queued item must pass through exactly one
        ack)."""
        self.inflight -= 1
        if not future.done():
            future.set_result(outcome)

    def _activate_span(self, span: Span | None) -> None:
        """Make ``span`` the engine's tracer (``None`` detaches).

        With a span sink the service owns ``db.tracer``: a span is
        attached exactly while its sampled work runs -- everything here
        runs on the one event-loop thread, so the swap cannot race --
        and unsampled requests never pay for trace-event construction.
        """
        if self.span_sink is not None:
            self.db.set_tracer(span)

    def _export_queue_wait(self, span: Span) -> None:
        """Export a back-dated ``queue-wait`` child covering the time a
        mutation sat on the writer's queue (server-span open to writer
        pickup -- the handler does no meaningful work in between)."""
        waited = perf_counter() - span._t0
        child = span.child("queue-wait", kind="server")
        child.start_s -= waited
        child._t0 -= waited
        self.span_sink.export(child.end())

    def _remember_span_ctx(self, lsn: int, ctx: str) -> None:
        """Map a committed WAL record's lsn to the span context that
        produced it, bounded so an idle replica can't leak memory (a
        trailing replica misses stamps, never records)."""
        self._span_ctx_by_lsn[lsn] = ctx
        while len(self._span_ctx_by_lsn) > 4096:
            self._span_ctx_by_lsn.pop(next(iter(self._span_ctx_by_lsn)))

    def _commit_group(self, batch: list[tuple]) -> None:
        """Apply one batch, issue the group-commit barrier, then ack.

        Runs synchronously (no awaits): the whole group is one
        scheduling step, so reads interleave between groups, never
        inside one.
        """
        outcomes: list[dict | None] = []
        for verb, frame, request_id, _trace_id, span, _future, _ in batch:
            if self.poisoned is not None:
                outcomes.append(self._poisoned_frame(request_id))
                continue
            if span is not None:
                self._export_queue_wait(span)
            apply_span = (
                span.child("apply", kind="engine", verb=verb)
                if span is not None
                else None
            )
            self._activate_span(apply_span)
            lsn_before = (
                self.db.wal.next_lsn if self.db.wal is not None else 0
            )
            try:
                result = self._execute_mutation(verb, frame)
            except ConstraintViolationError as exc:
                outcomes.append(violation_frame(request_id, exc))
            except WrongShardError as exc:
                outcomes.append(
                    error_frame(
                        request_id, "wrong-shard", str(exc), worker=exc.worker
                    )
                )
            except ProtocolError as exc:
                outcomes.append(
                    error_frame(request_id, "bad-request", str(exc))
                )
            except KeyError as exc:
                outcomes.append(error_frame(request_id, "not-found", str(exc)))
            except WalError as exc:
                self.poisoned = str(exc)
                outcomes.append(
                    error_frame(request_id, "wal-error", str(exc))
                )
            except ValueError as exc:
                outcomes.append(
                    error_frame(request_id, "bad-request", str(exc))
                )
            except Exception as exc:
                outcomes.append(
                    error_frame(request_id, "server-error", repr(exc))
                )
            else:
                outcome = ok_frame(request_id, result)
                if self.db.wal is not None:
                    # The lsn of the mutation's last log record -- the
                    # client's read-your-writes watermark (a replica is
                    # caught up with this write once its applied_lsn
                    # reaches it).
                    outcome["lsn"] = self.db.wal.next_lsn - 1
                    if span is not None:
                        ctx = span.context()
                        for lsn in range(
                            lsn_before, self.db.wal.next_lsn
                        ):
                            self._remember_span_ctx(lsn, ctx)
                outcomes.append(outcome)
            finally:
                self._activate_span(None)
                if apply_span is not None:
                    last = outcomes[-1] if outcomes else None
                    status = None
                    if isinstance(last, dict) and not last.get("ok"):
                        status = str(
                            (last.get("error") or {}).get("type", "error")
                        )
                    self.span_sink.export(apply_span.end(status))
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
            self._activate_span(group_span)
            sync_started = perf_counter()
            try:
                self.db.sync_wal()
            except (WalError, OSError) as exc:
                # Nothing in this group is durable: poison the service
                # and turn every would-be ack into a wal-error frame.
                self.poisoned = str(exc)
                outcomes = [
                    self._poisoned_frame(request_id)
                    if outcome is not None and outcome.get("ok")
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
                self._signal_commit()
            finally:
                self._activate_span(None)
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
        for _ in batch:
            self.inflight -= 1
        if self._replicas and acked_lsn and not self._draining:
            # Semi-synchronous shipping: the batch is durable here, but
            # acks wait until every sync replica confirms receipt --
            # otherwise a primary-host loss could lose acked records.
            asyncio.ensure_future(
                self._resolve_after_confirm(batch, outcomes, acked_lsn)
            )
            return
        for (_, _, _, _, _, future, _), outcome in zip(batch, outcomes):
            if not future.done():
                future.set_result(outcome)

    def _poisoned_frame(self, request_id: Any) -> dict[str, Any]:
        return error_frame(
            request_id,
            "wal-error",
            "write-ahead log is poisoned by an earlier storage fault "
            f"({self.poisoned}); restart the server through recovery",
        )

    def _execute_mutation(self, verb: str, frame: Mapping[str, Any]) -> Any:
        self._check_shard(verb, frame)
        if verb == "insert":
            t = self.db.insert(
                _require(frame, "scheme", str),
                decode_row(_require(frame, "row", dict)),
            )
            return t.mapping
        if verb == "update":
            t = self.db.update(
                _require(frame, "scheme", str),
                decode_pk(_require(frame, "pk", list)),
                decode_row(_require(frame, "updates", dict)),
            )
            return t.mapping
        if verb == "delete":
            self.db.delete(
                _require(frame, "scheme", str),
                decode_pk(_require(frame, "pk", list)),
            )
            return None
        if verb == "insert_many":
            raw_rows = _require(frame, "rows", list)
            if not set(map(type, raw_rows)) <= {dict}:
                raise ProtocolError("every element of 'rows' must be a row")
            stored = self.db.insert_many(
                _require(frame, "scheme", str), decode_rows(raw_rows)
            )
            return _result_rows(stored)
        if verb == "apply_batch":
            return _result_rows(
                self.db.apply_batch(
                    _decode_batch_ops(_require(frame, "ops", list))
                )
            )
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
        if self.shard is not None and self.shard.n_shards > 1:
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
        self._refresh_schema_caches()
        return {
            "merged_name": simplified.info.merged_name,
            "members": list(simplified.info.family),
            "key_relation": simplified.info.key_relation,
            "removed": [list(r.attrs) for r in simplified.removed],
            "schemes": list(self.db.schema.scheme_names),
        }

    def _refresh_schema_caches(self) -> None:
        """Rebuild schema-derived caches after an online merge swapped
        ``db.schema`` (the query engine's IND maps refresh themselves)."""
        self._key_names = {
            s.name: s.key_names for s in self.db.schema.schemes
        }
