"""WAL-shipping replication, both halves (see docs/REPLICATION.md).

One :class:`Replication` belongs to each
:class:`~repro.server.service.DatabaseService`:

* **Primary side** -- the ``repl_status``/``repl_snapshot``/
  ``repl_poll``/``promote`` verbs (:meth:`Replication.handle`), the
  commit signal parked polls wait on, and the semi-synchronous ack gate
  (:meth:`Replication.ack`): a mutation ack waits until every
  synchronous replica has confirmed receipt of the records behind it.
* **Replica side** -- the loop that bootstraps from the primary's
  snapshot and tails its log (:meth:`Replication.start`), and the redo
  of what it receives (:meth:`Replication.apply_replicated`).  Every
  shipped record goes through :class:`~repro.engine.recovery.WalApplier`,
  which validates it, so a record the primary committed but this state
  rejects is caught as divergence, whatever its kind.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys
from typing import TYPE_CHECKING, Any, Mapping

from repro.engine.recovery import RecoveryError, WalApplier
from repro.engine.wal import WalCursor
from repro.obs.spans import Span, decode_context
from repro.server.errors import exception_frame
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    RemoteError,
    decode_frame,
    encode_frame,
    error_frame,
    ok_frame,
    raise_error,
    request_frame,
)

if TYPE_CHECKING:
    from repro.server.service import DatabaseService, Session

#: Primary side: how long (seconds) a mutation ack may wait on
#: synchronous-replica receipt before the stalled replicas are
#: detached.  Bounds the damage a frozen replica can do to primary
#: availability.
REPL_ACK_TIMEOUT = 5.0
#: Replica side: long-poll hold (seconds) of each ``repl_poll`` when the
#: replica is caught up -- the idle heartbeat cadence.
REPL_POLL_WAIT = 10.0
#: Primary side: how many committed lsns keep the span context that
#: produced them, for stamping shipped records.
SPAN_CTX_CAPACITY = 4096


class Replication:
    """The replication state and verbs of one service."""

    def __init__(
        self,
        service: "DatabaseService",
        role: str,
        primary: str | None,
    ):
        self.service = service
        self.db = service.db
        #: ``"primary"`` (read-write, ships its WAL) or ``"replica"``
        #: (read-only, applies a primary's records); flipped by the
        #: ``promote`` verb.
        self.role = role
        #: ``host:port`` of the primary this replica follows.
        self.primary = primary
        #: Primary side: session id -> highest lsn that synchronous
        #: replica has confirmed received.  Mutation acks gate on
        #: ``min(values) >= the batch's lsn``.
        self.replicas: dict[int, int] = {}
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
            WalApplier(self.db) if role == "replica" else None
        )
        #: The WAL-tailing task (replica side, between start and
        #: promotion or drain).
        self._task: asyncio.Task | None = None
        #: lsn -> encoded span context for recently committed WAL
        #: records, so shipping can stamp the originating context onto
        #: shipped records and the replica's apply joins the same
        #: trace.  Bounded; WAL payloads stay untouched (their checksums
        #: cover exact bytes).
        self._span_ctx_by_lsn: dict[int, str] = {}

    def lag(self) -> int:
        """Records between the primary's durable lsn and this replica's
        applied lsn (0 on a primary, by definition)."""
        if self.role != "replica":
            return 0
        return max(0, self.primary_durable_lsn - self.applied_lsn)

    # -- signals -----------------------------------------------------------

    @staticmethod
    def _renew(waiter: asyncio.Future | None) -> asyncio.Future:
        if waiter is None or waiter.done():
            waiter = asyncio.get_running_loop().create_future()
        return waiter

    @staticmethod
    def _resolve(waiter: asyncio.Future | None) -> None:
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def signal_commit(self) -> None:
        """Wake parked ``repl_poll`` long-polls: new durable records."""
        self._resolve(self._commit_waiter)

    def _signal_confirm(self) -> None:
        self._resolve(self._confirm_waiter)

    def forget(self, session: "Session") -> None:
        """Connection-close cleanup: a vanished replica must stop gating
        acks (the confirm waiters re-evaluate without it)."""
        session.repl_cursor = None
        if self.replicas.pop(session.id, None) is not None:
            self._signal_confirm()

    async def drain(self) -> None:
        """Entering drain: release parked replica polls and deferred
        acks promptly instead of letting them ride out their waits, and
        stop tailing the primary."""
        self._draining = True
        self.signal_commit()
        self._signal_confirm()
        await self._stop()

    # -- the primary's commit bookkeeping and ack gate ---------------------

    def stamp(
        self, outcome: dict[str, Any], lsn_before: int, span: Span | None
    ) -> None:
        """Post-commit bookkeeping of one applied mutation: its ack
        carries the lsn of its last log record -- the client's
        read-your-writes watermark (a replica has caught up with the
        write once its ``applied_lsn`` reaches it) -- and its records
        (lsns from ``lsn_before`` on) remember the span context that
        produced them, bounded so an idle replica can't leak memory (a
        trailing replica misses stamps, never records)."""
        wal = self.db.wal
        if wal is None:
            return
        outcome["lsn"] = wal.next_lsn - 1
        if span is None:
            return
        ctx = span.context()
        contexts = self._span_ctx_by_lsn
        for lsn in range(lsn_before, wal.next_lsn):
            contexts[lsn] = ctx
        while len(contexts) > SPAN_CTX_CAPACITY:
            contexts.pop(next(iter(contexts)))

    def ack(self, acks: list[tuple[asyncio.Future, dict]], lsn: int) -> None:
        """Resolve each ``(future, outcome)`` pair -- at once, or, under
        semi-synchronous shipping, once every sync replica has confirmed
        receipt of everything up to ``lsn`` (0: nothing durable to wait
        for).  Without the wait a primary-host loss could lose acked
        records."""
        if self.replicas and lsn and not self._draining:
            asyncio.ensure_future(self._ack_after_confirm(acks, lsn))
            return
        for future, outcome in acks:
            if not future.done():
                future.set_result(outcome)

    async def _ack_after_confirm(
        self, acks: list[tuple[asyncio.Future, dict]], lsn: int
    ) -> None:
        """Hold the acks until every synchronous replica has confirmed
        receipt of everything up to ``lsn``.

        A replica confirms by issuing its *next* poll with an advanced
        ``after`` -- which it does before applying, so this wait costs
        one round trip, not a replica replay.  Replicas that stay
        silent past :data:`REPL_ACK_TIMEOUT` are detached (they
        re-attach on their next poll): a stalled or dead replica slows
        acks by at most the timeout, never forever.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + REPL_ACK_TIMEOUT
        try:
            while self.replicas and not self._draining:
                if min(self.replicas.values()) >= lsn:
                    return
                remaining = deadline - loop.time()
                if remaining <= 0:
                    for sid, confirmed in list(self.replicas.items()):
                        if confirmed < lsn:
                            del self.replicas[sid]
                    return
                self._confirm_waiter = self._renew(self._confirm_waiter)
                try:
                    await asyncio.wait_for(
                        asyncio.shield(self._confirm_waiter), remaining
                    )
                except asyncio.TimeoutError:
                    continue
        finally:
            self.ack(acks, 0)  # lsn 0: resolve now

    # -- the primary's verbs -----------------------------------------------

    async def handle(
        self,
        verb: str,
        frame: Mapping[str, Any],
        request_id: Any,
        session: "Session",
    ) -> dict[str, Any]:
        """One replication verb in, one response frame out."""
        try:
            if verb == "promote":
                return await self._promote(request_id)
            wal = self.db.wal
            if verb == "repl_status":
                return ok_frame(
                    request_id,
                    {
                        "role": self.role,
                        "primary": self.primary,
                        "applied_lsn": self.applied_lsn,
                        "durable_lsn": (
                            wal.durable_lsn if wal is not None else 0
                        ),
                        "replicas": len(self.replicas),
                        "lag": self.lag(),
                    },
                )
            if wal is None:
                return error_frame(
                    request_id,
                    "bad-request",
                    "server has no write-ahead log to replicate "
                    "(start it with --wal)",
                )
            if self.service.poisoned is not None:
                return self.service.poisoned_frame(request_id)
            if verb == "repl_snapshot":
                return self._snapshot(request_id)
            if verb == "repl_poll":
                return await self._poll(frame, request_id, session)
            raise ProtocolError(f"unhandled replication verb {verb!r}")
        except Exception as exc:
            return exception_frame(request_id, exc)

    async def _promote(self, request_id: Any) -> dict[str, Any]:
        was = self.role
        if was == "replica":
            # Seal the redo stream: a group whose commit never arrived
            # was never acked by the dead primary, so dropping it is
            # exactly the recovery semantics.
            if self._applier is not None:
                self._applier.seal()
            self.role = "primary"
            self.primary = None
            # Stop tailing the (dead) primary; this server now accepts
            # writes.  Operational chatter goes to stderr: an embedding
            # process (the bench harness, a pipeline) owns stdout.
            await self._stop()
            print("promoted to primary", file=sys.stderr, flush=True)
        return ok_frame(
            request_id,
            {"was": was, "role": self.role, "applied_lsn": self.applied_lsn},
        )

    def _snapshot(self, request_id: Any) -> dict[str, Any]:
        if self.service.participant.held_xid is not None:
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

    async def _poll(
        self, frame: Mapping[str, Any], request_id: Any, session: "Session"
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
            self.replicas[session.id] = after
            self._signal_confirm()
        wal = self.db.wal
        if session.repl_cursor is None:
            session.repl_cursor = WalCursor(wal.storage)
        records = session.repl_cursor.read_after(
            after, wal.durable_lsn, max_records
        )
        if not records and wait > 0:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + float(wait)
            while not records and not self._draining:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                self._commit_waiter = self._renew(self._commit_waiter)
                try:
                    await asyncio.wait_for(
                        asyncio.shield(self._commit_waiter), remaining
                    )
                except asyncio.TimeoutError:
                    break
                records = session.repl_cursor.read_after(
                    after, wal.durable_lsn, max_records
                )
        if records:
            self.service.metrics.repl_shipped.inc(len(records))
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
            request_id, {"records": records, "durable_lsn": wal.durable_lsn}
        )

    # -- the replica side --------------------------------------------------

    def load_replica_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Seed the local state (and local log) from a primary's
        ``repl_snapshot`` image.  The install adopts the primary's
        evolved schema first when the image carries one, and logs a
        ``load_state`` record of the rows (and that schema), so the
        replica's own log recovers to the primary's state."""
        self.db.load_image(snapshot)
        self.db.sync_wal()
        self.applied_lsn = int(snapshot["lsn"])
        self.primary_durable_lsn = max(
            self.primary_durable_lsn, self.applied_lsn
        )

    def apply_replicated(
        self, records: list[Mapping[str, Any]], durable_lsn: int
    ) -> None:
        """Redo a polled batch of primary records.

        Runs synchronously (no awaits), so a ``promote`` arriving on
        another connection can never observe half a batch.  Records
        re-log through the replica's *own* WAL (its lsns, its group
        markers), so the local log is independently recoverable.

        Every record takes the applier's validating replay: a ``batch``
        record (of any log version) is read back as its runs and handed
        to ``Database.apply_runs``, the columnar validators a live
        ``apply_batch`` uses, and the replica re-logs it in its own
        (version 3) format.  Divergence (a record the primary committed
        but this state rejects) raises :class:`RecoveryError` and the
        replica loop treats it as fatal.
        """
        applier = self._applier
        if applier is None:
            raise RecoveryError("not a replica (already promoted?)")
        service = self.service
        sink = service.span_sink
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
            service.activate_span(span)
            try:
                applier.feed(record)
            finally:
                service.activate_span(None)
                if span is not None:
                    sink.export(span.end())
            applied = max(applied, record.get("lsn", 0))
        self.applied_lsn = applied
        self.db.sync_wal()
        self.primary_durable_lsn = max(self.primary_durable_lsn, durable_lsn)
        if records:
            service.metrics.repl_applied.inc(len(records))

    def start(self) -> None:
        """Start tailing the primary (a replica only)."""
        if self.role == "replica" and self._task is None:
            self._task = asyncio.ensure_future(self._replica_loop())

    async def _stop(self) -> None:
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task

    async def _replica_loop(self) -> None:
        """Tail the primary's WAL forever (until drain or promotion).

        Each (re)connection bootstraps with a ``repl_snapshot`` -- the
        local state may predate records a checkpoint on the primary
        already compacted away, so catch-up always starts from a fresh
        base image -- then streams ``repl_poll`` batches.  The poll
        cycle is pipelined for the primary's sake: the *next* poll
        frame (which doubles as the receipt confirmation for the batch
        just read) is written to the socket *before* the batch is
        applied, so the primary's semi-synchronous ack waits one round
        trip, never a replica replay.  Apply itself is synchronous (no
        awaits), so a concurrent ``promote`` can never observe half a
        batch.

        Divergence (a record the primary committed but this state
        rejects) is fatal -- retrying could only promote a wrong state.
        Connection failures retry with capped exponential backoff; the
        replica keeps serving reads from its last-applied state
        throughout.
        """
        assert self.primary is not None
        host, _, port_s = self.primary.rpartition(":")
        backoff = 0.2
        while not self._draining and self.role == "replica":
            writer = None
            try:
                reader, writer = await asyncio.open_connection(
                    host or "127.0.0.1", int(port_s), limit=MAX_FRAME_BYTES
                )
                rpc_id = 0

                def send(verb: str, **params) -> None:
                    nonlocal rpc_id
                    rpc_id += 1
                    writer.write(
                        encode_frame(request_frame(rpc_id, verb, **params))
                    )

                async def recv() -> dict:
                    line = await reader.readline()
                    if not line:
                        raise ConnectionError(
                            "primary closed the replication connection"
                        )
                    frame = decode_frame(line)
                    if not frame.get("ok"):
                        raise_error(frame)
                    return frame["result"]

                while True:
                    send("repl_snapshot")
                    await writer.drain()
                    try:
                        snapshot = await recv()
                        break
                    except RemoteError as exc:
                        if exc.type != "busy":
                            raise
                        await asyncio.sleep(0.05)
                self.load_replica_snapshot(snapshot)
                after = self.applied_lsn
                print(
                    f"replica caught up to lsn {after} via snapshot",
                    file=sys.stderr,
                    flush=True,
                )
                backoff = 0.2
                wait = REPL_POLL_WAIT
                send("repl_poll", after=after, wait=wait, sync=True)
                await writer.drain()
                while not self._draining:
                    result = await recv()
                    records = result["records"]
                    if records:
                        after = max(after, records[-1].get("lsn", 0))
                        # Confirm receipt *before* applying: once these
                        # bytes are queued, the replica owns the
                        # records, and the synchronous apply below
                        # finishes before any await could let a
                        # promote (or crash handler) observe a gap.
                        send("repl_poll", after=after, wait=wait, sync=True)
                        self.apply_replicated(records, result["durable_lsn"])
                        await writer.drain()
                    else:
                        self.primary_durable_lsn = max(
                            self.primary_durable_lsn, result["durable_lsn"]
                        )
                        send("repl_poll", after=after, wait=wait, sync=True)
                        await writer.drain()
            except asyncio.CancelledError:
                raise
            except RecoveryError as exc:
                print(
                    f"replica diverged from primary: {exc}",
                    file=sys.stderr,
                    flush=True,
                )
                raise
            except (
                ConnectionError,
                OSError,
                RemoteError,
                ProtocolError,
                ValueError,
            ) as exc:
                if self._draining or self.role != "replica":
                    return
                print(
                    f"replica: primary unreachable ({exc}); retrying in "
                    f"{backoff:.1f}s",
                    file=sys.stderr,
                    flush=True,
                )
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, 2.0)
            finally:
                if writer is not None:
                    with contextlib.suppress(ConnectionError, OSError):
                        writer.close()
                        await writer.wait_closed()
