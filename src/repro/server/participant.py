"""The shard/2PC participant: shard ownership and held prepares.

A worker of a sharded fleet (``repro serve --workers N``) owns the rows
whose primary key hashes to it (:func:`~repro.server.router.shard_of`).
:class:`Participant` is that worker's side of the fleet protocol:

* **Ownership** -- :meth:`Participant.check_shard` rejects a
  single-shard request whose key this worker does not own with a
  ``wrong-shard`` frame naming the owner, and :meth:`topology` answers
  the ``topology`` verb routers build their shard map from.
* **Two-phase batches** -- :meth:`run_prepare` is phase one of a
  cross-shard ``apply_batch``: the service's single writer applies the
  ops in an open engine transaction, acks the checks only other shards
  can answer, and holds the transaction until ``batch_commit`` /
  ``batch_abort`` (:meth:`handle_decision`) or the hold's timeout
  decides it.

On a plain single-process server (no :class:`ShardInfo`) every check
passes and ``topology`` reports a one-worker world.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.engine.wal import WalError
from repro.obs.spans import Span
from repro.server.errors import exception_frame
from repro.server.protocol import (
    WrongShardError,
    decode_batch_ops,
    error_frame,
    ok_frame,
    require,
)
from repro.server.router import shard_of

if TYPE_CHECKING:
    from repro.server.service import DatabaseService


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


class Participant:
    """Shard ownership checks and the held prepare of one worker."""

    def __init__(
        self,
        service: "DatabaseService",
        shard: ShardInfo | None,
        prepare_timeout: float,
    ):
        self.service = service
        self.db = service.db
        #: This worker's place in a sharded fleet; ``None`` disables
        #: shard ownership enforcement.
        self.shard = shard
        #: How long the writer holds a prepared batch awaiting its
        #: commit/abort decision before aborting it unilaterally.
        self.prepare_timeout = prepare_timeout
        #: Commit/abort decisions for a held prepare, routed around the
        #: mutation queue (the writer is parked on this queue while it
        #: holds one).
        self._decisions: asyncio.Queue = asyncio.Queue()
        #: The transfer id of the currently held prepare (``None`` when
        #: no prepare is in flight) and the last few ids whose holds
        #: timed out, so a late decision gets ``prepare-expired`` rather
        #: than the generic ``no-prepared-batch``.
        self.held_xid: str | None = None
        self._expired_xids: deque[str] = deque(maxlen=8)
        #: Prepares this worker has held (their outcomes are counted
        #: by ``repro_server_prepares_total``).
        self.prepares = 0

    @property
    def sharded(self) -> bool:
        """Whether this worker is one of several shards."""
        return self.shard is not None and self.shard.n_shards > 1

    # -- ownership -------------------------------------------------------

    def check_shard(self, verb: str, frame: Mapping[str, Any]) -> None:
        """Reject single-shard requests whose primary key this worker
        does not own (:class:`WrongShardError` names the owner).

        Malformed parameters are left alone -- the normal decode path
        produces the right ``bad-request``/``not-found`` answer, and a
        row the engine would reject is rejected identically on every
        worker.
        """
        if not self.sharded:
            return
        me, n = self.shard.worker_id, self.shard.n_shards
        if verb == "insert":
            owners = [
                self._owner_of_row(frame.get("scheme"), frame.get("row"), n)
            ]
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
            owners = [owner]
        elif verb == "insert_many":
            scheme = frame.get("scheme")
            rows = frame.get("rows")
            if not isinstance(rows, list):
                return
            owners = (self._owner_of_row(scheme, row, n) for row in rows)
        elif verb in ("apply_batch", "batch_prepare"):
            ops = frame.get("ops")
            if not isinstance(ops, list):
                return
            owners = (self._owner_of_op(op, n) for op in ops)
        else:
            return
        for owner in owners:
            if owner is not None and owner != me:
                raise WrongShardError(owner)

    def _key_names(self, scheme: str) -> tuple[str, ...] | None:
        schema = self.db.schema
        if not schema.has_scheme(scheme):
            return None
        return schema.scheme(scheme).key_names

    def _owner_after_update(
        self, scheme: str, pk: Any, updates: Any, n: int
    ) -> int | None:
        """Owning shard of the row an update would produce.  A key
        change that would hash the row onto another worker is rejected
        (rows never migrate between shards; model it as delete +
        insert)."""
        keys = self._key_names(scheme)
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
        keys = self._key_names(scheme)
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
                and owner == self.shard.worker_id
                and len(op) > 3
            ):
                after = self._owner_after_update(scheme, pk, op[3], n)
                if after is not None:
                    return after
            return owner
        return None

    def topology(self) -> dict[str, Any]:
        """The ``topology`` verb's answer: the fleet's layout and each
        scheme's key and reference profile."""
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
        # A plain server reports a one-worker world with no addresses.
        shard = self.shard or ShardInfo(host="")
        return {
            "workers": shard.n_shards,
            "worker_id": shard.worker_id,
            "host": shard.host,
            "ports": list(shard.ports),
            "shared_port": shard.shared_port,
            "schemes": schemes,
        }

    # -- two-phase batches -------------------------------------------------

    async def handle_decision(
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
        if self.held_xid != xid:
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

    def drain(self) -> None:
        """Abort a held prepare: the writer parks on the decision queue
        while it holds one, and must get back to its mutation queue."""
        self._decisions.put_nowait(("__drain__", False, None, None, None))

    async def run_prepare(self, item: tuple) -> None:
        """Phase one of a sharded batch, run solo by the writer.

        Applies the ops in an open engine transaction, acks the prepare
        with the requirements only other shards can answer, then parks
        on the decision queue until ``batch_commit``/``batch_abort``
        arrives (or :attr:`prepare_timeout` expires, which aborts).  The
        commit path ends with the same :meth:`Database.sync_wal`
        durability barrier and replica ack gate as a group commit --
        results are never acked before the batch is durable.  The
        prepare itself is volatile: its WAL bracket has no commit marker
        until the decision, so a crash while holding aborts it on
        recovery.
        """
        service, db = self.service, self.db
        _verb, frame, request_id, _trace_id, span, future, _ = item
        if service.poisoned is not None:
            service.ack_mutation(future, service.poisoned_frame(request_id))
            return
        if span is not None:
            service.export_queue_wait(span)
        apply_span = (
            span.child("prepare", kind="engine") if span is not None else None
        )
        service.activate_span(apply_span)
        lsn_before = db.wal.next_lsn if db.wal is not None else 0
        prepared = None
        try:
            xid = require(frame, "xid", str)
            self.check_shard("batch_prepare", frame)
            ops = decode_batch_ops(require(frame, "ops", list))
            prepared = db.apply_batch_prepare(ops)
        except Exception as exc:
            if isinstance(exc, WalError):
                service.poisoned = str(exc)
            service.ack_mutation(future, exception_frame(request_id, exc))
        finally:
            service.activate_span(None)
            if apply_span is not None:
                service.span_sink.export(
                    apply_span.end(None if prepared is not None else "error")
                )
        if prepared is None:
            return
        self.prepares += 1
        self.held_xid = xid
        service.ack_mutation(
            future,
            ok_frame(
                request_id,
                {"xid": xid, "requirements": prepared.requirements},
            ),
        )
        outcomes = service.metrics.prepares
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
                    outcomes.labels(outcome="aborted").inc()
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
            outcomes.labels(outcome="expired").inc()
            return
        finally:
            self.held_xid = None
        if not commit:
            prepared.abort()
            outcomes.labels(outcome="aborted").inc()
            if not dfuture.done():
                dfuture.set_result(ok_frame(drequest_id, None))
            return
        commit_parent = dspan if dspan is not None else span
        commit_span = (
            commit_parent.child("group-commit", kind="wal", xid=xid)
            if commit_parent is not None
            else None
        )
        service.activate_span(commit_span)
        replication = service.replication
        acked_lsn = 0
        try:
            results = prepared.commit()
            db.sync_wal()
        except (WalError, OSError) as exc:
            service.poisoned = str(exc)
            outcome = service.poisoned_frame(drequest_id)
        except Exception as exc:
            outcome = error_frame(drequest_id, "server-error", repr(exc))
        else:
            outcomes.labels(outcome="committed").inc()
            outcome = ok_frame(drequest_id, results)
            replication.stamp(outcome, lsn_before, span)
            if db.wal is not None:
                acked_lsn = db.wal.durable_lsn
                replication.signal_commit()
        finally:
            service.activate_span(None)
            if commit_span is not None:
                service.span_sink.export(
                    commit_span.end(
                        None if service.poisoned is None else "wal-error"
                    )
                )
        # The decision ack implies replica receipt, as a group's acks do.
        replication.ack([(dfuture, outcome)], acked_lsn)
