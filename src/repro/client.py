"""A blocking client for the JSON-lines server (``repro.server``).

One :class:`Client` is one TCP connection and one outstanding request
at a time -- the deliberately simple synchronous counterpart to the
asyncio server.  Concurrency comes from many clients (one per thread or
process), which is exactly the shape the server's group-commit path is
built for.

Rows and primary keys go on the wire as given: the frame encoder writes
``NULL`` as the ``{"$null": true}`` marker, and responses are decoded
back (:func:`~repro.server.protocol.decode_rows`), so what a method
returns is what :meth:`Database.get` would return in-process, as a
plain dict.
Server-side rejections come back as exceptions:
:class:`~repro.server.protocol.RemoteConstraintViolation` for
constraint violations (carrying ``constraint``/``kind``/``rule``/
``detail`` provenance) and :class:`~repro.server.protocol.RemoteError`
for everything else.

::

    from repro.client import Client

    with Client(port=7043) as c:
        c.insert("COURSE", {"C.NR": "c1", "C.TITLE": "Databases"})
        row = c.get("COURSE", "c1")
"""

from __future__ import annotations

import socket
import time
import uuid
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.spans import SpanSink
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    RemoteConstraintViolation,
    RemoteError,
    decode_frame,
    decode_row,
    decode_rows,
    encode_frame,
    raise_error,
    request_frame,
)
from repro.server.router import (
    ShardMap,
    group_ops_by_shard,
    requirement_violation,
)

__all__ = [
    "Client",
    "ShardedClient",
    "ReplicatedClient",
    "RemoteConstraintViolation",
    "RemoteError",
]


def _wire_pk(pk: Any) -> list:
    """A primary key (scalar or tuple) as a wire array."""
    return list(pk) if isinstance(pk, tuple) else [pk]


def _wire_row(row: Mapping[str, Any]) -> dict[str, Any]:
    """A row (any mapping, an engine :class:`Tuple` included) as a
    plain dict the frame encoder can write."""
    return row if type(row) is dict else dict(row)


def _wire_ops(ops: Iterable[tuple]) -> list[list]:
    """Engine-style ``apply_batch`` op tuples in wire form."""
    wire: list[list] = []
    for op in ops:
        kind = op[0] if op else None
        if kind == "insert" and len(op) == 3:
            wire.append(["insert", op[1], _wire_row(op[2])])
        elif kind == "update" and len(op) == 4:
            wire.append(
                ["update", op[1], _wire_pk(op[2]), _wire_row(op[3])]
            )
        elif kind == "delete" and len(op) == 3:
            wire.append(["delete", op[1], _wire_pk(op[2])])
        else:
            raise ValueError(f"not a valid batch op: {op!r}")
    return wire


class Client:
    """One blocking connection to a ``repro`` server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float | None = None,
        span_sink: SpanSink | None = None,
    ):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # One small frame per request: Nagle+delayed-ACK would add
        # whole milliseconds to every round trip.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._fh = self._sock.makefile("rwb")
        self._next_id = 0
        #: Where this client's root spans go (``None`` = no client-side
        #: tracing).  With a sink set, each :meth:`call` that is not
        #: already inside a trace opens a sampled ``client:<verb>`` root
        #: span and sends its context on the wire.
        self.span_sink = span_sink
        #: The WAL ``lsn`` of this connection's most recent acknowledged
        #: mutation (0 before the first one) -- the watermark
        #: :class:`ReplicatedClient` waits for on a replica before a
        #: read-your-writes read (see ``docs/REPLICATION.md``).
        self.last_lsn: int = 0

    # -- plumbing --------------------------------------------------------

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._fh.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def call(
        self,
        verb: str,
        *,
        span_ctx: str | None = None,
        **params: Any,
    ) -> Any:
        """One request/response round trip; the raw ``result`` value.

        ``span_ctx`` (optional) is an encoded span context
        (:func:`repro.obs.spans.encode_context`) sent as the request's
        ``span`` field, parenting the server's span under the caller's.
        Without one, a configured :attr:`span_sink` opens (and exports)
        a ``client:<verb>`` root span around the round trip.

        Raises the matching :class:`RemoteError` subtype on an error
        frame, :class:`ConnectionError` if the server hangs up, and
        :class:`ProtocolError` on an unparseable or mismatched response.
        """
        self._next_id += 1
        request_id = self._next_id
        span = None
        if (
            span_ctx is None
            and self.span_sink is not None
            and self.span_sink.sample_root()
        ):
            span = self.span_sink.start_span(f"client:{verb}", kind="client")
            span_ctx = span.context()
        if span_ctx is not None:
            params["span"] = span_ctx
        try:
            self._fh.write(
                encode_frame(request_frame(request_id, verb, **params))
            )
            self._fh.flush()
            line = self._fh.readline(MAX_FRAME_BYTES + 1)
            if not line:
                raise ConnectionError("server closed the connection")
            frame = decode_frame(line)
            if frame.get("id") != request_id:
                raise ProtocolError(
                    f"response id {frame.get('id')!r} does not match "
                    f"request id {request_id!r}"
                )
            if not frame.get("ok"):
                raise_error(frame)
        except Exception as exc:
            if span is not None:
                span.status = type(exc).__name__
            raise
        finally:
            if span is not None:
                self.span_sink.export(span.end())
        lsn = frame.get("lsn")
        if isinstance(lsn, int) and lsn > self.last_lsn:
            self.last_lsn = lsn
        return frame.get("result")

    # -- mutations -------------------------------------------------------

    def insert(
        self, scheme: str, row: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Insert one row; returns the stored row."""
        return decode_row(
            self.call("insert", scheme=scheme, row=_wire_row(row))
        )

    def update(
        self, scheme: str, pk: Any, updates: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Update one row by primary key; returns the updated row."""
        return decode_row(
            self.call(
                "update",
                scheme=scheme,
                pk=_wire_pk(pk),
                updates=_wire_row(updates),
            )
        )

    def delete(self, scheme: str, pk: Any) -> None:
        """Delete one row by primary key."""
        self.call("delete", scheme=scheme, pk=_wire_pk(pk))

    def insert_many(
        self, scheme: str, rows: Sequence[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        """Insert many rows of one scheme atomically."""
        result = self.call(
            "insert_many", scheme=scheme, rows=list(map(_wire_row, rows))
        )
        return decode_rows(result)

    def apply_batch(self, ops: Iterable[tuple]) -> list[dict[str, Any] | None]:
        """Apply a mixed mutation batch atomically (engine-style op
        tuples: ``("insert", scheme, row)``, ``("update", scheme, pk,
        updates)``, ``("delete", scheme, pk)``)."""
        return decode_rows(self.call("apply_batch", ops=_wire_ops(ops)))

    # -- reads -----------------------------------------------------------

    def get(self, scheme: str, pk: Any) -> dict[str, Any] | None:
        """Primary-key lookup; ``None`` when absent."""
        result = self.call("get", scheme=scheme, pk=_wire_pk(pk))
        return decode_row(result) if result is not None else None

    def join_to(
        self,
        scheme: str,
        pk: Any,
        via: Sequence[str],
        target_scheme: str,
        target_attrs: Sequence[str] | None = None,
    ) -> dict[str, Any] | None:
        """Navigate a foreign key from the row under ``pk``."""
        result = self.call(
            "join_to",
            scheme=scheme,
            pk=_wire_pk(pk),
            via=list(via),
            target_scheme=target_scheme,
            target_attrs=list(target_attrs) if target_attrs else None,
        )
        return decode_row(result) if result is not None else None

    def find_referencing(
        self,
        scheme: str,
        pk: Any,
        source_scheme: str,
        via: Sequence[str],
        target_attrs: Sequence[str],
    ) -> list[dict[str, Any]]:
        """All rows of ``source_scheme`` referencing the row under
        ``pk``."""
        result = self.call(
            "find_referencing",
            scheme=scheme,
            pk=_wire_pk(pk),
            source_scheme=source_scheme,
            via=list(via),
            target_attrs=list(target_attrs),
        )
        return decode_rows(result)

    def check(self) -> dict[str, Any]:
        """Full-state consistency check:
        ``{"consistent": bool, "violations": [...]}``."""
        return self.call("check")

    def explain(self, op: str, scheme: str) -> dict[str, Any]:
        """The enforcement plan EXPLAIN dict for ``op`` on ``scheme``."""
        return self.call("explain", op=op, scheme=scheme)

    def advise(self, strategy: str | None = None) -> dict[str, Any]:
        """The merge advisor's report over the server's mined workload
        counters: candidate families with Section 5 verdicts and
        workload scores, the ``recommendation`` (or ``None``), and the
        EXPLAIN text."""
        params = {"strategy": strategy} if strategy is not None else {}
        return self.call("advise", **params)

    def apply_merge(
        self,
        members: list[str] | None = None,
        key_relation: str | None = None,
        merged_name: str | None = None,
        strategy: str | None = None,
    ) -> dict[str, Any]:
        """Apply a merge online (one WAL transaction on the server's
        single-writer path).  With no ``members`` the advisor's
        recommendation is applied."""
        params: dict[str, Any] = {}
        if members is not None:
            params["members"] = list(members)
            if key_relation is not None:
                params["key_relation"] = key_relation
            if merged_name is not None:
                params["merged_name"] = merged_name
        elif strategy is not None:
            params["strategy"] = strategy
        return self.call("apply_merge", **params)

    def metrics(self) -> str:
        """The server's Prometheus text exposition."""
        return self.call("metrics")

    def stats(self) -> dict[str, Any]:
        """The server's :meth:`EngineStats.snapshot` dict."""
        return self.call("stats")

    def spans(self, limit: int | None = None) -> dict[str, Any]:
        """The server's span-sink ring buffer (oldest first) plus its
        depth/dropped/exported/sample counters; empty with no sink
        configured."""
        params = {"limit": limit} if limit is not None else {}
        return self.call("spans", **params)

    # -- replication -----------------------------------------------------

    def repl_status(self) -> dict[str, Any]:
        """Where this server stands in the replication topology:
        ``{"role", "applied_lsn", "durable_lsn", "primary",
        "replicas"}``."""
        return self.call("repl_status")

    def promote(self) -> dict[str, Any]:
        """Turn a replica into a read-write primary (idempotent on a
        primary): ``{"was", "role", "applied_lsn"}``."""
        return self.call("promote")


def _split_target(target: str | tuple[str, int]) -> tuple[str, int]:
    """``HOST:PORT`` (or a ``(host, port)`` pair) as a connect address."""
    if isinstance(target, tuple):
        return target[0] or "127.0.0.1", int(target[1])
    host, _, port_text = str(target).rpartition(":")
    return host or "127.0.0.1", int(port_text)


class ReplicatedClient:
    """A client of a primary/replica pair (or set): mutations go to the
    primary, reads round-robin across the replicas, so read load scales
    out without touching the write path (see ``docs/REPLICATION.md``).

    Replication is asynchronous from the reader's point of view -- a
    replica may serve a state slightly behind the primary's.  With
    ``read_your_writes=True`` each read first waits (bounded by
    ``catchup_timeout``) until the chosen replica's ``applied_lsn`` has
    reached the ``lsn`` of this client's own latest acknowledged
    mutation, so the session always observes its own writes; if the
    replica cannot catch up in time (or is unreachable), the read falls
    back to the primary.

    :meth:`promote` fails the pair over client-side: it promotes one
    replica and re-points this client's writes at it.

    One instance is one logical connection: not thread-safe.
    """

    def __init__(
        self,
        primary: str | tuple[str, int],
        replicas: Sequence[str | tuple[str, int]] = (),
        timeout: float | None = None,
        read_your_writes: bool = False,
        catchup_timeout: float = 5.0,
    ):
        self._timeout = timeout
        self.read_your_writes = read_your_writes
        self.catchup_timeout = catchup_timeout
        self._replica_targets = [_split_target(t) for t in replicas]
        self._replica_clients: dict[int, Client] = {}
        self._rr = 0
        host, port = _split_target(primary)
        self._primary = Client(host=host, port=port, timeout=timeout)

    # -- plumbing --------------------------------------------------------

    def close(self) -> None:
        """Close the primary and every replica connection."""
        self._primary.close()
        for client in self._replica_clients.values():
            client.close()
        self._replica_clients.clear()

    def __enter__(self) -> "ReplicatedClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def last_lsn(self) -> int:
        """The ``lsn`` of this client's latest acknowledged mutation."""
        return self._primary.last_lsn

    def _replica_client(self, index: int) -> Client:
        client = self._replica_clients.get(index)
        if client is None:
            host, port = self._replica_targets[index]
            client = Client(host=host, port=port, timeout=self._timeout)
            self._replica_clients[index] = client
        return client

    def _await_applied(self, client: Client, lsn: int) -> bool:
        """Wait until ``client``'s server has applied ``lsn`` (True) or
        ``catchup_timeout`` elapses (False)."""
        deadline = time.monotonic() + self.catchup_timeout
        while True:
            status = client.call("repl_status")
            if (
                int(status.get("applied_lsn", 0)) >= lsn
                or status.get("role") == "primary"
            ):
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)

    def _read(self, verb: str, **params: Any) -> Any:
        """One read, preferring a replica; the primary is the fallback
        for an unreachable or persistently-lagging replica."""
        for _ in range(len(self._replica_targets)):
            index = self._rr
            self._rr = (self._rr + 1) % len(self._replica_targets)
            try:
                client = self._replica_client(index)
                if self.read_your_writes and self._primary.last_lsn:
                    if not self._await_applied(
                        client, self._primary.last_lsn
                    ):
                        continue
                return client.call(verb, **params)
            except (OSError, ConnectionError):
                dead = self._replica_clients.pop(index, None)
                if dead is not None:
                    dead.close()
        return self._primary.call(verb, **params)

    # -- mutations (primary) ---------------------------------------------

    def insert(self, scheme: str, row: Mapping[str, Any]) -> dict[str, Any]:
        """Insert one row on the primary."""
        return self._primary.insert(scheme, row)

    def update(
        self, scheme: str, pk: Any, updates: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Update one row by primary key on the primary."""
        return self._primary.update(scheme, pk, updates)

    def delete(self, scheme: str, pk: Any) -> None:
        """Delete one row by primary key on the primary."""
        self._primary.delete(scheme, pk)

    def insert_many(
        self, scheme: str, rows: Sequence[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        """Insert many rows of one scheme atomically on the primary."""
        return self._primary.insert_many(scheme, rows)

    def apply_batch(self, ops: Iterable[tuple]) -> list[dict[str, Any] | None]:
        """Apply a mixed mutation batch atomically on the primary."""
        return self._primary.apply_batch(ops)

    # -- reads (replicas) ------------------------------------------------

    def get(self, scheme: str, pk: Any) -> dict[str, Any] | None:
        """Primary-key lookup on a replica."""
        result = self._read("get", scheme=scheme, pk=_wire_pk(pk))
        return decode_row(result) if result is not None else None

    def join_to(
        self,
        scheme: str,
        pk: Any,
        via: Sequence[str],
        target_scheme: str,
        target_attrs: Sequence[str] | None = None,
    ) -> dict[str, Any] | None:
        """Reference-following join on a replica."""
        params: dict[str, Any] = dict(
            scheme=scheme,
            pk=_wire_pk(pk),
            via=list(via),
            target_scheme=target_scheme,
        )
        if target_attrs is not None:
            params["target_attrs"] = list(target_attrs)
        result = self._read("join_to", **params)
        return decode_row(result) if result is not None else None

    def check(self) -> dict[str, Any]:
        """Full-state consistency check on a replica."""
        return self._read("check")

    # -- failover --------------------------------------------------------

    def promote(self, index: int = 0) -> dict[str, Any]:
        """Promote replica ``index`` and re-point this client's writes
        at it (the old primary connection is dropped; use after the
        primary has died)."""
        client = self._replica_client(index)
        result = client.promote()
        try:
            self._primary.close()
        except OSError:
            pass
        self._primary = client
        del self._replica_targets[index]
        # Re-key the cached connections around the removed slot.
        survivors = {
            (i if i < index else i - 1): c
            for i, c in self._replica_clients.items()
            if i != index
        }
        self._replica_clients = survivors
        self._rr = 0
        return result


class ShardedClient:
    """The shard-aware client of a ``repro serve --workers N`` fleet.

    Connecting to the fleet's shared port, it asks ``topology`` for the
    shard map, then opens one direct connection per worker (lazily) and
    routes every request to the worker owning its primary key
    (:mod:`repro.server.router`).  Pointed at a plain single-process
    server it degrades to a thin wrapper over :class:`Client`.

    Mutation routing splits two ways:

    * A mutation whose constraint checks are provably shard-local --
      an insert into a scheme with no outgoing references, a delete
      from a scheme nothing references, a single-shard ``insert_many``
      of an unreferencing scheme -- is sent as the ordinary verb and
      rides the owning worker's group-commit path at full speed.
    * Everything else uses the two-phase protocol: ``batch_prepare`` on
      every involved worker (in worker-id order, which makes concurrent
      sharded writers deadlock-free), then ``exists`` probes across the
      fleet for the requirements no single shard could verify, then
      ``batch_commit`` everywhere -- or ``batch_abort`` everywhere,
      which is what makes a cross-shard constraint violation reject the
      whole batch atomically.

    One instance is one logical connection: not thread-safe, one
    outstanding logical request at a time.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float | None = None,
        span_sink: SpanSink | None = None,
    ):
        self._timeout = timeout
        #: Client-side span sink, shared by every per-shard connection;
        #: two-phase batches additionally get a ``router:2pc`` span
        #: whose context fans out to every participant.
        self.span_sink = span_sink
        bootstrap = Client(host=host, port=port, timeout=timeout)
        try:
            self.shard_map = ShardMap.from_topology(bootstrap.call("topology"))
        except BaseException:
            bootstrap.close()
            raise
        self._host = self.shard_map.host or host
        self._clients: dict[int, Client] = {}
        if not self.shard_map.ports:
            # A plain server: everything lives behind this connection.
            self._clients[0] = bootstrap
        else:
            bootstrap.close()

    # -- plumbing --------------------------------------------------------

    def close(self) -> None:
        """Close every per-shard connection."""
        for client in self._clients.values():
            client.close()
        self._clients.clear()

    def __enter__(self) -> "ShardedClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def n_shards(self) -> int:
        """How many shards (workers) the fleet partitions rows across."""
        return self.shard_map.n_shards

    def shard_client(self, shard: int) -> Client:
        """The direct connection to one worker (opened on first use)."""
        client = self._clients.get(shard)
        if client is None:
            client = Client(
                host=self._host,
                port=self.shard_map.ports[shard],
                timeout=self._timeout,
                span_sink=self.span_sink,
            )
            self._clients[shard] = client
        return client

    def _owner(self, scheme: str, pk: Any) -> int:
        return self.shard_map.shard_of_pk(scheme, _wire_pk(pk))

    # -- mutations -------------------------------------------------------

    def insert(self, scheme: str, row: Mapping[str, Any]) -> dict[str, Any]:
        """Insert one row (routed; two-phase only when the scheme has
        outgoing references another shard may have to satisfy)."""
        wire = _wire_row(row)
        if not self.shard_map.refs_out.get(scheme, True):
            shard = self.shard_map.shard_of_row(scheme, wire)
            return decode_row(
                self.shard_client(shard).call(
                    "insert", scheme=scheme, row=wire
                )
            )
        results = self._two_phase([["insert", scheme, wire]])
        assert results[0] is not None
        return results[0]

    def update(
        self, scheme: str, pk: Any, updates: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Update one row by primary key."""
        if not self.shard_map.refs_out.get(
            scheme, True
        ) and not self.shard_map.refs_in.get(scheme, True):
            return decode_row(
                self.shard_client(self._owner(scheme, pk)).call(
                    "update",
                    scheme=scheme,
                    pk=_wire_pk(pk),
                    updates=_wire_row(updates),
                )
            )
        results = self._two_phase(
            [["update", scheme, _wire_pk(pk), _wire_row(updates)]]
        )
        assert results[0] is not None
        return results[0]

    def delete(self, scheme: str, pk: Any) -> None:
        """Delete one row by primary key (two-phase when other shards
        may hold rows referencing it)."""
        if not self.shard_map.refs_in.get(scheme, True):
            self.shard_client(self._owner(scheme, pk)).call(
                "delete", scheme=scheme, pk=_wire_pk(pk)
            )
            return
        self._two_phase([["delete", scheme, _wire_pk(pk)]])

    def insert_many(
        self, scheme: str, rows: Sequence[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        """Insert many rows of one scheme atomically (per batch: a
        multi-shard batch uses the two-phase protocol so rejection
        stays all-or-nothing)."""
        wire_rows = list(map(_wire_row, rows))
        if not self.shard_map.refs_out.get(scheme, True):
            by_shard: dict[int, list[int]] = {}
            for i, w in enumerate(wire_rows):
                by_shard.setdefault(
                    self.shard_map.shard_of_row(scheme, w), []
                ).append(i)
            if len(by_shard) == 1:
                ((shard, _),) = by_shard.items()
                return decode_rows(
                    self.shard_client(shard).call(
                        "insert_many", scheme=scheme, rows=wire_rows
                    )
                )
        results = self._two_phase(
            [["insert", scheme, w] for w in wire_rows]
        )
        return [r for r in results if r is not None]

    def apply_batch(
        self, ops: Iterable[tuple]
    ) -> list[dict[str, Any] | None]:
        """Apply a mixed mutation batch atomically across shards
        (engine-style op tuples, as :meth:`Client.apply_batch`)."""
        return self._two_phase(_wire_ops(ops))

    def _two_phase(
        self, wire_ops: list[list]
    ) -> list[dict[str, Any] | None]:
        """Prepare/probe/commit one batch across every involved shard."""
        groups = group_ops_by_shard(self.shard_map, wire_ops)
        shards = sorted(groups)  # worker-id order: deadlock-free
        xid = uuid.uuid4().hex
        root = router = None
        sink = self.span_sink
        if sink is not None and sink.sample_root():
            # One root for the logical batch, one router child fanning
            # its context out to every participant -- the trace shows
            # the prepare round trips and probes under a single parent.
            root = sink.start_span(
                "client:batch", kind="client", ops=len(wire_ops)
            )
            router = root.child(
                "router:2pc", kind="router", shards=len(shards), xid=xid
            )
        ctx = router.context() if router is not None else None
        try:
            requirements: list[dict[str, Any]] = []
            prepared: list[int] = []
            try:
                for shard in shards:
                    ack = self.shard_client(shard).call(
                        "batch_prepare",
                        xid=xid,
                        span_ctx=ctx,
                        ops=[op for _, op in groups[shard]],
                    )
                    prepared.append(shard)
                    requirements.extend(ack["requirements"])
                probe_cache: dict[tuple, bool] = {}

                def exists_any(scheme, attrs, value) -> bool:
                    key = (scheme, tuple(attrs), tuple(map(repr, value)))
                    hit = probe_cache.get(key)
                    if hit is None:
                        hit = any(
                            self.shard_client(s).call(
                                "exists",
                                scheme=scheme,
                                attrs=list(attrs),
                                value=list(value),
                                span_ctx=ctx,
                            )["exists"]
                            for s in self.shard_map.shards()
                        )
                        probe_cache[key] = hit
                    return hit

                for req in requirements:
                    message = requirement_violation(req, exists_any)
                    if message is not None:
                        raise RemoteConstraintViolation(
                            message,
                            constraint=req["constraint"],
                            kind="inclusion-dependency"
                            if req["kind"] == "exists"
                            else "restrict-batch",
                            detail=message,
                        )
            except BaseException:
                if router is not None:
                    router.status = "aborted"
                self._abort_all(prepared, xid, ctx)
                raise
            results: list[dict[str, Any] | None] = [None] * len(wire_ops)
            failure: Exception | None = None
            for shard in prepared:
                try:
                    rows = self.shard_client(shard).call(
                        "batch_commit", xid=xid, span_ctx=ctx
                    )
                except Exception as exc:  # commit the rest, then report
                    failure = failure or exc
                    continue
                for (index, _op), row in zip(
                    groups[shard], decode_rows(rows)
                ):
                    results[index] = row
            if failure is not None:
                raise failure
            return results
        finally:
            if router is not None:
                sink.export(router.end())
                sink.export(root.end())

    def _abort_all(
        self, prepared: list[int], xid: str, span_ctx: str | None = None
    ) -> None:
        for shard in prepared:
            try:
                self.shard_client(shard).call(
                    "batch_abort", xid=xid, span_ctx=span_ctx
                )
            except Exception:
                pass  # its hold will expire; rejection already decided

    # -- reads -----------------------------------------------------------

    def get(self, scheme: str, pk: Any) -> dict[str, Any] | None:
        """Primary-key lookup, routed to the owning worker."""
        result = self.shard_client(self._owner(scheme, pk)).call(
            "get", scheme=scheme, pk=_wire_pk(pk)
        )
        return decode_row(result) if result is not None else None

    def exists(
        self, scheme: str, attrs: Sequence[str], value: Sequence[Any]
    ) -> bool:
        """Whether any shard holds a row of ``scheme`` carrying
        ``value`` under ``attrs``."""
        return any(
            self.shard_client(s).call(
                "exists", scheme=scheme, attrs=list(attrs), value=list(value)
            )["exists"]
            for s in self.shard_map.shards()
        )

    def stats(self) -> list[dict[str, Any]]:
        """Every worker's ``stats`` snapshot, in worker order."""
        return [
            self.shard_client(s).call("stats")
            for s in self.shard_map.shards()
        ]
