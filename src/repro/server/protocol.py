"""The JSON-lines wire protocol between :mod:`repro.client` and the
server.

One frame per line, UTF-8 JSON, newline-terminated.  Requests carry a
client-chosen ``id`` (echoed verbatim in the response, so a client can
match responses to requests), a ``verb``, and verb-specific parameters::

    {"id": 1, "verb": "insert", "scheme": "COURSE", "row": {"C.NR": "c1"}}

Requests may also carry an optional ``span`` string -- a
W3C-traceparent-style span context
(:func:`repro.obs.spans.encode_context`).  Its trace id is the
request's one id: every response echoes it as a top-level
``trace_id`` (and inside the ``error`` object of error frames); a
request without a readable context gets a fresh 32-hex id.  A server
running with a span sink parents its server span on the context's span
id -- or roots the fresh id -- so the client's root span, the router's
fan-out, every participant shard's prepare/commit, the group-commit
barrier, and the replica's apply all land in one reassemblable trace,
and the echoed id pastes into ``repro trace --trace-id`` (see
``docs/OBSERVABILITY.md``).  Bit 0 of the context's flags carries the
caller's head-sampling decision.

Responses are either a result frame or a typed error frame::

    {"id": 1, "ok": true, "result": {"C.NR": "c1"}}
    {"id": 2, "ok": false, "error": {"type": "constraint-violation",
        "constraint": "restrict-delete", "kind": "restrict-delete",
        "rule": "Section 5.1 (referential integrity, ...)",
        "message": "..."}}

Error frames for rejected mutations carry the full provenance of the
:class:`~repro.engine.database.ConstraintViolationError` that fired --
``constraint``, ``kind``, ``rule`` and ``detail`` -- so a remote client
learns exactly which paper rule rejected it, the same way an in-process
caller would.  Other error ``type`` values: ``not-found`` (no row under
the given key), ``bad-request`` (malformed frame, unknown verb, bad
parameters), ``wal-error`` (the log refused; the server needs crash
recovery), ``overloaded`` (connection limit), ``shutting-down`` (the
server is draining) and ``server-error`` (anything else).

Attribute values are JSON scalars, except that ``NULL`` travels as the
marker ``{"$null": true}`` -- the same form state files and the
write-ahead log use.  On the way out, :func:`encode_frame`'s JSON
encoder writes the marker wherever it meets ``NULL`` (its ``default``
hook), so rows go into frames exactly as the engine stores them, with
no per-value pass.  On the way in, :func:`decode_rows` runs one C-level
type probe over a batch's values: a JSON object can only be a marker,
so a batch whose values hold none is handed over as parsed, and the
engine adopts those row dicts as its stored rows without copying them.
Only a batch that carries a marker is decoded value by value
(:func:`decode_row`).

Verbs (dispatched by :mod:`repro.server.service`):

========================  =====================================================
``insert``                ``scheme``, ``row`` -> the stored row
``update``                ``scheme``, ``pk``, ``updates`` -> the updated row
``delete``                ``scheme``, ``pk`` -> ``null``
``insert_many``           ``scheme``, ``rows`` -> list of stored rows
``apply_batch``           ``ops`` (list of op arrays) -> list of row/``null``
``get``                   ``scheme``, ``pk`` -> row or ``null``
``join_to``               ``scheme``, ``pk``, ``via``, ``target_scheme``
                          [, ``target_attrs``] -> row or ``null``
``find_referencing``      ``scheme``, ``pk``, ``source_scheme``, ``via``,
                          ``target_attrs`` -> list of rows
``check``                 -> ``{"consistent": bool, "violations": [...]}``
``explain``               ``op``, ``scheme`` -> the EXPLAIN dict
``metrics``               -> Prometheus text exposition (string): the
                          engine counters/histograms plus the
                          server-layer registry
``stats``                 -> the :meth:`EngineStats.snapshot` dict plus
                          a ``server`` key (request/queue gauges and
                          the metric registry snapshot)
``advise``                [``strategy``] -> the merge advisor's report:
                          mined per-IND join counts and per-scheme
                          mutation rates, every candidate family's
                          Section 5 verdicts and workload score, the
                          ``recommendation`` (or ``null``), and the
                          EXPLAIN text
``apply_merge``           [``members``, ``key_relation``,
                          ``merged_name``, ``strategy``] -> apply a
                          merge online in one WAL transaction; with no
                          ``members`` the advisor's recommendation is
                          applied.  Returns ``{"merged_name",
                          "members", "key_relation", "removed",
                          "schemes"}``
``topology``              -> ``{"workers", "worker_id", "host",
                          "ports", "shared_port"}`` -- the shard map a
                          router needs (a plain single-process server
                          reports ``workers: 1`` and an empty port
                          list, meaning "this address serves
                          everything")
``exists``                ``scheme``, ``attrs``, ``value`` -> whether
                          any local row of ``scheme`` carries ``value``
                          under ``attrs`` (the router's cross-shard
                          reference probe; sees held-prepare state)
``batch_prepare``         ``xid``, ``ops`` -> ``{"xid", "requirements"}``
                          -- phase one of a sharded batch: apply the
                          ops in an open transaction, return the
                          reference checks this shard cannot answer
                          alone, and hold the writer until the decision
``batch_commit``          ``xid`` -> list of row/``null`` (the batch's
                          results), after a durability barrier
``batch_abort``           ``xid`` -> ``null``; rolls the prepare back
``repl_snapshot``         -> ``{"state", "lsn", "role"}`` -- the current
                          checkpoint image plus the durable ``lsn`` it
                          covers (a replica's catch-up base); rejected
                          with ``busy`` while a cross-shard prepare is
                          held
``repl_poll``             ``after`` [, ``wait``, ``sync``,
                          ``max_records``] -> ``{"records",
                          "durable_lsn"}`` -- committed log records with
                          ``lsn > after``, long-polling up to ``wait``
                          seconds when caught up; ``sync: true``
                          registers the session as a synchronous
                          replica whose receipt gates mutation acks
``repl_status``           -> ``{"role", "applied_lsn", "durable_lsn",
                          "primary", "replicas"}`` -- where this server
                          stands in the replication topology
``promote``               -> ``{"was", "role", "applied_lsn"}`` -- turn
                          a replica into a read-write primary
                          (idempotent on a primary)
``spans``                 [``limit``] -> ``{"spans", "depth",
                          "dropped", "exported", "sample"}`` -- the
                          span sink's ring buffer, oldest first (the
                          live collection path of ``repro trace``);
                          empty with no sink configured
========================  =====================================================

Sharding (see ``docs/SERVER.md``): each worker of a sharded fleet owns
the rows whose primary key hashes to it (:mod:`repro.server.router`).
Single-shard mutations sent to the wrong worker are rejected with a
``wrong-shard`` error frame carrying the owning ``worker`` index;
``batch_commit``/``batch_abort`` for an unknown transfer id get
``no-prepared-batch``, and a decision arriving after the hold timed out
gets ``prepare-expired``.

Replication (see ``docs/REPLICATION.md``): a replica answers reads
normally but rejects every mutation and decision verb with a
``read-only-replica`` error frame naming its ``primary``, so a client
that writes to the wrong end of the pair learns where to go.
``repl_snapshot`` during a held prepare gets ``busy`` (retry shortly).
"""

from __future__ import annotations

import json
from itertools import chain, compress, repeat
from operator import is_, itemgetter
from typing import Any, Iterable, Mapping

from repro.io.state_json import (  # noqa: F401 - decode_row(s) re-exported
    decode_row,
    decode_rows,
    decode_value,
    encode_value,
    null_default,
)
from repro.relational.tuples import key_value

#: Hard cap on one frame's length in bytes (newline included).  A
#: JSON-lines protocol has no other framing, so an unbounded line is an
#: unbounded memory commitment per connection; oversized requests are
#: rejected with a ``bad-request`` frame and the connection is closed.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Every verb the service dispatches; requests naming anything else are
#: answered with a ``bad-request`` error frame.
VERBS = (
    "insert",
    "update",
    "delete",
    "insert_many",
    "apply_batch",
    "get",
    "join_to",
    "find_referencing",
    "check",
    "explain",
    "advise",
    "apply_merge",
    "metrics",
    "stats",
    "topology",
    "exists",
    "batch_prepare",
    "batch_commit",
    "batch_abort",
    "repl_snapshot",
    "repl_poll",
    "repl_status",
    "promote",
    "spans",
)

#: The verbs that mutate state and therefore go through the
#: single-writer group-commit path (the rest execute as snapshot reads).
#: ``batch_commit``/``batch_abort`` are neither: they are decisions
#: delivered straight to the writer already holding their prepare.
MUTATION_VERBS = frozenset(
    (
        "insert",
        "update",
        "delete",
        "insert_many",
        "apply_batch",
        "batch_prepare",
        "apply_merge",
    )
)

#: Decision verbs for a held prepare (routed around the mutation queue).
DECISION_VERBS = frozenset(("batch_commit", "batch_abort"))

#: WAL-shipping verbs (``promote`` included: it flips the role the
#: others are gated on).  Handled outside the mutation queue -- a
#: replica poll parks on the commit signal, never on the writer.
REPLICATION_VERBS = frozenset(
    ("repl_snapshot", "repl_poll", "repl_status", "promote")
)


class ProtocolError(ValueError):
    """A frame could not be parsed (bad JSON, missing fields, too big)."""


class WrongShardError(Exception):
    """A single-shard request landed on a worker that does not own its
    primary key; the error frame carries the owning worker index so a
    router-less client can still find its way."""

    def __init__(self, worker: int):
        super().__init__(f"row belongs to worker {worker}")
        self.worker = worker


class RemoteError(RuntimeError):
    """An error frame, raised client-side.

    ``type`` is the error frame's type string; ``detail`` whatever extra
    the frame carried.
    """

    def __init__(self, type: str, message: str, **extra: Any):
        super().__init__(f"{type}: {message}")
        self.type = type
        self.message = message
        self.extra = extra


class RemoteConstraintViolation(RemoteError):
    """A server-side :class:`ConstraintViolationError`, re-raised
    client-side with its full provenance (``constraint``, ``kind``,
    ``rule``, ``detail``)."""

    def __init__(self, message: str, **extra: Any):
        super().__init__("constraint-violation", message, **extra)
        self.constraint = extra.get("constraint", "")
        self.kind = extra.get("kind", "")
        self.rule = extra.get("rule", "")
        self.detail = extra.get("detail", "")


# -- row / value encoding ------------------------------------------------------


def encode_row(row: Mapping[str, Any]) -> dict[str, Any]:
    """A tuple's attribute mapping in wire form (NULL -> marker)."""
    return {k: encode_value(v) for k, v in row.items()}


def decode_pk(pk: Iterable[Any]) -> Any:
    """A wire-form key (a value list) in the engine's form: the bare
    value for one attribute, the value tuple for more."""
    return key_value(tuple(map(decode_value, pk)))


# -- request parameters --------------------------------------------------------


def require(frame: Mapping[str, Any], key: str, kind: type) -> Any:
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
        return ("update", raw[1], key_value(tuple(raw[2])), raw[3])
    return ("delete", raw[1], key_value(tuple(raw[2])))


def _plain_batch_ops(raw_ops: list) -> list[tuple] | None:
    """The engine op tuples of a well-formed batch that carries no
    ``NULL`` marker, built by C-level passes over the ops; ``None``
    for anything else.

    Shape is proved batch-wide with exact types (every op is a list,
    and its kind, length and element types form one of
    :data:`_OP_SHAPES`); one type probe over every row value and key
    component then finds any marker, since only a marker is a JSON
    object.  Rows are passed on as parsed, and keys take the engine's
    form (:func:`decode_pk`).
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
    keys = map(key_value, map(tuple, thirds))
    if kinds[0] == "delete":
        return list(zip(kinds, schemes, keys))
    return list(zip(kinds, schemes, keys, lasts))


def decode_batch_ops(raw_ops: list) -> list[tuple]:
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


# -- framing -------------------------------------------------------------------


#: Compact JSON that writes a ``NULL`` anywhere as the null marker.
#: Frames are trees, so the cycle check (about half of the encoding
#: time of a bulk response) is skipped.
_encoder = json.JSONEncoder(
    separators=(",", ":"), default=null_default, check_circular=False
)


def encode_frame(frame: Mapping[str, Any]) -> bytes:
    """One wire line: compact JSON + newline (``NULL`` as the marker)."""
    return _encoder.encode(frame).encode("utf-8") + b"\n"


def decode_frame(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line into a frame dict.

    Raises :class:`ProtocolError` on anything that is not a JSON object
    (framing never resyncs mid-connection, so the caller should close).
    """
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame of {len(line)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte limit"
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not valid UTF-8: {exc}") from exc
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError("frame must be a JSON object")
    return frame


def request_frame(id: Any, verb: str, **params: Any) -> dict[str, Any]:
    """A request frame (client side)."""
    frame = {"id": id, "verb": verb}
    frame.update(params)
    return frame


def ok_frame(id: Any, result: Any) -> dict[str, Any]:
    """A success response frame."""
    return {"id": id, "ok": True, "result": result}


def error_frame(
    id: Any, type: str, message: str, **extra: Any
) -> dict[str, Any]:
    """A typed error response frame."""
    error: dict[str, Any] = {"type": type, "message": message}
    error.update({k: v for k, v in extra.items() if v is not None})
    return {"id": id, "ok": False, "error": error}


def violation_frame(id: Any, exc: Any) -> dict[str, Any]:
    """The error frame of one rejected mutation, carrying the
    :class:`ConstraintViolationError`'s full provenance."""
    return error_frame(
        id,
        "constraint-violation",
        str(exc),
        constraint=exc.constraint,
        kind=exc.kind,
        rule=exc.rule,
        detail=exc.detail,
    )


def raise_error(frame: Mapping[str, Any]) -> None:
    """Client side: raise the matching exception for an error frame."""
    error = frame.get("error")
    if not isinstance(error, Mapping):
        raise ProtocolError(f"malformed error frame: {frame!r}")
    type_ = str(error.get("type", "server-error"))
    message = str(error.get("message", ""))
    extra = {k: v for k, v in error.items() if k not in ("type", "message")}
    if type_ == "constraint-violation":
        raise RemoteConstraintViolation(message, **extra)
    raise RemoteError(type_, message, **extra)
