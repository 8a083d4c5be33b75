"""Append-only, checksummed write-ahead log for the storage engine.

Definition 2.1's bijection between consistent states makes durability a
correctness property, not just an operational one: a crash must never
leave the database in a state outside the consistent-state family, and
recovery must restore *exactly* the pre-crash consistent state.  This
module provides the log; :mod:`repro.engine.recovery` provides the
replay and :mod:`repro.engine.faults` the deterministic fault injection
the crash-point test matrix is built on.

Wire format
-----------

The log is a sequence of length-prefixed, CRC-checksummed JSON records,
one per line::

    llllllll cccccccc {"lsn":1,"op":"header","version":1}\\n

where ``llllllll`` is the payload length in bytes (lowercase hex, zero
padded), ``cccccccc`` the payload's ``zlib.crc32`` (same formatting),
and the payload compact JSON with sorted keys.  A record whose payload
is shorter than its declared length (a torn write), fails its checksum,
or has a malformed header ends the readable log: recovery truncates the
file there and never applies a partial record.  ``NULL`` attribute
values use the same ``{"$null": true}`` marker as
:mod:`repro.io.state_json`, so a recovered tuple re-enters the same
null-synchronization/part-null equivalence class it left.

Record kinds (the ``op`` field): ``header``, ``insert``, ``update``,
``delete``, ``batch`` (one whole ``insert_many``/``apply_batch``, see
:func:`batch_record`), ``load_state``, ``merge``,
``begin``/``commit``/``abort``/``rollback`` (transaction markers) and
``snapshot`` (the checkpoint image: the state in the
:mod:`repro.io.state_json` format, plus the ``schema`` once an online
merge evolved it; see ``Database.snapshot_image``).  Every record
carries a monotonically increasing ``lsn``.  Version 2 logs add the
``batch`` kind; version 3 writes a ``batch`` record's insert runs as
value columns and its single-attribute delete keys bare.  Version 1
and 2 logs recover unchanged: :func:`record_runs` reads every shape.

Write-ahead discipline
----------------------

The engine appends a mutation's record *after* constraint validation
but *before* touching any table, so the log never holds a constraint-
violating mutation and the in-memory state never holds a mutation the
log lost.  Mutations outside a transaction are committed the moment
their record is durable; mutations inside one are bracketed by
``begin``/``commit`` markers and are rolled back at recovery when the
``commit`` is missing.  A bulk mutation is one ``batch`` record,
appended once the whole batch has validated: its checksum makes it
atomic, so it needs no bracket of its own.  A failed append poisons
the log (every later append raises :class:`WalError`): after a storage
fault the process must crash and recover, exactly like the DBMSs of
Section 5.1 after a failed ``ROLLBACK TRANSACTION``.

The file layer is abstracted behind the :class:`Storage` protocol so
tests can inject :class:`repro.engine.faults.FaultyStorage` and crash
the log at every write deterministically.

Group commit
------------

:class:`FileStorage` flushes per record by default; with
``buffered=True`` appends stay in the userspace buffer and only
:meth:`WriteAheadLog.sync` makes them durable, so many concurrent
writers' records share a single flush/fsync (the group-commit path the
server's single-writer task drives -- see ``docs/SERVER.md``).  Nothing
is acknowledged durable until the sync returns; a crash between append
and sync loses only unacknowledged records, which recovery's torn-tail
truncation already tolerates.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import Any, Mapping, Protocol, Sequence

from repro.io.state_json import (
    decode_rows,
    decode_value,
    encode_value,
    null_default,
)
from repro.relational.tuples import key_tuple, key_value

#: Format version stamped into every ``header`` record (2 added the
#: ``batch`` record, 3 stores its insert runs as value columns and its
#: single-attribute delete keys bare; version 1 and 2 logs still
#: recover).
WAL_VERSION = 3

#: Bytes of the ``llllllll cccccccc `` record prefix.
_PREFIX_LEN = 18


class WalError(RuntimeError):
    """The log cannot be used: broken framing, misuse (commit without a
    transaction, checkpoint inside one), or a handle poisoned by an
    earlier storage fault."""


# -- the storage protocol and its stock implementations -----------------------


class Storage(Protocol):
    """A byte sink/source the log appends to.

    Implementations must make :meth:`append` atomic-or-detectable: a
    partial append is acceptable only because every record carries its
    length and checksum, letting recovery truncate the torn tail.
    :meth:`replace` (used by checkpoints) should be atomic where the
    medium allows it.
    """

    def append(self, data: bytes) -> None:
        """Append ``data`` at the end."""
        ...  # pragma: no cover - protocol

    def read(self) -> bytes:
        """The full current contents."""
        ...  # pragma: no cover - protocol

    def truncate(self, size: int) -> None:
        """Drop everything beyond ``size`` bytes."""
        ...  # pragma: no cover - protocol

    def replace(self, data: bytes) -> None:
        """Atomically swap the full contents for ``data``."""
        ...  # pragma: no cover - protocol

    def size(self) -> int:
        """Current length in bytes."""
        ...  # pragma: no cover - protocol

    def sync(self) -> None:
        """Make every appended byte durable (group-commit barrier).

        Storage that flushes per :meth:`append` may make this a no-op;
        buffered storage flushes (and optionally fsyncs) here, so many
        appends share one durability point.
        """
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release any underlying resources (idempotent)."""
        ...  # pragma: no cover - protocol


class MemoryStorage:
    """In-memory :class:`Storage`; the unit tests' default medium."""

    def __init__(self, data: bytes = b""):
        self._data = bytearray(data)

    def append(self, data: bytes) -> None:
        """Append ``data`` at the end."""
        self._data.extend(data)

    def read(self) -> bytes:
        """The full current contents."""
        return bytes(self._data)

    def read_from(self, offset: int) -> bytes:
        """The contents from ``offset`` to the end (replication tail)."""
        return bytes(self._data[offset:])

    def truncate(self, size: int) -> None:
        """Drop everything beyond ``size`` bytes."""
        del self._data[size:]

    def replace(self, data: bytes) -> None:
        """Swap the full contents for ``data``."""
        self._data = bytearray(data)

    def size(self) -> int:
        """Current length in bytes."""
        return len(self._data)

    def sync(self) -> None:
        """No-op; memory appends are already "durable"."""

    def close(self) -> None:
        """No-op; memory needs no release."""


class FileStorage:
    """File-backed :class:`Storage`.

    Appends go through a persistent ``'ab'`` handle.  In the default
    (unbuffered) mode every append is flushed immediately (``fsync=True``
    additionally syncs the OS buffers, trading throughput for power-loss
    durability).  With ``buffered=True`` appends land in the handle's
    userspace buffer and only :meth:`sync` flushes (and optionally
    fsyncs) them -- the group-commit mode, where many records share one
    flush and nothing is promised durable until the sync returns.

    :meth:`replace` writes a sibling temporary file and ``os.replace``\\ s
    it over the log, so a checkpoint is atomic: a crash leaves either
    the old log or the new snapshot, never a mix.  With ``fsync=True``
    it also fsyncs the directory after the rename, so the swap itself
    survives a power loss.

    :meth:`close` is idempotent; appending (or syncing) after close
    raises :class:`WalError` instead of the raw ``ValueError`` a closed
    file handle would.
    """

    def __init__(self, path: str, fsync: bool = False, buffered: bool = False):
        self.path = str(path)
        self.fsync = fsync
        self.buffered = buffered
        self._fh = open(self.path, "ab")
        self._closed = False

    def _handle(self):
        if self._closed:
            raise WalError(
                f"storage for {self.path!r} is closed; open a fresh "
                "FileStorage (or recover) before appending further"
            )
        return self._fh

    def append(self, data: bytes) -> None:
        """Append ``data``; unbuffered mode flushes (and optionally
        fsyncs) it immediately, buffered mode defers to :meth:`sync`."""
        fh = self._handle()
        fh.write(data)
        if not self.buffered:
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())

    def sync(self) -> None:
        """Flush buffered appends to the OS (and fsync when asked) --
        the single durability point a group commit shares."""
        fh = self._handle()
        fh.flush()
        if self.fsync:
            os.fsync(fh.fileno())

    def read(self) -> bytes:
        """The full current file contents."""
        self._handle().flush()
        with open(self.path, "rb") as f:
            return f.read()

    def read_from(self, offset: int) -> bytes:
        """The contents from ``offset`` to the end, without rereading
        the (potentially large) prefix a replication cursor already
        shipped."""
        self._handle().flush()
        with open(self.path, "rb") as f:
            f.seek(offset)
            return f.read()

    def truncate(self, size: int) -> None:
        """Drop everything beyond ``size`` bytes (O_APPEND writes keep
        landing at the new end)."""
        self._handle().flush()
        os.truncate(self.path, size)

    def replace(self, data: bytes) -> None:
        """Atomically swap the file contents via a temp file + rename."""
        self._handle()  # refuse after close, before touching the file
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            if self.fsync:
                os.fsync(f.fileno())
        os.replace(tmp, self.path)
        if self.fsync:
            # The rename lives in the directory: sync it too, or a
            # power loss can bring back the old log under the name.
            directory = os.path.dirname(os.path.abspath(self.path))
            fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        self._fh.close()
        self._fh = open(self.path, "ab")

    def size(self) -> int:
        """Current file length in bytes."""
        self._handle().flush()
        return os.path.getsize(self.path)

    def close(self) -> None:
        """Close the append handle (safe to call more than once)."""
        if self._closed:
            return
        self._closed = True
        self._fh.close()


# -- record encoding ----------------------------------------------------------


#: Compact, key-sorted JSON; a ``NULL`` anywhere in the payload becomes
#: the null marker, so bulk records can carry rows as stored.  Records
#: are trees of rows and keys, so the encoder skips the cycle check
#: (its per-container bookkeeping is about half the encoding time).
_encoder = json.JSONEncoder(
    sort_keys=True,
    separators=(",", ":"),
    default=null_default,
    check_circular=False,
)


def encode_record(payload: Mapping[str, Any]) -> bytes:
    """One wire-format line: ``llllllll cccccccc <compact json>\\n``."""
    body = _encoder.encode(payload).encode("utf-8")
    return b"%08x %08x " % (len(body), zlib.crc32(body)) + body + b"\n"


@dataclass
class ParsedWal:
    """The readable prefix of a log: records, where it ends, and why."""

    records: list[dict]
    valid_bytes: int
    total_bytes: int
    #: Why parsing stopped before ``total_bytes`` (``None`` = clean log).
    error: str | None

    @property
    def torn(self) -> bool:
        """Whether the log carries unreadable trailing bytes."""
        return self.valid_bytes < self.total_bytes


def _parse_one(
    data: bytes, offset: int
) -> tuple[dict | None, int, str | None]:
    """Parse the single record starting at ``offset``.

    Returns ``(record, next_offset, None)`` on success and
    ``(None, offset, error)`` when the bytes at ``offset`` are torn,
    corrupt, or malformed (the offset never advances past an unreadable
    record)."""
    newline = data.find(b"\n", offset)
    if newline < 0:
        return None, offset, "torn record (no terminating newline)"
    line = data[offset:newline]
    if (
        len(line) < _PREFIX_LEN
        or line[8:9] != b" "
        or line[17:18] != b" "
    ):
        return None, offset, "malformed record prefix"
    try:
        length = int(line[:8], 16)
        crc = int(line[9:17], 16)
    except ValueError:
        return None, offset, "malformed record prefix"
    body = line[_PREFIX_LEN:]
    if len(body) != length:
        return None, offset, (
            f"record length mismatch (declared {length}, found "
            f"{len(body)}; torn write)"
        )
    if zlib.crc32(body) != crc:
        return None, offset, "record checksum mismatch"
    try:
        payload = json.loads(body)
    except json.JSONDecodeError:
        return None, offset, "record payload is not valid JSON"
    if not isinstance(payload, dict) or "op" not in payload:
        return None, offset, "record payload is not an op object"
    return payload, newline + 1, None


def parse_wal(data: bytes) -> ParsedWal:
    """Parse a log image, stopping (never resyncing) at the first torn,
    corrupt, or malformed record -- everything after an unreadable
    record is untrustworthy and gets truncated by recovery."""
    records: list[dict] = []
    offset = 0
    total = len(data)
    error: str | None = None
    while offset < total:
        record, offset, error = _parse_one(data, offset)
        if record is None:
            break
        records.append(record)
    return ParsedWal(records, offset, total, error)


# -- mutation-record constructors ---------------------------------------------


def insert_record(scheme: str, row: Mapping[str, Any]) -> dict:
    """The log payload of one accepted insert."""
    return {
        "op": "insert",
        "scheme": scheme,
        "row": {k: encode_value(v) for k, v in row.items()},
    }


def update_record(scheme: str, pk: Any, updates: Mapping[str, Any]) -> dict:
    """The log payload of one accepted update (the key as a value list,
    whatever its number of attributes)."""
    return {
        "op": "update",
        "scheme": scheme,
        "pk": [encode_value(v) for v in key_tuple(pk)],
        "updates": {k: encode_value(v) for k, v in updates.items()},
    }


def delete_record(scheme: str, pk: Any) -> dict:
    """The log payload of one accepted delete (the key as a value list)."""
    return {
        "op": "delete",
        "scheme": scheme,
        "pk": [encode_value(v) for v in key_tuple(pk)],
    }


def merge_record(
    members: Sequence[str],
    key_relation: str | None = None,
    merged_name: str | None = None,
) -> dict:
    """The log payload of one online schema merge (see
    :meth:`repro.engine.database.Database.apply_merge_online`).

    Only the family *spec* is logged -- ``Merge`` (Definition 4.1), the
    ``Remove`` cleanup and the eta state mapping are deterministic given
    the pre-merge schema, so recovery recomputes them instead of
    trusting a logged image.  The record always travels inside a
    ``begin``/``commit`` bracket: a crash before the commit marker
    recovers the unmerged schema, after it the merged one -- never a
    torn hybrid.
    """
    return {
        "op": "merge",
        "members": list(members),
        "key_relation": key_relation,
        "merged_name": merged_name,
        "remove": True,
    }


def op_runs(ops: Sequence[tuple]) -> list[tuple[str, str, list]]:
    """Group ``apply_batch`` op tuples into runs: maximal stretches of
    consecutive ops with the same kind and scheme, in batch order.

    A run is ``(kind, scheme, items)``; an item is the row mapping of an
    insert, the primary key of a delete, or a ``(pk, updates)`` pair of
    an update, with every key in the engine's form
    (:func:`~repro.relational.tuples.key_value`: a 1-tuple key becomes
    its bare value).  The grouping is strict about arity -- a malformed
    op raises ``IndexError``, ``TypeError`` or ``ValueError`` -- and
    leaves an unknown kind as a run of its own for the validators to
    refuse."""
    runs: list[tuple[str, str, list]] = []
    kind = scheme = None
    items: list = []
    for op in ops:
        if op[0] == "update":
            _, name, pk, updates = op
            item = (key_value(pk), updates)
        else:
            _, name, item = op
            if op[0] == "delete":
                item = key_value(item)
        if op[0] != kind or name != scheme:
            kind, scheme, items = op[0], name, []
            runs.append((kind, scheme, items))
        items.append(item)
    return runs


def run_ops(runs: Sequence[tuple[str, str, Sequence]]) -> list[tuple]:
    """The ``apply_batch`` op tuples ``runs`` group (inverse of
    :func:`op_runs`), for the row-at-a-time path."""
    ops: list[tuple] = []
    for kind, scheme, items in runs:
        if kind == "update":
            ops.extend((kind, scheme, pk, updates) for pk, updates in items)
        else:
            ops.extend(zip(repeat(kind), repeat(scheme), items))
    return ops


def batch_record(runs: Sequence[tuple[str, str, Sequence]]) -> dict:
    """The log payload of one accepted ``insert_many``/``apply_batch``.

    ``runs`` lists ``(kind, scheme, items)`` stretches in batch order
    (see :func:`op_runs`).  The record stores them by columns: an insert
    run is one value list per attribute, and a delete run lists its
    keys as the runs hold them -- bare values for a one-attribute key,
    value lists for a composite one.  An update run keeps its ``[pk,
    updates]`` items, each key a value list.  The payload otherwise holds the
    caller's objects as they are -- the encoder writes a ``NULL``
    anywhere as the null marker -- so logging a batch costs C-level
    column passes and one JSON pass, not a per-value Python loop.
    Replay reads the runs back with :func:`record_runs` and applies
    them with ``Database.apply_runs``, whose deferred reference checks
    accept exactly what the original batch accepted.
    """
    return {"op": "batch", "runs": [_encode_run(*run) for run in runs]}


def _encode_run(kind: str, scheme: str, items: Sequence) -> tuple:
    if kind == "insert":
        # Every row of an accepted run has its scheme's attributes.
        names = tuple(items[0])
        if len(names) == 1:
            columns = {names[0]: list(map(itemgetter(names[0]), items))}
        else:
            columns = dict(zip(names, zip(*map(itemgetter(*names), items))))
        return (kind, scheme, columns)
    if kind == "update" and not isinstance(items[0][0], tuple):
        # One-attribute keys are logged as value lists, as ever.
        items = [((pk,), updates) for pk, updates in items]
    return (kind, scheme, items)


def record_runs(record: Mapping[str, Any]) -> list[tuple[str, str, list]]:
    """A mutation or ``batch`` record as the runs it replays as, with
    every null marker decoded.

    A ``batch`` record of any version decodes run by run: one C-level
    type probe per run finds whether a marker (the only JSON object a
    value can be) is present, and a run without one is rebuilt from the
    parsed values with no per-value decode.  A single-op record becomes
    a run of one item."""
    if record["op"] != "batch":
        op = decode_batch_op(record)
        if op[0] == "update":
            return [("update", op[1], [(op[2], op[3])])]
        return [(op[0], op[1], [op[2]])]
    return [_decode_run(*run) for run in record["runs"]]


def _decode_run(kind: str, scheme: str, items) -> tuple[str, str, list]:
    if kind == "insert":
        if type(items) is dict:
            return (kind, scheme, _column_rows(items))
        return (kind, scheme, decode_rows(items))  # a version 2 run
    if kind == "delete":
        return (kind, scheme, _decode_keys(items))
    if kind == "update":
        pks = _decode_keys(list(map(itemgetter(0), items)))
        updates = decode_rows(list(map(itemgetter(1), items)))
        return (kind, scheme, list(zip(pks, updates)))
    raise WalError(f"batch run kind {kind!r} is not a mutation")


def _column_rows(columns: Mapping[str, list]) -> list[dict]:
    """The row dicts of a version 3 insert run's value columns."""
    cols = list(columns.values())
    if len(set(map(len, cols))) != 1:
        raise WalError("batch insert run has columns of unequal length")
    if dict in set(map(type, chain.from_iterable(cols))):
        cols = [
            list(map(decode_value, col)) if dict in set(map(type, col)) else col
            for col in cols
        ]
    return list(map(dict, map(zip, repeat(tuple(columns)), zip(*cols))))


def _decode_keys(items: list) -> list:
    """Primary keys of a run in the engine's form, from bare
    single-attribute values (version 3 deletes) or value lists (a
    one-value list is a bare key too)."""
    types = set(map(type, items))
    if list in types:
        if len(types) != 1:
            raise WalError("batch run mixes bare and listed keys")
        if set(map(len, items)) != {1}:
            keys = list(map(tuple, items))
            if dict in set(map(type, chain.from_iterable(keys))):
                keys = [tuple(map(decode_value, k)) for k in keys]
            return keys
        items = list(chain.from_iterable(items))
        types = set(map(type, items))
    if dict in types:
        return list(map(decode_value, items))
    return items


def decode_batch_op(record: Mapping[str, Any]) -> tuple:
    """A mutation record as the ``apply_batch`` op tuple it replays as."""
    op = record["op"]
    if op == "insert":
        return (
            "insert",
            record["scheme"],
            {k: decode_value(v) for k, v in record["row"].items()},
        )
    if op == "update":
        return (
            "update",
            record["scheme"],
            key_value(tuple(map(decode_value, record["pk"]))),
            {k: decode_value(v) for k, v in record["updates"].items()},
        )
    if op == "delete":
        return (
            "delete",
            record["scheme"],
            key_value(tuple(map(decode_value, record["pk"]))),
        )
    raise WalError(f"record op {op!r} is not a mutation")


# -- the log itself -----------------------------------------------------------


class WriteAheadLog:
    """The engine's append-only mutation log over one :class:`Storage`.

    A fresh log stamps a ``header`` record; attaching to storage that
    already holds mutations raises :class:`WalError` -- go through
    :meth:`repro.engine.database.Database.recover`, which replays the
    log and resumes it with continuous ``lsn``/transaction counters.

    ``stats`` (set by the owning database) receives ``wal_records`` /
    ``wal_bytes`` increments per durable record.
    """

    def __init__(self, storage: Storage, stats=None):
        self.storage = storage
        #: The owning engine's :class:`~repro.engine.stats.EngineStats`.
        self.stats = stats
        self._broken = False
        self._txn: int | None = None
        self._txn_failed = False
        self._next_lsn = 1
        self._next_txn = 1
        self.records_appended = 0
        self.bytes_appended = 0
        #: Records appended since the last :meth:`sync` (what one group
        #: commit will make durable).
        self.unsynced_records = 0
        if storage.size() == 0:
            self.append({"op": "header", "version": WAL_VERSION})
            # The bootstrap header is not a client mutation: it should
            # never count toward a group commit's batch (the first
            # barrier's flush still covers its bytes).
            self.unsynced_records = 0
        else:
            parsed = parse_wal(storage.read())
            if parsed.torn:
                raise WalError(
                    f"log has an unreadable tail ({parsed.error}); "
                    "recover it with Database.recover"
                )
            if any(r["op"] != "header" for r in parsed.records):
                raise WalError(
                    "log already holds mutations; replay it with "
                    "Database.recover instead of attaching a fresh engine"
                )
            if parsed.records:
                self._next_lsn = (
                    max(r.get("lsn", 0) for r in parsed.records) + 1
                )

    @classmethod
    def open(
        cls, path: str, fsync: bool = False, buffered: bool = False
    ) -> "WriteAheadLog":
        """A log over :class:`FileStorage` at ``path``; ``buffered``
        selects the group-commit mode (appends become durable only at
        :meth:`sync`)."""
        return cls(FileStorage(path, fsync=fsync, buffered=buffered))

    @classmethod
    def _resume(
        cls, storage: Storage, next_lsn: int, next_txn: int, stats=None
    ) -> "WriteAheadLog":
        """Recovery's constructor: continue an existing, repaired log."""
        log = cls.__new__(cls)
        log.storage = storage
        log.stats = stats
        log._broken = False
        log._txn = None
        log._txn_failed = False
        log._next_lsn = next_lsn
        log._next_txn = next_txn
        log.records_appended = 0
        log.bytes_appended = 0
        log.unsynced_records = 0
        return log

    # -- introspection ---------------------------------------------------

    @property
    def next_lsn(self) -> int:
        """The ``lsn`` the next record will carry."""
        return self._next_lsn

    @property
    def in_txn(self) -> bool:
        """Whether a ``begin`` marker is awaiting its ``commit``."""
        return self._txn is not None

    @property
    def broken(self) -> bool:
        """Whether a storage fault poisoned this handle."""
        return self._broken

    @property
    def durable_lsn(self) -> int:
        """The highest ``lsn`` known durable (appended *and* synced).

        Records past this point may still be sitting in the userspace
        buffer; a crash would tear them off, so replication must never
        ship them (a replica could otherwise hold records its primary
        loses).  Because the server's group-commit barrier always syncs
        at transaction-group boundaries, this never splits a
        ``begin``..``commit`` group."""
        return self._next_lsn - 1 - self.unsynced_records

    # -- appends ---------------------------------------------------------

    def append(self, payload: Mapping[str, Any]) -> int:
        """Durably append one record (stamping its ``lsn``); returns the
        ``lsn``.  A storage fault poisons the log and re-raises."""
        if self._broken:
            raise WalError(
                "write-ahead log is poisoned by an earlier storage fault; "
                "crash-recover before mutating further"
            )
        lsn = self._next_lsn
        record = dict(payload)
        record["lsn"] = lsn
        data = encode_record(record)
        try:
            self.storage.append(data)
        except Exception:
            self._broken = True
            if self._txn is not None:
                self._txn_failed = True
            raise
        self._next_lsn = lsn + 1
        self.records_appended += 1
        self.bytes_appended += len(data)
        self.unsynced_records += 1
        if self.stats is not None:
            self.stats.wal_records += 1
            self.stats.wal_bytes += len(data)
        return lsn

    def sync(self) -> int:
        """Group-commit barrier: make every record appended since the
        last sync durable in one storage flush; returns how many records
        the barrier covered.  Counts one ``wal_group_commits`` (and the
        batch size into ``wal_batched_records``) when records were
        pending.  A storage fault poisons the log and re-raises -- the
        batch is not durable and its mutations must not be acked."""
        if self._broken:
            raise WalError(
                "write-ahead log is poisoned by an earlier storage fault; "
                "crash-recover before syncing further"
            )
        batched = self.unsynced_records
        try:
            self.storage.sync()
        except Exception:
            self._broken = True
            raise
        self.unsynced_records = 0
        if batched and self.stats is not None:
            self.stats.wal_group_commits += 1
            self.stats.wal_batched_records += batched
        return batched

    # -- transaction markers ---------------------------------------------

    def begin(self) -> int:
        """Open a transaction group; returns its id."""
        if self._txn is not None:
            raise WalError("a log transaction is already open")
        txn = self._next_txn
        self.append({"op": "begin", "txn": txn})
        self._next_txn = txn + 1
        self._txn = txn
        self._txn_failed = False
        return txn

    def commit(self) -> None:
        """Close the open group with a ``commit`` marker.  Raises
        :class:`WalError` (without writing the marker) when the group
        lost a record to a storage fault -- the caller must then undo
        the in-memory transaction, keeping memory and log agreed that
        the group never committed."""
        if self._txn is None:
            raise WalError("no log transaction to commit")
        txn = self._txn
        if self._txn_failed or self._broken:
            self._txn = None
            raise WalError(
                f"log transaction {txn} lost records to a storage fault; "
                "it cannot commit"
            )
        try:
            self.append({"op": "commit", "txn": txn})
        finally:
            self._txn = None

    def abort(self) -> None:
        """Close the open group with an ``abort`` marker (best effort:
        recovery drops an unterminated group anyway, so a failure to
        write the marker is swallowed)."""
        if self._txn is None:
            return
        txn = self._txn
        self._txn = None
        if self._broken:
            return
        try:
            self.append({"op": "abort", "txn": txn})
        except Exception:
            pass  # the group has no commit marker; recovery drops it

    def rollback(self, to_lsn: int) -> None:
        """Cancel the open group's records with ``lsn >= to_lsn`` (an
        inner transaction block unwound without aborting the outer one).
        Best effort: a failed append poisons the group, so its commit
        will refuse and recovery drops the whole group."""
        if self._txn is None:
            return
        if self._broken:
            self._txn_failed = True
            return
        try:
            self.append(
                {"op": "rollback", "txn": self._txn, "to_lsn": to_lsn}
            )
        except Exception:
            pass  # append() already marked the transaction failed

    # -- checkpointing ---------------------------------------------------

    def write_snapshot(
        self,
        state_dict: Mapping[str, Any],
        schema_dict: Mapping[str, Any] | None = None,
    ) -> int:
        """Compact the log to ``header`` + one ``snapshot`` record
        holding ``state_dict`` (the :func:`repro.io.state_json` image);
        returns the snapshot's ``lsn``.  The swap is atomic under
        :class:`FileStorage`.

        ``schema_dict`` (the :func:`repro.io.relational_json` image)
        embeds the schema the snapshot is an instance of.  A database
        whose schema evolved online (:func:`merge_record`) must pass it,
        or a later recovery would interpret the compacted image against
        the schema file it was booted from; without it the record is
        byte-identical to the pre-advisor format.
        """
        if self._txn is not None:
            raise WalError("cannot checkpoint inside a transaction")
        if self._broken:
            raise WalError(
                "write-ahead log is poisoned by an earlier storage fault; "
                "crash-recover before checkpointing"
            )
        header_lsn = self._next_lsn
        snapshot_lsn = header_lsn + 1
        snapshot: dict[str, Any] = {
            "op": "snapshot",
            "state": dict(state_dict),
            "lsn": snapshot_lsn,
        }
        if schema_dict is not None:
            snapshot["schema"] = dict(schema_dict)
        data = encode_record(
            {"op": "header", "version": WAL_VERSION, "lsn": header_lsn}
        ) + encode_record(snapshot)
        try:
            self.storage.replace(data)
        except Exception:
            self._broken = True
            raise
        self._next_lsn = snapshot_lsn + 1
        self.unsynced_records = 0  # the replace persisted everything
        self.records_appended += 2
        self.bytes_appended += len(data)
        if self.stats is not None:
            self.stats.wal_records += 2
            self.stats.wal_bytes += len(data)
        return snapshot_lsn

    def close(self) -> None:
        """Close the underlying storage, flushing any buffered records
        first (best effort -- a poisoned log skips the flush)."""
        if not self._broken and self.unsynced_records:
            try:
                self.sync()
            except (WalError, OSError):
                pass  # unsynced records were never acked durable
        self.storage.close()


# -- replication cursor --------------------------------------------------------


class WalCursor:
    """An incremental reader over a live log's storage, for WAL shipping.

    One cursor per replication session: :meth:`read_after` parses from
    the byte offset the previous call stopped at, so a busy primary
    never re-parses the prefix it already shipped.  Three live-log
    hazards are handled here rather than by the caller:

    - **Unsynced tails.**  The offset only advances past records with
      ``lsn <= up_to_lsn`` (the primary's :attr:`WriteAheadLog.durable_lsn`).
      Buffered-but-unsynced records are visible in the file yet could
      still be torn off by a crash; skipping the offset past them would
      lose them forever once they *do* sync.
    - **Torn bytes.**  A partially flushed record parses as torn; the
      cursor stops before it without advancing, and simply retries on
      the next poll once the rest of the bytes land.
    - **Checkpoint compaction.**  :meth:`WriteAheadLog.write_snapshot`
      replaces the file with a shorter one; ``storage.size()`` dropping
      below the cursor's offset detects that, the cursor resets to byte
      0, and the snapshot record (whose ``lsn`` exceeds anything
      shipped before the compaction) flows to the replica as a fresh
      base image.
    """

    def __init__(self, storage: Storage):
        self.storage = storage
        self._offset = 0

    @property
    def offset(self) -> int:
        """The byte offset the next read parses from."""
        return self._offset

    def read_after(
        self, after_lsn: int, up_to_lsn: int, max_records: int = 512
    ) -> list[dict]:
        """Up to ``max_records`` records with
        ``after_lsn < lsn <= up_to_lsn``, in log order.

        ``header`` records (no replayable content) are filtered out.
        Returns ``[]`` when the replica is caught up."""
        if self.storage.size() < self._offset:
            self._offset = 0  # the log was compacted under us
        reader = getattr(self.storage, "read_from", None)
        if reader is not None:
            data = reader(self._offset)
            base = self._offset
        else:
            data = self.storage.read()[self._offset:]
            base = self._offset
        records: list[dict] = []
        offset = 0
        while offset < len(data) and len(records) < max_records:
            record, next_offset, _error = _parse_one(data, offset)
            if record is None:
                break  # torn or unsynced tail; retry next poll
            lsn = record.get("lsn", 0)
            if lsn > up_to_lsn:
                break  # not durable yet; do not advance past it
            offset = next_offset
            self._offset = base + offset
            if record["op"] == "header":
                continue
            if lsn > after_lsn:
                records.append(record)
        return records
