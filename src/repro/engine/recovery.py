"""Crash recovery: rebuild the committed state from a write-ahead log.

Recovery is where Definition 2.1 earns its keep: the pre- and
post-crash states must be the *same* consistent state, not merely two
states satisfying the same constraints.  The procedure is the textbook
redo pass specialised to this engine's logging discipline (only
validated mutations are ever logged, see :mod:`repro.engine.wal`):

1. **Truncate** the unreadable tail.  :func:`~repro.engine.wal.parse_wal`
   stops at the first torn, checksum-corrupt, or malformed record; every
   byte from there on is discarded, so a partial mutation is never
   applied.
2. **Load** the snapshot (``snapshot``/``load_state`` records) straight
   into the tables through ``Database.load_image`` -- the one installer
   of snapshot images: it adopts an embedded schema first, then takes
   the bulk insert path's columnar install, without per-record
   validation, since the image was consistent when written.  Two
   different rows on one primary key cannot both be stored, so such an
   image is refused with the key dependency's violation instead of
   losing one.
3. **Replay** the committed records in log order.  Bare mutation
   records (written outside a transaction) re-apply directly, and a
   bare ``batch`` record (one whole ``insert_many``/``apply_batch``)
   through ``Database.apply_runs``, read back run by run with
   :func:`~repro.engine.wal.record_runs`; a ``begin``..``commit``
   group -- its records' runs joined in log order -- replays through
   ``apply_runs`` as well, whose deferred reference checking accepts
   exactly the groups the original transaction accepted.  A group
   with no ``commit`` (trailing or ``abort``-ed) is rolled back: its
   records are dropped, and a trailing group is sealed with an
   ``abort`` marker in the repaired log so later appends cannot fall
   inside it.  ``rollback`` markers cancel the inner-block records
   they name.
4. **Verify**: the recovered state is re-checked against the schema's
   full ``F ∪ I ∪ N`` constraint set by
   :class:`~repro.constraints.checker.ConsistencyChecker`, reading the
   stored tables directly (``Database.violations``); a violation
   means the log itself is inconsistent and recovery refuses to hand
   over the database.

Every step emits ``event="recovery"`` trace events through the normal
:mod:`repro.obs` tracer and counts into
:class:`~repro.engine.stats.EngineStats` (``wal_replayed_records``,
``wal_rolled_back_records``, ``wal_truncated_bytes``), so a recovery is
as observable as any other enforcement decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.engine.stats import EngineStats
from repro.engine.wal import (
    FileStorage,
    Storage,
    WAL_VERSION,
    WalError,
    WriteAheadLog,
    decode_batch_op,
    parse_wal,
    record_runs,
)
from repro.obs.rules import paper_rule
from repro.obs.trace import TraceEvent, Tracer
from repro.relational.schema import RelationalSchema


class RecoveryError(RuntimeError):
    """The log cannot be replayed into a consistent state (a record the
    log claims committed was rejected, or the recovered state fails the
    consistency re-check)."""


@dataclass
class RecoveryReport:
    """What one recovery pass found and did."""

    #: Records readable from the log (after truncation).
    records_read: int = 0
    #: Mutation records re-applied to the database.
    records_replayed: int = 0
    #: Committed transaction groups replayed.
    transactions_replayed: int = 0
    #: Uncommitted/aborted transaction groups dropped.
    transactions_rolled_back: int = 0
    #: Mutation records dropped with their transactions.
    records_rolled_back: int = 0
    #: Bytes cut off the unreadable log tail.
    truncated_bytes: int = 0
    #: Parser's reason for the truncation (``None`` = clean log).
    truncate_reason: str | None = None
    #: Whether a snapshot/load_state image seeded the state.
    snapshot_loaded: bool = False
    #: Whether the consistency re-check ran (and passed).
    verified: bool = False
    #: Seconds spent parsing, truncating and replaying the log.
    replay_s: float = field(default=0.0, compare=False)
    #: Seconds spent on the consistency re-check (0.0 when skipped).
    verify_s: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        """JSON-ready copy (the CLI prints this)."""
        return dict(self.__dict__)


@dataclass
class RecoveryResult:
    """A recovered database plus the report describing how it got there."""

    database: object
    report: RecoveryReport = field(default_factory=RecoveryReport)


def _emit(tracer: Tracer | None, **kw) -> None:
    if tracer is not None:
        tracer.emit(TraceEvent(event="recovery", **kw))


class WalApplier:
    """Record-by-record replay of a log into a live database.

    The redo pass of :func:`recover_database` (step 2 + 3 of the module
    docstring), factored so it can also run *incrementally*: a replica
    feeds records as they arrive off the wire, one
    :meth:`feed` per record, applying each committed group the moment
    its ``commit`` marker lands.  Semantics are identical either way --
    snapshot/``load_state`` images seed the state, bare mutations apply
    directly, ``batch`` records and ``begin``..``commit`` groups
    replay atomically through ``apply_runs``, ``abort``/``rollback``
    drop what they cancel.

    :meth:`seal` ends the stream: a trailing group with no ``commit``
    (the crash took it) is dropped, and its transaction id is returned
    so the caller can seal it in the repaired log too.
    """

    def __init__(
        self,
        db,
        report: RecoveryReport | None = None,
        tracer: Tracer | None = None,
    ):
        self.db = db
        self.report = report if report is not None else RecoveryReport()
        self.tracer = tracer
        #: Highest ``lsn`` seen (fed records, applied or not).
        self.max_lsn = 0
        #: Highest transaction id seen.
        self.max_txn = 0
        self._open_txn: int | None = None
        self._buffered: list[dict] = []

    @property
    def in_txn(self) -> bool:
        """Whether a ``begin`` marker is awaiting its ``commit``."""
        return self._open_txn is not None

    def feed(self, record: dict) -> None:
        """Replay one log record (buffering it if inside a group)."""
        db, report, tracer = self.db, self.report, self.tracer
        self.max_lsn = max(self.max_lsn, record.get("lsn", 0))
        op = record["op"]
        if op == "header":
            version = record.get("version", 1)
            if version > WAL_VERSION:
                # A newer writer's records may reuse a kind with a new
                # shape (v3 batch runs); refuse instead of misreading.
                raise RecoveryError(
                    f"log is format version {version}; this reader "
                    f"understands versions up to {WAL_VERSION}"
                )
            return
        if op in ("snapshot", "load_state"):
            _load_image(db, record, report)
            return
        if op == "begin":
            if self._open_txn is not None:
                raise RecoveryError(
                    f"log transaction {record.get('txn')} begins inside "
                    f"transaction {self._open_txn}"
                )
            self._open_txn = record.get("txn", 0)
            self.max_txn = max(self.max_txn, self._open_txn)
            self._buffered = []
            return
        if op == "rollback":
            to_lsn = record.get("to_lsn", 0)
            kept = [r for r in self._buffered if r.get("lsn", 0) < to_lsn]
            dropped = len(self._buffered) - len(kept)
            self._buffered = kept
            report.records_rolled_back += dropped
            db.stats.wal_rolled_back_records += dropped
            return
        if op == "abort":
            _drop_group(db, report, tracer, self._open_txn, len(self._buffered))
            self._open_txn, self._buffered = None, []
            return
        if op == "commit":
            _replay_group(db, report, tracer, self._open_txn, self._buffered)
            self._open_txn, self._buffered = None, []
            return
        # A mutation (or schema-merge) record.
        if self._open_txn is not None:
            self._buffered.append(record)
        elif op == "merge":
            _replay_merge(db, report, record)
        else:
            _replay_bare(db, report, record)

    def seal(self) -> int | None:
        """Drop a dangling (commit-less) trailing group; returns its
        transaction id when one was dropped."""
        if self._open_txn is None:
            return None
        dangling = self._open_txn
        _drop_group(
            self.db, self.report, self.tracer, dangling, len(self._buffered)
        )
        self._open_txn, self._buffered = None, []
        return dangling


def recover_database(
    schema: RelationalSchema,
    wal_path: str | None = None,
    *,
    storage: Storage | None = None,
    null_semantics: str = "distinct",
    stats: EngineStats | None = None,
    tracer: Tracer | None = None,
    verify: bool = True,
) -> RecoveryResult:
    """Replay the log at ``wal_path`` (or over ``storage``) into a fresh
    :class:`~repro.engine.database.Database`; see the module docstring
    for the procedure.  The returned database owns the repaired log and
    continues appending to it."""
    from repro.engine.database import Database

    if (wal_path is None) == (storage is None):
        raise ValueError("pass exactly one of wal_path or storage")
    if storage is None:
        storage = FileStorage(wal_path)
    start = perf_counter()
    report = RecoveryReport()
    parsed = parse_wal(storage.read())

    # 1. Truncate the unreadable tail -- a torn record must never be
    # half-applied, and nothing after it can be trusted.
    if parsed.torn:
        storage.truncate(parsed.valid_bytes)
        report.truncated_bytes = parsed.total_bytes - parsed.valid_bytes
        report.truncate_reason = parsed.error
        _emit(
            tracer,
            op="truncate",
            kind="wal-truncate",
            rule=paper_rule("wal-truncate"),
            outcome="truncated",
            rows=report.truncated_bytes,
            detail=parsed.error,
        )
    report.records_read = len(parsed.records)

    db = Database(
        schema, stats=stats, null_semantics=null_semantics, tracer=tracer
    )

    # 2 + 3. Replay in log order, buffering transaction groups until
    # their commit marker proves them durable.
    applier = WalApplier(db, report=report, tracer=tracer)
    for record in parsed.records:
        applier.feed(record)

    # A trailing group with no commit marker died with the crash.
    dangling_txn = applier.seal()

    # Re-attach a resumed log with continuous lsn/transaction counters.
    db.wal = WriteAheadLog._resume(
        storage, applier.max_lsn + 1, applier.max_txn + 1, stats=db.stats
    )
    if dangling_txn is not None:
        # Seal the dropped group in the log itself: without an abort
        # marker the group stays open on disk, and the *next* recovery
        # would fold post-crash appends into the dead group.
        db.wal.append({"op": "abort", "txn": dangling_txn})
    db.stats.wal_truncated_bytes += report.truncated_bytes
    db.recovery_report = report
    replayed = perf_counter()
    report.replay_s = replayed - start

    # 4. The recovered state must still satisfy F ∪ I ∪ N -- Definition
    # 2.1 demands the *same consistent state*, so an inconsistent replay
    # is a hard error, not a warning.
    if verify:
        # Checked against db.schema, not the schema argument: a
        # replayed online merge leaves the database on the evolved
        # schema.  The checker reads the tables; no state is built.
        violations = db.violations(tracer)
        _emit(
            tracer,
            op="verify",
            kind="recovery-check",
            rule=paper_rule("recovery-check"),
            outcome="consistent" if not violations else "inconsistent",
            rows=sum(db.count(s.name) for s in db.schema.schemes),
            detail=(
                "; ".join(str(v) for v in violations[:5])
                if violations
                else None
            ),
        )
        if violations:
            raise RecoveryError(
                "recovered state violates the schema constraints: "
                + "; ".join(str(v) for v in violations[:5])
            )
        report.verified = True
        report.verify_s = perf_counter() - replayed

    _emit(
        tracer,
        op="replay",
        kind="wal-replay",
        rule=paper_rule("wal-replay"),
        outcome="recovered",
        rows=report.records_replayed,
        detail=(
            f"{report.transactions_replayed} transactions replayed, "
            f"{report.transactions_rolled_back} rolled back"
        ),
    )
    return RecoveryResult(db, report)


def _load_image(db, record: dict, report: RecoveryReport) -> None:
    """Seed the state from a ``snapshot``/``load_state`` record.

    The record is a snapshot image
    (:meth:`~repro.engine.database.Database.load_image` installs it): an
    image taken after an online schema merge embeds the evolved schema,
    which is adopted before the rows are read, so a post-merge
    checkpoint recovers against the merged schema and not the schema
    file the recovery was booted from.
    """
    from repro.engine.database import ConstraintViolationError

    try:
        db.load_image(record)
    except ConstraintViolationError as exc:
        # Two different rows on one primary key: the image itself
        # breaks a key dependency, which step 4 would report.
        raise RecoveryError(
            f"recovered state violates the schema constraints: {exc.detail}"
        ) from exc
    report.snapshot_loaded = True
    report.records_replayed += 1
    db.stats.wal_replayed_records += 1


def _replay_merge(db, report: RecoveryReport, record: dict) -> None:
    """Re-apply one committed ``merge`` record (online schema merge).

    The record carries only the family spec; ``Merge`` + ``Remove`` and
    the eta state mapping are recomputed against the database's current
    schema (they are deterministic, see
    :func:`repro.engine.wal.merge_record`).  With a live log attached
    (a replica redoing its primary's merge) the replay re-logs through
    :meth:`~repro.engine.database.Database.apply_merge_online`, so the
    replica's own log stays recoverable; during crash recovery the
    database has no log yet and the swap applies directly, leaving the
    wholesale re-verification to recovery's final consistency check.
    """
    from repro.core.merge import MergeError
    from repro.engine.database import ConstraintViolationError

    members = record["members"]
    key_relation = record.get("key_relation")
    merged_name = record.get("merged_name")
    try:
        if db.wal is not None:
            db.apply_merge_online(members, key_relation, merged_name)
        else:
            db.redo_merge(members, key_relation, merged_name)
    except (MergeError, ConstraintViolationError, KeyError) as exc:
        raise RecoveryError(
            f"logged merge of {members} was rejected on replay: {exc}"
        ) from exc
    report.records_replayed += 1
    db.stats.wal_replayed_records += 1


def _replay_bare(db, report: RecoveryReport, record: dict) -> None:
    """Re-apply one auto-committed mutation or ``batch`` record.

    Only validated mutations are logged, and replay walks the same
    state trajectory the original run did, so a rejection here means
    the log is corrupt in a way the checksums could not see.  A batch
    replays through ``apply_runs``, decoded run by run: the deferred
    reference checks that accepted it originally accept it again.
    """
    from repro.engine.database import ConstraintViolationError

    try:
        if record["op"] == "batch":
            db.apply_runs(record_runs(record))
        else:
            op = decode_batch_op(record)
            if op[0] == "insert":
                db.insert(op[1], op[2])
            elif op[0] == "update":
                db.update(op[1], op[2], op[3])
            else:
                db.delete(op[1], op[2])
    except (ConstraintViolationError, KeyError) as exc:
        raise RecoveryError(
            f"logged record lsn={record.get('lsn')} was rejected on "
            f"replay: {exc}"
        ) from exc
    report.records_replayed += 1
    db.stats.wal_replayed_records += 1


def _replay_group(
    db,
    report: RecoveryReport,
    tracer: Tracer | None,
    txn: int | None,
    buffered: list[dict],
) -> None:
    """Re-apply one committed transaction group atomically.

    ``apply_runs`` defers reference checks to the group's final state,
    matching the acceptance semantics of ``insert_many``/``apply_batch``
    /``transaction()`` that produced the group.
    """
    from repro.engine.database import ConstraintViolationError

    if txn is None:
        raise RecoveryError("commit marker outside a transaction")
    if any(r.get("op") == "merge" for r in buffered):
        # An online schema merge travels alone inside its bracket
        # (Database.apply_merge_online quiesces the writer first).
        if len(buffered) != 1:
            raise RecoveryError(
                f"transaction {txn} mixes a merge record with mutations"
            )
        _replay_merge(db, report, buffered[0])
        report.transactions_replayed += 1
        return
    if buffered:
        try:
            db.apply_runs(_group_runs(buffered))
        except (ConstraintViolationError, KeyError) as exc:
            raise RecoveryError(
                f"committed transaction {txn} was rejected on replay: "
                f"{exc}"
            ) from exc
    report.records_replayed += len(buffered)
    report.transactions_replayed += 1
    db.stats.wal_replayed_records += len(buffered)


def _group_runs(records: list[dict]) -> list[tuple]:
    """The runs of a group's records, in log order, with adjacent runs
    of one kind and scheme joined -- the maximal runs ``op_runs`` makes
    of the same ops, so a replica re-logs the group as the row path
    would."""
    runs: list[tuple] = []
    for record in records:
        for kind, scheme, items in record_runs(record):
            if runs and runs[-1][0] == kind and runs[-1][1] == scheme:
                runs[-1][2].extend(items)
            else:
                runs.append((kind, scheme, list(items)))
    return runs


def _drop_group(
    db,
    report: RecoveryReport,
    tracer: Tracer | None,
    txn: int | None,
    n_records: int,
) -> None:
    """Roll an uncommitted/aborted group back (drop its records)."""
    report.transactions_rolled_back += 1
    report.records_rolled_back += n_records
    db.stats.wal_rolled_back_records += n_records
    _emit(
        tracer,
        op="rollback",
        kind="wal-rollback",
        rule=paper_rule("wal-rollback"),
        outcome="rolled-back",
        rows=n_records,
        detail=f"transaction {txn}",
    )
