"""Crash recovery, including the exhaustive crash-point matrix.

The matrix is the heart of the durability PR: a deterministic workload
touching every mutation path runs against a write-ahead log whose
storage fires exactly one fault (``fail`` / ``short`` / ``corrupt``) at
the Nth write, for *every* N the workload performs.  After each crash,
``Database.recover`` must rebuild a state that

* passes :class:`~repro.constraints.checker.ConsistencyChecker` (the
  recovery's own verify step, on by default),
* equals the independent scan-oracle replay of the log's committed
  prefix (``tests/engine/_wal_oracle.py``), and
* round-trips through :mod:`repro.io.state_json` unchanged,

and the repaired log must keep accepting mutations and recover again.
Torn and checksum-corrupted tails are truncated, never partially
applied.
"""

import pytest

from repro.constraints.checker import ConsistencyChecker
from repro.core.merge import merge
from repro.core.remove import remove_all
from repro.engine.database import ConstraintViolationError, Database
from repro.engine.faults import FaultyStorage, InjectedFault
from repro.engine.recovery import RecoveryError, WalApplier, recover_database
from repro.engine.wal import (
    FileStorage,
    WAL_VERSION,
    MemoryStorage,
    WalError,
    WriteAheadLog,
    encode_record,
    insert_record,
    parse_wal,
)
from repro.io.state_json import state_from_dict, state_to_dict
from repro.obs.trace import RingBufferTracer
from repro.relational.tuples import NULL, Tuple
from repro.workloads.university import university_relational, university_state

from tests.engine._wal_oracle import oracle_replay

SCHEMA = university_relational()


class _ScriptAbort(Exception):
    """The deliberate in-script rollback trigger (never a storage fault)."""


def _mutation_script(db: Database) -> None:
    """A deterministic workload covering every logged mutation path:
    bare inserts/updates/deletes, an explicit transaction, a rejected
    op (never logged), ``insert_many``, ``apply_batch`` (mixed, and
    all-insert/all-delete on the columnar path), a batch of engine
    ``Tuple`` rows the row path has to prove, a batch inside an explicit
    transaction, a committed and an aborted two-phase prepare, an
    aborted transaction, a checkpoint, post-checkpoint mutations, a
    nested transaction with an inner rollback, and last an update/delete
    batch on the columnar path (last, so every earlier site keeps its
    index).

    Batches are order-safe (parents before children) so the scan-oracle
    interpreter can replay committed groups record by record.
    """
    db.insert("PERSON", {"P.SSN": "s1"})
    db.insert("PERSON", {"P.SSN": "s2"})
    db.insert("COURSE", {"C.NR": "c1"})
    db.insert("COURSE", {"C.NR": "c2"})
    db.insert("DEPARTMENT", {"D.NAME": "cs"})
    db.insert("DEPARTMENT", {"D.NAME": "math"})
    db.insert("OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"})
    db.insert("FACULTY", {"F.SSN": "s1"})
    db.insert("STUDENT", {"S.SSN": "s2"})
    with db.transaction():
        db.insert("TEACH", {"T.C.NR": "c1", "T.F.SSN": "s1"})
        db.insert("ASSIST", {"A.C.NR": "c1", "A.S.SSN": "s2"})
        db.update("OFFER", ("c1",), {"O.D.NAME": "math"})
    try:  # a rejected mutation leaves no log record at all
        db.insert("OFFER", {"O.C.NR": "ghost", "O.D.NAME": "cs"})
    except ConstraintViolationError:
        pass
    db.insert_many("COURSE", [{"C.NR": f"m{i}"} for i in range(3)])
    db.apply_batch(
        [
            ("insert", "OFFER", {"O.C.NR": "c2", "O.D.NAME": "cs"}),
            ("insert", "PERSON", {"P.SSN": "s3"}),
            ("delete", "COURSE", ("m0",)),
            ("update", "OFFER", ("c2",), {"O.D.NAME": "math"}),
        ]
    )
    db.apply_batch(
        [
            ("insert", "PERSON", {"P.SSN": "s5"}),
            ("insert", "STUDENT", {"S.SSN": "s5"}),
            ("insert", "COURSE", {"C.NR": "c3"}),
        ]
    )
    db.apply_batch(
        [("delete", "STUDENT", ("s5",)), ("delete", "PERSON", ("s5",))]
    )
    db.insert_many("DEPARTMENT", [Tuple({"D.NAME": "ee"})])
    with db.transaction():
        db.insert_many("COURSE", [{"C.NR": "c4"}, {"C.NR": "c5"}])
        db.insert("OFFER", {"O.C.NR": "c4", "O.D.NAME": "ee"})
    db.apply_batch_prepare(
        [
            ("insert", "COURSE", {"C.NR": "c6"}),
            ("insert", "OFFER", {"O.C.NR": "c6", "O.D.NAME": "cs"}),
        ]
    ).commit()
    db.apply_batch_prepare([("insert", "COURSE", {"C.NR": "c7"})]).abort()
    try:
        with db.transaction():
            db.insert("PERSON", {"P.SSN": "doomed"})
            raise _ScriptAbort()
    except _ScriptAbort:
        pass
    db.checkpoint()
    db.insert("PERSON", {"P.SSN": "s4"})
    db.delete("COURSE", ("m1",))
    db.update("OFFER", ("c1",), {"O.D.NAME": "cs"})
    with db.transaction():
        db.insert("COURSE", {"C.NR": "c9"})
        try:
            with db.transaction():
                db.insert("COURSE", {"C.NR": "c10"})
                raise _ScriptAbort()
        except _ScriptAbort:
            pass
        db.insert("OFFER", {"O.C.NR": "c9", "O.D.NAME": "cs"})
    db.apply_batch(
        [
            ("update", "OFFER", ("c9",), {"O.D.NAME": "math"}),
            ("update", "TEACH", ("c1",), {"T.F.SSN": "s1"}),
            ("delete", "COURSE", ("m2",)),
        ]
    )


def _run_until_crash(schema, storage, preload=None) -> bool:
    """Run the workload against ``storage``; ``True`` when a fault (or
    the poisoned log after one) stopped it."""
    try:
        db = Database(schema, wal=WriteAheadLog(storage))
        if preload is not None:
            db.load_state(preload, validate=False)
        _mutation_script(db)
        return False
    except (WalError, OSError):  # InjectedFault is an OSError
        return True


def _count_sites(preload=None) -> int:
    probe = FaultyStorage()  # no faults: just count the writes
    crashed = _run_until_crash(SCHEMA, probe, preload)
    assert not crashed
    return probe.writes


N_SITES = _count_sites()
FAULT_KINDS = ("fail", "short", "corrupt")
_FAULT_ARG = {
    "fail": "fail_at",
    "short": "short_write_at",
    "corrupt": "corrupt_at",
}


def test_matrix_covers_enough_sites():
    """The acceptance floor: >= 30 distinct injection sites."""
    assert N_SITES >= 30, N_SITES


def _assert_recovers_exactly(schema, path: str) -> None:
    """The shared post-crash assertion bundle (see module docstring)."""
    with open(path, "rb") as f:
        surviving = f.read()
    expected = oracle_replay(surviving, schema)

    result = recover_database(schema, path)  # verify=True re-checks F u I u N
    db = result.database
    assert result.report.verified
    assert db.state() == expected.state()

    # The recovered state round-trips through state_json unchanged.
    assert state_from_dict(state_to_dict(db.state()), schema) == db.state()

    # The repaired log accepts new mutations and recovers again.
    db.insert("PERSON", {"P.SSN": "post-crash"})
    db.wal.close()
    again = recover_database(schema, path)
    assert again.database.get("PERSON", ("post-crash",)) is not None
    assert again.database.count("PERSON") == db.count("PERSON")
    again.database.wal.close()


@pytest.mark.parametrize("site", range(N_SITES))
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_crash_point_matrix(tmp_path, kind, site):
    path = str(tmp_path / "crash.wal")
    storage = FaultyStorage(FileStorage(path), **{_FAULT_ARG[kind]: site})
    crashed = _run_until_crash(SCHEMA, storage)
    storage.close()
    assert storage.faults_fired == [(site, kind)]
    if kind != "corrupt":
        assert crashed  # fail/short always surface as a crash
    _assert_recovers_exactly(SCHEMA, path)


@pytest.mark.slow
@pytest.mark.parametrize("site", range(_count_sites(preload=university_state(n_courses=20, seed=11)) ))
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_crash_point_matrix_preloaded(tmp_path, kind, site):
    """The full matrix over a preloaded mid-size state: the bulk-load
    record becomes a crash site, and every later site replays on top of
    a large ``load_state`` image."""
    state = university_state(n_courses=20, seed=11)
    path = str(tmp_path / "crash.wal")
    storage = FaultyStorage(FileStorage(path), **{_FAULT_ARG[kind]: site})
    crashed = _run_until_crash(SCHEMA, storage, preload=state)
    storage.close()
    if kind != "corrupt":
        assert crashed
    _assert_recovers_exactly(SCHEMA, path)


# -- recovery unit behaviour ---------------------------------------------------


def _db(storage=None) -> Database:
    return Database(SCHEMA, wal=WriteAheadLog(storage or MemoryStorage()))


def test_recover_clean_log_restores_state():
    db = _db()
    _mutation_script(db)
    result = recover_database(SCHEMA, storage=MemoryStorage(db.wal.storage.read()))
    assert result.database.state() == db.state()
    assert result.report.truncated_bytes == 0
    assert result.report.snapshot_loaded  # the script checkpoints
    assert result.report.transactions_replayed >= 1
    assert result.report.verified


def test_recover_classmethod(tmp_path):
    path = str(tmp_path / "engine.wal")
    db = Database(SCHEMA, wal_path=path)
    db.insert("COURSE", {"C.NR": "c1"})
    db.wal.close()
    recovered = Database.recover(SCHEMA, path)
    assert recovered.get("COURSE", ("c1",)) is not None
    assert recovered.recovery_report.records_replayed == 1
    recovered.wal.close()


def test_recover_empty_log():
    result = recover_database(SCHEMA, storage=MemoryStorage())
    assert result.database.state().total_size() == 0
    assert result.report.records_read == 0


def test_trailing_uncommitted_transaction_rolled_back():
    db = _db()
    db.insert("COURSE", {"C.NR": "keep"})
    db.wal.begin()
    db.wal.append(insert_record("COURSE", {"C.NR": "lost"}))
    # ... crash before the commit marker.
    result = recover_database(SCHEMA, storage=MemoryStorage(db.wal.storage.read()))
    assert result.database.get("COURSE", ("keep",)) is not None
    assert result.database.get("COURSE", ("lost",)) is None
    assert result.report.transactions_rolled_back == 1
    assert result.report.records_rolled_back == 1


def test_aborted_transaction_not_replayed():
    db = _db()
    try:
        with db.transaction():
            db.insert("COURSE", {"C.NR": "doomed"})
            raise _ScriptAbort()
    except _ScriptAbort:
        pass
    result = recover_database(SCHEMA, storage=MemoryStorage(db.wal.storage.read()))
    assert result.database.count("COURSE") == 0
    assert result.report.transactions_rolled_back == 1


def test_inner_rollback_marker_cancels_only_inner_records():
    db = _db()
    with db.transaction():
        db.insert("COURSE", {"C.NR": "outer"})
        try:
            with db.transaction():
                db.insert("COURSE", {"C.NR": "inner"})
                raise _ScriptAbort()
        except _ScriptAbort:
            pass
        db.insert("COURSE", {"C.NR": "tail"})
    result = recover_database(SCHEMA, storage=MemoryStorage(db.wal.storage.read()))
    assert result.database.get("COURSE", ("outer",)) is not None
    assert result.database.get("COURSE", ("inner",)) is None
    assert result.database.get("COURSE", ("tail",)) is not None
    assert result.database.state() == db.state()


def test_torn_tail_truncated_on_disk(tmp_path):
    path = str(tmp_path / "torn.wal")
    db = Database(SCHEMA, wal_path=path)
    db.insert("COURSE", {"C.NR": "c1"})
    db.insert("COURSE", {"C.NR": "c2"})
    db.wal.close()
    whole = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(whole[:-9])  # tear the last record
    result = recover_database(SCHEMA, path)
    assert result.report.truncated_bytes > 0
    assert "torn" in result.report.truncate_reason
    assert result.database.get("COURSE", ("c2",)) is None
    result.database.wal.close()
    # The truncation is durable: the file itself is clean again.
    reparsed = parse_wal(open(path, "rb").read())
    assert not reparsed.torn


def test_recovery_error_on_unreplayable_record():
    log = WriteAheadLog(MemoryStorage())
    log.append(insert_record("OFFER", {"O.C.NR": "ghost", "O.D.NAME": "cs"}))
    with pytest.raises(RecoveryError, match="rejected on replay"):
        recover_database(SCHEMA, storage=log.storage)


def test_recovery_error_on_stray_commit():
    log = WriteAheadLog(MemoryStorage())
    log.append({"op": "commit", "txn": 7})
    with pytest.raises(RecoveryError, match="outside a transaction"):
        recover_database(SCHEMA, storage=log.storage)


def test_recovery_error_on_nested_begin():
    log = WriteAheadLog(MemoryStorage())
    log.append({"op": "begin", "txn": 1})
    log.append({"op": "begin", "txn": 2})
    with pytest.raises(RecoveryError, match="begins inside"):
        recover_database(SCHEMA, storage=log.storage)


def test_recovery_refuses_a_newer_log_version():
    # A log from a newer writer may reuse a record kind with a new
    # shape; replay must name the version instead of misreading it.
    newer = WAL_VERSION + 1
    storage = MemoryStorage(
        encode_record({"op": "header", "version": newer, "lsn": 1})
        + encode_record(insert_record("COURSE", {"C.NR": "c1"}) | {"lsn": 2})
    )
    with pytest.raises(
        RecoveryError, match=f"version {newer}.*up to {WAL_VERSION}"
    ):
        recover_database(SCHEMA, storage=storage)


def test_replaying_a_batch_tail_builds_no_row_views(monkeypatch):
    # Replay hands no rows out, so it builds no Tuple views of them.
    db = Database(SCHEMA, wal=WriteAheadLog(MemoryStorage()))
    db.insert("DEPARTMENT", {"D.NAME": "cs"})
    courses = [f"c{i}" for i in range(20)]
    db.insert_many("COURSE", [{"C.NR": c} for c in courses])
    db.apply_batch(
        [("insert", "OFFER", {"O.C.NR": c, "O.D.NAME": "cs"}) for c in courses]
    )
    db.apply_batch(
        [("delete", "OFFER", c) for c in courses[:5]]
        + [("delete", "COURSE", c) for c in courses[:5]]
    )
    records = parse_wal(db.wal.storage.read()).records
    assert sum(r["op"] == "batch" for r in records) == 3
    calls = []

    def spy(values):
        calls.append(values)
        return Tuple(values)

    monkeypatch.setattr("repro.engine.rows.adopt_row", spy)
    monkeypatch.setattr("repro.engine.database.adopt_row", spy)
    replica = Database(SCHEMA)
    applier = WalApplier(replica)
    for record in records:
        applier.feed(record)
    assert calls == []
    assert replica.count("COURSE") == 15 and replica.count("OFFER") == 15


def test_verify_false_skips_the_recheck():
    log = WriteAheadLog(MemoryStorage())
    log.append(insert_record("COURSE", {"C.NR": "c1"}))
    result = recover_database(SCHEMA, storage=log.storage, verify=False)
    assert not result.report.verified
    assert result.database.count("COURSE") == 1
    assert result.report.verify_s == 0.0


def test_report_times_replay_and_verify():
    db = _db()
    _mutation_script(db)
    result = recover_database(
        SCHEMA, storage=MemoryStorage(db.wal.storage.read())
    )
    written = result.report.to_dict()
    assert written["replay_s"] > 0.0
    assert written["verify_s"] > 0.0


#: A snapshot image whose OFFER relation holds two different rows on
#: the primary key ``c1``.
OFFER_CLASH = {
    "COURSE": [{"C.NR": "c1"}],
    "DEPARTMENT": [{"D.NAME": "cs"}, {"D.NAME": "ee"}],
    "OFFER": [
        {"O.C.NR": "c1", "O.D.NAME": "cs"},
        {"O.C.NR": "c1", "O.D.NAME": "ee"},
    ],
}


def _snapshot_log(relations) -> MemoryStorage:
    log = WriteAheadLog(MemoryStorage())
    log.write_snapshot({"relations": relations})
    return log.storage


def test_snapshot_with_two_rows_on_one_key_is_refused():
    """A table holds one row per key: recovery must not keep one of two
    different rows and call the result verified."""
    with pytest.raises(
        RecoveryError, match=r"\[key-dependency\] OFFER: O\.C\.NR -> "
    ):
        recover_database(SCHEMA, storage=_snapshot_log(OFFER_CLASH))
    with pytest.raises(RecoveryError, match="key-dependency"):
        recover_database(
            SCHEMA, storage=_snapshot_log(OFFER_CLASH), verify=False
        )


def test_snapshot_with_equal_rows_on_one_key_collapses():
    """Equal rows are one tuple, as in a Relation."""
    offer = {"O.C.NR": "c1", "O.D.NAME": "cs"}
    relations = dict(OFFER_CLASH, OFFER=[offer, dict(offer)])
    result = recover_database(SCHEMA, storage=_snapshot_log(relations))
    assert result.report.verified
    assert result.database.count("OFFER") == 1
    assert result.database.get("OFFER", "c1").mapping == offer


def test_recovery_counters_and_trace_events():
    db = _db()
    db.insert("COURSE", {"C.NR": "c1"})
    db.wal.begin()
    db.wal.append(insert_record("COURSE", {"C.NR": "lost"}))
    data = db.wal.storage.read() + b"torn garbage"
    tracer = RingBufferTracer()
    result = recover_database(
        SCHEMA, storage=MemoryStorage(data), tracer=tracer
    )
    stats = result.database.stats
    assert stats.wal_replayed_records == 1
    assert stats.wal_rolled_back_records == 1
    assert stats.wal_truncated_bytes == len(b"torn garbage")
    ops = [e.op for e in tracer.find("recovery")]
    assert ops == ["truncate", "rollback", "verify", "replay"]
    kinds = {e.op: e.kind for e in tracer.find("recovery")}
    assert kinds == {
        "truncate": "wal-truncate",
        "rollback": "wal-rollback",
        "verify": "recovery-check",
        "replay": "wal-replay",
    }
    rules = [e.rule for e in tracer.find("recovery")]
    assert all(rules), "every recovery event carries a paper-rule label"


def test_recovered_null_markers_are_the_null_singleton():
    """Definition 2.1 + the null-marker subtlety: a recovered tuple must
    carry the NULL singleton (same null-equivalence class), not a value
    that merely serialized like one."""
    simplified = remove_all(
        merge(SCHEMA, ["COURSE", "OFFER", "TEACH", "ASSIST"])
    )
    mschema = simplified.schema
    merged_name = simplified.info.merged_name
    db = Database(mschema, wal=WriteAheadLog(MemoryStorage()))
    db.insert("DEPARTMENT", {"D.NAME": "cs"})
    db.insert("PERSON", {"P.SSN": "f1"})
    db.insert("FACULTY", {"F.SSN": "f1"})
    db.insert("PERSON", {"P.SSN": "a1"})
    db.insert("STUDENT", {"S.SSN": "a1"})
    db.insert(
        merged_name,
        {"C.NR": "c1", "O.D.NAME": "cs", "T.F.SSN": "f1", "A.S.SSN": "a1"},
    )
    db.update(merged_name, ("c1",), {"T.F.SSN": NULL})
    result = recover_database(
        mschema, storage=MemoryStorage(db.wal.storage.read())
    )
    row = result.database.get(merged_name, ("c1",))
    assert row["T.F.SSN"] is NULL
    assert result.database.state() == db.state()
    assert not ConsistencyChecker(mschema).violations(result.database.state())


def test_checkpoint_then_recover_drops_compacted_history():
    db = _db()
    for i in range(10):
        db.insert("COURSE", {"C.NR": f"c{i}"})
    db.checkpoint()
    db.delete("COURSE", ("c0",))
    data = db.wal.storage.read()
    parsed = parse_wal(data)
    # Compaction really dropped the per-row records.
    assert [r["op"] for r in parsed.records] == ["header", "snapshot", "delete"]
    result = recover_database(SCHEMA, storage=MemoryStorage(data))
    assert result.database.count("COURSE") == 9
    assert result.database.state() == db.state()
