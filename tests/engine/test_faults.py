"""Deterministic storage fault injection and the engine's crash discipline.

Unit-level counterpart to the crash-point matrix in
``test_recovery.py``: each test pins one piece of the fault/poisoning
contract -- what a ``fail``/``short``/``corrupt`` fault does to the
bytes, and how the engine keeps memory and log agreed when one fires.
"""

import pytest

from repro.engine.database import Database
from repro.engine.faults import FaultyStorage, InjectedFault
from repro.engine.wal import (
    MemoryStorage,
    WalError,
    WriteAheadLog,
    encode_record,
    parse_wal,
)
from repro.workloads.university import university_relational


# -- the storage decorator -----------------------------------------------------


def test_fail_fault_writes_nothing():
    storage = FaultyStorage(fail_at=1)
    storage.append(b"first")
    with pytest.raises(InjectedFault) as exc:
        storage.append(b"second")
    assert storage.read() == b"first"
    assert exc.value.site == 1
    assert exc.value.kind == "fail"
    assert storage.faults_fired == [(1, "fail")]
    storage.append(b"third")  # one-shot: later writes pass through
    assert storage.read() == b"firstthird"


def test_short_write_fault_writes_a_prefix():
    storage = FaultyStorage(short_write_at=0)
    with pytest.raises(InjectedFault):
        storage.append(b"0123456789")
    assert storage.read() == b"01234"  # half the record, then the crash


def test_corrupt_fault_is_silent():
    storage = FaultyStorage(corrupt_at=0)
    storage.append(b"0123456789")  # no exception: the firmware lied
    data = storage.read()
    assert len(data) == 10
    assert data != b"0123456789"
    assert storage.faults_fired == [(0, "corrupt")]


def test_corrupted_record_fails_its_checksum_not_its_framing():
    record = encode_record({"op": "insert", "lsn": 1})
    storage = FaultyStorage(corrupt_at=0)
    storage.append(record)
    parsed = parse_wal(storage.read())
    assert parsed.records == []
    assert "checksum" in parsed.error


def test_injected_fault_is_an_os_error():
    """Engine code must not be able to special-case injected faults."""
    assert issubclass(InjectedFault, OSError)


def test_replace_shares_the_write_site_counter():
    storage = FaultyStorage(fail_at=1)
    storage.append(b"site 0")
    with pytest.raises(InjectedFault):
        storage.replace(b"site 1")  # checkpoints are crash sites too
    assert storage.read() == b"site 0"  # old contents survive


def test_short_fault_on_replace_keeps_old_contents():
    """A crash before the atomic rename leaves the original log."""
    storage = FaultyStorage(short_write_at=1)
    storage.append(b"original")
    with pytest.raises(InjectedFault):
        storage.replace(b"replacement")
    assert storage.read() == b"original"


def test_reads_and_truncates_pass_through():
    base = MemoryStorage(b"abcdef")
    storage = FaultyStorage(base, fail_at=99)
    assert storage.read() == b"abcdef"
    assert storage.size() == 6
    storage.truncate(3)
    assert base.read() == b"abc"


# -- engine behaviour under a fault --------------------------------------------


@pytest.fixture
def schema():
    return university_relational()


def test_faulted_insert_is_not_applied(schema):
    # Sites: 0 header, 1 first insert, 2 second insert (fails).
    db = Database(schema, wal=WriteAheadLog(FaultyStorage(fail_at=2)))
    db.insert("COURSE", {"C.NR": "c1"})
    with pytest.raises(InjectedFault):
        db.insert("COURSE", {"C.NR": "c2"})
    # Write-ahead: the log lost the record, so the row must not exist.
    assert db.get("COURSE", ("c2",)) is None
    assert db.count("COURSE") == 1


def test_fault_poisons_wal_until_recovery(schema):
    db = Database(schema, wal=WriteAheadLog(FaultyStorage(fail_at=1)))
    with pytest.raises(InjectedFault):
        db.insert("COURSE", {"C.NR": "c1"})
    with pytest.raises(WalError, match="poisoned"):
        db.insert("COURSE", {"C.NR": "c2"})
    with pytest.raises(WalError):
        db.checkpoint()


def test_fault_on_commit_marker_rolls_back_memory(schema):
    # Sites: 0 header, 1 begin, 2+3 inserts, 4 commit.
    db = Database(schema, wal=WriteAheadLog(FaultyStorage(fail_at=4)))
    with pytest.raises(InjectedFault):
        with db.transaction():
            db.insert("COURSE", {"C.NR": "c1"})
            db.insert("DEPARTMENT", {"D.NAME": "cs"})
    # The group never committed durably, so memory must agree.
    assert db.count("COURSE") == 0
    assert db.count("DEPARTMENT") == 0
    assert not db.in_transaction


def test_fault_on_begin_marker_leaves_no_transaction(schema):
    db = Database(schema, wal=WriteAheadLog(FaultyStorage(fail_at=1)))
    with pytest.raises(InjectedFault):
        with db.transaction():
            raise AssertionError("body must not run")  # pragma: no cover
    assert not db.in_transaction


def test_fault_mid_transaction_rolls_back_and_aborts(schema):
    # Sites: 0 header, 1 begin, 2 first insert, 3 second insert (fails).
    db = Database(schema, wal=WriteAheadLog(FaultyStorage(fail_at=3)))
    with pytest.raises(InjectedFault):
        with db.transaction():
            db.insert("COURSE", {"C.NR": "c1"})
            db.insert("DEPARTMENT", {"D.NAME": "cs"})
    assert db.count("COURSE") == 0
    assert db.count("DEPARTMENT") == 0


def test_fault_on_checkpoint_keeps_old_log(schema):
    storage = FaultyStorage(fail_at=2)
    db = Database(schema, wal=WriteAheadLog(storage))
    db.insert("COURSE", {"C.NR": "c1"})
    with pytest.raises(InjectedFault):
        db.checkpoint()
    # The pre-checkpoint log survives intact and fully parseable.
    parsed = parse_wal(storage.read())
    assert not parsed.torn
    assert [r["op"] for r in parsed.records] == ["header", "insert"]
    assert db.stats.checkpoints == 0


def test_insert_many_fault_rolls_back_whole_batch(schema):
    # Sites: 0 header, 1 the batch's one record -> nothing is applied.
    db = Database(schema, wal=WriteAheadLog(FaultyStorage(fail_at=1)))
    with pytest.raises(InjectedFault):
        db.insert_many(
            "COURSE", [{"C.NR": f"c{i}"} for i in range(3)]
        )
    assert db.count("COURSE") == 0


def test_row_path_batch_fault_unwinds_the_applied_batch(schema):
    """The row-at-a-time path applies first and logs last: a failed
    append must undo every row it already stored."""
    db = Database(
        schema, wal=WriteAheadLog(FaultyStorage(fail_at=2)), slotted=False
    )
    db.insert("COURSE", {"C.NR": "c0"})
    with pytest.raises(InjectedFault):
        db.apply_batch(
            [
                ("insert", "COURSE", {"C.NR": "c1"}),
                ("delete", "COURSE", ("c0",)),
            ]
        )
    assert sorted(t["C.NR"] for t in db.scan("COURSE")) == ["c0"]
    assert db.stats.bulk_rows == 0
