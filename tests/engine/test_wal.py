"""The write-ahead log: wire format, parsing, storage, and the log class.

The golden-record tests pin the exact serialized bytes of one record
per kind -- the WAL format is an on-disk interface (a log written by
one version must recover under the next), so any drift must show up as
an explicit test diff, exactly like the golden traces in
``tests/obs/test_trace.py``.
"""

import os
import stat
import zlib

import pytest

from repro.engine.database import Database
from repro.engine.wal import (
    FileStorage,
    MemoryStorage,
    WAL_VERSION,
    WalError,
    WriteAheadLog,
    batch_record,
    decode_batch_op,
    decode_ops,
    delete_record,
    encode_record,
    insert_record,
    op_runs,
    parse_wal,
    update_record,
)
from repro.engine.recovery import recover_database
from repro.relational.tuples import NULL
from repro.workloads.university import university_relational


# -- golden wire format --------------------------------------------------------

#: One pinned record per kind.  ``insert`` includes a null-marker
#: attribute: replay must distinguish NULL from any string value, so
#: the encoding of a null is part of the pinned surface.
GOLDEN_RECORDS = [
    (
        dict(insert_record("OFFER", {"O.C.NR": "c1", "O.D.NAME": NULL}), lsn=2),
        b'00000058 d4874801 {"lsn":2,"op":"insert","row":{"O.C.NR":"c1",'
        b'"O.D.NAME":{"$null":true}},"scheme":"OFFER"}\n',
    ),
    (
        dict(update_record("OFFER", ("c1",), {"O.D.NAME": "math"}), lsn=3),
        b'00000052 e82dcd1d {"lsn":3,"op":"update","pk":["c1"],'
        b'"scheme":"OFFER","updates":{"O.D.NAME":"math"}}\n',
    ),
    (
        dict(delete_record("OFFER", ("c1",)), lsn=4),
        b'00000034 a126a7fb {"lsn":4,"op":"delete","pk":["c1"],'
        b'"scheme":"OFFER"}\n',
    ),
    (
        {"op": "header", "version": WAL_VERSION, "lsn": 1},
        b'00000023 d1369f85 {"lsn":1,"op":"header","version":2}\n',
    ),
    (
        {"op": "begin", "txn": 1, "lsn": 5},
        b'0000001e 03f4e44f {"lsn":5,"op":"begin","txn":1}\n',
    ),
    (
        {"op": "commit", "txn": 1, "lsn": 6},
        b'0000001f 72e8fee1 {"lsn":6,"op":"commit","txn":1}\n',
    ),
    (
        {"op": "abort", "txn": 2, "lsn": 7},
        b'0000001e da2fa20c {"lsn":7,"op":"abort","txn":2}\n',
    ),
    (
        {"op": "rollback", "txn": 3, "to_lsn": 9, "lsn": 10},
        b'0000002d 300b4e4b {"lsn":10,"op":"rollback","to_lsn":9,"txn":3}\n',
    ),
]


@pytest.mark.parametrize(
    "payload,expected",
    GOLDEN_RECORDS,
    ids=[p["op"] for p, _ in GOLDEN_RECORDS],
)
def test_golden_record_bytes(payload, expected):
    encoded = encode_record(payload)
    assert encoded == expected
    parsed = parse_wal(encoded)
    assert parsed.error is None
    assert parsed.records == [payload]


def test_golden_null_round_trips_as_null():
    """The ``{"$null": true}`` marker decodes back to the NULL
    singleton, not a dict -- a recovered tuple must re-enter the same
    null-equivalence class it left."""
    record = parse_wal(GOLDEN_RECORDS[0][1]).records[0]
    op = decode_batch_op(record)
    assert op == ("insert", "OFFER", {"O.C.NR": "c1", "O.D.NAME": NULL})
    assert op[2]["O.D.NAME"] is NULL
    update = parse_wal(GOLDEN_RECORDS[1][1]).records[0]
    assert decode_batch_op(update) == (
        "update",
        "OFFER",
        ("c1",),
        {"O.D.NAME": "math"},
    )
    delete = parse_wal(GOLDEN_RECORDS[2][1]).records[0]
    assert decode_batch_op(delete) == ("delete", "OFFER", ("c1",))


def test_decode_batch_op_rejects_non_mutations():
    with pytest.raises(WalError):
        decode_batch_op({"op": "header", "version": 1})


#: One whole ``apply_batch`` as a single record: consecutive ops of one
#: kind and scheme share a run, keys are lists, and a NULL inside a row
#: is the same marker the single-row records use.
GOLDEN_BATCH_OPS = [
    ("insert", "OFFER", {"O.C.NR": "c1", "O.D.NAME": NULL}),
    ("insert", "OFFER", {"O.C.NR": "c2", "O.D.NAME": "cs"}),
    ("delete", "COURSE", "c9"),
    ("update", "OFFER", ("c2",), {"O.D.NAME": "math"}),
]
GOLDEN_BATCH_BYTES = (
    b'000000ce 0c12dfdd {"lsn":11,"op":"batch","runs":[["insert","OFFER",'
    b'[{"O.C.NR":"c1","O.D.NAME":{"$null":true}},{"O.C.NR":"c2",'
    b'"O.D.NAME":"cs"}]],["delete","COURSE",[["c9"]]],["update","OFFER",'
    b'[[["c2"],{"O.D.NAME":"math"}]]]]}\n'
)


def test_golden_batch_record_bytes():
    payload = dict(batch_record(op_runs(GOLDEN_BATCH_OPS)), lsn=11)
    assert encode_record(payload) == GOLDEN_BATCH_BYTES
    (record,) = parse_wal(GOLDEN_BATCH_BYTES).records
    ops = decode_ops(record)
    assert ops == [
        ("insert", "OFFER", {"O.C.NR": "c1", "O.D.NAME": NULL}),
        ("insert", "OFFER", {"O.C.NR": "c2", "O.D.NAME": "cs"}),
        ("delete", "COURSE", ("c9",)),
        ("update", "OFFER", ("c2",), {"O.D.NAME": "math"}),
    ]
    assert ops[0][2]["O.D.NAME"] is NULL


def test_decode_ops_wraps_single_records_and_rejects_bad_runs():
    record = parse_wal(GOLDEN_RECORDS[2][1]).records[0]
    assert decode_ops(record) == [("delete", "OFFER", ("c1",))]
    with pytest.raises(WalError):
        decode_ops({"op": "batch", "runs": [["merge", "OFFER", []]]})


def test_version_1_log_still_recovers():
    """A log written before the ``batch`` record existed (per-op
    records, ``insert_many``/``apply_batch`` as begin..commit groups,
    a checkpoint, an inner rollback, an aborted group) recovers to the
    state its writer held, and keeps accepting appends."""
    path = os.path.join(os.path.dirname(__file__), "data", "wal_v1.log")
    with open(path, "rb") as f:
        data = f.read()
    records = parse_wal(data).records
    assert records[0] == {"op": "header", "version": 1, "lsn": 5}
    assert "batch" not in {r["op"] for r in records}
    schema = university_relational()
    db = recover_database(schema, storage=MemoryStorage(data)).database
    keys = {
        name: sorted(tuple(t.mapping.values()) for t in db.scan(name))
        for name in schema.scheme_names
    }
    assert keys == {
        "PERSON": [("s1",), ("s2",)],
        "FACULTY": [("s1",)],
        "STUDENT": [],
        "COURSE": [("c0",), ("c1",)],
        "DEPARTMENT": [("cs",), ("math",)],
        "OFFER": [("c0", "math"), ("c1", "cs")],
        "TEACH": [("c0", "s1")],
        "ASSIST": [],
    }
    assert db.recovery_report.transactions_replayed == 3
    assert db.recovery_report.transactions_rolled_back == 1
    # The resumed v1 log takes version-2 batch records and recovers again.
    db.insert_many("COURSE", [{"C.NR": "c7"}, {"C.NR": "c8"}])
    again = recover_database(schema, storage=MemoryStorage(db.wal.storage.read()))
    assert again.database.state() == db.state()


# -- parsing -------------------------------------------------------------------


def _log(*payloads) -> bytes:
    return b"".join(encode_record(p) for p in payloads)


def test_parse_stops_at_torn_record():
    good = _log({"op": "insert", "lsn": 1})
    torn = good + encode_record({"op": "insert", "lsn": 2})[:-7]
    parsed = parse_wal(torn)
    assert parsed.torn
    assert parsed.valid_bytes == len(good)
    assert [r["lsn"] for r in parsed.records] == [1]
    assert "torn" in parsed.error


def test_parse_stops_at_checksum_mismatch():
    good = _log({"op": "insert", "lsn": 1})
    bad = bytearray(_log({"op": "insert", "lsn": 2}))
    bad[-3] ^= 0xFF  # flip a byte inside the JSON body
    parsed = parse_wal(good + bytes(bad) + _log({"op": "insert", "lsn": 3}))
    assert parsed.torn
    assert parsed.valid_bytes == len(good)
    assert [r["lsn"] for r in parsed.records] == [1]
    assert "checksum" in parsed.error


def test_parse_stops_at_length_mismatch():
    body = b'{"op":"insert","lsn":2}'
    lying = b"%08x %08x " % (len(body) + 4, zlib.crc32(body)) + body + b"\n"
    parsed = parse_wal(lying)
    assert parsed.torn
    assert parsed.valid_bytes == 0
    assert "length mismatch" in parsed.error


def test_parse_stops_at_malformed_prefix():
    parsed = parse_wal(b"not a record at all\n")
    assert parsed.torn
    assert parsed.records == []
    assert "malformed" in parsed.error


def test_parse_rejects_non_object_payload():
    body = b'["not","an","op"]'
    line = b"%08x %08x " % (len(body), zlib.crc32(body)) + body + b"\n"
    parsed = parse_wal(line)
    assert parsed.torn
    assert "not an op object" in parsed.error


def test_parse_never_resyncs_after_corruption():
    """Everything after the first unreadable record is discarded, even
    if later records are individually valid -- replaying a suffix whose
    prefix is unknown could fabricate an inconsistent state."""
    good = _log({"op": "insert", "lsn": 1})
    later = _log({"op": "insert", "lsn": 3})
    parsed = parse_wal(good + b"garbage\n" + later)
    assert parsed.valid_bytes == len(good)
    assert len(parsed.records) == 1


def test_parse_empty_log():
    parsed = parse_wal(b"")
    assert parsed.records == []
    assert not parsed.torn
    assert parsed.error is None


# -- storage -------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_storage_append_read_truncate(backend, tmp_path):
    if backend == "memory":
        storage = MemoryStorage()
    else:
        storage = FileStorage(str(tmp_path / "log"))
    storage.append(b"abc")
    storage.append(b"defg")
    assert storage.read() == b"abcdefg"
    assert storage.size() == 7
    storage.truncate(3)
    assert storage.read() == b"abc"
    storage.append(b"X")  # appends land at the new end
    assert storage.read() == b"abcX"
    storage.replace(b"fresh")
    assert storage.read() == b"fresh"
    storage.append(b"!")
    assert storage.read() == b"fresh!"
    storage.close()


def test_file_storage_replace_is_atomic_via_rename(tmp_path):
    path = tmp_path / "log"
    storage = FileStorage(str(path))
    storage.append(b"old contents")
    storage.replace(b"new")
    assert path.read_bytes() == b"new"
    assert not (tmp_path / "log.tmp").exists()
    storage.close()


@pytest.mark.parametrize("fsync", [True, False])
def test_file_storage_replace_fsyncs_the_directory_only_with_fsync(
    tmp_path, monkeypatch, fsync
):
    # The rename is a directory entry: without a directory fsync a
    # power loss can bring the old log back under the name.
    storage = FileStorage(str(tmp_path / "log"), fsync=fsync)
    storage.append(b"old contents")
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    storage.replace(b"new")
    storage.close()
    if fsync:
        assert synced == [False, True]  # the temp file, then its directory
    else:
        assert synced == []


# -- the log class -------------------------------------------------------------


def test_fresh_log_writes_header_and_lsns_increase():
    log = WriteAheadLog(MemoryStorage())
    assert log.append({"op": "insert"}) == 2
    assert log.append({"op": "insert"}) == 3
    records = parse_wal(log.storage.read()).records
    assert records[0]["op"] == "header"
    assert records[0]["version"] == WAL_VERSION
    assert [r["lsn"] for r in records] == [1, 2, 3]
    assert log.next_lsn == 4


def test_attach_to_mutated_log_refuses():
    """A log holding mutations must go through recovery, not a fresh
    engine -- attaching blind would let the engine diverge from it."""
    storage = MemoryStorage()
    log = WriteAheadLog(storage)
    log.append({"op": "insert"})
    with pytest.raises(WalError, match="Database.recover"):
        WriteAheadLog(storage)


def test_attach_to_torn_log_refuses():
    storage = MemoryStorage()
    log = WriteAheadLog(storage)
    storage.append(b"torn tail")
    with pytest.raises(WalError, match="unreadable tail"):
        WriteAheadLog(storage)


def test_attach_to_header_only_log_continues_lsns():
    storage = MemoryStorage()
    WriteAheadLog(storage)
    log = WriteAheadLog(storage)
    assert log.next_lsn == 2


def test_begin_commit_abort_markers():
    log = WriteAheadLog(MemoryStorage())
    txn = log.begin()
    assert log.in_txn
    log.append({"op": "insert"})
    log.commit()
    assert not log.in_txn
    log.abort()  # no open transaction: a no-op
    ops = [(r["op"], r.get("txn")) for r in parse_wal(log.storage.read()).records]
    assert ops == [
        ("header", None),
        ("begin", txn),
        ("insert", None),
        ("commit", txn),
    ]


def test_nested_begin_refused():
    log = WriteAheadLog(MemoryStorage())
    log.begin()
    with pytest.raises(WalError):
        log.begin()


def test_commit_without_begin_refused():
    log = WriteAheadLog(MemoryStorage())
    with pytest.raises(WalError):
        log.commit()


def test_failed_append_poisons_the_log():
    class Exploding(MemoryStorage):
        def __init__(self):
            super().__init__()
            self.boom = False

        def append(self, data):
            if self.boom:
                raise OSError("disk on fire")
            super().append(data)

    storage = Exploding()
    log = WriteAheadLog(storage)
    storage.boom = True
    with pytest.raises(OSError):
        log.append({"op": "insert"})
    assert log.broken
    storage.boom = False
    with pytest.raises(WalError, match="poisoned"):
        log.append({"op": "insert"})  # stays broken even after the disk heals


def test_snapshot_compacts_to_header_plus_snapshot():
    log = WriteAheadLog(MemoryStorage())
    for i in range(5):
        log.append({"op": "insert", "i": i})
    lsn = log.write_snapshot({"relations": {}})
    records = parse_wal(log.storage.read()).records
    assert [r["op"] for r in records] == ["header", "snapshot"]
    assert records[-1]["lsn"] == lsn
    assert log.next_lsn == lsn + 1  # lsns stay monotonic across compaction
    log.append({"op": "insert"})
    assert parse_wal(log.storage.read()).records[-1]["lsn"] == lsn + 1


def test_snapshot_refused_inside_transaction():
    log = WriteAheadLog(MemoryStorage())
    log.begin()
    with pytest.raises(WalError, match="inside a transaction"):
        log.write_snapshot({"relations": {}})


def test_open_classmethod_uses_file_storage(tmp_path):
    path = str(tmp_path / "engine.wal")
    log = WriteAheadLog.open(path)
    log.append({"op": "insert"})
    log.close()
    assert os.path.exists(path)
    assert len(parse_wal(open(path, "rb").read()).records) == 2


def test_wal_stats_counters_move():
    db = Database(university_relational(), wal=WriteAheadLog(MemoryStorage()))
    assert db.wal.records_appended == 1  # the header, pre-attachment
    db.insert("COURSE", {"C.NR": "c1"})
    assert db.stats.wal_records == 1
    assert db.stats.wal_bytes > 0
    db.checkpoint()
    assert db.stats.checkpoints == 1
    assert db.stats.wal_records == 3  # + compacted header and snapshot
    assert db.stats.wal_bytes < db.wal.bytes_appended + db.wal.storage.size()


# -- idempotent close and the buffered (group-commit) mode ---------------------


def test_file_storage_close_is_idempotent(tmp_path):
    storage = FileStorage(str(tmp_path / "engine.wal"))
    storage.append(b"x")
    storage.close()
    storage.close()  # second close must be a no-op, not an error


def test_file_storage_refuses_use_after_close(tmp_path):
    storage = FileStorage(str(tmp_path / "engine.wal"))
    storage.close()
    for use in (
        lambda: storage.append(b"x"),
        storage.sync,
        storage.read,
        storage.size,
        lambda: storage.truncate(0),
        lambda: storage.replace(b""),
    ):
        with pytest.raises(WalError, match="closed"):
            use()


def test_buffered_storage_defers_bytes_until_sync(tmp_path):
    """In buffered mode nothing reaches the OS until :meth:`sync` -- the
    single flush a group commit shares.  (``read`` flushes first, so the
    on-disk size is probed directly.)"""
    path = str(tmp_path / "engine.wal")
    storage = FileStorage(path, buffered=True)
    storage.append(b"a" * 4096)
    assert os.path.getsize(path) == 0
    storage.sync()
    assert os.path.getsize(path) == 4096
    storage.close()


def test_wal_sync_counts_batched_records():
    log = WriteAheadLog(MemoryStorage())
    assert log.sync() == 0  # nothing pending: a no-op barrier
    log.append({"op": "insert", "i": 0})
    log.append({"op": "insert", "i": 1})
    assert log.unsynced_records == 2
    assert log.sync() == 2
    assert log.unsynced_records == 0
    assert log.sync() == 0


def test_wal_sync_feeds_group_commit_stats(university_schema):
    db = Database(university_schema, wal=WriteAheadLog(MemoryStorage()))
    db.insert("COURSE", {"C.NR": "c1"})
    db.insert("COURSE", {"C.NR": "c2"})
    assert db.sync_wal() == 2
    assert db.stats.wal_group_commits == 1
    assert db.stats.wal_batched_records == 2
    db.sync_wal()  # an empty barrier is not a group commit
    assert db.stats.wal_group_commits == 1


def test_checkpoint_clears_pending_sync_debt(university_schema):
    db = Database(university_schema, wal=WriteAheadLog(MemoryStorage()))
    db.insert("COURSE", {"C.NR": "c1"})
    assert db.wal.unsynced_records == 1
    db.checkpoint()  # the atomic replace persisted everything
    assert db.wal.unsynced_records == 0
    assert db.sync_wal() == 0


def test_failed_sync_poisons_the_log():
    class ExplodingSync(MemoryStorage):
        boom = False

        def sync(self):
            if self.boom:
                raise OSError("disk on fire")

    storage = ExplodingSync()
    log = WriteAheadLog(storage)
    log.append({"op": "insert"})
    storage.boom = True
    with pytest.raises(OSError):
        log.sync()
    assert log.broken
    storage.boom = False
    with pytest.raises(WalError, match="poisoned"):
        log.sync()
    with pytest.raises(WalError, match="poisoned"):
        log.append({"op": "insert"})


def test_close_syncs_pending_buffered_records(tmp_path):
    path = str(tmp_path / "engine.wal")
    log = WriteAheadLog(FileStorage(path, buffered=True))
    log.append({"op": "insert", "i": 0})
    log.close()
    records = parse_wal(open(path, "rb").read()).records
    assert [r["op"] for r in records] == ["header", "insert"]
