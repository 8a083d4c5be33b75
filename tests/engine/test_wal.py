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
    delete_record,
    encode_record,
    insert_record,
    op_runs,
    parse_wal,
    record_runs,
    run_ops,
    update_record,
)
from repro.engine.recovery import recover_database
from repro.relational.tuples import NULL
from repro.workloads.university import university_relational

from tests.engine._wal_oracle import oracle_replay


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
        b'00000023 876c3803 {"lsn":1,"op":"header","version":4}\n',
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


#: A version 4 checkpoint: each relation is one value list per
#: attribute, in table order; an empty relation keeps its columns.
GOLDEN_SNAPSHOT_BYTES = (
    b'00000023 8365cb50 {"lsn":6,"op":"header","version":4}\n'
    b'0000012f 135cfb12 {"lsn":7,"op":"snapshot","state":{"relations":'
    b'{"ASSIST":{"A.C.NR":[],"A.S.SSN":[]},"COURSE":{"C.NR":["c1","c2"]},'
    b'"DEPARTMENT":{"D.NAME":["cs"]},"FACULTY":{"F.SSN":[]},'
    b'"OFFER":{"O.C.NR":["c1","c2"],"O.D.NAME":["cs","cs"]},'
    b'"PERSON":{"P.SSN":[]},"STUDENT":{"S.SSN":[]},'
    b'"TEACH":{"T.C.NR":[],"T.F.SSN":[]}}}}\n'
)


def test_golden_snapshot_record_is_written_by_columns():
    db = Database(university_relational(), wal=WriteAheadLog(MemoryStorage()))
    db.insert("DEPARTMENT", {"D.NAME": "cs"})
    db.insert_many("COURSE", [{"C.NR": "c1"}, {"C.NR": "c2"}])
    db.insert("OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"})
    db.insert("OFFER", {"O.C.NR": "c2", "O.D.NAME": "cs"})
    db.checkpoint()
    assert db.wal.storage.read() == GOLDEN_SNAPSHOT_BYTES
    recovered = recover_database(
        university_relational(), storage=MemoryStorage(GOLDEN_SNAPSHOT_BYTES)
    ).database
    assert recovered.state() == db.state()
    assert recovered.table("OFFER").rows == {"c1": ("c1", "cs"), "c2": ("c2", "cs")}
    assert recovered.table("COURSE").rows == {"c1": "c1", "c2": "c2"}


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
        "c1",
        {"O.D.NAME": "math"},
    )
    delete = parse_wal(GOLDEN_RECORDS[2][1]).records[0]
    assert decode_batch_op(delete) == ("delete", "OFFER", "c1")


def test_decode_batch_op_rejects_non_mutations():
    with pytest.raises(WalError):
        decode_batch_op({"op": "header", "version": 1})


#: One whole ``apply_batch`` as a single record: consecutive ops of one
#: kind and scheme share a run, an insert run is one value list per
#: attribute, a single-attribute delete key is its bare value, and a
#: NULL inside a row is the same marker the single-row records use.
GOLDEN_BATCH_OPS = [
    ("insert", "OFFER", {"O.C.NR": "c1", "O.D.NAME": NULL}),
    ("insert", "OFFER", {"O.C.NR": "c2", "O.D.NAME": "cs"}),
    ("delete", "COURSE", "c9"),
    ("update", "OFFER", ("c2",), {"O.D.NAME": "math"}),
]
GOLDEN_BATCH_RUNS = [
    (
        "insert",
        "OFFER",
        [{"O.C.NR": "c1", "O.D.NAME": NULL}, {"O.C.NR": "c2", "O.D.NAME": "cs"}],
    ),
    ("delete", "COURSE", ["c9"]),
    ("update", "OFFER", [("c2", {"O.D.NAME": "math"})]),
]
GOLDEN_BATCH_BYTES = (
    b'000000b8 e60583a7 {"lsn":11,"op":"batch","runs":[["insert","OFFER",'
    b'{"O.C.NR":["c1","c2"],"O.D.NAME":[{"$null":true},"cs"]}],'
    b'["delete","COURSE",["c9"]],["update","OFFER",'
    b'[[["c2"],{"O.D.NAME":"math"}]]]]}\n'
)
#: The same batch as a version 2 log wrote it (rows as objects, every
#: key a list): still read, and read back to the same runs.
GOLDEN_BATCH_V2_BYTES = (
    b'000000ce 0c12dfdd {"lsn":11,"op":"batch","runs":[["insert","OFFER",'
    b'[{"O.C.NR":"c1","O.D.NAME":{"$null":true}},{"O.C.NR":"c2",'
    b'"O.D.NAME":"cs"}]],["delete","COURSE",[["c9"]]],["update","OFFER",'
    b'[[["c2"],{"O.D.NAME":"math"}]]]]}\n'
)


def test_golden_batch_record_bytes():
    assert op_runs(GOLDEN_BATCH_OPS) == GOLDEN_BATCH_RUNS
    payload = dict(batch_record(op_runs(GOLDEN_BATCH_OPS)), lsn=11)
    assert encode_record(payload) == GOLDEN_BATCH_BYTES
    (record,) = parse_wal(GOLDEN_BATCH_BYTES).records
    runs = record_runs(record)
    assert runs == GOLDEN_BATCH_RUNS
    assert runs[0][2][0]["O.D.NAME"] is NULL
    assert run_ops(runs) == [
        ("insert", "OFFER", {"O.C.NR": "c1", "O.D.NAME": NULL}),
        ("insert", "OFFER", {"O.C.NR": "c2", "O.D.NAME": "cs"}),
        ("delete", "COURSE", "c9"),
        ("update", "OFFER", "c2", {"O.D.NAME": "math"}),
    ]


def test_golden_v2_batch_record_is_still_read():
    (record,) = parse_wal(GOLDEN_BATCH_V2_BYTES).records
    runs = record_runs(record)
    assert runs == GOLDEN_BATCH_RUNS
    assert runs[0][2][0]["O.D.NAME"] is NULL


def test_batch_record_columns_and_keys_round_trip():
    """Composite keys stay lists, NULL markers decode in any column or
    key, and a marker-free run is rebuilt from the parsed values."""
    runs = [
        ("insert", "PAIR", [{"a": 1, "b": NULL}, {"b": "x", "a": 2}]),
        ("delete", "PAIR", [(1, NULL), (2, "x")]),
        ("delete", "ONE", [NULL, "k"]),
        ("update", "PAIR", [((3, "y"), {"c": NULL}), ((4, "z"), {})]),
        ("insert", "ONE", [{"k": "k1"}, {"k": "k2"}]),
    ]
    payload = batch_record(runs)
    assert payload["runs"][0][2] == {"a": (1, 2), "b": (NULL, "x")}
    assert payload["runs"][1][2] == [(1, NULL), (2, "x")]
    assert payload["runs"][2][2] == [NULL, "k"]
    (record,) = parse_wal(encode_record(payload)).records
    assert record_runs(record) == runs
    with pytest.raises(WalError):
        record_runs(
            {"op": "batch", "runs": [["insert", "PAIR", {"a": [1], "b": []}]]}
        )
    with pytest.raises(WalError):
        record_runs({"op": "batch", "runs": [["delete", "PAIR", ["a", ["b"]]]]})


def test_replay_decodes_values_only_in_runs_holding_a_null(monkeypatch):
    """Replay reads a ``batch`` run with one type probe: a run without
    a NULL marker is rebuilt from the parsed values with no per-value
    decode, and a marker decodes only the column that holds it."""
    import repro.engine.wal as wal
    import repro.io.state_json as state_json

    db = Database(university_relational(), wal=WriteAheadLog(MemoryStorage()))
    db.insert_many("COURSE", [{"C.NR": f"c{i}"} for i in range(50)])
    db.insert_many("DEPARTMENT", [{"D.NAME": "cs"}])
    db.insert_many(
        "OFFER", [{"O.C.NR": f"c{i}", "O.D.NAME": "cs"} for i in range(50)]
    )
    db.apply_batch(
        [("delete", "OFFER", f"c{i}") for i in range(10)]
        + [("update", "OFFER", f"c{i}", {"O.D.NAME": "cs"}) for i in range(10, 20)]
    )
    data = db.wal.storage.read()
    calls = []
    decode = wal.decode_value
    spy = lambda v: calls.append(v) or decode(v)  # noqa: E731
    # Keys decode in the log module, value columns in the state codec.
    monkeypatch.setattr(wal, "decode_value", spy)
    monkeypatch.setattr(state_json, "decode_value", spy)
    recovered = recover_database(
        university_relational(), storage=MemoryStorage(data)
    )
    assert recovered.database.state() == db.state()
    assert calls == []
    columns = {"a": ["x", "y", "z"], "b": [1, {"$null": True}, 3]}
    rows = record_runs({"op": "batch", "runs": [["insert", "P", columns]]})[0][2]
    assert rows[1] == {"a": "y", "b": NULL}
    assert len(calls) == 3  # the marker's column only


def test_op_runs_normalizes_keys_and_refuses_malformed_ops():
    assert op_runs([("delete", "A", 1), ("delete", "A", (2,))]) == [
        ("delete", "A", [1, 2])
    ]
    for bad in [("insert", "A"), ("update", "A", 1), ("delete", "A", 1, 2), ()]:
        with pytest.raises((IndexError, TypeError, ValueError)):
            op_runs([bad])


def test_record_runs_wraps_single_records_and_rejects_bad_runs():
    record = parse_wal(GOLDEN_RECORDS[2][1]).records[0]
    assert record_runs(record) == [("delete", "OFFER", ["c1"])]
    record = parse_wal(GOLDEN_RECORDS[1][1]).records[0]
    assert record_runs(record) == [
        ("update", "OFFER", [("c1", {"O.D.NAME": "math"})])
    ]
    with pytest.raises(WalError):
        record_runs({"op": "batch", "runs": [["merge", "OFFER", []]]})


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


def test_version_2_log_still_recovers():
    """A log written by version 2 (``batch`` records with row objects
    and key lists) recovers row for row to the state the independent
    oracle reads from it: insert runs with NULLs, delete and update
    runs, a committed ``begin``..``commit`` group holding ``batch``
    records, an aborted group, an online merge and a checkpoint."""
    path = os.path.join(os.path.dirname(__file__), "data", "wal_v2.log")
    with open(path, "rb") as f:
        data = f.read()
    records = parse_wal(data).records
    assert records[0] == {"op": "header", "version": 2, "lsn": 3}
    assert {"snapshot", "batch", "begin", "commit", "abort", "merge"} <= {
        r["op"] for r in records
    }
    batches = [r for r in records if r["op"] == "batch"]
    assert {run[0] for r in batches for run in r["runs"]} == {
        "insert",
        "update",
        "delete",
    }
    assert all(type(run[2]) is list for r in batches for run in r["runs"])
    assert b'{"$null":true}' in data
    schema = university_relational()
    db = recover_database(schema, storage=MemoryStorage(data)).database
    oracle = oracle_replay(data, schema)
    assert db.schema.scheme_names == oracle.schema.scheme_names
    for name in db.schema.scheme_names:
        assert sorted(map(repr, db.scan(name))) == sorted(
            map(repr, oracle.state()[name])
        ), name
    assert db.state() == oracle.state()
    assert db.recovery_report.transactions_replayed == 2
    assert db.recovery_report.transactions_rolled_back == 1
    # The resumed v2 log takes version 3 records and recovers again.
    (merged,) = set(db.schema.scheme_names) - set(schema.scheme_names)
    row = {"C.NR": "c20", "O.D.NAME": NULL, "T.F.SSN": NULL, "A.S.SSN": NULL}
    db.insert_many(merged, [row])
    db.apply_batch([("delete", merged, "c20")])
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
