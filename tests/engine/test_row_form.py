"""The stored form of a row: one value per attribute of its scheme
(Section 2's tuple), and nothing else.

A one-attribute scheme stores each row as its bare value -- the key
object itself -- and a wider scheme as the value tuple in attribute
order.  Every install path must store that form: the row path, the
columnar bulk path (a rejected batch included), ``load_state``, the
recovery of every log version, a replica's bootstrap image and the
online merge.  Row dicts are built only where a row leaves the engine,
and what the server answers is byte-for-byte what it answered when the
tables stored dicts.
"""

from __future__ import annotations

import os
import socket

import pytest

from repro.client import Client
from repro.engine.database import ConstraintViolationError, Database
from repro.engine.recovery import recover_database
from repro.engine.wal import MemoryStorage, WriteAheadLog, parse_wal
from repro.io.state_json import StateDecodeError, state_to_dict
from repro.relational.tuples import NULL, Tuple
from repro.server import ServerConfig, ServerThread
from repro.server.protocol import encode_frame
from repro.workloads.university import university_relational, university_state

from tests.engine._wal_oracle import oracle_replay

UNIVERSITY = university_relational()
FAMILY = ["COURSE", "OFFER", "TEACH", "ASSIST"]
DATA = os.path.join(os.path.dirname(__file__), "data")


def assert_value_form(db: Database) -> int:
    """Every stored row of ``db`` is in the value form; returns how many
    rows were checked."""
    seen = 0
    for name, table in db._tables.items():
        plan = table.plan
        width = len(plan.names)
        for pk, row in table.rows.items():
            assert type(row) is not dict, (name, row)
            if width == 1:
                assert row is pk, (name, row)
            else:
                assert type(row) is tuple and len(row) == width, (name, row)
                assert plan.pk(row) == pk, (name, row)
            assert list(plan.row_of(row)) == list(plan.names)
            seen += 1
    return seen


def _university(**kwargs) -> Database:
    db = Database(UNIVERSITY, **kwargs)
    db.load_state(university_state(n_courses=30, seed=4))
    return db


def _logged() -> Database:
    return _university(wal=WriteAheadLog(MemoryStorage()))


def _read(name: str) -> bytes:
    with open(os.path.join(DATA, name), "rb") as f:
        return f.read()


# -- every install path stores the value form ----------------------------------


@pytest.mark.parametrize("slotted", [True, False])
def test_row_path_insert_and_update_store_values(slotted):
    db = _university(slotted=slotted)
    first, other = list(db.table("DEPARTMENT").rows)[:2]
    db.insert("COURSE", {"C.NR": "new-1"})
    db.insert("OFFER", {"O.C.NR": "new-1", "O.D.NAME": first})
    assert db.table("OFFER").rows["new-1"] == ("new-1", first)
    updated = db.update("OFFER", "new-1", {"O.D.NAME": other})
    assert db.table("OFFER").rows["new-1"] == ("new-1", other)
    assert updated == Tuple({"O.C.NR": "new-1", "O.D.NAME": other})
    assert db.table("COURSE").rows["new-1"] == "new-1"
    assert assert_value_form(db)


@pytest.mark.parametrize("slotted", [True, False])
def test_bulk_paths_store_values(slotted):
    db = _university(slotted=slotted)
    offers = list(db.table("OFFER").rows)
    department = db.table("OFFER").rows[offers[0]][1]
    db.insert_many("COURSE", [{"C.NR": f"bulk-{i}"} for i in range(5)])
    db.apply_batch(
        [("insert", "OFFER", {"O.C.NR": f"bulk-{i}", "O.D.NAME": department})
         for i in range(5)]
    )
    db.apply_batch(
        [("update", "OFFER", "bulk-0", {"O.D.NAME": department}),
         ("delete", "OFFER", ("bulk-1",))]
    )
    rows = db.table("OFFER").rows
    assert rows["bulk-0"] == ("bulk-0", department)
    assert "bulk-1" not in rows
    assert all(db.table("COURSE").rows[f"bulk-{i}"] == f"bulk-{i}" for i in range(5))
    assert assert_value_form(db)


def test_a_rejected_batch_leaves_values():
    db = _university()
    before = db.state()
    offer = next(iter(db.table("OFFER").rows))
    for batch in (
        [("update", "OFFER", offer, {"O.D.NAME": "no-such-dept"}),
         ("delete", "OFFER", offer)],
        [("insert", "COURSE", {"C.NR": "fresh"}),
         ("update", "OFFER", offer, {"O.D.NAME": "no-such-dept"})],
        [("insert", "OFFER", {"O.C.NR": "no-such-course", "O.D.NAME": "x"})],
    ):
        with pytest.raises(ConstraintViolationError):
            db.apply_batch(batch)
    assert db.state() == before
    assert assert_value_form(db)


def test_a_none_key_is_a_stored_row_not_an_absent_one():
    """A one-attribute row stores its key, so a ``None`` key is a stored
    value of ``None``: an undo or a lookup must not read it as absent."""
    db = _logged()
    before = db.state()
    with pytest.raises(ConstraintViolationError):
        db.apply_batch(
            [("insert", "DEPARTMENT", {"D.NAME": None}),
             ("insert", "OFFER", {"O.C.NR": "no-such-course", "O.D.NAME": None})]
        )
    assert db.state() == before
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.insert("DEPARTMENT", {"D.NAME": None})
            raise RuntimeError("abort")
    assert db.state() == before
    assert None not in db.table("DEPARTMENT").rows
    db.insert("DEPARTMENT", {"D.NAME": None})
    with pytest.raises(ConstraintViolationError, match="duplicate primary key"):
        db.insert("DEPARTMENT", {"D.NAME": None})
    assert db.get("DEPARTMENT", None).mapping == {"D.NAME": None}
    db.delete("DEPARTMENT", None)
    assert db.get("DEPARTMENT", None) is None
    assert db.state() == before
    log = MemoryStorage(db.wal.storage.read())
    assert recover_database(UNIVERSITY, storage=log).database.state() == before


def test_bulk_insert_stores_the_key_and_answers_with_the_given_dicts():
    """``insert_many`` stores a one-attribute row as its key object and
    answers with the caller's dicts themselves."""
    db = Database(UNIVERSITY)
    rows = [{"C.NR": f"c{i}"} for i in range(5)]
    views = db.insert_many("COURSE", rows)
    stored = db.table("COURSE").rows
    for row in rows:
        assert stored[row["C.NR"]] is row["C.NR"]
    assert all(v.mapping is row for v, row in zip(views, rows))


def test_load_state_stores_values_and_logs_columns():
    db = _logged()
    assert assert_value_form(db)
    (record,) = [
        r for r in parse_wal(db.wal.storage.read()).records
        if r["op"] == "load_state"
    ]
    offers = record["state"]["relations"]["OFFER"]
    assert sorted(offers) == ["O.C.NR", "O.D.NAME"]
    assert offers["O.C.NR"] == [pk for pk in db.table("OFFER").rows]
    assert record["state"]["relations"]["COURSE"] == {
        "C.NR": list(db.table("COURSE").rows)
    }


# -- recovery of every log version ---------------------------------------------


def _v4_log() -> bytes:
    """A version 4 log: a column checkpoint of a merged schema (with
    NULL-padded rows), then batches."""
    db = _logged()
    db.apply_merge_online(FAMILY)
    (merged,) = set(db.schema.scheme_names) - set(UNIVERSITY.scheme_names)
    db.checkpoint()
    db.insert_many(
        merged,
        [{"C.NR": "x1", "O.D.NAME": NULL, "T.F.SSN": NULL, "A.S.SSN": NULL}],
    )
    db.apply_batch([("delete", merged, "x1")])
    return db.wal.storage.read()


@pytest.mark.parametrize(
    "version", ["wal_v2.log", "wal_v3_snapshot.log", "v4"]
)
def test_recovery_of_each_log_version_stores_values(version):
    data = _v4_log() if version == "v4" else _read(version)
    db = recover_database(UNIVERSITY, storage=MemoryStorage(data)).database
    assert db.state() == oracle_replay(data, UNIVERSITY).state()
    assert assert_value_form(db)
    (merged,) = set(db.schema.scheme_names) - set(UNIVERSITY.scheme_names)
    assert any(NULL in row for row in db.table(merged).rows.values())


def test_version_3_snapshot_log_holds_row_dicts_and_recovers():
    """The checked-in version 3 log ends in a row-dict ``snapshot`` (of
    a merged schema) and a few batches, and recovers row for row."""
    data = _read("wal_v3_snapshot.log")
    records = parse_wal(data).records
    assert records[0]["op"] == "header" and records[0]["version"] == 3
    assert records[1]["op"] == "snapshot" and "schema" in records[1]
    assert all(
        type(rel) is list for rel in records[1]["state"]["relations"].values()
    )
    assert [r["op"] for r in records[2:]].count("batch") >= 3
    db = recover_database(UNIVERSITY, storage=MemoryStorage(data)).database
    oracle = oracle_replay(data, UNIVERSITY)
    for name in db.schema.scheme_names:
        assert sorted(map(repr, db.scan(name))) == sorted(
            map(repr, oracle.state()[name])
        ), name
    assert db.recovery_report.transactions_replayed == 1


# -- images ---------------------------------------------------------------------


def test_image_is_written_by_columns_and_row_images_still_load():
    db = _university()
    image = db.snapshot_image()
    relations = image["state"]["relations"]
    assert relations["COURSE"] == {"C.NR": list(db.table("COURSE").rows)}
    offers = list(db.table("OFFER").rows.values())
    assert relations["OFFER"] == {
        "O.C.NR": [o[0] for o in offers],
        "O.D.NAME": [o[1] for o in offers],
    }
    for source in (image, {"state": state_to_dict(db.state())}):
        copy = Database(UNIVERSITY)
        copy.load_image(source)
        assert copy.state() == db.state()
        assert assert_value_form(copy)


@pytest.mark.parametrize(
    "columns,message",
    [
        ({"O.C.NR": ["c1"]}, "do not match the scheme attributes"),
        ({"O.C.NR": ["c1"], "O.D.NAME": ["cs"], "X": ["y"]}, "do not match"),
        ({"O.C.NR": ["c1", "c2"], "O.D.NAME": ["cs"]}, "one length"),
        ({"O.C.NR": "c1", "O.D.NAME": "cs"}, "value lists"),
    ],
)
def test_malformed_column_image_is_refused(columns, message):
    db = _university()
    before = db.state()
    with pytest.raises(StateDecodeError, match=message):
        db.load_image({"state": {"relations": {"OFFER": columns}}})
    assert db.state() == before


def test_replica_bootstrap_over_the_wire_stores_values():
    primary = _logged()
    primary.apply_merge_online(FAMILY)
    with ServerThread(primary, ServerConfig(max_connections=4)) as served:
        with Client(port=served.port, timeout=30) as c:
            snapshot = c.call("repl_snapshot")
    assert all(
        type(rel) is dict for rel in snapshot["state"]["relations"].values()
    )
    replica = Database(UNIVERSITY, wal=WriteAheadLog(MemoryStorage()))
    replica.load_image(snapshot)
    assert replica.state() == primary.state()
    assert assert_value_form(replica)


def test_online_merge_stores_null_padded_value_tuples():
    db = Database(UNIVERSITY)
    db.insert_many("PERSON", [{"P.SSN": "p1"}])
    db.insert_many("FACULTY", [{"F.SSN": "p1"}])
    db.insert("DEPARTMENT", {"D.NAME": "cs"})
    db.insert_many("COURSE", [{"C.NR": "c1"}, {"C.NR": "c2"}])
    db.insert("OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"})
    db.insert("TEACH", {"T.C.NR": "c1", "T.F.SSN": "p1"})
    simplified = db.apply_merge_online(FAMILY)
    table = db.table(simplified.info.merged_name)
    assert table.plan.names == ("C.NR", "O.D.NAME", "T.F.SSN", "A.S.SSN")
    assert table.rows == {
        "c1": ("c1", "cs", "p1", NULL),
        "c2": ("c2", NULL, NULL, NULL),
    }
    assert db.get(simplified.info.merged_name, "c2") == Tuple(
        {"C.NR": "c2", "O.D.NAME": NULL, "T.F.SSN": NULL, "A.S.SSN": NULL}
    )
    assert assert_value_form(db)


# -- rows leave the engine as they did ------------------------------------------


def test_reads_hand_out_dicts_in_attribute_order():
    db = _university()
    offer = next(iter(db.table("OFFER").rows))
    got = db.get("OFFER", offer)
    assert type(got) is Tuple and type(got.mapping) is dict
    assert list(got.mapping) == ["O.C.NR", "O.D.NAME"]
    scanned = list(db.scan("OFFER"))
    assert [t["O.C.NR"] for t in scanned] == list(db.table("OFFER").rows)
    assert frozenset(scanned) == db.state()["OFFER"].tuples


SPAN = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-00"
MERGED = "COURSE'"

#: Served requests over the university schema, through an online merge;
#: each answer is pinned to the bytes the server wrote when its tables
#: stored row dicts.
SERVED = [
    ({"verb": "insert_many", "scheme": "PERSON",
      "rows": [{"P.SSN": "p1"}, {"P.SSN": "p2"}, {"P.SSN": "p3"}]},
     b'[{"P.SSN":"p1"},{"P.SSN":"p2"},{"P.SSN":"p3"}],"lsn":2'),
    ({"verb": "insert_many", "scheme": "FACULTY",
      "rows": [{"F.SSN": "p1"}, {"F.SSN": "p2"}]},
     b'[{"F.SSN":"p1"},{"F.SSN":"p2"}],"lsn":3'),
    ({"verb": "apply_batch", "ops": [
        ["insert", "STUDENT", {"S.SSN": "p3"}],
        ["insert", "DEPARTMENT", {"D.NAME": "cs"}],
        ["insert", "DEPARTMENT", {"D.NAME": "ee"}],
        ["insert", "COURSE", {"C.NR": "c1"}],
        ["insert", "COURSE", {"C.NR": "c2"}],
        ["insert", "COURSE", {"C.NR": "c3"}],
        ["insert", "OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"}],
        ["insert", "OFFER", {"O.C.NR": "c2", "O.D.NAME": "cs"}]]},
     b'[{"S.SSN":"p3"},{"D.NAME":"cs"},{"D.NAME":"ee"},{"C.NR":"c1"},'
     b'{"C.NR":"c2"},{"C.NR":"c3"},{"O.C.NR":"c1","O.D.NAME":"cs"},'
     b'{"O.C.NR":"c2","O.D.NAME":"cs"}],"lsn":4'),
    ({"verb": "insert", "scheme": "TEACH",
      "row": {"T.C.NR": "c1", "T.F.SSN": "p1"}},
     b'{"T.C.NR":"c1","T.F.SSN":"p1"},"lsn":5'),
    ({"verb": "update", "scheme": "TEACH", "pk": ["c1"],
      "updates": {"T.F.SSN": "p2"}},
     b'{"T.C.NR":"c1","T.F.SSN":"p2"},"lsn":6'),
    ({"verb": "get", "scheme": "OFFER", "pk": ["c1"]},
     b'{"O.C.NR":"c1","O.D.NAME":"cs"}'),
    ({"verb": "get", "scheme": "TEACH", "pk": ["c1"]},
     b'{"T.C.NR":"c1","T.F.SSN":"p2"}'),
    ({"verb": "get", "scheme": "COURSE", "pk": ["c2"]}, b'{"C.NR":"c2"}'),
    ({"verb": "get", "scheme": "OFFER", "pk": ["c9"]}, b"null"),
    ({"verb": "join_to", "scheme": "TEACH", "pk": ["c1"], "via": ["T.C.NR"],
      "target_scheme": "OFFER"},
     b'{"O.C.NR":"c1","O.D.NAME":"cs"}'),
    ({"verb": "join_to", "scheme": "OFFER", "pk": ["c2"], "via": ["O.D.NAME"],
      "target_scheme": "DEPARTMENT"},
     b'{"D.NAME":"cs"}'),
    ({"verb": "find_referencing", "scheme": "DEPARTMENT", "pk": ["cs"],
      "source_scheme": "OFFER", "via": ["O.D.NAME"], "target_attrs": ["D.NAME"]},
     b'[{"O.C.NR":"c1","O.D.NAME":"cs"},{"O.C.NR":"c2","O.D.NAME":"cs"}]'),
    ({"verb": "apply_batch", "ops": [
        ["update", "OFFER", ["c1"], {"O.D.NAME": "ee"}],
        ["delete", "OFFER", ["c2"]],
        ["delete", "COURSE", ["c2"]]]},
     b'[{"O.C.NR":"c1","O.D.NAME":"ee"},null,null],"lsn":7'),
    ({"verb": "insert_many", "scheme": "ASSIST",
      "rows": [{"A.C.NR": "c1", "A.S.SSN": "p3"}]},
     b'[{"A.C.NR":"c1","A.S.SSN":"p3"}],"lsn":8'),
    ({"verb": "apply_merge", "members": FAMILY},
     b'{"merged_name":"COURSE\'","members":["COURSE","OFFER","TEACH",'
     b'"ASSIST"],"key_relation":"COURSE","removed":[["O.C.NR"],["T.C.NR"],'
     b'["A.C.NR"]],"schemes":["PERSON","FACULTY","STUDENT","DEPARTMENT",'
     b'"COURSE\'"]},"lsn":11'),
    ({"verb": "get", "scheme": MERGED, "pk": ["c1"]},
     b'{"C.NR":"c1","O.D.NAME":"ee","T.F.SSN":"p2","A.S.SSN":"p3"}'),
    ({"verb": "get", "scheme": MERGED, "pk": ["c3"]},
     b'{"C.NR":"c3","O.D.NAME":{"$null":true},"T.F.SSN":{"$null":true},'
     b'"A.S.SSN":{"$null":true}}'),
    ({"verb": "insert_many", "scheme": MERGED, "rows": [
        {"C.NR": "c4", "O.D.NAME": "cs", "T.F.SSN": NULL, "A.S.SSN": NULL},
        {"C.NR": "c5", "O.D.NAME": NULL, "T.F.SSN": NULL, "A.S.SSN": NULL}]},
     b'[{"C.NR":"c4","O.D.NAME":"cs","T.F.SSN":{"$null":true},'
     b'"A.S.SSN":{"$null":true}},{"C.NR":"c5","O.D.NAME":{"$null":true},'
     b'"T.F.SSN":{"$null":true},"A.S.SSN":{"$null":true}}],"lsn":12'),
    ({"verb": "apply_batch", "ops": [
        ["update", MERGED, ["c4"], {"T.F.SSN": "p1"}],
        ["delete", MERGED, ["c5"]]]},
     b'[{"C.NR":"c4","O.D.NAME":"cs","T.F.SSN":"p1",'
     b'"A.S.SSN":{"$null":true}},null],"lsn":13'),
    ({"verb": "get", "scheme": MERGED, "pk": ["c4"]},
     b'{"C.NR":"c4","O.D.NAME":"cs","T.F.SSN":"p1","A.S.SSN":{"$null":true}}'),
    ({"verb": "find_referencing", "scheme": "DEPARTMENT", "pk": ["cs"],
      "source_scheme": MERGED, "via": ["O.D.NAME"], "target_attrs": ["D.NAME"]},
     b'[{"C.NR":"c4","O.D.NAME":"cs","T.F.SSN":"p1",'
     b'"A.S.SSN":{"$null":true}}]'),
    ({"verb": "join_to", "scheme": MERGED, "pk": ["c1"], "via": ["T.F.SSN"],
      "target_scheme": "FACULTY"},
     b'{"F.SSN":"p2"}'),
]


def test_served_answers_keep_their_bytes():
    db = Database(UNIVERSITY, wal=WriteAheadLog(MemoryStorage()))
    responses = []
    with ServerThread(db) as served:
        with socket.create_connection(("127.0.0.1", served.port)) as sock:
            stream = sock.makefile("rwb")
            for i, (request, _result) in enumerate(SERVED, 1):
                stream.write(encode_frame({"id": i, **request, "span": SPAN}))
                stream.flush()
                responses.append(stream.readline())
    trace = b'"trace_id":"' + b"ab" * 16 + b'"}\n'
    for i, ((_request, result), response) in enumerate(zip(SERVED, responses), 1):
        head = b'{"id":%d,"ok":true,"result":' % i
        assert response == head + result + b"," + trace, i
    assert assert_value_form(db)
