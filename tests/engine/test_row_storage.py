"""How the engine stores rows: each table maps a primary key to the row's
plain dict, and :class:`Tuple` views are built only for the rows the
engine hands out.

A dict holding only untracked values (no ``NULL``) is not tracked by the
cyclic collector, so stored rows add nothing to a full collection's
walk; the views the engine returns still read as before.
"""

from __future__ import annotations

import gc

import pytest

from repro.engine.database import Database
from repro.engine.query import QueryEngine
from repro.engine.wal import MemoryStorage, WriteAheadLog
from repro.relational.tuples import NULL, Tuple
from repro.server.protocol import decode_frame, encode_frame
from repro.workloads.university import university_relational

UNIVERSITY = university_relational()
FAMILY = ["COURSE", "OFFER", "TEACH", "ASSIST"]


def _logged() -> Database:
    return Database(UNIVERSITY, wal=WriteAheadLog(MemoryStorage()))


def _people(db: Database, n: int = 3) -> None:
    db.insert_many("PERSON", [{"P.SSN": f"p{i}"} for i in range(n)])
    db.insert_many("FACULTY", [{"F.SSN": f"p{i}"} for i in range(n)])
    db.insert_many("STUDENT", [{"S.SSN": f"p{i}"} for i in range(n)])
    db.insert("DEPARTMENT", {"D.NAME": "cs"})


def _courses(db: Database, n: int = 3) -> None:
    """``n`` courses, each offered, taught and assisted: a NULL-free
    family, so the merged rows hold no ``NULL`` either."""
    db.insert_many("COURSE", [{"C.NR": f"c{i}"} for i in range(n)])
    db.insert_many(
        "OFFER", [{"O.C.NR": f"c{i}", "O.D.NAME": "cs"} for i in range(n)]
    )
    db.insert_many(
        "TEACH", [{"T.C.NR": f"c{i}", "T.F.SSN": f"p{i}"} for i in range(n)]
    )
    db.insert_many(
        "ASSIST", [{"A.C.NR": f"c{i}", "A.S.SSN": f"p{i}"} for i in range(n)]
    )


def _populated(db: Database) -> Database:
    _people(db)
    _courses(db)
    return db


def _assert_untracked(db: Database) -> None:
    """Every stored row is a plain dict; the NULL-free ones are not
    tracked by the collector."""
    seen = 0
    for name, table in db._tables.items():
        for row in table.rows.values():
            assert type(row) is dict, name
            if NULL not in row.values():
                assert not gc.is_tracked(row), (name, row)
                seen += 1
    assert seen


def test_bulk_insert_stores_the_adopted_dicts():
    db = Database(UNIVERSITY)
    rows = [{"C.NR": f"c{i}"} for i in range(5)]
    views = db.insert_many("COURSE", rows)
    stored = db.table("COURSE").rows
    for row in rows:
        assert stored[row["C.NR"]] is row
    assert [v.mapping for v in views] == rows
    assert all(v.mapping is row for v, row in zip(views, rows))
    _assert_untracked(db)


@pytest.mark.parametrize("slotted", [True, False])
def test_row_and_bulk_mutations_store_untracked_dicts(slotted):
    """A row insert, an update on the row path and on the columnar
    path, and bulk inserts all leave NULL-free stored rows untracked."""
    db = Database(UNIVERSITY, slotted=slotted)
    _populated(db)
    db.insert("COURSE", {"C.NR": "c9"})
    db.update("TEACH", "c1", {"T.F.SSN": "p2"})
    db.apply_batch([("update", "OFFER", ("c0",), {"O.D.NAME": "cs"})])
    db.apply_batch(
        [("update", "TEACH", ("c0",), {"T.F.SSN": "p1"}),
         ("update", "TEACH", ("c2",), {"T.F.SSN": "p0"})]
    )
    db.apply_batch([("insert", "COURSE", {"C.NR": "c10"})])
    assert db.get("TEACH", "c1").mapping == {"T.C.NR": "c1", "T.F.SSN": "p2"}
    _assert_untracked(db)


def test_recovery_stores_untracked_dicts():
    db = _populated(_logged())
    db.checkpoint()
    db.insert("COURSE", {"C.NR": "c9"})
    db.update("TEACH", "c1", {"T.F.SSN": "p2"})
    recovered = Database.recover(
        UNIVERSITY, storage=MemoryStorage(db.wal.storage.read())
    )
    assert recovered.state() == db.state()
    _assert_untracked(recovered)


def test_replica_bootstrap_stores_untracked_dicts():
    """A replica installs the primary's image as it crossed the wire."""
    primary = _populated(_logged())
    frame = decode_frame(
        encode_frame({"ok": True, "result": primary.snapshot_image()})
    )
    replica = _logged()
    replica.load_image(frame["result"])
    assert replica.state() == primary.state()
    _assert_untracked(replica)


def test_online_merge_stores_untracked_dicts():
    db = _populated(_logged())
    simplified = db.apply_merge_online(FAMILY)
    merged = db.table(simplified.info.merged_name)
    assert len(merged) == 3
    assert all(NULL not in row.values() for row in merged.rows.values())
    _assert_untracked(db)


def test_bulk_insert_adds_no_tracked_object_per_row():
    db = Database(UNIVERSITY)
    rows = [{"C.NR": f"c{i}"} for i in range(10_000)]
    gc.collect()
    before = len(gc.get_objects())
    db.insert_many("COURSE", rows)
    gc.collect()
    assert len(gc.get_objects()) - before < 100


def _view(values: dict) -> Tuple:
    return Tuple(values)


def test_rows_handed_out_are_tuples():
    """Every read and mutation hands out :class:`Tuple` views equal to
    the rows it stored or found."""
    db = Database(UNIVERSITY)
    _people(db)
    inserted = db.insert("COURSE", {"C.NR": "c0"})
    assert type(inserted) is Tuple
    assert inserted == _view({"C.NR": "c0"})
    many = db.insert_many("COURSE", [{"C.NR": "c1"}, {"C.NR": "c2"}])
    assert all(type(t) is Tuple for t in many)
    assert many == [_view({"C.NR": "c1"}), _view({"C.NR": "c2"})]
    offered = db.apply_batch(
        [("insert", "OFFER", {"O.C.NR": f"c{i}", "O.D.NAME": "cs"})
         for i in range(3)]
    )
    assert all(type(t) is Tuple for t in offered)
    assert offered[1] == _view({"O.C.NR": "c1", "O.D.NAME": "cs"})
    db.insert("TEACH", {"T.C.NR": "c0", "T.F.SSN": "p0"})
    updated = db.update("TEACH", "c0", {"T.F.SSN": "p1"})
    assert type(updated) is Tuple
    assert updated == _view({"T.C.NR": "c0", "T.F.SSN": "p1"})
    mixed = db.apply_batch(
        [("update", "TEACH", ("c0",), {"T.F.SSN": "p2"}),
         ("delete", "OFFER", ("c2",))]
    )
    assert mixed == [_view({"T.C.NR": "c0", "T.F.SSN": "p2"}), None]
    assert type(mixed[0]) is Tuple

    got = db.get("OFFER", "c1")
    assert type(got) is Tuple and got == _view({"O.C.NR": "c1", "O.D.NAME": "cs"})
    assert db.get("OFFER", "c9") is None
    scanned = list(db.scan("COURSE"))
    assert all(type(t) is Tuple for t in scanned)
    assert scanned == [_view({"C.NR": f"c{i}"}) for i in range(3)]

    q = QueryEngine(db)
    teach = db.get("TEACH", "c0")
    offer = q.join_to(teach, ["T.C.NR"], "OFFER")
    assert type(offer) is Tuple
    assert offer == _view({"O.C.NR": "c0", "O.D.NAME": "cs"})
    dept = q.join_to(offer, ["O.D.NAME"], "DEPARTMENT")
    assert dept == _view({"D.NAME": "cs"})
    referencing = q.find_referencing(
        dept, "OFFER", ["O.D.NAME"], ["D.NAME"]
    )
    assert all(type(t) is Tuple for t in referencing)
    assert referencing == [
        _view({"O.C.NR": f"c{i}", "O.D.NAME": "cs"}) for i in range(2)
    ]
    assert q.find_referencing(
        db.get("COURSE", "c0"), "OFFER", ["O.C.NR"], ["C.NR"]
    ) == [_view({"O.C.NR": "c0", "O.D.NAME": "cs"})]
    assert db.state()["COURSE"].tuples == frozenset(scanned)
