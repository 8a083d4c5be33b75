"""Bulk mutations: ``insert_many`` and ``apply_batch``.

Both run under one transaction with *deferred* reference checking:
immediate per-row shape/null/key checks, inclusion dependencies verified
against the batch's final state.  Order inside a batch therefore does
not matter -- children before parents, parents deleted before children.
"""

import pytest

from repro.constraints.inclusion import InclusionDependency
from repro.constraints.nulls import nulls_not_allowed
from repro.engine.database import ConstraintViolationError, Database
from repro.engine.wal import MemoryStorage, WriteAheadLog, parse_wal
from repro.obs.trace import RingBufferTracer
from repro.relational.attributes import Attribute, Domain
from repro.relational.schema import RelationScheme, RelationalSchema
from repro.relational.tuples import NULL


@pytest.fixture
def emp_db():
    """EMP(E.ID*, E.MGR) with EMP[E.MGR] <= EMP[E.ID], E.MGR nullable --
    the self-referencing shape where batch order matters most."""
    d = Domain("id")
    eid = Attribute("E.ID", d)
    mgr = Attribute("E.MGR", d)
    schema = RelationalSchema(
        schemes=(RelationScheme("EMP", (eid, mgr), (eid,)),),
        inds=(InclusionDependency("EMP", ("E.MGR",), "EMP", ("E.ID",)),),
        null_constraints=(nulls_not_allowed("EMP", ["E.ID"]),),
    )
    return Database(schema)


@pytest.fixture
def uni_db(university_schema):
    db = Database(university_schema)
    db.insert("DEPARTMENT", {"D.NAME": "cs"})
    return db


class TestInsertMany:
    def test_out_of_order_self_references(self, emp_db):
        """A row may reference a row appearing later in the same batch
        (per-row insert would reject this very sequence)."""
        with pytest.raises(ConstraintViolationError):
            emp_db.insert("EMP", {"E.ID": "e2", "E.MGR": "e1"})
        rows = emp_db.insert_many(
            "EMP",
            [
                {"E.ID": "e2", "E.MGR": "e1"},
                {"E.ID": "e1", "E.MGR": NULL},
            ],
        )
        assert len(rows) == 2
        assert emp_db.count("EMP") == 2

    def test_atomic_rollback_on_dangling(self, emp_db):
        with pytest.raises(ConstraintViolationError, match="no EMP row"):
            emp_db.insert_many(
                "EMP",
                [
                    {"E.ID": "e1", "E.MGR": NULL},
                    {"E.ID": "e2", "E.MGR": "ghost"},
                ],
            )
        assert emp_db.count("EMP") == 0

    def test_intra_batch_duplicate_key_rejected(self, uni_db):
        with pytest.raises(ConstraintViolationError, match="duplicate"):
            uni_db.insert_many(
                "COURSE", [{"C.NR": "c1"}, {"C.NR": "c1"}]
            )
        assert uni_db.count("COURSE") == 0

    def test_same_error_as_per_row_path(self, uni_db):
        with pytest.raises(ConstraintViolationError, match="structure"):
            uni_db.insert_many("COURSE", [{"WRONG": 1}])

    def test_nested_in_outer_transaction(self, uni_db):
        with pytest.raises(RuntimeError):
            with uni_db.transaction():
                uni_db.insert_many(
                    "COURSE", [{"C.NR": "c1"}, {"C.NR": "c2"}]
                )
                raise RuntimeError("outer failure")
        assert uni_db.count("COURSE") == 0


class TestApplyBatch:
    def test_child_before_parent(self, uni_db):
        results = uni_db.apply_batch(
            [
                ("insert", "OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"}),
                ("insert", "COURSE", {"C.NR": "c1"}),
            ]
        )
        assert [r is not None for r in results] == [True, True]
        assert uni_db.count("OFFER") == 1

    def test_parent_deleted_before_children(self, uni_db):
        uni_db.insert("COURSE", {"C.NR": "c1"})
        uni_db.insert("OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"})
        with pytest.raises(ConstraintViolationError, match="restrict-delete"):
            uni_db.delete("COURSE", "c1")
        results = uni_db.apply_batch(
            [
                ("delete", "COURSE", "c1"),
                ("delete", "OFFER", "c1"),
            ]
        )
        assert results == [None, None]
        assert uni_db.count("COURSE") == 0
        assert uni_db.count("OFFER") == 0

    def test_dangling_after_batch_restricts(self, uni_db):
        uni_db.insert("COURSE", {"C.NR": "c1"})
        uni_db.insert("OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"})
        with pytest.raises(ConstraintViolationError, match="restrict-batch"):
            uni_db.apply_batch([("delete", "COURSE", "c1")])
        assert uni_db.count("COURSE") == 1  # rolled back

    def test_reference_rewired_in_two_steps(self, uni_db):
        uni_db.insert("COURSE", {"C.NR": "c1"})
        uni_db.insert("OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"})
        uni_db.insert("DEPARTMENT", {"D.NAME": "math"})
        uni_db.apply_batch(
            [
                ("update", "OFFER", "c1", {"O.D.NAME": "math"}),
                ("delete", "DEPARTMENT", ("cs",)),
            ]
        )
        assert uni_db.get("OFFER", "c1")["O.D.NAME"] == "math"
        assert uni_db.count("DEPARTMENT") == 1

    def test_missing_row_rolls_back_whole_batch(self, uni_db):
        with pytest.raises(KeyError):
            uni_db.apply_batch(
                [
                    ("insert", "COURSE", {"C.NR": "c1"}),
                    ("delete", "COURSE", "ghost"),
                ]
            )
        assert uni_db.count("COURSE") == 0

    def test_unknown_operation_rejected(self, uni_db):
        with pytest.raises(ValueError, match="unknown batch operation"):
            uni_db.apply_batch([("upsert", "COURSE", {"C.NR": "c1"})])

    def test_immediate_checks_still_immediate(self, uni_db):
        """Key violations do not wait for batch end: the second insert
        fails while the batch is still being applied."""
        with pytest.raises(ConstraintViolationError, match="duplicate"):
            uni_db.apply_batch(
                [
                    ("insert", "COURSE", {"C.NR": "c1"}),
                    ("insert", "COURSE", {"C.NR": "c1"}),
                ]
            )
        assert uni_db.count("COURSE") == 0

    def test_state_stays_consistent(self, uni_db, university_schema):
        from repro.constraints.checker import ConsistencyChecker

        uni_db.apply_batch(
            [
                ("insert", "OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"}),
                ("insert", "COURSE", {"C.NR": "c1"}),
                ("insert", "COURSE", {"C.NR": "c2"}),
                ("delete", "COURSE", "c2"),
            ]
        )
        checker = ConsistencyChecker(university_schema)
        assert checker.is_consistent(uni_db.state())


class TestDurableBulkPath:
    """With a write-ahead log (and a tracer) attached, an accepted batch
    still takes the columnar path and logs exactly one record."""

    @pytest.fixture
    def durable(self, university_schema):
        events = RingBufferTracer()
        db = Database(
            university_schema,
            wal=WriteAheadLog(MemoryStorage()),
            tracer=events,
        )
        return db, events

    def test_insert_many_adopts_rows_and_logs_one_record(self, durable):
        db, events = durable
        rows = [{"C.NR": f"c{i}"} for i in range(5)]
        stored = db.insert_many("COURSE", rows)
        # Adoption (the row dict *is* the tuple's mapping) only happens
        # on the columnar path; the row path copies.
        assert all(t.mapping is r for t, r in zip(stored, rows))
        ops = [r["op"] for r in parse_wal(db.wal.storage.read()).records]
        assert ops == ["header", "batch"]
        assert [(e.event, e.rows) for e in events.events] == [
            ("wal", 5),
            ("mutation", 5),
        ]

    def test_all_insert_and_all_delete_batches_log_one_record(self, durable):
        db, events = durable
        rows = [{"P.SSN": "s1"}, {"S.SSN": "s1"}]
        stored = db.apply_batch(
            [("insert", "PERSON", rows[0]), ("insert", "STUDENT", rows[1])]
        )
        assert [t.mapping for t in stored] == rows
        assert all(t.mapping is r for t, r in zip(stored, rows))
        db.apply_batch(
            [("delete", "STUDENT", "s1"), ("delete", "PERSON", ("s1",))]
        )
        ops = [r["op"] for r in parse_wal(db.wal.storage.read()).records]
        assert ops == ["header", "batch", "batch"]
        assert db.count("PERSON") == db.count("STUDENT") == 0

    def test_fallback_batch_logs_one_record(self, durable):
        db, events = durable
        db.apply_batch(
            [
                ("insert", "COURSE", {"C.NR": "c1"}),
                ("insert", "DEPARTMENT", {"D.NAME": "cs"}),
                ("insert", "OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"}),
                ("update", "OFFER", ("c1",), {"O.D.NAME": "cs"}),
            ]
        )
        ops = [r["op"] for r in parse_wal(db.wal.storage.read()).records]
        assert ops == ["header", "batch"]
        summary = [e for e in events.events if e.event in ("wal", "mutation")]
        assert [(e.event, e.op, e.rows) for e in summary] == [
            ("wal", "apply_batch", 4),
            ("mutation", "apply_batch", 4),
        ]

    def test_rejected_batch_logs_nothing(self, durable):
        db, _events = durable
        for batch in (
            lambda: db.insert_many("TEACH", [{"T.C.NR": "x", "T.F.SSN": "y"}]),
            lambda: db.apply_batch([("delete", "COURSE", ("ghost",))]),
        ):
            with pytest.raises((ConstraintViolationError, KeyError)):
                batch()
        ops = [r["op"] for r in parse_wal(db.wal.storage.read()).records]
        assert ops == ["header"]


class TestColumnarUpdates:
    """Update/delete batches take the columnar path when no key changes
    and no key repeats; everything else is the row path's to decide."""

    @pytest.fixture
    def served(self, university_schema, monkeypatch):
        """A durable database with a department, two courses, their
        offers, a teacher and an assistant -- and a row path that
        records whether it ran."""
        db = Database(university_schema, wal=WriteAheadLog(MemoryStorage()))
        for scheme, row in (
            ("DEPARTMENT", {"D.NAME": "cs"}),
            ("DEPARTMENT", {"D.NAME": "math"}),
            ("PERSON", {"P.SSN": "p1"}),
            ("PERSON", {"P.SSN": "p2"}),
            ("FACULTY", {"F.SSN": "p1"}),
            ("FACULTY", {"F.SSN": "p2"}),
            ("STUDENT", {"S.SSN": "p2"}),
            ("COURSE", {"C.NR": "c1"}),
            ("COURSE", {"C.NR": "c2"}),
            ("OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"}),
            ("OFFER", {"O.C.NR": "c2", "O.D.NAME": "cs"}),
            ("TEACH", {"T.C.NR": "c1", "T.F.SSN": "p1"}),
            ("ASSIST", {"A.C.NR": "c1", "A.S.SSN": "p2"}),
        ):
            db.insert(scheme, row)
        row_path = []
        original = db._apply_batch

        def spy(ops):
            row_path.append(len(ops))
            return original(ops)

        monkeypatch.setattr(db, "_apply_batch", spy)
        return db, row_path

    def test_update_delete_batch_is_columnar_and_logs_one_record(
        self, served
    ):
        db, row_path = served
        before = parse_wal(db.wal.storage.read()).records
        results = db.apply_batch(
            [
                ("update", "OFFER", ("c1",), {"O.D.NAME": "math"}),
                ("delete", "ASSIST", "c1"),
                ("update", "TEACH", "c1", {"T.F.SSN": "p2"}),
            ]
        )
        assert row_path == []
        assert [r.mapping if r else r for r in results] == [
            {"O.C.NR": "c1", "O.D.NAME": "math"},
            None,
            {"T.C.NR": "c1", "T.F.SSN": "p2"},
        ]
        assert db.get("OFFER", "c1") == results[0]
        assert db.table("OFFER").rows["c1"] == ("c1", "math")
        assert db.count("ASSIST") == 0
        after = parse_wal(db.wal.storage.read()).records
        assert [r["op"] for r in after[len(before):]] == ["batch"]
        # The group index follows the changed value.
        index = db.table("OFFER").group_indexes[("O.D.NAME",)]
        assert list(index["math"]) == ["c1"]
        assert list(index["cs"]) == ["c2"]
        assert (db.stats.updates, db.stats.deletes) == (2, 1)

    def test_update_to_a_provider_deleted_in_the_batch_is_rejected(
        self, served
    ):
        db, row_path = served
        with pytest.raises(ConstraintViolationError, match="O.D.NAME"):
            db.apply_batch(
                [
                    ("update", "OFFER", "c2", {"O.D.NAME": "math"}),
                    ("delete", "DEPARTMENT", "math"),
                ]
            )
        assert row_path == [2]  # the row path decided, and rolled back
        assert db.get("OFFER", "c2")["O.D.NAME"] == "cs"
        assert db.count("DEPARTMENT") == 2

    def test_dangling_update_is_rejected_by_the_row_path(self, served):
        db, row_path = served
        with pytest.raises(ConstraintViolationError, match="no DEPARTMENT"):
            db.apply_batch([("update", "OFFER", "c1", {"O.D.NAME": "ee"})])
        assert row_path == [1]

    def test_restricted_delete_next_to_updates_is_rejected(self, served):
        db, row_path = served
        with pytest.raises(ConstraintViolationError, match="restrict-batch"):
            db.apply_batch(
                [
                    ("update", "OFFER", "c2", {"O.D.NAME": "math"}),
                    ("delete", "FACULTY", "p2"),
                    ("delete", "FACULTY", "p1"),  # TEACH c1 needs it
                ]
            )
        assert row_path == [3]
        assert db.count("FACULTY") == 2
        assert db.get("OFFER", "c2")["O.D.NAME"] == "cs"

    @pytest.mark.parametrize(
        "ops",
        [
            # a key attribute changes
            [("update", "OFFER", "c1", {"O.C.NR": "c3"})],
            # one key twice
            [
                ("update", "OFFER", "c1", {"O.D.NAME": "math"}),
                ("update", "OFFER", "c1", {"O.D.NAME": "cs"}),
            ],
            # updated and deleted
            [
                ("update", "ASSIST", "c1", {"A.S.SSN": "p2"}),
                ("delete", "ASSIST", "c1"),
            ],
            # inserts mixed in
            [
                ("insert", "COURSE", {"C.NR": "c3"}),
                ("update", "OFFER", "c1", {"O.D.NAME": "math"}),
            ],
        ],
    )
    def test_shapes_the_columnar_checks_do_not_model_fall_back(
        self, served, ops
    ):
        db, row_path = served
        try:
            db.apply_batch(ops)
        except (ConstraintViolationError, KeyError):
            pass
        assert row_path == [len(ops)]


def _counts(db):
    stats = db.stats
    return (
        stats.inserts,
        stats.updates,
        stats.deletes,
        dict(stats.scheme_mutations),
    )


def test_rejected_row_path_batch_is_not_counted(uni_db):
    """A batch the deferred checks reject counts nothing: the counters
    and the advisor's workload profile see committed mutations only."""
    uni_db.insert("COURSE", {"C.NR": "c1"})
    before = _counts(uni_db)
    with pytest.raises(ConstraintViolationError):
        uni_db.apply_batch(
            [
                ("insert", "COURSE", {"C.NR": "c2"}),
                ("delete", "COURSE", "c1"),
                ("insert", "OFFER", {"O.C.NR": "c2", "O.D.NAME": "nowhere"}),
            ]
        )
    assert _counts(uni_db) == before
    assert uni_db.count("COURSE") == 1
    uni_db.apply_batch(
        [
            ("insert", "COURSE", {"C.NR": "c2"}),
            ("delete", "COURSE", "c1"),
            ("insert", "OFFER", {"O.C.NR": "c2", "O.D.NAME": "cs"}),
        ]
    )
    inserts, updates, deletes, mutations = _counts(uni_db)
    assert (inserts, updates, deletes) == (before[0] + 2, 0, 1)
    assert mutations["COURSE"] == before[3]["COURSE"] + 2
    assert mutations["OFFER"] == 1


def test_prepared_batch_counts_only_at_commit(uni_db):
    """A prepare that is aborted counts nothing; one that commits
    counts its ops once, at the commit."""
    before = _counts(uni_db)
    prepared = uni_db.apply_batch_prepare(
        [("insert", "COURSE", {"C.NR": "c1"})]
    )
    assert _counts(uni_db) == before
    prepared.abort()
    assert _counts(uni_db) == before
    prepared = uni_db.apply_batch_prepare(
        [("insert", "COURSE", {"C.NR": "c1"})]
    )
    prepared.commit()
    assert _counts(uni_db)[0] == before[0] + 1
    assert _counts(uni_db)[3]["COURSE"] == 1


def test_insert_many_is_one_insert_run(university_schema):
    """``insert_many`` logs the record and emits the trace events of
    one insert run, labelled ``insert_many`` with its scheme, on the
    columnar path and on the row path alike."""
    tracer = RingBufferTracer()
    db = Database(
        university_schema, wal=WriteAheadLog(MemoryStorage()), tracer=tracer
    )
    with pytest.raises(KeyError):
        db.insert_many("NOPE", [])
    db.insert("DEPARTMENT", {"D.NAME": "cs"})
    db.insert_many("COURSE", [{"C.NR": "c1"}, {"C.NR": "c2"}])
    with db.transaction():  # an open transaction takes the row path
        db.insert_many("COURSE", ({"C.NR": c} for c in ("c3", "c4")))
    batches = [
        r for r in parse_wal(db.wal.storage.read()).records
        if r["op"] == "batch"
    ]
    assert [b["runs"] for b in batches] == [
        [["insert", "COURSE", {"C.NR": ["c1", "c2"]}]],
        [["insert", "COURSE", {"C.NR": ["c3", "c4"]}]],
    ]
    labelled = [
        (e.event, e.op, e.scheme, e.rows)
        for e in tracer.events
        if e.op == "insert_many"
    ]
    assert labelled == [
        ("wal", "insert_many", "COURSE", 2),
        ("mutation", "insert_many", "COURSE", 2),
    ] * 2
    assert db.stats.inserts == 5
    assert db.stats.scheme_mutations["COURSE"] == 4
