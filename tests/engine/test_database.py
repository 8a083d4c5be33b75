"""The constraint-enforcing storage engine."""

import pytest

from repro.constraints.checker import ConsistencyChecker
from repro.engine.database import ConstraintViolationError, Database
from repro.engine.wal import MemoryStorage, WriteAheadLog
from repro.relational.state import DatabaseState
from repro.relational.tuples import NULL
from repro.workloads.university import university_state


@pytest.fixture
def db(university_schema):
    database = Database(university_schema)
    database.insert("COURSE", {"C.NR": "c1"})
    database.insert("DEPARTMENT", {"D.NAME": "cs"})
    database.insert("PERSON", {"P.SSN": "p1"})
    database.insert("FACULTY", {"F.SSN": "p1"})
    database.insert("OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"})
    return database


class TestInsert:
    def test_happy_path_counts(self, db):
        assert db.count("OFFER") == 1
        assert db.stats.inserts == 5

    def test_shape_mismatch(self, db):
        with pytest.raises(ConstraintViolationError, match="structure"):
            db.insert("COURSE", {"WRONG": 1})

    def test_null_constraint_enforced(self, db):
        with pytest.raises(ConstraintViolationError, match="O.C.NR"):
            db.insert("OFFER", {"O.C.NR": NULL, "O.D.NAME": "cs"})

    def test_primary_key_uniqueness(self, db):
        with pytest.raises(ConstraintViolationError, match="duplicate"):
            db.insert("COURSE", {"C.NR": "c1"})

    def test_dangling_reference_rejected(self, db):
        with pytest.raises(ConstraintViolationError, match="no COURSE row"):
            db.insert("OFFER", {"O.C.NR": "ghost", "O.D.NAME": "cs"})

    def test_chained_reference(self, db):
        db.insert("TEACH", {"T.C.NR": "c1", "T.F.SSN": "p1"})
        with pytest.raises(ConstraintViolationError):
            db.insert("TEACH", {"T.C.NR": "c1", "T.F.SSN": "ghost"})


class TestDelete:
    def test_restrict_on_referenced(self, db):
        with pytest.raises(ConstraintViolationError, match="restrict-delete"):
            db.delete("COURSE", "c1")

    def test_delete_leaf_then_parent(self, db):
        db.delete("OFFER", "c1")
        db.delete("COURSE", "c1")
        assert db.count("COURSE") == 0

    def test_delete_missing_row(self, db):
        with pytest.raises(KeyError):
            db.delete("COURSE", "ghost")


class TestUpdate:
    def test_simple_update(self, db):
        db.insert("DEPARTMENT", {"D.NAME": "math"})
        db.update("OFFER", "c1", {"O.D.NAME": "math"})
        assert db.get("OFFER", "c1")["O.D.NAME"] == "math"

    def test_update_to_dangling_reference_rejected(self, db):
        with pytest.raises(ConstraintViolationError):
            db.update("OFFER", "c1", {"O.D.NAME": "ghost"})

    def test_update_referenced_value_restricted(self, db):
        with pytest.raises(ConstraintViolationError, match="restrict-update"):
            db.update("COURSE", "c1", {"C.NR": "c9"})

    def test_update_null_constraint(self, db):
        with pytest.raises(ConstraintViolationError):
            db.update("OFFER", "c1", {"O.D.NAME": NULL})

    def test_update_missing_row(self, db):
        with pytest.raises(KeyError):
            db.update("OFFER", "ghost", {"O.D.NAME": "cs"})


class TestNullableCandidateKeys:
    def _schema(self):
        from repro.constraints.nulls import nulls_not_allowed
        from repro.relational.attributes import Attribute, Domain
        from repro.relational.schema import RelationScheme, RelationalSchema

        d, e = Domain("d"), Domain("e")
        k = Attribute("R.K", d)
        u = Attribute("R.U", e)
        scheme = RelationScheme("R", (k, u), (k,), frozenset({(u,)}))
        return RelationalSchema(
            schemes=(scheme,),
            null_constraints=(nulls_not_allowed("R", ["R.K"]),),
        )

    def test_duplicate_nulls_allowed_total_duplicates_rejected(self):
        """A nullable candidate key binds only when total (the FD
        semantics Section 5.1 implies for systems that distinguish
        nulls): many null entries coexist, total duplicates clash."""
        db = Database(self._schema())
        db.insert("R", {"R.K": "k1", "R.U": NULL})
        db.insert("R", {"R.K": "k2", "R.U": NULL})
        db.insert("R", {"R.K": "k3", "R.U": "u1"})
        with pytest.raises(ConstraintViolationError, match="candidate key"):
            db.insert("R", {"R.K": "k4", "R.U": "u1"})

    def test_merged_schema_rejects_total_duplicates_somehow(
        self, university_schema
    ):
        """On a merged schema the duplicate old-key value is caught (by
        the total-equality constraint, whose violation precedes the
        candidate-key clash)."""
        from repro.core.merge import merge

        result = merge(university_schema, ["COURSE", "OFFER"])
        db = Database(result.schema)
        db.insert("DEPARTMENT", {"D.NAME": "cs"})
        db.insert(
            result.info.merged_name,
            {"C.NR": "c3", "O.C.NR": "c3", "O.D.NAME": "cs"},
        )
        with pytest.raises(ConstraintViolationError):
            db.insert(
                result.info.merged_name,
                {"C.NR": "c4", "O.C.NR": "c3", "O.D.NAME": "cs"},
            )


class TestBulkLoadAndState:
    def test_load_round_trip(self, university_schema):
        state = university_state(n_courses=12, seed=4)
        db = Database(university_schema)
        db.load_state(state)
        assert db.state() == state

    def test_load_validates(self, university_schema):
        state = university_state(n_courses=4, seed=4)
        broken = state.with_relation(
            "OFFER",
            state["OFFER"].with_tuples(
                [
                    __import__(
                        "repro.relational.tuples", fromlist=["Tuple"]
                    ).Tuple({"O.C.NR": "ghost", "O.D.NAME": "nowhere"})
                ]
            ),
        )
        db = Database(university_schema)
        with pytest.raises(ConstraintViolationError, match="bulk-load"):
            db.load_state(broken)

    @pytest.mark.parametrize("validate", [True, False])
    def test_load_refuses_two_rows_on_one_key(self, university_schema, validate):
        """Storing both rows is impossible; keeping one would lose the
        other silently.  The load is refused before anything changes,
        the log included."""
        state = DatabaseState.for_schema(
            university_schema,
            {
                "COURSE": [{"C.NR": "c1"}],
                "DEPARTMENT": [{"D.NAME": "cs"}, {"D.NAME": "ee"}],
                "OFFER": [
                    {"O.C.NR": "c1", "O.D.NAME": "cs"},
                    {"O.C.NR": "c1", "O.D.NAME": "ee"},
                ],
            },
        )
        storage = MemoryStorage()
        db = Database(university_schema, wal=WriteAheadLog(storage))
        db.insert("COURSE", {"C.NR": "kept"})
        logged = storage.read()
        with pytest.raises(ConstraintViolationError) as refused:
            db.load_state(state, validate=validate)
        assert refused.value.kind == "key-dependency"
        assert "[key-dependency] OFFER: O.C.NR -> " in str(refused.value)
        assert db.count("COURSE") == 1 and db.count("OFFER") == 0
        assert storage.read() == logged

    def test_state_snapshot_consistent(self, db, university_schema):
        assert ConsistencyChecker(university_schema).is_consistent(db.state())

    def test_mutations_keep_consistency(self, db, university_schema):
        db.insert("TEACH", {"T.C.NR": "c1", "T.F.SSN": "p1"})
        db.insert("COURSE", {"C.NR": "c2"})
        db.delete("COURSE", "c2")
        assert ConsistencyChecker(university_schema).is_consistent(db.state())


def test_unknown_scheme_access(db):
    with pytest.raises(KeyError):
        db.get("NOPE", "x")
