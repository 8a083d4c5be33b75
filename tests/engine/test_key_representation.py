"""The engine's one rule for keys: a key or reference value is
``itemgetter(*names)(row)`` -- the bare value for one attribute, a tuple
for two or more.

Stored rows, candidate-key indexes and reverse-reference indexes are
keyed by such values after every path that installs rows, and a key
given from outside is accepted bare or as a 1-tuple alike.
"""

from __future__ import annotations

import os

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.client import Client
from repro.core.planner import MergePlanner
from repro.eer.model import (
    Cardinality,
    EERAttribute,
    EERSchema,
    EntitySet,
    Participation,
    RelationshipSet,
)
from repro.eer.translate import translate_eer
from repro.engine.database import ConstraintViolationError, Database
from repro.engine.recovery import recover_database
from repro.engine.wal import MemoryStorage, WriteAheadLog
from repro.relational.attributes import Domain
from repro.server import ServerConfig, ServerThread
from repro.workloads.random_schemas import random_schema
from repro.workloads.random_states import random_consistent_state
from repro.workloads.university import university_relational, university_state
from repro.workloads.warehouse import warehouse_state, warehouse_translation

from tests.engine.test_online_merge import PARAMS, SEEDS

UNIVERSITY = university_relational()
FAMILY = ["COURSE", "OFFER", "TEACH", "ASSIST"]


def _has_form(value, width: int) -> bool:
    if width == 1:
        return not isinstance(value, tuple)
    return isinstance(value, tuple) and len(value) == width


def assert_key_forms(db: Database) -> dict[str, int]:
    """Every stored key, candidate-key index entry and reverse-reference
    index entry has the rule's form.  Returns how many keys and index
    values were checked, by width (``"bare"``/``"tuple"``)."""
    seen = {"bare": 0, "tuple": 0}

    def check(value, width, where):
        assert _has_form(value, width), (where, value)
        seen["bare" if width == 1 else "tuple"] += 1

    for name, table in db._tables.items():
        width = len(table.plan.key_names)
        for pk, row in table.rows.items():
            check(pk, width, name)
            assert table.plan.pk(row) == pk
        for key_names, index in table.key_indexes.items():
            for value, owner in index.items():
                check(value, len(key_names), (name, key_names))
                check(owner, width, (name, key_names))
        for attrs, gindex in table.group_indexes.items():
            for value, bucket in gindex.items():
                check(value, len(attrs), (name, attrs))
                for pk in bucket:
                    check(pk, width, (name, attrs))
    return seen


def _university(**kwargs) -> Database:
    db = Database(UNIVERSITY, **kwargs)
    db.load_state(university_state(n_courses=30, seed=4))
    return db


def _logged() -> Database:
    return _university(wal=WriteAheadLog(MemoryStorage()))


# -- one-attribute keys after every install path -----------------------------


def test_row_path_insert_and_update_store_bare_keys():
    db = Database(UNIVERSITY)
    db.insert("COURSE", {"C.NR": "c1"})
    db.insert("DEPARTMENT", {"D.NAME": "cs"})
    db.insert("DEPARTMENT", {"D.NAME": "ee"})
    db.insert("OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"})
    db.update("OFFER", "c1", {"O.D.NAME": "ee"})
    assert list(db.table("COURSE").rows) == ["c1"]
    assert db.table("OFFER").group_indexes[("O.D.NAME",)] == {"ee": {"c1": None}}
    assert assert_key_forms(db)["tuple"] == 0


@pytest.mark.parametrize("slotted", [True, False])
def test_bulk_paths_store_bare_keys(slotted):
    """``insert_many`` and ``apply_batch``, on the columnar path and on
    the row path."""
    db = Database(UNIVERSITY, slotted=slotted)
    db.insert_many("COURSE", [{"C.NR": f"c{i}"} for i in range(4)])
    db.insert_many("DEPARTMENT", [{"D.NAME": "cs"}, {"D.NAME": "ee"}])
    db.apply_batch(
        [("insert", "OFFER", {"O.C.NR": f"c{i}", "O.D.NAME": "cs"}) for i in range(4)]
    )
    db.apply_batch(
        [
            ("update", "OFFER", ("c0",), {"O.D.NAME": "ee"}),
            ("update", "OFFER", "c1", {"O.D.NAME": "ee"}),
            ("delete", "OFFER", ("c2",)),
            ("delete", "OFFER", "c3"),
        ]
    )
    db.apply_batch(  # a mixed batch: the row path on either switch
        [
            ("insert", "COURSE", {"C.NR": "c9"}),
            ("update", "OFFER", ("c0",), {"O.D.NAME": "cs"}),
            ("delete", "COURSE", "c3"),
        ]
    )
    assert sorted(db.table("OFFER").rows) == ["c0", "c1"]
    assert db.table("OFFER").group_indexes[("O.D.NAME",)] == {
        "ee": {"c1": None},
        "cs": {"c0": None},
    }
    assert "c3" not in db.table("COURSE").rows
    assert assert_key_forms(db)["tuple"] == 0


def test_a_rejected_batch_leaves_bare_keys():
    db = _university()
    before = db.state()
    offer = next(iter(db.table("OFFER").rows))
    with pytest.raises(ConstraintViolationError):
        db.apply_batch(
            [
                ("update", "OFFER", (offer,), {"O.D.NAME": "no-such-dept"}),
                ("delete", "OFFER", offer),
            ]
        )
    with pytest.raises(ConstraintViolationError):
        db.apply_batch(
            [
                ("insert", "COURSE", {"C.NR": "fresh"}),
                ("update", "OFFER", offer, {"O.D.NAME": "no-such-dept"}),
            ]
        )
    assert db.state() == before
    assert assert_key_forms(db)["bare"] > 0
    assert assert_key_forms(db)["tuple"] == 0


def test_recovery_of_a_version_3_log_stores_bare_keys():
    db = _logged()
    assists = list(db.table("ASSIST").rows)[:3]
    db.apply_batch([("delete", "ASSIST", pk) for pk in assists[:2]])
    offers = list(db.table("OFFER").rows)[:2]
    department = db.get("OFFER", offers[1])["O.D.NAME"]
    db.update("OFFER", (offers[0],), {"O.D.NAME": department})
    db.delete("ASSIST", assists[2])
    db.checkpoint()
    db.insert_many("COURSE", [{"C.NR": "new-1"}, {"C.NR": "new-2"}])
    db.apply_batch([("delete", "COURSE", "new-1")])
    recovered = recover_database(
        UNIVERSITY, storage=MemoryStorage(db.wal.storage.read())
    ).database
    assert recovered.state() == db.state()
    assert assert_key_forms(recovered)["tuple"] == 0


def test_recovery_of_a_version_2_log_stores_bare_keys():
    path = os.path.join(os.path.dirname(__file__), "data", "wal_v2.log")
    with open(path, "rb") as f:
        data = f.read()
    db = recover_database(UNIVERSITY, storage=MemoryStorage(data)).database
    forms = assert_key_forms(db)
    assert forms["bare"] > 0 and forms["tuple"] == 0


def test_load_image_stores_bare_keys():
    source = _university()
    db = Database(UNIVERSITY)
    db.load_image(source.snapshot_image())
    assert db.state() == source.state()
    assert assert_key_forms(db)["tuple"] == 0


def test_replica_bootstrap_image_stores_bare_keys():
    """The image a replica bootstraps from comes over the wire, with
    every key written as a value list."""
    primary = _logged()
    with ServerThread(primary, ServerConfig(max_connections=4)) as served:
        with Client(port=served.port, timeout=30) as c:
            snapshot = c.call("repl_snapshot")
    replica = Database(UNIVERSITY, wal=WriteAheadLog(MemoryStorage()))
    replica.load_image(snapshot)
    assert replica.state() == primary.state()
    assert assert_key_forms(replica)["tuple"] == 0


def test_online_merge_stores_bare_keys():
    db = _university()
    db.apply_merge_online(FAMILY)
    (merged,) = set(db.schema.scheme_names) - set(UNIVERSITY.scheme_names)
    assert all(type(pk) is str for pk in db.table(merged).rows)
    assert assert_key_forms(db)["tuple"] == 0


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_random_schemas_keep_bare_candidate_keys(seed):
    """Random schemas with one-attribute candidate keys (nullable, under
    both null semantics) index them by bare values, also after a merge
    of one of their clusters."""
    generated = random_schema(PARAMS, seed=seed)
    schema = generated.schema
    for semantics in ("distinct", "identical"):
        db = Database(schema, null_semantics=semantics)
        db.load_state(random_consistent_state(schema, rows_per_scheme=6, seed=seed))
        assert assert_key_forms(db)["tuple"] == 0
        cluster = max(generated.clusters.values(), key=len)
        try:
            db.apply_merge_online(cluster)
        except ConstraintViolationError:
            continue  # the random state need not merge cleanly
        assert assert_key_forms(db)["tuple"] == 0


# -- composite keys stay tuples -----------------------------------------------


def test_composite_keys_stay_tuples_through_a_merge():
    """The warehouse schema's two-attribute keys stay 2-tuples, in
    its tables, its indexes and the merged ``{BIN, STOCKED}`` table."""
    schema = warehouse_translation().schema
    db = Database(schema, wal=WriteAheadLog(MemoryStorage()))
    db.load_state(warehouse_state(seed=2))
    assert assert_key_forms(db)["tuple"] > 0
    pk = next(iter(db.table("STOCKED").rows))
    db.apply_batch([("delete", "STOCKED", pk)])
    db.apply_merge_online(["BIN", "STOCKED"])
    (merged,) = set(db.schema.scheme_names) - set(schema.scheme_names)
    assert all(len(pk) == 2 for pk in db.table(merged).rows)
    recovered = recover_database(
        schema, storage=MemoryStorage(db.wal.storage.read())
    ).database
    assert recovered.state() == db.state()
    for engine in (db, recovered):
        forms = assert_key_forms(engine)
        assert forms["tuple"] > 0 and forms["bare"] > 0


@st.composite
def composite_schemas(draw):
    """Random EER schemas whose entity-sets have one- or two-attribute
    identifiers, with many-to-one relationship-sets between them: the
    translation keys the relations, and their references, by those
    identifiers."""
    n_entities = draw(st.integers(min_value=2, max_value=4))
    entities = []
    for i in range(n_entities):
        n_ident = 2 if i == 0 else draw(st.integers(min_value=1, max_value=2))
        n_attrs = n_ident + draw(st.integers(min_value=0, max_value=2))
        attrs = tuple(
            EERAttribute(
                f"A{j}",
                Domain(f"dom-{i}-{j}"),
                required=(j < n_ident or draw(st.booleans())),
            )
            for j in range(n_attrs)
        )
        identifier = tuple(f"A{j}" for j in range(n_ident))
        entities.append(EntitySet(f"E{i}", attrs, identifier=identifier))
    relationships = []
    for r in range(draw(st.integers(min_value=1, max_value=3))):
        many = draw(st.integers(min_value=0, max_value=n_entities - 1))
        one = (many + 1 + draw(st.integers(0, n_entities - 2))) % n_entities
        relationships.append(
            RelationshipSet(
                f"R{r}",
                (),
                participants=(
                    Participation(f"E{many}", Cardinality.MANY),
                    Participation(f"E{one}", Cardinality.ONE),
                ),
            )
        )
    return translate_eer(
        EERSchema("generated", tuple(entities) + tuple(relationships))
    ).schema


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(schema=composite_schemas(), seed=st.integers(0, 1000))
def test_composite_keys_on_random_schemas_stay_tuples(schema, seed):
    db = Database(schema, wal=WriteAheadLog(MemoryStorage()))
    state = random_consistent_state(schema, rows_per_scheme=5, seed=seed)
    db.load_state(state)
    assert assert_key_forms(db)["tuple"] > 0
    for scheme in schema.schemes:
        rows = db.table(scheme.name).rows
        keys = list(rows)[:2]
        removed = [dict(rows[pk]) for pk in keys]
        try:
            db.apply_batch([("delete", scheme.name, pk) for pk in keys])
        except ConstraintViolationError:
            continue  # still referenced: restrict
        db.insert_many(scheme.name, removed)
    for family in MergePlanner(schema).candidate_families()[:1]:
        db.apply_merge_online(list(family.members), family.key_relation)
    recovered = recover_database(
        schema, storage=MemoryStorage(db.wal.storage.read())
    ).database
    assert recovered.state() == db.state()
    for engine in (db, recovered):
        assert assert_key_forms(engine)["tuple"] > 0


# -- keys from outside ----------------------------------------------------------


def test_get_update_delete_accept_bare_and_tuple_keys():
    db = _university()
    offer = next(iter(db.table("OFFER").rows))
    assert db.get("OFFER", offer) == db.get("OFFER", (offer,)) is not None
    department = db.get("OFFER", offer)["O.D.NAME"]
    assert db.update("OFFER", (offer,), {"O.D.NAME": department})
    assert db.update("OFFER", offer, {"O.D.NAME": department})
    first, second = list(db.table("ASSIST").rows)[:2]
    db.delete("ASSIST", (first,))
    assert db.get("ASSIST", first) is None
    db.delete("ASSIST", second)
    assert db.get("ASSIST", (second,)) is None
    with pytest.raises(KeyError, match=r"no row with key \('gone',\)"):
        db.delete("ASSIST", "gone")
    assert assert_key_forms(db)["tuple"] == 0


def test_served_keys_accept_bare_and_tuple_forms():
    db = _logged()
    offer = next(iter(db.table("OFFER").rows))
    department = db.get("OFFER", offer)["O.D.NAME"]
    first, second = list(db.table("ASSIST").rows)[:2]
    with ServerThread(db, ServerConfig(max_connections=4)) as served:
        with Client(port=served.port, timeout=30) as c:
            assert c.get("OFFER", offer) == c.get("OFFER", (offer,))
            c.update("OFFER", (offer,), {"O.D.NAME": department})
            c.update("OFFER", offer, {"O.D.NAME": department})
            assert c.call(
                "exists", scheme="DEPARTMENT", attrs=["D.NAME"], value=[department]
            ) == {"exists": True}
            assert c.call(
                "exists", scheme="OFFER", attrs=["O.D.NAME"], value=[department]
            ) == {"exists": True}
            c.delete("ASSIST", (first,))
            c.delete("ASSIST", second)
            assert c.get("ASSIST", first) is c.get("ASSIST", (second,)) is None
    assert assert_key_forms(db)["tuple"] == 0
