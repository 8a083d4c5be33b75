"""Differential testing: the engine's one bulk install against the
``state_from_dict`` + per-row install it replaced.

A snapshot image now goes straight into the tables
(``Database.load_image``, the bulk insert path's columnar install), and
the consistency re-check reads the tables instead of a rebuilt state
(``Database.violations``).  The reference below is the former install
loop, kept literally: it files every tuple of a decoded
:class:`~repro.relational.state.DatabaseState` into the rows, the
candidate-key indexes and the group indexes one by one.  Hypothesis
draws random schemas of the paper's class (nullable candidate keys
included) under both null semantics, and rows with ``NULL`` anywhere,
hash-equal mixed values and repeated rows; both paths must build equal
rows and indexes, and the re-check must give the same violations and
trace events.  Malformed images must fail with the same error text.
"""

from __future__ import annotations

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.constraints.checker import ConsistencyChecker
from repro.engine.database import ConstraintViolationError, Database
from repro.engine.plans import attr_extractor
from repro.engine.recovery import RecoveryError, recover_database
from repro.engine.wal import MemoryStorage, WriteAheadLog
from repro.io.state_json import (
    NULL_MARKER,
    StateDecodeError,
    state_from_dict,
    state_to_dict,
)
from repro.obs.trace import RingBufferTracer
from repro.relational.relation import Relation
from repro.relational.state import DatabaseState
from repro.relational.tuples import NULL, Tuple, contains_null
from repro.workloads.random_schemas import RandomSchemaParams, random_schema
from repro.workloads.university import university_relational, university_state

PARAMS = RandomSchemaParams(
    n_clusters=2,
    max_children=2,
    max_depth=2,
    max_extra_attrs=2,
    cross_ref_prob=0.5,
    optional_attr_prob=0.5,
    candidate_key_prob=0.7,
)
UNIVERSITY = university_relational()


def reference_install(db: Database, state: DatabaseState) -> None:
    """The former per-row install of a decoded state."""
    identical = db.null_semantics == "identical"
    for name, relation in state.items():
        table = db.table(name)
        plan = table.plan
        rows = {}
        for t in relation:
            rows[plan.pk(t.mapping)] = t.mapping
        table.rows = rows
        for key_names, extract in plan.candidate_keys:
            index = {}
            for pk, row in rows.items():
                value = extract(row)
                if identical or not contains_null(value):
                    index[value] = pk
            table.key_indexes[key_names] = index
        for attrs in table.group_indexes:
            extract = table.group_extractors[attrs]
            refs = {}
            for pk, row in rows.items():
                value = extract(row)
                if not contains_null(value):
                    refs.setdefault(value, {})[pk] = None
            table.group_indexes[attrs] = refs


def _contents(db: Database) -> dict:
    """Rows and indexes, with each candidate-key index as its value set.

    Two rows on one candidate-key value (an inconsistent state, which
    the re-check reports) leave the index naming whichever row was
    filed last -- an order the two installs need not share.  So only
    the indexed values are compared, and every entry must name a row
    that carries its value.
    """
    contents = {}
    for name, t in db._tables.items():
        keys = {}
        for key_names, index in t.key_indexes.items():
            for value, pk in index.items():
                row = t.rows[pk]
                assert attr_extractor(key_names)(row) == value
            keys[key_names] = set(index)
        contents[name] = (t.rows, keys, t.group_indexes)
    return contents


# 1, 1.0 and True are one value; NULL equals only itself.
values = st.sampled_from(["v0", "v1", "v2", 1, 1.0, True, NULL])


def _image_of(draw, schema) -> dict:
    """Rows with unique primary keys over every scheme, in JSON form."""
    relations = {}
    for scheme in schema.schemes:
        by_key = {}
        for _ in range(draw(st.integers(0, 6))):
            row = {a.name: draw(values) for a in scheme.attributes}
            by_key.setdefault(tuple(row[k] for k in scheme.key_names), row)
        relations[scheme.name] = list(by_key.values())
    state = DatabaseState.for_schema(schema, relations)
    return json.loads(json.dumps(state_to_dict(state)))


@st.composite
def images(draw):
    """A random schema, an image the database holds first, and the
    image to load over it: primary keys unique, some rows repeated,
    optionally one row clashing with another on its primary key (and
    then the kind of the refusal)."""
    schema = random_schema(PARAMS, seed=draw(st.integers(0, 40))).schema
    prior = _image_of(draw, schema)
    image = _image_of(draw, schema)
    for rows in image["relations"].values():
        if rows and draw(st.booleans()):
            rows.append(dict(draw(st.sampled_from(rows))))  # equal row
    clash = None
    if draw(st.booleans()):
        for scheme in schema.schemes:
            rows = image["relations"][scheme.name]
            free = [a for a in scheme.attribute_names if a not in scheme.key_names]
            if rows and free:
                other = dict(rows[0])
                other[free[0]] = "clash"
                rows.append(other)
                key = [rows[0][k] for k in scheme.key_names]
                clash = "structure" if NULL_MARKER in key else "key-dependency"
                break
    return schema, prior, image, clash


@settings(max_examples=60, deadline=None)
@given(images(), st.sampled_from(["distinct", "identical"]))
def test_image_install_matches_reference(drawn, null_semantics):
    schema, prior, image, clash = drawn
    loaded = Database(schema, null_semantics=null_semantics)
    loaded.load_image({"state": prior})  # every row and index entry is replaced
    reference = Database(schema, null_semantics=null_semantics)
    state = state_from_dict(image, schema)
    want = ConsistencyChecker(schema).violations(state)
    if clash is not None:
        before = _contents(loaded)
        with pytest.raises(ConstraintViolationError) as refused:
            loaded.load_image({"state": image})
        assert refused.value.kind == clash
        if clash == "key-dependency":
            # The refusal names a violation the reference re-check
            # reports (a key holding a null binds no dependency).
            assert refused.value.detail in {str(v) for v in want}
        assert _contents(loaded) == before
        return
    loaded.load_image({"state": image})
    reference_install(reference, state)
    assert _contents(loaded) == _contents(reference)
    # load_state takes the same install from a decoded state.
    from_state = Database(schema, null_semantics=null_semantics)
    from_state.load_state(state, validate=False)
    assert _contents(from_state) == _contents(reference)
    # The re-check over the tables equals the checker over their state,
    # violation for violation and event for event.
    got_events, want_events = RingBufferTracer(), RingBufferTracer()
    got = loaded.violations(got_events)
    assert got == ConsistencyChecker(schema, tracer=want_events).violations(
        loaded.state()
    )
    assert got_events.events == want_events.events
    # Against the decoded image's state the same constraints fail (which
    # tuple a failed null constraint names follows the set order).
    assert [(v.kind, v.constraint) for v in got] == [
        (v.kind, v.constraint) for v in want
    ]


def _image(**relations) -> dict:
    base = {"COURSE": [{"C.NR": "c1"}], "DEPARTMENT": [{"D.NAME": "cs"}]}
    return {"relations": {**base, **relations}}


MALFORMED = {
    "missing attribute": _image(OFFER=[{"O.C.NR": "c1"}]),
    "extra attribute": _image(COURSE=[{"C.NR": "c1", "C.X": 1}]),
    "unknown scheme": _image(NOPE=[]),
    "list row": _image(OFFER=[["c1", "cs"]]),
    "string row": _image(OFFER=["c1"]),
    "null row": _image(OFFER=[None]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_image_fails_like_state_from_dict(case):
    image = MALFORMED[case]
    with pytest.raises(StateDecodeError) as old:
        state_from_dict(image, UNIVERSITY)
    with pytest.raises(StateDecodeError) as new:
        Database(UNIVERSITY).load_image({"state": image})
    assert str(new.value) == str(old.value)
    log = WriteAheadLog(MemoryStorage())
    log.write_snapshot(image)
    with pytest.raises(StateDecodeError) as recovered:
        recover_database(UNIVERSITY, storage=log.storage)
    assert str(recovered.value) == str(old.value)


def test_pk_collision_names_the_reference_violation():
    image = _image(
        DEPARTMENT=[{"D.NAME": "cs"}, {"D.NAME": "ee"}],
        OFFER=[
            {"O.C.NR": "c1", "O.D.NAME": "cs"},
            {"O.C.NR": "c1", "O.D.NAME": {"$null": True}},
        ],
    )
    want = [
        str(v)
        for v in ConsistencyChecker(UNIVERSITY).violations(
            state_from_dict(image, UNIVERSITY)
        )
        if v.kind == "key-dependency"
    ]
    with pytest.raises(ConstraintViolationError) as refused:
        Database(UNIVERSITY).load_image({"state": image})
    assert [refused.value.detail] == want
    assert want[0].startswith("[key-dependency] OFFER: O.C.NR -> ")
    log = WriteAheadLog(MemoryStorage())
    log.write_snapshot(image)
    with pytest.raises(RecoveryError, match=want[0].replace("[", r"\[")):
        recover_database(UNIVERSITY, storage=log.storage)


def test_recovery_and_recheck_build_no_relation_and_hash_no_tuple(
    monkeypatch,
):
    """Snapshot load and the ``F ∪ I ∪ N`` re-check run on the tables:
    no Relation is built and no row is hashed."""
    db = Database(UNIVERSITY, wal=WriteAheadLog(MemoryStorage()))
    db.load_state(university_state(n_courses=60, seed=2))
    db.checkpoint()
    data = db.wal.storage.read()
    calls = {"hash": 0, "relation": 0}
    tuple_hash, relation_init = Tuple.__hash__, Relation.__init__

    def counting_hash(self):
        calls["hash"] += 1
        return tuple_hash(self)

    def counting_init(self, *args, **kwargs):
        calls["relation"] += 1
        relation_init(self, *args, **kwargs)

    monkeypatch.setattr(Tuple, "__hash__", counting_hash)
    monkeypatch.setattr(Relation, "__init__", counting_init)
    result = recover_database(UNIVERSITY, storage=MemoryStorage(data))
    assert result.report.snapshot_loaded and result.report.verified
    assert result.database.violations() == []
    assert calls == {"hash": 0, "relation": 0}
    monkeypatch.undo()
    assert result.database.state() == db.state()
