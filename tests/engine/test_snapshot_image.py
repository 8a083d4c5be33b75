"""Snapshot images: one builder (``Database.snapshot_image``) and one
installer (``Database.load_image``) shared by checkpoints, recovery and
replica bootstrap.

The builder hands out the tables' stored row mappings as they are, with
``NULL`` left for the JSON encoders to write as the marker.  These tests
pin what that relies on: a checkpoint recovers row for row, ``NULL``
included, both on the schema the engine was built with and after an
online merge (the image then carries the merged schema, which the
installer adopts first); and an image taken before later updates and
deletes still encodes the state it was taken from, because a stored
row mapping is replaced on update, never changed in place.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.core.merge import MergeError
from repro.engine import rows as rows_module
from repro.engine.database import Database
from repro.engine.recovery import recover_database
from repro.engine.wal import MemoryStorage, WriteAheadLog, encode_record
from repro.relational.tuples import NULL
from repro.workloads.random_schemas import random_schema
from repro.workloads.random_states import random_consistent_state
from repro.workloads.university import university_relational, university_state

from tests.engine.test_install import _contents
from tests.engine.test_online_merge import PARAMS, SEEDS

UNIVERSITY = university_relational()
FAMILY = ["COURSE", "OFFER", "TEACH", "ASSIST"]


def _nonkey_nulls(db: Database) -> int:
    """How many non-key attribute values of the stored rows are NULL."""
    count = 0
    for table in db._tables.values():
        keys = set(table.scheme.key_names)
        for row in map(table.plan.row_of, table.rows.values()):
            count += sum(
                1 for a, v in row.items() if v is NULL and a not in keys
            )
    return count


def _checkpoint_and_recover(db: Database, boot_schema) -> Database:
    """Checkpoint ``db`` and recover a copy of its log on
    ``boot_schema``, the schema the engine was built with."""
    db.checkpoint()
    result = recover_database(
        boot_schema,
        storage=MemoryStorage(db.wal.storage.read()),
        null_semantics=db.null_semantics,
    )
    assert result.report.snapshot_loaded and result.report.verified
    return result.database


def _assert_same_tables(recovered: Database, db: Database) -> None:
    assert recovered.schema == db.schema
    assert _contents(recovered) == _contents(db)
    # The image is written in table order and installed in it.
    for name, table in db._tables.items():
        assert list(recovered.table(name).rows) == list(table.rows)


def _logged(schema, null_semantics: str = "distinct") -> Database:
    return Database(
        schema,
        null_semantics=null_semantics,
        wal=WriteAheadLog(MemoryStorage()),
    )


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(SEEDS),
    st.integers(0, 1000),
    st.sampled_from(["distinct", "identical"]),
)
def test_checkpoint_recovers_nulls_row_for_row(seed, state_seed, null_semantics):
    generated = random_schema(PARAMS, seed=seed)
    db = _logged(generated.schema, null_semantics)
    db.load_state(
        random_consistent_state(
            generated.schema, rows_per_scheme=5, null_prob=0.4, seed=state_seed
        )
    )
    assume(_nonkey_nulls(db) > 0)
    _assert_same_tables(_checkpoint_and_recover(db, generated.schema), db)

    cluster = next(c for c in generated.clusters.values() if len(c) >= 2)
    try:
        db.apply_merge_online(list(cluster))
    except MergeError:
        assume(False)
    _assert_same_tables(_checkpoint_and_recover(db, generated.schema), db)


def test_merged_university_checkpoint_recovers_row_for_row():
    db = _logged(UNIVERSITY)
    db.load_state(university_state(n_courses=80, seed=4))
    _assert_same_tables(_checkpoint_and_recover(db, UNIVERSITY), db)
    merged = db.apply_merge_online(FAMILY).info.merged_name
    # Courses without an offer, a teacher or an assistant pad with NULL.
    assert _nonkey_nulls(db) > 0
    recovered = _checkpoint_and_recover(db, UNIVERSITY)
    _assert_same_tables(recovered, db)
    assert merged in recovered.schema.scheme_names
    assert not set(FAMILY) & set(recovered.schema.scheme_names)


def _spy_columnar(monkeypatch) -> list:
    """Record every update/delete batch the columnar path commits."""
    calls = []
    commit = rows_module._commit_changes

    def spy(db, deleted, updated, n_ops):
        calls.append((set(deleted), set(updated)))
        return commit(db, deleted, updated, n_ops)

    monkeypatch.setattr(rows_module, "_commit_changes", spy)
    return calls


def test_image_encodes_the_same_after_updates_and_deletes(monkeypatch):
    columnar = _spy_columnar(monkeypatch)
    db = Database(UNIVERSITY)
    db.load_state(university_state(n_courses=60, seed=5))
    image = db.snapshot_image()
    before = encode_record(image)
    offers = sorted(db.table("OFFER").rows)
    assists = sorted(db.table("ASSIST").rows)
    departments = sorted(db.table("DEPARTMENT").rows)

    def other_department(pk):
        current = db.get("OFFER", pk)["O.D.NAME"]
        return next(d for d in departments if d != current)

    # The row-at-a-time path.
    db.update("OFFER", offers[0], {"O.D.NAME": other_department(offers[0])})
    db.delete("ASSIST", assists[0])
    with db.transaction():
        db.update("OFFER", offers[1], {"O.D.NAME": other_department(offers[1])})
        db.delete("ASSIST", assists[1])
    # The columnar path: an update/delete batch with unique keys.
    db.apply_batch(
        [
            ("update", "OFFER", offers[2], {"O.D.NAME": other_department(offers[2])}),
            ("update", "OFFER", offers[3], {"O.D.NAME": other_department(offers[3])}),
            ("delete", "ASSIST", assists[2]),
            ("delete", "ASSIST", assists[3]),
        ]
    )
    assert columnar == [({"ASSIST"}, {"OFFER"})]
    db.insert("COURSE", {"C.NR": "crs-new"})

    assert encode_record(image) == before
    assert encode_record(db.snapshot_image()) != before
