"""Differential testing: the member-scoped online merge against the
full-state pipeline it replaced.

``Database.apply_merge_online`` now builds the merged table from the
member tables' primary-key indexes, checks only the constraints that
name the merged scheme, and swaps in only that table.  The reference
below is the former pipeline, kept literally: materialize the whole
state, push it through the composed forward mapping (``forward.apply``,
eta's outer-equi-joins then each ``Remove``'s projection), re-check all
of ``F ∪ I ∪ N`` with the consistency checker, and install every table
afresh (``load_state``'s install into new tables).

Hypothesis draws random schemas of the paper's class under both null
semantics -- optional attributes holding ``NULL``, nullable candidate
keys, cross-cluster foreign keys -- and families with a member
key-relation (found or forced) or a synthesized one.  Some states are
then broken in their member tables only (an orphaned member row, a
``NULL`` where one is not allowed, a ``NULL`` key).  Both paths must
give the same schema, the same rows and index contents, the same
violations and the same trace events, and a replay of the merge
record must rebuild the same tables.  On the live tables eta' undoes
eta (Definition 2.1, Proposition 4.2).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.constraints.checker import ConsistencyChecker
from repro.core.keyrelation import MergeFamily, find_key_relation
from repro.core.merge import merge
from repro.core.remove import remove_all
from repro.engine.database import ConstraintViolationError, Database
from repro.engine.plans import compile_schema
from repro.engine.recovery import recover_database
from repro.engine.wal import MemoryStorage, WriteAheadLog
from repro.obs.trace import RingBufferTracer
from repro.relational.relation import Relation
from repro.relational.state import DatabaseState
from repro.relational.tuples import NULL, Tuple
from repro.workloads.random_schemas import RandomSchemaParams, random_schema
from repro.workloads.random_states import random_consistent_state
from repro.workloads.university import university_relational, university_state

from tests.engine.test_install import _contents

PARAMS = RandomSchemaParams(
    n_clusters=2,
    max_children=3,
    max_depth=2,
    max_extra_attrs=2,
    cross_ref_prob=0.5,
    optional_attr_prob=0.5,
    candidate_key_prob=0.5,
)
#: Seeds whose schema has a cluster of two or more schemes to merge.
SEEDS = [
    seed
    for seed in range(300)
    if any(len(c) >= 2 for c in random_schema(PARAMS, seed=seed).clusters.values())
]
BREAKS = ("none", "orphan", "null", "null-key")
UNIVERSITY = university_relational()
FAMILY = ["COURSE", "OFFER", "TEACH", "ASSIST"]


@st.composite
def merges(draw):
    """A random schema, a family of one cluster, the merge's optional
    arguments, a consistent state, and how to break it."""
    generated = random_schema(PARAMS, seed=draw(st.sampled_from(SEEDS)))
    cluster = draw(
        st.sampled_from([c for c in generated.clusters.values() if len(c) >= 2])
    )
    members = draw(
        st.lists(st.sampled_from(cluster), min_size=2, max_size=4, unique=True)
    )
    key_relation = None
    if draw(st.booleans()):
        key_relation = find_key_relation(
            MergeFamily(generated.schema, tuple(members))
        )
    merged_name = draw(st.sampled_from([None, "MERGED"]))
    state = random_consistent_state(
        generated.schema,
        rows_per_scheme=draw(st.integers(1, 6)),
        null_prob=0.4,
        seed=draw(st.integers(0, 1000)),
    )
    return (
        generated.schema,
        members,
        key_relation,
        merged_name,
        state,
        draw(st.sampled_from(BREAKS)),
        draw(st.integers(0, 1000)),
    )


def _break(state: DatabaseState, schema, members, how: str, pick: int):
    """``state`` with one member row changed (rows as dicts)."""
    rows = {name: [dict(t.mapping) for t in rel] for name, rel in state.items()}
    if how == "none":
        return rows
    candidates = [m for m in members if rows[m]]
    if not candidates:
        return rows
    member = candidates[pick % len(candidates)]
    scheme = schema.scheme(member)
    row = rows[member][pick % len(rows[member])]
    if how == "orphan":
        row.update({k: f"orphan{pick}" for k in scheme.key_names})
    elif how == "null-key":
        row.update({k: NULL for k in scheme.key_names})
    else:
        row[scheme.attribute_names[pick % len(scheme.attribute_names)]] = NULL
    rows[member] = list({tuple(r[k] for k in scheme.key_names): r
                         for r in rows[member]}.values())
    return rows


def _reference(db: Database, simplified, null_semantics: str, tracer):
    """The former full-state pipeline: its violations, and (when there
    are none) a database holding its install."""
    new_state = simplified.forward.apply(db.state())
    checker = ConsistencyChecker(simplified.schema, tracer=tracer)
    violations = checker.violations(new_state)
    if violations:
        return violations, None
    reference = Database(simplified.schema, null_semantics=null_semantics)
    reference.load_state(new_state, validate=False)
    return violations, reference


def _names_merged(schema, name: str) -> set[str]:
    """The ids of the constraints of ``schema`` that name ``name``."""
    checker = ConsistencyChecker(schema)
    ids = {name}
    ids |= {
        str(fd)
        for fd in list(schema.fds) + checker._implicit_keys
        if fd.scheme_name == name
    }
    ids |= {
        str(ind) for ind in schema.inds if name in (ind.lhs_scheme, ind.rhs_scheme)
    }
    ids |= {str(nc) for nc in schema.null_constraints if nc.scheme_name == name}
    return ids


def _null_ids(schema) -> set[str]:
    return {str(nc) for nc in schema.null_constraints}


def _comparable(events, null_ids):
    """Events without timings; a failed null constraint's event names
    the first violating tuple in set order, which two sets of equal
    rows need not share, so its detail is dropped."""
    out = []
    for e in events:
        detail = None if e.constraint in null_ids else e.detail
        out.append(
            (e.event, e.scheme, e.constraint, e.kind, e.rule, e.outcome,
             e.rows, detail)
        )
    return out


def _violation_ids(violations):
    return [
        (v.kind, v.scheme_name, v.constraint,
         None if v.kind == "null-constraint" else v.detail)
        for v in violations
    ]


def _plan_signature(plan):
    refs = lambda rs: [  # noqa: E731
        (str(r.ind), r.scheme, r.attrs, r.is_pk, r.watch) for r in rs
    ]
    return (
        plan.key_names,
        plan.attr_set,
        [names for names, _ in plan.candidate_keys],
        [str(c) for c, _ in plan.null_checks],
        [str(c) for c, _ in plan.bulk_null_checks],
        refs(plan.outgoing),
        refs(plan.incoming),
    )


@settings(max_examples=80, deadline=None)
@given(merges(), st.sampled_from(["distinct", "identical"]))
def test_scoped_merge_matches_full_state_pipeline(drawn, null_semantics):
    schema, members, key_relation, merged_name, state, how, pick = drawn
    rows = _break(state, schema, members, how, pick)
    db = Database(
        schema,
        null_semantics=null_semantics,
        wal=WriteAheadLog(MemoryStorage()),
    )
    db.load_state(DatabaseState.for_schema(schema, rows), validate=False)
    before = db.state()
    consistent = ConsistencyChecker(schema).is_consistent(before)
    simplified = remove_all(
        merge(schema, members, merged_name=merged_name, key_relation=key_relation)
    )
    name = simplified.info.merged_name
    want_events = RingBufferTracer(capacity=100_000)
    want, reference = _reference(db, simplified, null_semantics, want_events)
    if consistent:
        assert want == []  # Proposition 4.1: eta preserves consistency

    got_events = RingBufferTracer(capacity=100_000)
    db.set_tracer(got_events)
    kept = {n: t for n, t in db._tables.items() if n not in members}
    merged_ids = _names_merged(simplified.schema, name)
    try:
        got = db.apply_merge_online(members, key_relation, merged_name)
    except ConstraintViolationError as exc:
        assert want and exc.constraint == "online-merge"
        # Only member rows were broken: every violation names the
        # merged scheme, and the refusal lists them in checker order.
        assert {v.constraint for v in want} <= merged_ids
        for v in want[:5]:
            if v.kind != "null-constraint":
                assert str(v) in exc.detail
        assert db.schema is schema and db.state() == before
    else:
        assert not want, want
        assert got.schema == simplified.schema == db.schema
        assert _contents(db) == _contents(reference)
        fresh = compile_schema(db.schema)
        assert {n: _plan_signature(t.plan) for n, t in db._tables.items()} == {
            n: _plan_signature(p) for n, p in fresh.items()
        }
        for n, t in kept.items():
            assert db.table(n) is t
        # eta' undoes eta on the live tables (Definition 2.1, Prop 4.2).
        if consistent:
            assert simplified.backward.apply(db.state()) == before
        # Recovery replays the merge record through the same path.
        recovered = recover_database(
            schema, storage=MemoryStorage(db.wal.storage.read()),
            null_semantics=null_semantics, verify=False,
        ).database
        assert recovered.schema == db.schema
        assert _contents(recovered) == _contents(db)
    null_ids = _null_ids(simplified.schema)
    assert _comparable(
        [e for e in got_events.events if e.event != "merge-applied-online"],
        null_ids,
    ) == _comparable(
        [e for e in want_events.events if e.constraint in merged_ids],
        null_ids,
    )


def test_online_merge_leaves_other_tables_alone(monkeypatch):
    """On the university preload the merge keeps every non-member
    table object (rows and indexes in place), builds no Relation, and
    hashes no row."""
    db = Database(UNIVERSITY)
    db.load_state(university_state(n_courses=60, seed=2))
    want = remove_all(merge(UNIVERSITY, FAMILY)).forward.apply(db.state())
    kept = {n: t for n, t in db._tables.items() if n not in FAMILY}
    contents = {
        n: (t.rows, t.key_indexes, t.group_indexes) for n, t in kept.items()
    }
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
    db.apply_merge_online(FAMILY)
    assert calls == {"hash": 0, "relation": 0}
    monkeypatch.undo()
    for n, t in kept.items():
        assert db.table(n) is t
        assert (t.rows, t.key_indexes, t.group_indexes) == contents[n]
    assert db.state() == want
