"""Differential property test: indexed engine versus scan-based oracle.

Seeded random mutation sequences run against both
:class:`~repro.engine.database.Database` (compiled plans + reverse-
reference indexes) and :class:`~repro.engine.oracle.OracleDatabase`
(full scans everywhere).  Every operation must produce the same
accept/reject decision with the same constraint label, and the final
states must be identical -- under both null-semantics modes.  Any
divergence is a bug in the engine's index maintenance.
"""

import random

import pytest

from repro.engine.database import ConstraintViolationError, Database
from repro.engine.oracle import OracleDatabase
from repro.engine.recovery import recover_database
from repro.engine.wal import MemoryStorage, WriteAheadLog
from repro.engine.query import QueryEngine
from repro.relational.tuples import NULL
from repro.workloads.random_schemas import RandomSchemaParams, random_schema

PARAMS = RandomSchemaParams(
    n_clusters=2,
    max_children=2,
    max_depth=2,
    max_extra_attrs=2,
    cross_ref_prob=0.5,
    optional_attr_prob=0.5,
    candidate_key_prob=0.5,
)
N_OPS = 250


def _required_attrs(schema, scheme_name):
    """Attributes a nulls-not-allowed constraint covers (so the row
    generator mostly fills them -- violating rows still get generated
    via the nullable 25% path on other attributes)."""
    return {
        name
        for c in schema.null_constraints_of(scheme_name)
        if getattr(c, "is_nulls_not_allowed", lambda: False)()
        for name in c.rhs
    }


def _random_value(rng: random.Random, attr_name: str, nullable: bool):
    """Values from a small pool so keys collide and references hit."""
    if nullable and rng.random() < 0.25:
        return NULL
    return f"v{rng.randint(0, 6)}"


def _random_row(rng, scheme, required):
    return {
        a.name: _random_value(rng, a.name, a.name not in required)
        for a in scheme.attributes
    }


def _apply_both(engine_op, oracle_op):
    """Run one mutation on both engines; outcomes must agree."""
    engine_exc = oracle_exc = None
    engine_result = oracle_result = None
    try:
        engine_result = engine_op()
    except (ConstraintViolationError, KeyError) as exc:
        engine_exc = exc
    try:
        oracle_result = oracle_op()
    except (ConstraintViolationError, KeyError) as exc:
        oracle_exc = exc
    assert type(engine_exc) is type(oracle_exc), (
        f"engine raised {engine_exc!r}, oracle raised {oracle_exc!r}"
    )
    if isinstance(engine_exc, ConstraintViolationError):
        assert engine_exc.constraint == oracle_exc.constraint, (
            f"engine rejected via {engine_exc.constraint!r} "
            f"({engine_exc.detail}), oracle via {oracle_exc.constraint!r} "
            f"({oracle_exc.detail})"
        )
    elif engine_exc is None:
        assert engine_result == oracle_result
    return engine_exc is None


@pytest.mark.parametrize("null_semantics", ["distinct", "identical"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_matches_scan_oracle(null_semantics, seed):
    generated = random_schema(PARAMS, seed=seed)
    schema = generated.schema
    rng = random.Random(seed * 1000 + 17)
    engine = Database(schema, null_semantics=null_semantics)
    oracle = OracleDatabase(schema, null_semantics=null_semantics)
    required = {s.name: _required_attrs(schema, s.name) for s in schema.schemes}
    scheme_names = list(schema.scheme_names)
    accepted = 0

    def random_pk(scheme_name):
        """Mostly existing keys (from the oracle's rows), sometimes a
        miss, so KeyError parity is exercised too."""
        rows = oracle._rows[scheme_name]
        if rows and rng.random() < 0.85:
            return rng.choice(list(rows))
        return (f"v{rng.randint(0, 6)}",)

    for _ in range(N_OPS):
        name = rng.choice(scheme_names)
        scheme = schema.scheme(name)
        roll = rng.random()
        if roll < 0.5:
            row = _random_row(rng, scheme, required[name])
            ok = _apply_both(
                lambda: engine.insert(name, row),
                lambda: oracle.insert(name, row),
            )
        elif roll < 0.75:
            pk = random_pk(name)
            updates = {
                a.name: _random_value(
                    rng, a.name, a.name not in required[name]
                )
                for a in scheme.attributes
                if rng.random() < 0.5
            }
            ok = _apply_both(
                lambda: engine.update(name, pk, updates),
                lambda: oracle.update(name, pk, updates),
            )
        else:
            pk = random_pk(name)
            ok = _apply_both(
                lambda: engine.delete(name, pk),
                lambda: oracle.delete(name, pk),
            )
        accepted += ok

    assert accepted > N_OPS // 10, "sequence too degenerate to mean much"
    assert engine.state() == oracle.state()

    # Navigation parity: every inclusion dependency's reverse lookup
    # answers identically (and in the same order) from index and scan.
    q = QueryEngine(engine)
    for ind in schema.inds:
        for target in oracle._rows[ind.rhs_scheme].values():
            assert q.find_referencing(
                target, ind.lhs_scheme, ind.lhs_attrs, ind.rhs_attrs
            ) == oracle.find_referencing(
                target, ind.lhs_scheme, ind.lhs_attrs, ind.rhs_attrs
            )


@pytest.mark.parametrize("null_semantics", ["distinct", "identical"])
def test_bulk_paths_match_oracle_state(null_semantics):
    """``insert_many``/``apply_batch`` land on the same state the
    per-row oracle path produces for an equivalent accepted sequence."""
    generated = random_schema(PARAMS, seed=5)
    schema = generated.schema
    rng = random.Random(99)
    engine = Database(schema, null_semantics=null_semantics)
    oracle = OracleDatabase(schema, null_semantics=null_semantics)
    required = {s.name: _required_attrs(schema, s.name) for s in schema.schemes}
    # Collect rows the oracle accepts (in dependency-friendly order),
    # then feed the engine the same rows through apply_batch.
    ops = []
    for _ in range(200):
        name = rng.choice(list(schema.scheme_names))
        scheme = schema.scheme(name)
        row = _random_row(rng, scheme, required[name])
        try:
            oracle.insert(name, row)
        except (ConstraintViolationError, KeyError):
            continue
        ops.append(("insert", name, row))
    assert ops, "oracle accepted nothing; generator is broken"
    engine.apply_batch(ops)
    assert engine.state() == oracle.state()


# -- three-way differential: engine / scan oracle / live SQLite ---------------
#
# The same workloads replay against a real DBMS: the schema is deployed
# through repro.ddl's SQLite profile (declarative NOT NULL / PRIMARY KEY
# / UNIQUE / FOREIGN KEY plus RAISE(ABORT) triggers for the residue) and
# every accept/reject decision must agree with both in-memory engines.
# Constraint *labels* are compared engine-vs-oracle only: when one row
# violates several constraints at once, SQLite's check ordering inside a
# single statement legitimately differs from the engine's documented
# check order (see docs/BACKENDS.md), while the decision may not.

from repro.backend import SQLiteBackend


def _apply_three(engine_op, oracle_op, backend_op):
    """Run one mutation on engine, oracle and SQLite; the engine/oracle
    pair must agree on labels, all three on the decision."""
    outcomes = []
    errors = []
    for op in (engine_op, oracle_op, backend_op):
        try:
            op()
            outcomes.append("accept")
            errors.append(None)
        except ConstraintViolationError as exc:
            outcomes.append("reject")
            errors.append(exc)
        except KeyError as exc:
            outcomes.append("missing-key")
            errors.append(exc)
    assert outcomes[0] == outcomes[1] == outcomes[2], (
        f"decision divergence: engine={outcomes[0]} ({errors[0]!r}), "
        f"oracle={outcomes[1]} ({errors[1]!r}), "
        f"sqlite={outcomes[2]} ({errors[2]!r})"
    )
    if outcomes[0] == "reject":
        assert errors[0].constraint == errors[1].constraint
    return outcomes[0] == "accept"


@pytest.mark.parametrize("null_semantics", ["distinct", "identical"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_three_way_engine_oracle_sqlite(null_semantics, seed):
    schema = random_schema(PARAMS, seed=seed).schema
    rng = random.Random(seed * 1000 + 29)
    engine = Database(schema, null_semantics=null_semantics)
    oracle = OracleDatabase(schema, null_semantics=null_semantics)
    backend = SQLiteBackend(null_semantics=null_semantics)
    backend.deploy(schema)
    required = {s.name: _required_attrs(schema, s.name) for s in schema.schemes}
    scheme_names = list(schema.scheme_names)
    accepted = 0

    def random_pk(scheme_name):
        rows = oracle._rows[scheme_name]
        if rows and rng.random() < 0.85:
            return rng.choice(list(rows))
        return (f"v{rng.randint(0, 6)}",)

    for _ in range(N_OPS):
        name = rng.choice(scheme_names)
        scheme = schema.scheme(name)
        roll = rng.random()
        if roll < 0.5:
            row = _random_row(rng, scheme, required[name])
            ok = _apply_three(
                lambda: engine.insert(name, row),
                lambda: oracle.insert(name, row),
                lambda: backend.insert(name, row),
            )
        elif roll < 0.75:
            pk = random_pk(name)
            updates = {
                a.name: _random_value(
                    rng, a.name, a.name not in required[name]
                )
                for a in scheme.attributes
                if rng.random() < 0.5
            }
            ok = _apply_three(
                lambda: engine.update(name, pk, updates),
                lambda: oracle.update(name, pk, updates),
                lambda: backend.update(name, pk, updates),
            )
        else:
            pk = random_pk(name)
            ok = _apply_three(
                lambda: engine.delete(name, pk),
                lambda: oracle.delete(name, pk),
                lambda: backend.delete(name, pk),
            )
        accepted += ok

    assert accepted > N_OPS // 10, "sequence too degenerate to mean much"
    assert engine.state() == oracle.state()
    assert engine.state() == backend.state()
    backend.close()


@pytest.mark.parametrize("null_semantics", ["distinct", "identical"])
def test_three_way_bulk_insert_many(null_semantics):
    """The engine's deferred-reference bulk path against SQLite's
    (``defer_foreign_keys`` + dropped child triggers inside the batch
    transaction): decisions and states must agree batch by batch."""
    schema = random_schema(PARAMS, seed=5).schema
    rng = random.Random(123)
    engine = Database(schema, null_semantics=null_semantics)
    backend = SQLiteBackend(null_semantics=null_semantics)
    backend.deploy(schema)
    required = {s.name: _required_attrs(schema, s.name) for s in schema.schemes}
    for _ in range(12):
        name = rng.choice(list(schema.scheme_names))
        scheme = schema.scheme(name)
        rows = [
            _random_row(rng, scheme, required[name])
            for _ in range(rng.randint(1, 25))
        ]
        engine_exc = backend_exc = None
        try:
            engine.insert_many(name, [dict(r) for r in rows])
        except ConstraintViolationError as exc:
            engine_exc = exc
        try:
            backend.insert_many(name, [dict(r) for r in rows])
        except ConstraintViolationError as exc:
            backend_exc = exc
        assert (engine_exc is None) == (backend_exc is None), (
            f"bulk decision divergence on {name}: engine={engine_exc!r}, "
            f"sqlite={backend_exc!r}"
        )
        assert engine.state() == backend.state()
    backend.close()


@pytest.mark.parametrize("null_semantics", ["distinct", "identical"])
def test_three_way_advised_merge_midstream(null_semantics):
    """An advised merge lands mid-workload on all three systems.

    Phase 1 runs a mutation workload on the university schema; phase 2
    sends join traffic through the engine so the advisor has counters to
    mine; the recommendation then applies online to the engine, through
    an independent Merge + Remove recompute to the oracle, and through
    the generated DROP/CREATE/INSERT..SELECT rebuild script to the live
    SQLite database; phase 3 keeps mutating the merged scheme (with
    partial-null rows, so the null-existence triggers fire).  Zero
    accept/reject disagreements allowed anywhere.
    """
    from repro.advisor import advise, apply_recommendation
    from repro.core.merge import merge
    from repro.core.remove import remove_all
    from repro.workloads.university import university_relational

    schema = university_relational()
    rng = random.Random(4242)
    engine = Database(schema, null_semantics=null_semantics)
    oracle = OracleDatabase(schema, null_semantics=null_semantics)
    backend = SQLiteBackend(null_semantics=null_semantics)
    backend.deploy(schema)
    q = QueryEngine(engine)

    depts = [f"d{i}" for i in range(3)]
    courses = [f"c{i}" for i in range(6)]

    # Phase 1: mutation workload (duplicates, dangling references and
    # restricted deletes all rejected -- in parity).
    accepted = 0
    for _ in range(60):
        roll = rng.random()
        if roll < 0.3:
            name, row = "DEPARTMENT", {"D.NAME": rng.choice(depts)}
        elif roll < 0.6:
            name, row = "COURSE", {"C.NR": rng.choice(courses)}
        elif roll < 0.85:
            name, row = "OFFER", {
                "O.C.NR": rng.choice(courses),
                "O.D.NAME": rng.choice(depts),
            }
        else:
            name, pk = "COURSE", (rng.choice(courses),)
            accepted += _apply_three(
                lambda: engine.delete(name, pk),
                lambda: oracle.delete(name, pk),
                lambda: backend.delete(name, pk),
            )
            continue
        accepted += _apply_three(
            lambda: engine.insert(name, dict(row)),
            lambda: oracle.insert(name, dict(row)),
            lambda: backend.insert(name, dict(row)),
        )
    assert accepted > 5
    assert engine.state() == oracle.state() == backend.state()

    # Phase 2: join traffic, mined by the engine's stats only.
    for _ in range(80):
        target = engine.get("COURSE", (rng.choice(courses),))
        if target is not None:
            q.find_referencing(target, "OFFER", ["O.C.NR"], ["C.NR"])

    # Mid-stream: the advised decision, applied three ways.
    report = advise(engine)
    rec = report["recommendation"]
    assert rec is not None, "this workload was built to make a merge pay"
    simplified = remove_all(
        merge(oracle.schema, rec["members"], key_relation=rec["key_relation"])
    )
    apply_recommendation(engine, report)
    assert set(engine.schema.scheme_names) == set(
        simplified.schema.scheme_names
    )
    merged_oracle = OracleDatabase(
        simplified.schema, null_semantics=null_semantics
    )
    merged_oracle.load_state(simplified.forward.apply(oracle.state()))
    oracle = merged_oracle
    backend.migrate(simplified)
    assert engine.state() == oracle.state() == backend.state()

    # Phase 3: the workload continues against the merged scheme.
    merged_name = simplified.info.merged_name
    merged_scheme = engine.schema.scheme(merged_name)
    new_required = _required_attrs(engine.schema, merged_name)
    pool = depts + courses

    def merged_value(attr_name):
        if attr_name not in new_required and rng.random() < 0.35:
            return NULL
        return rng.choice(pool)

    def merged_pk():
        rows = oracle._rows[merged_name]
        if rows and rng.random() < 0.85:
            return rng.choice(list(rows))
        return (rng.choice(pool),)

    post_accepted = 0
    for _ in range(80):
        roll = rng.random()
        if roll < 0.5:
            row = {
                a.name: merged_value(a.name)
                for a in merged_scheme.attributes
            }
            post_accepted += _apply_three(
                lambda: engine.insert(merged_name, dict(row)),
                lambda: oracle.insert(merged_name, dict(row)),
                lambda: backend.insert(merged_name, dict(row)),
            )
        elif roll < 0.75:
            pk = merged_pk()
            updates = {
                a.name: merged_value(a.name)
                for a in merged_scheme.attributes
                if rng.random() < 0.5
            }
            post_accepted += _apply_three(
                lambda: engine.update(merged_name, pk, updates),
                lambda: oracle.update(merged_name, pk, updates),
                lambda: backend.update(merged_name, pk, updates),
            )
        else:
            pk = merged_pk()
            post_accepted += _apply_three(
                lambda: engine.delete(merged_name, pk),
                lambda: oracle.delete(merged_name, pk),
                lambda: backend.delete(merged_name, pk),
            )
    assert post_accepted > 5
    assert engine.state() == oracle.state() == backend.state()
    backend.close()


# -- slotted versus dict-row differential --------------------------------------
#
# The bulk entry points take the columnar slotted-row fast path
# (engine/rows.py) whenever they can prove a batch acceptable; with
# ``slotted=False`` the same engine runs the journaled row-at-a-time
# path over plain dict rows, and OracleDatabase scans dict rows with no
# indexes at all.  Whatever the path, accept/reject decisions and final
# states must be identical -- any divergence means the fast path
# accepted (or produced) something the reference semantics would not.

from hypothesis import given, settings
from hypothesis import strategies as st


def _seed_base_state(rng, schema, required, databases, oracle, n=60):
    """Grow an identical pre-state on every engine via oracle-accepted
    single-row inserts (copies, so slotted adoption cannot alias)."""
    for _ in range(n):
        name = rng.choice(list(schema.scheme_names))
        row = _random_row(rng, schema.scheme(name), required[name])
        try:
            oracle.insert(name, row)
        except (ConstraintViolationError, KeyError):
            continue
        for db in databases:
            db.insert(name, dict(row))


def _random_batch(rng, schema, required, oracle, n_ops=40, only=None):
    """A mixed insert/delete/update batch; deletes and updates mostly
    target live rows so constraint machinery actually fires.  ``only``
    ("insert", "delete" or "update_delete") draws a batch of just those
    kinds instead -- the shapes the columnar path can accept.  An
    "update_delete" update mostly leaves key attributes alone, as the
    columnar path requires; the rest exercise its fallback."""
    ops = []
    for _ in range(n_ops):
        name = rng.choice(list(schema.scheme_names))
        scheme = schema.scheme(name)
        r = rng.random()
        roll = {
            None: r,
            "insert": 0.0,
            "delete": 0.7,
            "update_delete": 0.6 + 0.4 * r,
        }[only]
        if roll < 0.6:
            ops.append(
                ("insert", name, _random_row(rng, scheme, required[name]))
            )
            continue
        rows = oracle._rows[name]
        if rows and rng.random() < 0.85:
            pk = rng.choice(list(rows))
        else:
            pk = (f"v{rng.randint(0, 6)}",)
        if roll < 0.85:
            ops.append(("delete", name, pk))
        else:
            keys = {a.name for key in scheme.candidate_keys for a in key}
            updates = {
                a.name: _random_value(rng, a.name, a.name not in required[name])
                for a in scheme.attributes
                if rng.random() < 0.5
                and (
                    only != "update_delete"
                    or a.name not in keys
                    or rng.random() < 0.1
                )
            }
            ops.append(("update", name, pk, updates))
    return ops


def _engine_pair(schema, null_semantics, wal):
    """The slotted engine and its dict-row reference, optionally each
    with a write-ahead log over memory."""
    return tuple(
        Database(
            schema,
            null_semantics=null_semantics,
            slotted=slotted,
            wal=WriteAheadLog(MemoryStorage()) if wal else None,
        )
        for slotted in (True, False)
    )


def _assert_logs_agree(schema, null_semantics, fast, slow):
    """With a log attached, a batch's record no longer depends on the
    path that accepted it: both logs are byte-identical, and each
    recovers to the live state."""
    data = fast.wal.storage.read()
    assert data == slow.wal.storage.read()
    for db in (fast, slow):
        recovered = recover_database(
            schema, storage=MemoryStorage(data), null_semantics=null_semantics
        ).database
        assert recovered.state() == db.state()


def _check_apply_batch_paths(seed, null_semantics, wal=False, shapes=None):
    schema = random_schema(PARAMS, seed=seed % 7).schema
    rng = random.Random(seed)
    fast, slow = _engine_pair(schema, null_semantics, wal)
    oracle = OracleDatabase(schema, null_semantics=null_semantics)
    required = {s.name: _required_attrs(schema, s.name) for s in schema.schemes}
    _seed_base_state(rng, schema, required, (fast, slow), oracle)
    assert fast.state() == slow.state() == oracle.state()

    for only in shapes or (None, None, None):
        # Small single-kind batches: over the tiny value pool a long one
        # is nearly always rejected, and then no path is exercised but
        # the rejection.
        n_ops = 40 if only is None else rng.randint(1, 4)
        ops = _random_batch(rng, schema, required, oracle, n_ops, only)
        fast_ops = [
            (op[0], op[1], dict(op[2])) + tuple(op[3:])
            if op[0] == "insert"
            else op
            for op in ops
        ]
        ok = _apply_both(
            lambda: fast.apply_batch(fast_ops),
            lambda: slow.apply_batch(ops),
        )
        assert fast.state() == slow.state()
        if ok:  # keep the oracle's row pool tracking live state
            for op in ops:
                try:
                    if op[0] == "insert":
                        oracle.insert(op[1], dict(op[2]))
                    elif op[0] == "delete":
                        oracle.delete(op[1], op[2])
                    else:
                        oracle.update(op[1], op[2], op[3])
                except (ConstraintViolationError, KeyError):
                    pass  # batch order may differ from sequential order
    if wal:
        _assert_logs_agree(schema, null_semantics, fast, slow)


def _check_insert_many_paths(seed, null_semantics, wal=False, max_rows=50):
    schema = random_schema(PARAMS, seed=seed % 7).schema
    rng = random.Random(seed * 31 + 7)
    fast, slow = _engine_pair(schema, null_semantics, wal)
    oracle = OracleDatabase(schema, null_semantics=null_semantics)
    required = {s.name: _required_attrs(schema, s.name) for s in schema.schemes}
    _seed_base_state(rng, schema, required, (fast, slow), oracle)

    name = rng.choice(list(schema.scheme_names))
    scheme = schema.scheme(name)
    rows = [
        _random_row(rng, scheme, required[name])
        for _ in range(rng.randint(1, max_rows))
    ]
    ok = _apply_both(
        lambda: fast.insert_many(name, [dict(r) for r in rows]),
        lambda: slow.insert_many(name, [dict(r) for r in rows]),
    )
    assert fast.state() == slow.state()
    if ok:
        # A batch both engines accepted must also be exactly what the
        # scan-based dict-row oracle accepts row by row (insert_many
        # defers only intra-batch checks, and inserts cannot depend on
        # later inserts of the same scheme unless self-referencing).
        oracle_ok = True
        for r in rows:
            try:
                oracle.insert(name, dict(r))
            except (ConstraintViolationError, KeyError):
                oracle_ok = False
                break
        if oracle_ok:
            assert fast.state() == oracle.state()
    if wal:
        _assert_logs_agree(schema, null_semantics, fast, slow)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    null_semantics=st.sampled_from(["distinct", "identical"]),
)
def test_slotted_apply_batch_matches_dict_row_paths(seed, null_semantics):
    _check_apply_batch_paths(seed, null_semantics)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    null_semantics=st.sampled_from(["distinct", "identical"]),
)
def test_slotted_insert_many_matches_dict_row_paths(seed, null_semantics):
    _check_insert_many_paths(seed, null_semantics)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    null_semantics=st.sampled_from(["distinct", "identical"]),
)
def test_slotted_apply_batch_matches_dict_row_paths_with_wal(
    seed, null_semantics
):
    """All-insert, all-delete, update/delete (the columnar shapes) and
    mixed batches under a log: same results and errors, byte-identical
    logs, and recovery of either log equals the live state."""
    _check_apply_batch_paths(
        seed,
        null_semantics,
        wal=True,
        shapes=("insert", "delete", "update_delete", None),
    )


@pytest.mark.parametrize("null_semantics", ["distinct", "identical"])
@pytest.mark.parametrize("seed", range(6))
def test_columnar_update_delete_batches_match_row_path_with_wal(
    seed, null_semantics
):
    """Runs of update/delete batches -- rewired and nulled references,
    restricted deletes, key-touching and repeated-key fallbacks --
    under both null semantics: the columnar and row paths agree on
    every result and error, their logs are byte-identical, and both
    recover to the live state."""
    _check_apply_batch_paths(
        seed, null_semantics, wal=True, shapes=("update_delete",) * 12
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    null_semantics=st.sampled_from(["distinct", "identical"]),
)
def test_slotted_insert_many_matches_dict_row_paths_with_wal(
    seed, null_semantics
):
    _check_insert_many_paths(seed, null_semantics, wal=True, max_rows=4)


# -- crash-recovery property test ----------------------------------------------
#
# Random mutation sequences against a WAL-backed engine whose storage
# fires one random fault; whatever bytes survive, recovery must produce
# exactly the scan-oracle replay of the committed prefix -- and pass the
# consistency re-check (recover_database verifies by default).

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.faults import FaultyStorage
from repro.engine.recovery import recover_database
from repro.engine.wal import MemoryStorage, WalError, WriteAheadLog

from tests.engine._wal_oracle import oracle_replay


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    site=st.integers(min_value=0, max_value=60),
    kind=st.sampled_from(["fail", "short", "corrupt"]),
)
def test_recovery_matches_oracle_replay_of_committed_prefix(seed, site, kind):
    generated = random_schema(PARAMS, seed=seed % 7)
    schema = generated.schema
    rng = random.Random(seed)
    kwarg = {"fail": "fail_at", "short": "short_write_at", "corrupt": "corrupt_at"}
    storage = FaultyStorage(**{kwarg[kind]: site})
    required = {s.name: _required_attrs(schema, s.name) for s in schema.schemes}
    scheme_names = list(schema.scheme_names)
    try:
        engine = Database(schema, wal=WriteAheadLog(storage))
        for _ in range(80):
            name = rng.choice(scheme_names)
            scheme = schema.scheme(name)
            roll = rng.random()
            try:
                if roll < 0.55:
                    engine.insert(name, _random_row(rng, scheme, required[name]))
                elif roll < 0.7 and engine.count(name):
                    pk = rng.choice(list(engine.table(name).rows))
                    updates = {
                        a.name: _random_value(
                            rng, a.name, a.name not in required[name]
                        )
                        for a in scheme.attributes
                        if rng.random() < 0.5
                    }
                    engine.update(name, pk, updates)
                elif engine.count(name):
                    pk = rng.choice(list(engine.table(name).rows))
                    engine.delete(name, pk)
            except (ConstraintViolationError, KeyError):
                continue
    except (WalError, OSError):
        pass  # the injected crash (or the poisoned log right after it)

    surviving = storage.read()
    expected = oracle_replay(surviving, schema)
    result = recover_database(schema, storage=MemoryStorage(surviving))
    assert result.database.state() == expected.state()
