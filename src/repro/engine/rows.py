"""Slotted-row bulk path: vectorized batch validation over column sets.

``insert_many`` and ``apply_batch`` normally validate row by row --
shape check, null checks, key probes, reference probes -- each a
Python-level call per row per constraint.  For large batches almost all
of that work is *columnar*: key uniqueness is a set-cardinality
question over the extracted key column, reference existence needs one
probe per **distinct** foreign-key value, and shape validation is a
``dict.keys()`` comparison the CPython dict layout answers without
iterating.  This module implements that columnar path on top of the
compiled access plans (:mod:`repro.engine.plans`).

Row representation.  Rows stay :class:`~repro.relational.tuples.Tuple`
objects -- every index, scan and query in the engine expects them --
but the bulk path materializes them *slotted*: ``object.__new__`` plus
direct stores through the class's slot descriptors, adopting the
caller's plain dict instead of copying it (non-dict mappings are still
copied).  Batches are validated wholesale against the pre-state -- no
journaling, no undo log -- and applied with bulk ``dict.update`` /
``dict.__delitem__`` runs only after every check has passed, so a batch
the fast path cannot accept touches nothing.

Fallback discipline.  Every entry point returns ``None`` whenever the
batch cannot be *proven* acceptable by the columnar checks alone: any
shape/key/null/reference problem, or an operation mix the fast checks
do not model.  The caller then re-runs the ordinary row-at-a-time path
from scratch on the untouched state, which raises exactly the error
(and performs exactly the rollback bookkeeping) the per-row semantics
promise.  The fast path is therefore never authoritative about
rejection, only about acceptance -- the property the differential
tests in ``tests/engine/test_differential.py`` pin down.  (An open
outer transaction also sends a batch down the row path: the fast path
keeps no undo journal.)

Durability.  Validation and commit are separate phases, and each entry
point takes a ``log`` callable that runs between them: after every
columnar check has passed and before any table is touched.  The
database passes the append of the batch's one write-ahead-log record,
so a storage fault there propagates with the state untouched -- the
write-ahead rule, at batch granularity.
"""

from __future__ import annotations

import gc
from collections import deque
from contextlib import contextmanager
from itertools import chain, repeat
from operator import itemgetter
from typing import Any, Callable, Mapping, Sequence

from repro.engine.plans import attr_extractor, contains_null
from repro.relational.tuples import NULL, Tuple

_new_tuple = object.__new__
_set_values = Tuple.__dict__["_values"].__set__
_set_hash = Tuple.__dict__["_hash"].__set__
#: Drains a map object without building a list -- the cheapest way to
#: run a C-level setter over every element.
_consume = deque(maxlen=0).extend


def adopt_row(values: Mapping[str, Any]) -> Tuple:
    """A :class:`Tuple` adopting ``values`` without copying.

    The caller transfers ownership of a plain dict: the engine stores it
    as the tuple's backing mapping, so the caller must not mutate it
    afterwards.  Anything that is not exactly a dict is copied, same as
    the ordinary constructor.
    """
    t = _new_tuple(Tuple)
    _set_values(t, values if type(values) is dict else dict(values))
    _set_hash(t, None)
    return t


def _materialize(table, rows: Sequence[Mapping[str, Any]]):
    """Shape-check rows, extract the key column, and build the batch's
    tuples with all-C-loop passes.

    Returns ``(new, ts)`` -- the insertion-ordered ``pk -> Tuple``
    dict and the adopted :class:`Tuple` per row -- or ``None``.  Every
    pass is a C loop; no per-row Python frame runs.  Shape is proved
    batch-wide: all rows are exactly ``dict``, every row has
    ``len(attrs)`` keys, and the union of all keys is a subset of
    ``attrs`` -- together that forces each row's key set to equal
    ``attrs`` (equal-size subset).  Intra-batch key duplicates show up
    as ``len(new) != len(rows)``.  The ``new`` dict carries each key's
    hash, so committing it via ``dict.update`` never rehashes.
    """
    plan = table.plan
    attrs = plan.attr_set
    key_names = plan.key_names
    n = len(rows)
    if set(map(type, rows)) != {dict}:
        return None  # non-dict row (or empty batch): slow path decides
    if set(map(len, rows)) != {len(attrs)} or not attrs.issuperset(
        frozenset().union(*rows)
    ):
        return None  # some row's attribute set differs from the scheme
    if len(key_names) == 1:
        # ``zip`` with a single iterable wraps each value in a 1-tuple.
        pks = zip(map(itemgetter(key_names[0]), rows))
    else:
        pks = map(plan.pk, rows)
    ts = list(map(_new_tuple, repeat(Tuple, n)))
    _consume(map(_set_values, ts, rows))
    _consume(map(_set_hash, ts, repeat(None)))
    new = dict(zip(pks, ts))
    # Null keys collapse into (or simply are) entries probed after the
    # build: one dict lookup / one C identity scan replaces a per-row
    # null filter.  Duplicate null keys also shrink ``len(new)``.
    if len(new) != n:
        return None  # intra-batch duplicate primary key
    if len(key_names) == 1:
        if (NULL,) in new:
            return None  # null primary key
    elif NULL in chain.from_iterable(new):
        return None  # null component in a primary key
    return new, ts


def _validate_inserts(db, groups):
    """Columnar validation of insert groups against the pre-state.

    ``groups`` is a list of ``(table, rows)`` pairs, one per scheme.
    Returns ``(prepared, new_by_scheme)`` where ``prepared`` holds
    ``(table, rows, new)`` triples ready to commit, or ``None`` when the
    batch must take the slow path.  Performs no mutation.
    """
    identical = db.null_semantics == "identical"
    prepared = []
    new_by_scheme: dict[str, tuple] = {}
    for table, rows in groups:
        plan = table.plan
        made = _materialize(table, rows)
        if made is None:
            return None  # shape / null-key / intra-batch duplicate
        new, ts = made
        if not table.rows.keys().isdisjoint(new):
            return None  # primary-key clash with stored rows
        for _constraint, check in plan.bulk_null_checks:
            for r in rows:
                if not check(r):
                    return None
        for key_names, extract in plan.candidate_keys:
            if identical:
                vals = [extract(r) for r in rows]
            else:
                vals = [
                    v for r in rows if not contains_null(v := extract(r))
                ]
            if len(set(vals)) != len(vals):
                return None  # intra-batch candidate-key duplicate
            if vals and not table.key_indexes[key_names].keys().isdisjoint(
                vals
            ):
                return None
        prepared.append((table, rows, new, ts))
        new_by_scheme[table.scheme.name] = (new, ts)
    # Deferred outgoing-reference existence: one probe per distinct
    # foreign-key value, against stored rows plus the batch itself.
    for table, rows, _new, _ts in prepared:
        for ref in table.plan.outgoing:
            extract = ref.extract
            vals = set()
            for r in rows:
                v = extract(r)
                if not contains_null(v):
                    vals.add(v)
            if not vals:
                continue
            rtable = db._tables[ref.scheme]
            batch_new = new_by_scheme.get(ref.scheme)
            if ref.is_pk:
                rrows = rtable.rows
                for v in vals:
                    if v in rrows:
                        continue
                    if batch_new is not None and v in batch_new[0]:
                        continue
                    return None  # dangling reference
            else:
                gindex = rtable.group_indexes.get(ref.attrs)
                if gindex is None:
                    return None  # unindexed group: slow path scans
                inbatch = None
                for v in vals:
                    if gindex.get(v):
                        continue
                    if batch_new is not None:
                        if inbatch is None:
                            rex = attr_extractor(ref.attrs)
                            inbatch = {
                                rex(t._values) for t in batch_new[1]
                            }
                        if v in inbatch:
                            continue
                    return None
    return prepared


def _commit_inserts(db, prepared) -> None:
    """Apply validated insert groups: bulk row adoption plus the exact
    index maintenance ``Database._store_raw`` performs per row."""
    identical = db.null_semantics == "identical"
    for table, rows, new, _ts in prepared:
        table.rows.update(new)
        table.version += 1
        for key_names, extract in table.plan.candidate_keys:
            index = table.key_indexes[key_names]
            if identical:
                index.update(zip(map(extract, rows), new))
            else:
                index.update(
                    (v, pk)
                    for pk, r in zip(new, rows)
                    if not contains_null(v := extract(r))
                )
        for attrs, gindex in table.group_indexes.items():
            extract = table.group_extractors[attrs]
            for pk, r in zip(new, rows):
                value = extract(r)
                if contains_null(value):
                    continue
                bucket = gindex.get(value)
                if bucket is None:
                    gindex[value] = {pk: None}
                else:
                    bucket[pk] = None


def bulk_insert_many(
    db, scheme_name: str, rows, log: Callable[[], None] | None = None
) -> list[Tuple] | None:
    """Fast path for :meth:`Database.insert_many`.

    Returns the stored tuples in row order, or ``None`` to send the
    batch down the row-at-a-time path (which also reports any error).
    ``log`` runs once the batch has validated, before it is committed.
    """
    table = db._tables.get(scheme_name)
    if table is None:
        return None
    with _gc_paused():
        try:
            prepared = _validate_inserts(db, [(table, rows)])
        except (AttributeError, KeyError, TypeError):
            return None  # malformed rows: the slow path raises canonically
        if prepared is None:
            return None
        if log is not None:
            log()
        _commit_inserts(db, prepared)
    _count_inserts(db, prepared)
    return prepared[0][3]


def bulk_apply(
    db, ops, log: Callable[[], None] | None = None
) -> list[Tuple | None] | None:
    """Fast path for :meth:`Database.apply_batch`.

    Handles all-insert and all-delete batches; anything mixed, malformed
    or unprovable returns ``None`` for the slow path.  ``log`` runs
    once the batch has validated, before it is committed.
    """
    if not ops:
        return None  # let the slow path produce its []
    with _gc_paused():
        try:
            first = ops[0][0]
            if first == "insert":
                validated = _validate_batch_inserts(db, ops)
            elif first == "delete":
                validated = _validate_deletes(db, ops)
            else:
                return None
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            return None
        if validated is None:
            return None
        if log is not None:
            log()
        return validated()


@contextmanager
def _gc_paused():
    """Hold off the cyclic collector for one batch: a big batch
    allocates tens of thousands of tracked containers, and without a
    pause generational collections walk the whole database heap
    mid-batch and roughly double the per-row cost."""
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        yield
    finally:
        if paused:
            gc.enable()


def _count_inserts(db, prepared) -> None:
    stats = db.stats
    for table, _rows, _new, ts in prepared:
        stats.inserts += len(ts)
        stats.bulk_rows += len(ts)
        if ts:
            name = table.scheme.name
            stats.scheme_mutations[name] = (
                stats.scheme_mutations.get(name, 0) + len(ts)
            )


def _validate_batch_inserts(db, ops):
    """Validate an all-insert batch; its commit thunk, or ``None``."""
    groups: dict[str, list] = {}
    order: list[tuple[str, int]] = []
    for kind, scheme_name, row in ops:
        if kind != "insert":
            return None  # mixed batch: slow path
        rows = groups.get(scheme_name)
        if rows is None:
            rows = groups[scheme_name] = []
        order.append((scheme_name, len(rows)))
        rows.append(row)
    glist = []
    for scheme_name, rows in groups.items():
        table = db._tables.get(scheme_name)
        if table is None:
            return None
        glist.append((table, rows))
    prepared = _validate_inserts(db, glist)
    if prepared is None:
        return None

    def commit() -> list[Tuple | None]:
        _commit_inserts(db, prepared)
        _count_inserts(db, prepared)
        stored = {
            table.scheme.name: ts for table, _rows, _new, ts in prepared
        }
        return [stored[s][i] for s, i in order]

    return commit


def _validate_deletes(db, ops):
    """Validate an all-delete batch; its commit thunk, or ``None``."""
    # Group the batch's keys by scheme, normalizing scalar keys the way
    # the slow path does; a missing row or an intra-batch duplicate is a
    # slow-path matter (KeyError with the canonical message).
    groups: dict[str, list[tuple]] = {}
    for kind, scheme_name, pk in ops:
        if kind != "delete":
            return None  # mixed batch: slow path
        pks = groups.get(scheme_name)
        if pks is None:
            pks = groups[scheme_name] = []
        pks.append(pk if isinstance(pk, tuple) else (pk,))
    deleted: dict[str, tuple] = {}
    for scheme_name, pks in groups.items():
        table = db._tables.get(scheme_name)
        if table is None:
            return None
        olds = dict(zip(pks, map(table.rows.get, pks)))
        # A duplicate key collapses the dict; a missing row fails the
        # subset test (both run on cached hashes, no Python-level
        # comparisons).
        if len(olds) != len(pks) or not olds.keys() <= table.rows.keys():
            return None
        deleted[scheme_name] = (table, olds)
    # Deferred restrict verification, evaluated on the *pre*-state with
    # in-batch adjustments (a child blocks iff it is not itself deleted;
    # a blocked value is still fine iff a non-deleted row keeps it
    # alive).  Nothing has been mutated yet, so bailing out needs no
    # restore and the slow path sees the original state and raises the
    # canonical ``restrict-batch`` error.
    for scheme_name, (table, olds) in deleted.items():
        plan = table.plan
        if not plan.incoming:
            continue
        dead = olds
        by_attrs: dict[tuple, list] = {}
        for ref in plan.incoming:
            by_attrs.setdefault(tuple(ref.ind.rhs_attrs), []).append(ref)
        for rhs_attrs, refs in by_attrs.items():
            rhs_is_pk = rhs_attrs == plan.key_names
            # One extraction pass per referenced column group, shared by
            # every inclusion dependency over it -- and free when the
            # group *is* the primary key: the deleted-keys dict already
            # holds exactly the disappearing values (with cached
            # hashes).
            if rhs_is_pk:
                vals = olds
            elif len(rhs_attrs) == 1:
                nm = rhs_attrs[0]
                vals = {
                    (v,)
                    for o in olds.values()
                    if (v := o._values[nm]) is not NULL
                }
            else:
                extract = refs[0].extract
                vals = set()
                for o in olds.values():
                    v = extract(o._values)
                    if not contains_null(v):
                        vals.add(v)
            if not vals:
                continue
            gindex = None
            if not rhs_is_pk:
                gindex = table.group_indexes.get(rhs_attrs)
                if gindex is None:
                    return None
            for ref in refs:
                ctable = db._tables[ref.scheme]
                centry = deleted.get(ref.scheme)
                cdead = centry[1] if centry is not None else ()
                if ref.is_pk:
                    container = ctable.rows
                else:
                    container = ctable.group_indexes.get(ref.attrs)
                    if container is None:
                        return None
                # Values both disappearing and referenced by this child
                # table, found by scanning the smaller side -- the
                # common no-conflict batch costs one C-level membership
                # pass.
                if len(container) < len(vals):
                    suspects = [v for v in container if v in vals]
                else:
                    suspects = [v for v in vals if v in container]
                for v in suspects:
                    if ref.is_pk:
                        blocked = v not in cdead
                    else:
                        bucket = container[v]
                        blocked = any(pk not in cdead for pk in bucket)
                    if not blocked:
                        continue  # every referencing child dies too
                    if rhs_is_pk:
                        alive = v in table.rows and v not in dead
                    else:
                        bucket = gindex.get(v)
                        alive = bucket is not None and any(
                            pk not in dead for pk in bucket
                        )
                    if not alive:
                        return None  # slow path raises restrict-batch
    return lambda: _commit_deletes(db, deleted, len(ops))


def _commit_deletes(db, deleted, n_ops: int) -> list[None]:
    """Bulk row removal plus the exact index maintenance
    ``Database._unstore_raw`` performs per row."""
    for scheme_name, (table, olds) in deleted.items():
        trows = table.rows
        plan = table.plan
        if len(olds) * 2 >= len(trows):
            # Deleting a large fraction: rebuilding the survivor dict is
            # one C pass instead of per-key deletions (order preserved).
            table.rows = {
                pk: t for pk, t in trows.items() if pk not in olds
            }
        else:
            for pk in olds:
                del trows[pk]
        table.version += 1
        for key_names, extract in plan.candidate_keys:
            index = table.key_indexes[key_names]
            for pk, old in olds.items():
                value = extract(old._values)
                if index.get(value) == pk:
                    del index[value]
        for attrs, gindex in table.group_indexes.items():
            extract = table.group_extractors[attrs]
            for pk, old in olds.items():
                value = extract(old._values)
                bucket = gindex.get(value)
                if bucket is not None:
                    bucket.pop(pk, None)
                    if not bucket:
                        del gindex[value]
    db.stats.deletes += n_ops
    db.stats.bulk_rows += n_ops
    for scheme_name, (table, olds) in deleted.items():
        db.stats.scheme_mutations[scheme_name] = (
            db.stats.scheme_mutations.get(scheme_name, 0) + len(olds)
        )
    return [None] * n_ops
