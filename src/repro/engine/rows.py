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

Row representation.  A table stores each row as its values, by the
plans' rule (:mod:`repro.engine.plans`): a one-attribute scheme's row
is its bare value -- the key object itself -- and a wider scheme's row
is the value tuple in attribute order.  The scheme fixes the attribute
names, so no row repeats them, and a bare ``str`` or a tuple of
untracked values adds nothing to a full collection's walk (the
collector untracks such a tuple the first time it sees it).  Keys and
index values follow the same rule.  An incoming batch's row dicts are
read once, by C-level column passes
(:func:`~repro.relational.tuples.values_on` over the scheme's
attributes gives the stored values); every later pass reads stored
values by position (:meth:`~repro.engine.plans.SchemeAccessPlan.column`),
and :func:`~repro.relational.tuples.any_null` finds a ``NULL`` among
them with one probe.  A batch answers with the row dicts it accepted,
never with rows rebuilt from the tables.  :class:`~repro.relational.tuples.Tuple`
views are built only for the rows the engine hands out in process
(:func:`adopt_row`).

Batches are validated wholesale against the pre-state -- no
journaling, no undo log -- and applied with bulk ``dict.update`` /
``dict.__delitem__`` runs only after every check has passed, so a batch
the fast path cannot accept touches nothing.

Images.  :func:`install_rows` is the one installer of whole tables
(``load_state``, snapshot recovery, replica bootstrap, the online
merge).  A snapshot image holds each scheme as one value list per
attribute (``plan.columns``), so recovery builds the stored values
straight from the parsed columns (:func:`image_values`) and never a
dict per row; only the row-dict images of log versions 1 to 3 and
``load_state`` of a :class:`~repro.relational.state.DatabaseState`
read row dicts (:func:`row_values`).

Batch shapes.  Three shapes take the columnar path: ``insert_many``,
an all-insert ``apply_batch``, and an ``apply_batch`` of updates and
deletes in any mix.  An update/delete batch qualifies when every key
appears in it once and no update assigns a primary- or candidate-key
attribute; its merged rows get the null checks, the new foreign-key
values one existence probe each against the final state, and the
values that deletes and updates take away the restrict check.

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
from collections import defaultdict, deque
from contextlib import contextmanager
from itertools import chain, filterfalse, islice, repeat
from operator import itemgetter
from typing import Any, Callable, Mapping, Sequence

from repro.constraints.checker import key_violation
from repro.constraints.functional import KeyDependency
from repro.engine.plans import ABSENT
from repro.engine.wal import op_runs
from repro.io.state_json import (
    StateDecodeError,
    decode_columns,
    decode_relation_rows,
)
from repro.relational.relation import Relation
from repro.relational.tuples import (
    NULL,
    Tuple,
    any_null,
    contains_null,
    has_null,
    values_on,
)

#: Drains a map object without building a list -- the cheapest way to
#: run a C-level function over every element.
_consume = deque(maxlen=0).extend


def adopt_row(values: dict[str, Any]) -> Tuple:
    """A :class:`Tuple` view of the row dict ``values``, sharing it
    without a copy.

    The engine hands rows out in process through such views: of a dict
    built from the stored value (``plan.row_of``), or of the row dict a
    batch accepted.  Neither is kept by a table, so a view stays the
    row it was when it was handed out.
    """
    t = object.__new__(Tuple)
    t._values = values
    t._hash = None
    return t


def adopt_rows(rows: list) -> list[Tuple | None]:
    """Views of a batch's accepted row dicts, one per op (a delete's
    ``None`` stays ``None``), built with the cyclic collector held off as for
    the batch itself: a view is a tracked object."""
    with _gc_paused():
        return [None if row is None else adopt_row(row) for row in rows]


def _materialize(table, rows: Sequence[Mapping[str, Any]]):
    """Shape-check rows and turn them into stored values with all-C-loop
    passes.

    Returns the rows' stored values, or ``None`` when the shape proof
    fails.  Every pass is a C loop; no per-row Python frame runs.
    Shape is proved batch-wide: all rows are exactly ``dict``, every
    row has ``len(attrs)`` keys, and the union of all keys is a subset
    of ``attrs`` -- together that forces each row's key set to equal
    ``attrs`` (equal-size subset).
    """
    plan = table.plan
    attrs = plan.attr_set
    if set(map(type, rows)) != {dict}:
        return None  # non-dict row (or empty batch): slow path decides
    if set(map(len, rows)) != {len(attrs)} or not attrs.issuperset(
        frozenset().union(*rows)
    ):
        return None  # some row's attribute set differs from the scheme
    return values_on(rows, plan.names)


def _keyed(plan, values: list) -> dict:
    """The insertion-ordered ``pk -> value`` dict of stored values.
    Intra-batch key duplicates show up as ``len(new) != len(values)``;
    the dict carries each key's hash, so committing it via
    ``dict.update`` never rehashes."""
    return dict(zip(plan.column(values, plan.key_names), values))


def _validate_inserts(db, groups):
    """Columnar validation of insert groups against the pre-state.

    ``groups`` is a list of ``(table, rows)`` pairs, one per scheme.
    Returns ``(table, values, new)`` triples ready to commit, or
    ``None`` when the batch must take the slow path.  Performs no
    mutation.
    """
    identical = db.null_semantics == "identical"
    prepared = []
    new_by_scheme: dict[str, tuple] = {}
    for table, rows in groups:
        plan = table.plan
        values = _materialize(table, rows)
        if values is None:
            return None  # shape
        new = _keyed(plan, values)
        if len(new) != len(values):
            return None  # intra-batch duplicate primary key
        # One dict lookup / one C identity scan replaces a per-row null
        # filter (duplicate null keys already shrank ``len(new)``).
        if any_null(new, len(plan.key_names)):
            return None  # a null (component) in a primary key
        if not table.rows.keys().isdisjoint(new):
            return None  # primary-key clash with stored rows
        for _constraint, check in plan.bulk_null_checks:
            if not all(map(check, values)):
                return None
        for key_names, _extract in plan.candidate_keys:
            vals = plan.column(values, key_names)
            if not identical and any_null(vals, len(key_names)):
                vals = list(filterfalse(contains_null, vals))
            if len(set(vals)) != len(vals):
                return None  # intra-batch candidate-key duplicate
            if vals and not table.key_indexes[key_names].keys().isdisjoint(
                vals
            ):
                return None
        prepared.append((table, values, new))
        new_by_scheme[table.scheme.name] = (table, values, new)
    # Deferred outgoing-reference existence: one probe per distinct
    # foreign-key value, against stored rows plus the batch itself.
    for table, values, _new in prepared:
        plan = table.plan
        for ref in plan.outgoing:
            vals = _total_values(
                plan.column(values, ref.ind.lhs_attrs), len(ref.attrs)
            )
            if not vals:
                continue
            rtable = db._tables[ref.scheme]
            batch_new = new_by_scheme.get(ref.scheme)
            if ref.is_pk:
                missing = vals.difference(rtable.rows)
                if missing and (
                    batch_new is None or not batch_new[2].keys() >= missing
                ):
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
                            inbatch = set(
                                rtable.plan.column(batch_new[1], ref.attrs)
                            )
                        if v in inbatch:
                            continue
                    return None
    return prepared


def _total_values(column: list, width: int) -> set:
    """The distinct values of a column over ``width`` attributes that
    contain no ``NULL`` (a partly-null value binds no reference)."""
    vals = set(column)
    if width == 1:
        vals.discard(NULL)
        return vals
    return set(filterfalse(has_null, vals))


def _commit_inserts(db, prepared) -> None:
    """Apply validated insert groups: bulk row storage plus the exact
    index maintenance ``Database._store_raw`` performs per row."""
    identical = db.null_semantics == "identical"
    for table, values, new in prepared:
        plan = table.plan
        table.rows.update(new)
        table.version += 1
        for key_names, _extract in plan.candidate_keys:
            keys = plan.column(values, key_names)
            pairs = zip(keys, new)
            if not identical and any_null(keys, len(key_names)):
                # Under distinct nulls a partly-null key binds nothing.
                pairs = [p for p in pairs if not contains_null(p[0])]
            table.key_indexes[key_names].update(pairs)
        for attrs, gindex in table.group_indexes.items():
            _file(gindex, list(new), plan.column(values, attrs), len(attrs))


def install_rows(
    db, tables, relations, log: Callable[[], None] | None = None
) -> int:
    """Replace the named tables' contents with ``relations``' rows --
    the one install path of :meth:`Database.load_state`, snapshot
    recovery, replica bootstrap and the online merge's schema swap.

    ``relations`` maps scheme names to lists of stored values
    (:func:`row_values`, :func:`image_values`, or the merge's own),
    which the tables keep as their rows.  Each relation takes the
    insert path's columnar steps -- keyed in one pass, then
    :func:`_commit_inserts` fills the candidate-key and group indexes.
    Equal rows collapse into one, as in a ``Relation``; two different
    rows on one primary key are refused with the key dependency's
    violation.  Nothing is touched unless every relation passes;
    ``log`` runs between the checks and the install.  No constraint is
    checked -- callers own validation.  Returns the number of rows
    installed.
    """
    with _gc_paused():
        prepared = []
        for name, values in relations.items():
            table = tables.get(name)
            if table is None:
                raise KeyError(f"no relation named {name!r}")
            new = _keyed(table.plan, values)
            if len(new) != len(values):
                values = _distinct_rows(table, values)
                new = _keyed(table.plan, values)
            prepared.append((table, values, new))
        if log is not None:
            log()
        for table, _values, _new in prepared:
            table.rows = {}
            table.key_indexes = {k: {} for k in table.key_indexes}
            table.group_indexes = {a: {} for a in table.group_indexes}
        _commit_inserts(db, prepared)
    return sum(len(values) for _t, values, _n in prepared)


def row_values(table, rows: list) -> list:
    """The stored values of row dicts that must fit ``table``'s scheme
    (a ``load_state`` or a version 1 to 3 image); a row that does not
    fit is refused with ``state_from_dict``'s error."""
    if not rows:
        return []
    values = _materialize(table, rows)
    if values is None:
        _refuse_shape(table, rows)
    return values


def image_values(tables, state: Mapping[str, Any]) -> dict[str, list]:
    """The stored values of a snapshot image's ``state``, per table of
    ``tables`` (a scheme the image does not name gets none).

    A relation of the image is either one value list per attribute (the
    column image of log version 4, ``plan.columns``), whose values
    are zipped into stored values with no dict per row, or a list of
    row dicts (versions 1 to 3), read by :func:`row_values`.  Markers
    are decoded with one type probe per column or relation.  Unknown
    relation names, rows that are not objects, and columns that do not
    fit the scheme raise :class:`StateDecodeError`."""
    raw = state.get("relations", {})
    unknown = set(raw) - set(tables)
    if unknown:
        raise StateDecodeError(
            f"state mentions unknown schemes: {sorted(unknown)}"
        )
    # Every row list is decoded before any is installed, so a malformed
    # row is reported as ``state_from_dict`` reports it.
    decoded = {
        name: rel if type(rel) is dict else decode_relation_rows(name, rel)
        for name, rel in ((name, raw.get(name, [])) for name in tables)
    }
    return {
        name: (
            _column_values(tables[name], rel)
            if type(rel) is dict
            else row_values(tables[name], rel)
        )
        for name, rel in decoded.items()
    }


def _column_values(table, columns: Mapping[str, Any]) -> list:
    """The stored values of one relation's value columns."""
    plan = table.plan
    name = table.scheme.name
    if columns.keys() != plan.attr_set:
        raise StateDecodeError(
            f"{name}: columns {sorted(columns)} do not match the scheme "
            f"attributes {sorted(plan.names)}"
        )
    cols = [columns[a] for a in plan.names]
    if set(map(type, cols)) != {list} or len(set(map(len, cols))) != 1:
        raise StateDecodeError(
            f"{name}: the columns must be value lists of one length"
        )
    return plan.from_columns(decode_columns(cols))


def _refuse_shape(table, rows) -> None:
    """Raise ``state_from_dict``'s error for rows that do not fit the
    scheme: the failure path builds the :class:`Relation` whose shape
    check names the offending row."""
    try:
        Relation.from_dicts(table.scheme.attributes, rows)
    except ValueError as exc:
        raise StateDecodeError(f"{table.scheme.name}: {exc}") from exc
    raise TypeError(f"{table.scheme.name}: rows must be plain dicts")


def _distinct_rows(table, rows) -> list:
    """``rows`` with equal rows collapsed, first one kept.  Two rows
    that share a primary key but differ are refused: a table holds one
    row per key, so installing both would silently lose one.  On a
    total key that is the key dependency's violation; a key with a
    ``NULL`` binds no dependency, so there only storage refuses."""
    from repro.engine.database import ConstraintViolationError

    pk = table.plan.pk
    kept: dict = {}
    for row in rows:
        key = pk(row)
        first = kept.setdefault(key, row)
        if first is row or first == row:
            continue
        if contains_null(key):
            raise ConstraintViolationError(
                "bulk-load",
                f"{table.scheme.name}: two different rows on the primary "
                f"key {key!r}, which holds a null; a table stores one row "
                "per key value",
                kind="structure",
            )
        violation = key_violation(KeyDependency.of_scheme(table.scheme))
        raise ConstraintViolationError(
            "bulk-load", str(violation), kind="key-dependency"
        )
    return list(kept.values())


def bulk_apply(
    db, ops, runs=None, log: Callable[[list], None] | None = None
) -> list[dict[str, Any] | None] | None:
    """Fast path for :meth:`Database.apply_batch` and
    :meth:`Database.insert_many` (one insert run).

    The batch comes as ``runs`` (see :func:`~repro.engine.wal.op_runs`)
    or, when those are not given, as the op tuples ``ops``, grouped
    here once.  The validators take the runs, and ``log(runs)`` -- the
    append of the batch's record, written from the same runs -- runs
    once the batch has validated, before it is committed.  Returns the
    stored row dicts, one per op (``None`` for a delete); views are the
    caller's to build.  Handles all-insert batches and batches of
    updates and deletes; anything else, malformed or unprovable returns
    ``None`` for the slow path.
    """
    with _gc_paused():
        try:
            if runs is None:
                runs = op_runs(ops)
            if not runs:
                return None  # let the slow path produce its []
            if runs[0][0] == "insert":
                validated = _validate_batch_inserts(db, runs)
            else:
                validated = _validate_changes(db, runs)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            return None
        if validated is None:
            return None
        if log is not None:
            log(runs)
        return validated()


@contextmanager
def _gc_paused():
    """Hold off the cyclic collector for one batch: a big batch
    allocates thousands of tracked containers (index buckets,
    composite key tuples), and without a pause they trigger
    generational collections mid-batch."""
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
    for table, rows, _new in prepared:
        stats.inserts += len(rows)
        stats.bulk_rows += len(rows)
        if rows:
            name = table.scheme.name
            stats.scheme_mutations[name] = (
                stats.scheme_mutations.get(name, 0) + len(rows)
            )


def _joined(parts: list[list]) -> list:
    """The items of one scheme's runs, in batch order."""
    return parts[0] if len(parts) == 1 else list(chain.from_iterable(parts))


def _validate_batch_inserts(db, runs):
    """Validate an all-insert batch; its commit thunk, or ``None``."""
    scheme_runs: defaultdict[str, list] = defaultdict(list)
    for kind, scheme_name, rows in runs:
        if kind != "insert":
            return None  # mixed batch: slow path
        scheme_runs[scheme_name].append(rows)
    glist = []
    for scheme_name, parts in scheme_runs.items():
        table = db._tables.get(scheme_name)
        if table is None:
            return None
        glist.append((table, _joined(parts)))
    prepared = _validate_inserts(db, glist)
    if prepared is None:
        return None

    def commit() -> list[dict[str, Any]]:
        _commit_inserts(db, prepared)
        _count_inserts(db, prepared)
        # The runs list the rows in batch order.
        return list(chain.from_iterable(map(itemgetter(2), runs)))

    return commit


def _validate_changes(db, runs):
    """Validate a batch of updates and deletes; its commit thunk, or
    ``None``.

    Taken only when every key appears once in the batch and no update
    touches a primary- or candidate-key attribute: then every op sees
    its pre-state row, keys cannot move or collide, and the row path's
    per-op key checks pass by construction.  What is left is checked
    against the pre-state with in-batch adjustments: null checks on the
    merged rows, the foreign-key values updates assign against the
    final state, and restrict for the values deletes and updates take
    away.
    """
    # Collect each scheme's keys from its runs (normalized already); a
    # missing row or a repeated key is a slow-path matter
    # (KeyError with the canonical message, or sequential semantics).
    delete_runs: defaultdict[str, list] = defaultdict(list)
    update_runs: defaultdict[str, list] = defaultdict(list)
    for kind, scheme_name, items in runs:
        if kind == "delete":
            delete_runs[scheme_name].append(items)
        elif kind == "update":
            update_runs[scheme_name].append(items)
        else:
            return None  # inserts mixed in: slow path
    deletes = {s: _joined(parts) for s, parts in delete_runs.items()}
    updates = {s: _joined(parts) for s, parts in update_runs.items()}
    deleted: dict[str, tuple] = {}
    for scheme_name, pks in deletes.items():
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
    updated: dict[str, _Edit] = {}
    for scheme_name, items in updates.items():
        edit = _prepare_updates(db, scheme_name, items)
        if edit is None:
            return None
        entry = deleted.get(scheme_name)
        if entry is not None and not edit.keys.keys().isdisjoint(entry[1]):
            return None  # one row both updated and deleted
        updated[scheme_name] = edit
    if not _outgoing_hold(db, deleted, updated):
        return None
    if not _restrict_holds(db, deleted, updated):
        return None
    return lambda: _commit_changes(db, deleted, updated, runs)


class _Edit:
    """One scheme's share of a validated update batch."""

    __slots__ = ("table", "keys", "olds", "news", "merged", "attrs")

    def __init__(self, table, keys, olds, news, merged, attrs):
        self.table = table
        #: The updated keys (a dict, for set tests) in batch order.
        self.keys: dict[Any, None] = keys
        #: The stored values the updates replace, and their successors.
        self.olds: list = olds
        self.news: list = news
        #: Each new value's row dict: what the batch answers with.
        self.merged: list[dict[str, Any]] = merged
        #: Every attribute some update of this scheme assigns.
        self.attrs: frozenset[str] = attrs

    def moved(self, attrs: Sequence[str]):
        """Keys whose value under ``attrs`` the batch may change (every
        updated key, if any update assigns one of ``attrs``)."""
        return self.keys if not self.attrs.isdisjoint(attrs) else ()


def _prepare_updates(db, scheme_name, items):
    """Merge one scheme's ``(pk, updates)`` items into its pre-state
    rows and run the null checks on them; the :class:`_Edit`, or
    ``None``."""
    table = db._tables.get(scheme_name)
    if table is None:
        return None
    pks = list(map(itemgetter(0), items))
    changes = list(map(itemgetter(1), items))
    if set(map(type, changes)) != {dict}:
        return None  # the log writes update maps as given
    plan = table.plan
    rows = table.rows
    keys = dict.fromkeys(pks)
    if len(keys) != len(pks) or not keys.keys() <= rows.keys():
        return None  # a repeated or missing key
    attrs = frozenset().union(*changes)
    if not attrs <= plan.attr_set or not attrs.isdisjoint(plan.key_attrs):
        return None  # an unknown attribute, or a key would change
    olds = list(map(rows.__getitem__, pks))
    merged = list(map(plan.row_of, olds))
    _consume(map(dict.update, merged, changes))
    news = list(map(plan.values, merged))
    # Key attributes keep their (total) stored values, so the
    # key-only nulls-not-allowed checks hold as for inserts.
    for _constraint, check in plan.bulk_null_checks:
        if not all(map(check, news)):
            return None
    return _Edit(table, keys, olds, news, merged, attrs)


def _outgoing_hold(db, deleted, updated) -> bool:
    """Every reference an update assigns holds in the final state: one
    probe per distinct new value, and a provider the batch deletes (or
    may change) does not count.  A reference no update assigns keeps
    its stored, valid value; should the batch take that value's
    provider away, the restrict check sees the row as a blocking
    child."""
    for edit in updated.values():
        for ref in edit.table.plan.outgoing:
            if edit.attrs.isdisjoint(ref.watch):
                continue
            vals = _total_values(
                edit.table.plan.column(edit.news, ref.ind.lhs_attrs),
                len(ref.attrs),
            )
            if not vals:
                continue
            rtable = db._tables[ref.scheme]
            entry = deleted.get(ref.scheme)
            rdead = entry[1] if entry is not None else {}
            if ref.is_pk:
                # Updates never change keys: the providers are the
                # stored rows the batch does not delete.
                if not (
                    rtable.rows.keys() >= vals and rdead.keys().isdisjoint(vals)
                ):
                    return False
                continue
            gindex = rtable.group_indexes.get(ref.attrs)
            if gindex is None:
                return False  # unindexed group: slow path scans
            redit = updated.get(ref.scheme)
            moved = redit.moved(ref.attrs) if redit is not None else ()
            for v in vals:
                bucket = gindex.get(v)
                if not bucket or all(
                    pk in rdead or pk in moved for pk in bucket
                ):
                    return False
    return True


def _restrict_holds(db, deleted, updated) -> bool:
    """Deferred restrict verification for the values deletes remove and
    updates change away, evaluated on the *pre*-state with in-batch
    adjustments: a child blocks iff it is not itself deleted (an
    updated child still counts as referencing its old value -- safe,
    since the slow path then decides); a blocked value is still fine
    iff a row the batch neither deletes nor changes keeps it alive.
    Nothing has been mutated, so bailing out needs no restore and the
    slow path raises the canonical ``restrict-batch`` error."""
    for scheme_name in deleted.keys() | updated.keys():
        entry = deleted.get(scheme_name)
        edit = updated.get(scheme_name)
        table = entry[0] if entry is not None else edit.table
        olds = entry[1] if entry is not None else {}
        plan = table.plan
        if not plan.incoming:
            continue
        by_attrs: dict[tuple, list] = {}
        for ref in plan.incoming:
            by_attrs.setdefault(tuple(ref.ind.rhs_attrs), []).append(ref)
        for rhs_attrs, refs in by_attrs.items():
            rhs_is_pk = rhs_attrs == plan.key_names
            gone = olds
            # One extraction pass per referenced column group, shared by
            # every inclusion dependency over it -- and free when the
            # group *is* the primary key: the deleted-keys dict already
            # holds exactly the disappearing values (with cached
            # hashes), and updates never change keys.
            if rhs_is_pk:
                vals = olds.keys()
            else:
                vals = _total_values(
                    plan.column(olds.values(), rhs_attrs), len(rhs_attrs)
                )
                if edit is not None and edit.moved(rhs_attrs):
                    extract = refs[0].extract
                    gone = dict(olds)
                    for pk, old, new in zip(edit.keys, edit.olds, edit.news):
                        v = extract(old)
                        if v != extract(new):
                            gone[pk] = old
                            if not contains_null(v):
                                vals.add(v)
            if not vals:
                continue
            gindex = None
            if not rhs_is_pk:
                gindex = table.group_indexes.get(rhs_attrs)
                if gindex is None:
                    return False
            for ref in refs:
                ctable = db._tables[ref.scheme]
                centry = deleted.get(ref.scheme)
                cdead = centry[1] if centry is not None else ()
                if ref.is_pk:
                    container = ctable.rows
                else:
                    container = ctable.group_indexes.get(ref.attrs)
                    if container is None:
                        return False
                # Values both disappearing and referenced by this child
                # table: a C-level intersection that walks the smaller
                # side, so the common no-conflict batch costs one pass.
                for v in container.keys() & vals:
                    if ref.is_pk:
                        blocked = v not in cdead
                    else:
                        bucket = container[v]
                        blocked = any(pk not in cdead for pk in bucket)
                    if not blocked:
                        continue  # every referencing child dies too
                    if rhs_is_pk:
                        alive = v in table.rows and v not in gone
                    else:
                        bucket = gindex.get(v)
                        alive = bucket is not None and any(
                            pk not in gone for pk in bucket
                        )
                    if not alive:
                        return False
    return True


def _commit_changes(db, deleted, updated, runs) -> list[dict | None]:
    """Apply a validated update/delete batch: bulk row removal and
    replacement plus the index maintenance ``Database._unstore_raw`` /
    ``_store_raw`` perform per row."""
    _commit_deletes(deleted)
    for edit in updated.values():
        table = edit.table
        # Replaced in place: unlike the row path's unstore/store, an
        # updated row keeps its position in the table's scan order.
        plan = table.plan
        table.rows.update(zip(edit.keys, edit.news))
        table.version += 1
        # Key indexes need no work: updates never change key values.
        for attrs, gindex in table.group_indexes.items():
            if not edit.attrs.isdisjoint(attrs):
                keys = list(edit.keys)
                width = len(attrs)
                _unfile(gindex, keys, plan.column(edit.olds, attrs), width)
                _file(gindex, keys, plan.column(edit.news, attrs), width)
    # One result per op, in batch order: a scheme's merged rows are in
    # the order of its update runs.
    merged = {name: iter(edit.merged) for name, edit in updated.items()}
    results: list[dict | None] = []
    for kind, scheme_name, items in runs:
        if kind == "delete":
            results.extend(repeat(None, len(items)))
        else:
            results.extend(islice(merged[scheme_name], len(items)))
    stats = db.stats
    stats.bulk_rows += len(results)
    for scheme_name, (_table, olds) in deleted.items():
        stats.deletes += len(olds)
        stats.scheme_mutations[scheme_name] = (
            stats.scheme_mutations.get(scheme_name, 0) + len(olds)
        )
    for scheme_name, edit in updated.items():
        stats.updates += len(edit.keys)
        stats.scheme_mutations[scheme_name] = (
            stats.scheme_mutations.get(scheme_name, 0) + len(edit.keys)
        )
    return results


def _unfile(gindex, keys: list, values: list, width: int) -> None:
    """Take each key out of its ``values`` bucket of a group index
    over ``width`` attributes, dropping buckets left empty -- C loops,
    unless a value has a ``NULL`` (it has no bucket) or the index lacks
    one."""
    distinct = set(values)
    if any_null(distinct, width) or not gindex.keys() >= distinct:
        for pk, value in zip(keys, values):
            bucket = gindex.get(value)
            if bucket is not None:
                bucket.pop(pk, None)
                if not bucket:
                    del gindex[value]
        return
    _consume(map(dict.pop, map(gindex.__getitem__, values), keys, repeat(None)))
    _consume(map(gindex.__delitem__, filterfalse(gindex.__getitem__, distinct)))


def _file(gindex, keys: list, values: list, width: int) -> None:
    """Add each key to its ``values`` bucket of a group index over
    ``width`` attributes; a value with a ``NULL`` gets none."""
    distinct = set(values)
    if any_null(distinct, width):
        kept = [(k, v) for k, v in zip(keys, values) if not contains_null(v)]
        keys = [k for k, _v in kept]
        values = [v for _k, v in kept]
        distinct = set(values)
    for value in distinct.difference(gindex):
        gindex[value] = {}
    _consume(
        map(dict.__setitem__, map(gindex.__getitem__, values), keys, repeat(None))
    )


def _commit_deletes(deleted) -> None:
    """Bulk row removal plus the exact index maintenance
    ``Database._unstore_raw`` performs per row."""
    for table, olds in deleted.values():
        trows = table.rows
        plan = table.plan
        if len(olds) * 2 >= len(trows):
            # Deleting a large fraction: rebuilding the survivor dict is
            # one C pass instead of per-key deletions (order preserved).
            table.rows = {
                pk: t for pk, t in trows.items() if pk not in olds
            }
        else:
            _consume(map(trows.__delitem__, olds))
        table.version += 1
        for key_names, extract in plan.candidate_keys:
            index = table.key_indexes[key_names]
            for pk, old in olds.items():
                value = extract(old)
                if index.get(value, ABSENT) == pk:
                    del index[value]
        for attrs, gindex in table.group_indexes.items():
            _unfile(
                gindex,
                list(olds),
                plan.column(olds.values(), attrs),
                len(attrs),
            )
