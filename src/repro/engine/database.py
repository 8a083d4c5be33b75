"""A mutable, constraint-enforcing database over one relational schema.

Rows are indexed by primary key; every mutation enforces:

* per-tuple null constraints of the affected scheme (the single-tuple
  semantics of Section 3 makes them checkable on the new row alone);
* primary/candidate key uniqueness (candidate keys with nulls follow the
  total-left-hand-side FD semantics of Section 5.1);
* inclusion dependencies: on insert/update, referenced values must exist;
  on delete/update, referencing rows restrict the mutation.

This is the behaviour the paper expects triggers (SYBASE), rules
(INGRES) or validprocs (DB2) to implement; having it natively lets the
benchmarks run merged and unmerged schemas under identical enforcement.

Two layers keep the enforcement fast (see ``docs/PERFORMANCE.md``):

* **compiled access plans** (:mod:`repro.engine.plans`) -- every
  projection a mutation needs (primary key, candidate keys, both sides
  of every inclusion dependency, null-constraint groups) is compiled
  once per schema into an ``itemgetter``: a stored row, a key or a
  projected value is the bare value for one attribute and a tuple for
  more, and the tables and their indexes are keyed by those values;
* **reverse-reference indexes** -- for every column group an inclusion
  dependency touches, the owning table keeps ``value -> {pk: None}``
  (insertion-ordered), so existence checks, restrict checks and
  ``find_referencing`` are O(1)/O(k) instead of scans.  Only *total*
  values are indexed: the paper defines inclusion-dependency
  satisfaction over total projections, which holds under both the
  ``distinct`` and the ``identical`` null semantics; candidate-key
  indexes, by contrast, do differ by mode (``identical`` indexes
  partially-null key values too, which is why SYBASE/INGRES reject
  duplicate null keys).
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.engine.plans import (
    ABSENT,
    CompiledReference,
    SchemeAccessPlan,
    compile_schema,
)
from repro.engine.rows import (
    _gc_paused,
    adopt_row,
    adopt_rows,
    bulk_apply,
    image_values,
    install_rows,
    row_values,
)
from repro.engine.stats import EngineStats
from repro.engine.wal import (
    WalError,
    WriteAheadLog,
    batch_record,
    delete_record,
    insert_record,
    merge_record,
    op_runs,
    run_ops,
    update_record,
)
from repro.obs.rules import classify_null_constraint, paper_rule
from repro.obs.trace import TraceEvent, Tracer
from repro.relational.relation import Relation
from repro.relational.schema import RelationScheme, RelationalSchema
from repro.relational.state import DatabaseState
from repro.relational.tuples import (
    NULL,
    Tuple,
    any_null,
    contains_null,
    key_tuple,
    key_value,
)


class ConstraintViolationError(ValueError):
    """A mutation was rejected; carries which constraint failed.

    ``constraint`` is the constraint id (the label the seed engine
    always raised with); ``kind`` is the violation-kind string used for
    rule lookup (defaults to ``constraint``, which is already a kind
    for labels like ``restrict-delete``); ``rule`` is the paper-rule
    label (:data:`repro.obs.rules.PAPER_RULES`), derived from ``kind``
    when not given.
    """

    def __init__(
        self,
        constraint: str,
        detail: str,
        kind: str | None = None,
        rule: str | None = None,
    ):
        self.constraint = constraint
        self.detail = detail
        self.kind = kind if kind is not None else constraint
        self.rule = rule if rule is not None else paper_rule(self.kind)
        super().__init__(f"{constraint}: {detail}")


class _Table:
    """One stored relation: primary-key index, candidate-key indexes, and
    reverse-reference indexes (``value -> {pk: None}``, insertion-ordered)
    for the column groups inclusion dependencies touch, so reference and
    restrict checks are O(1) and ``find_referencing`` is O(k).

    The primary-key index maps each key to the row's stored value: the
    bare value of a one-attribute scheme (the key itself) or the value
    tuple in attribute order (:mod:`repro.engine.plans`).  A row dict,
    and a :class:`Tuple` view of it, is built only when the engine hands
    a row out.  Every index is keyed by values of the same rule: bare
    for a one-attribute group, a tuple for a composite one."""

    __slots__ = (
        "scheme",
        "plan",
        "rows",
        "key_indexes",
        "group_indexes",
        "group_extractors",
        "version",
    )

    def __init__(self, scheme: RelationScheme, plan: SchemeAccessPlan):
        self.scheme = scheme
        self.plan = plan
        self.rows: dict[Any, Any] = {}
        self.key_indexes: dict[tuple[str, ...], dict[Any, Any]] = {
            key_names: {} for key_names, _ in plan.candidate_keys
        }
        #: value -> ordered set of primary keys carrying it, per indexed
        #: group (a dict-of-None preserves row insertion order, so
        #: index-backed answers match the seed's scan order).
        self.group_indexes: dict[tuple[str, ...], dict[Any, dict[Any, None]]] = {}
        self.group_extractors: dict[tuple[str, ...], Any] = {}
        #: Mutation counter; scans snapshot it to stay iteration-safe.
        self.version = 0

    def add_group_index(self, attrs: tuple[str, ...]) -> None:
        """Register a reverse-reference index over a column group (and
        backfill it from any rows already stored)."""
        attrs = tuple(attrs)
        if attrs == self.plan.key_names or attrs in self.group_indexes:
            return
        extract = self.plan.getter(attrs)
        index: dict[Any, dict[Any, None]] = {}
        for pk, row in self.rows.items():
            value = extract(row)
            if not contains_null(value):
                index.setdefault(value, {})[pk] = None
        self.group_indexes[attrs] = index
        self.group_extractors[attrs] = extract

    def keep_group_indexes(self, groups: Iterable[tuple[str, ...]]) -> None:
        """Index exactly ``groups``: drop every other group index, and
        register (and backfill) the missing ones."""
        groups = dict.fromkeys(groups)
        for attrs in [a for a in self.group_indexes if a not in groups]:
            del self.group_indexes[attrs], self.group_extractors[attrs]
        for attrs in groups:
            self.add_group_index(attrs)

    def total_values(self, attrs: tuple[str, ...]):
        """The distinct ``NULL``-free values of the stored rows on
        ``attrs``, as the key view of the index that holds them -- the
        primary-key index, or a reverse-reference index (which files
        only total values) -- or ``None`` when no index covers
        ``attrs``.  The consistency checker's column reads take it
        instead of walking the rows."""
        if attrs == self.plan.key_names:
            if any_null(self.rows, len(attrs)):
                return None  # a bulk-loaded null key: not a total value
            return self.rows.keys()
        index = self.group_indexes.get(attrs)
        return None if index is None else index.keys()

    # A table reads like a relation, so the consistency checker can run
    # over the stored rows without a Relation built from them.

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """The scheme's attribute names."""
        return self.scheme.attribute_names

    def column(self, names: Sequence[str]) -> list:
        """The stored rows' values on ``names``, in table order: the
        checker's column reads."""
        return self.plan.column(self.rows.values(), names)

    @property
    def tuples(self) -> frozenset[Tuple]:
        """The stored rows as a set of views, iterating in the order a
        ``Relation`` of them would (builds and hashes every row: only
        the checker's failure path reads it)."""
        return frozenset(map(adopt_row, map(self.plan.row_of, self.rows.values())))

    def __len__(self) -> int:
        return len(self.rows)


def _snapshot_scan(table: _Table) -> Iterator[Tuple]:
    """Lazily yield views of the table's rows, each built from its
    stored value as it is reached, guarding against
    concurrent mutation (no full-list copy is materialized).

    The version check runs *before* resuming the dict iterator: a
    mutation can only happen while the generator is suspended, and
    advancing the raw iterator first would raise the dict's own
    ``RuntimeError`` (or, worse, silently continue after an update
    that kept the size unchanged).
    """
    expected = table.version
    it = iter(table.rows.values())
    row_of = table.plan.row_of
    while True:
        if table.version != expected:
            raise RuntimeError(
                f"{table.scheme.name} mutated during scan; materialize the "
                "scan (list(db.scan(...))) before mutating"
            )
        try:
            row = next(it)
        except StopIteration:
            return
        yield adopt_row(row_of(row))


def _indexed_groups(schema: RelationalSchema) -> dict[str, list[tuple[str, ...]]]:
    """The column groups each scheme indexes: both sides of every
    inclusion dependency -- right-hand sides for existence checks,
    left-hand sides for restrict checks on delete/update and for
    find_referencing."""
    groups: dict[str, list[tuple[str, ...]]] = {}
    for ind in schema.inds:
        groups.setdefault(ind.rhs_scheme, []).append(tuple(ind.rhs_attrs))
        groups.setdefault(ind.lhs_scheme, []).append(tuple(ind.lhs_attrs))
    return groups


def _empty_tables(schema: RelationalSchema) -> dict[str, _Table]:
    """Empty tables over ``schema``'s compiled plans, each indexing its
    :func:`_indexed_groups`."""
    plans = compile_schema(schema)
    groups = _indexed_groups(schema)
    tables = {}
    for s in schema.schemes:
        table = tables[s.name] = _Table(s, plans[s.name])
        table.keep_group_indexes(groups.get(s.name, ()))
    return tables


class _Pending(list):
    """A scheme's rows, as stored values, before they are stored: read
    by the consistency checker like a relation (``attribute_names``,
    ``column``, ``tuples``)."""

    def __init__(self, plan: SchemeAccessPlan, values):
        super().__init__(values)
        self.plan = plan
        self.attribute_names = plan.names

    def column(self, names: Sequence[str]) -> list:
        """The values on ``names``, in order."""
        return self.plan.column(self, names)

    @property
    def tuples(self) -> frozenset[Tuple]:
        """The rows as a set of views (only a failed null check reads
        it)."""
        return frozenset(map(adopt_row, map(self.plan.row_of, self)))


def _merged_values(
    tables: Mapping[str, _Table], info, plan: SchemeAccessPlan
) -> list:
    """The merged relation of ``info`` (a ``MergedSchemeInfo``) as the
    stored values of ``plan``'s scheme: Definition 4.1's eta, then each
    ``Remove`` step's projection, read off the member tables.

    Eta outer-equi-joins the key-relation with every other member on
    ``Km = Ki``.  Every member table is keyed by its primary key, so
    each merged row is one walk step over the key-relation's table (a
    synthesized key-relation is the union of the member keys) plus one
    primary-key lookup per member; a member without a row contributes
    nulls.  Only the attributes ``Remove`` left in place are read.  A
    member row no key-relation row matches -- which no consistent state
    has -- joins nothing and stands alone, padded with nulls, as in the
    outer join; equal rows then collapse as in a relation.
    """
    family = info.family
    width = len(info.km)
    if info.synthesized:
        keys: dict[Any, None] = {}
        for member in family:
            keys.update(dict.fromkeys(tables[member].rows))
        # The key's values head each merged row.
        heads = zip(keys, map(key_tuple, keys))
        joined = family
    else:
        key_table = tables[info.key_relation]
        keys = key_table.rows
        head = key_table.plan.getter(info.family_attrs[info.key_relation])
        heads = ((pk, key_tuple(head(row))) for pk, row in keys.items())
        joined = [m for m in family if m != info.key_relation]
    # A merged row is concatenated from value tuples, whatever the
    # number of attributes each part contributes; the merged scheme's
    # attributes are the parts' in this order, so the concatenation is
    # the stored value.
    parts = []
    for member in joined:
        attrs = info.family_attrs[member]
        table = tables[member]
        parts.append((table.rows, table.plan.getter(attrs), (NULL,) * len(attrs)))
    total_width = len(plan.names)
    rows = []
    append = rows.append
    for pk, values in heads:
        total = not contains_null(pk)
        for member_rows, extract, pad in parts:
            row = member_rows.get(pk, ABSENT) if total else ABSENT
            values += pad if row is ABSENT else key_tuple(extract(row))
        append(values)
    orphans = []
    end = total_width - sum(len(pad) for _rows, _extract, pad in parts)
    for member_rows, extract, pad in parts:
        start, end = end, end + len(pad)
        if member_rows.keys() <= keys.keys() and not any_null(member_rows, width):
            continue  # every member row joined a key-relation row
        before, after = (NULL,) * start, (NULL,) * (total_width - end)
        for pk, row in member_rows.items():
            if contains_null(pk) or pk not in keys:
                orphans.append(before + key_tuple(extract(row)) + after)
    if orphans:
        rows = list(dict.fromkeys(rows + orphans))
    if total_width == 1:
        rows = [value for (value,) in rows]
    return rows


class Database:
    """A mutable database state with incremental constraint enforcement.

    ``null_semantics`` selects how candidate keys treat nulls:

    * ``"distinct"`` (default): a nullable candidate key binds only when
      total -- the formal semantics the merged schemas need;
    * ``"identical"``: all null values are considered identical, as in
      SYBASE 4.0 and INGRES 6.3 (Section 5.1) -- two rows with a null
      candidate key then *clash*, which is exactly why such systems
      "cannot maintain keys that are allowed to be null" and why
      Proposition 5.1(ii) matters.

    ``wal_path`` (or an explicit ``wal``
    :class:`~repro.engine.wal.WriteAheadLog`) enables durability: every
    accepted mutation is appended to the log *before* it touches a
    table, transactions are bracketed by begin/commit markers, and
    :meth:`checkpoint` compacts the log into a snapshot.  After a
    crash, :meth:`Database.recover` rebuilds the committed state from
    the log (see ``docs/DURABILITY.md``).
    """

    def __init__(
        self,
        schema: RelationalSchema,
        stats: EngineStats | None = None,
        null_semantics: str = "distinct",
        tracer: Tracer | None = None,
        wal: WriteAheadLog | None = None,
        wal_path: str | None = None,
        slotted: bool = True,
    ):
        if null_semantics not in ("distinct", "identical"):
            raise ValueError(
                "null_semantics must be 'distinct' or 'identical'"
            )
        self.null_semantics = null_semantics
        self.schema = schema
        self.stats = stats if stats is not None else EngineStats()
        #: Trace sink for enforcement decisions (None = tracing off).
        self.tracer = tracer
        self._timed = tracer is not None
        #: Whether eligible bulk mutations may take the columnar
        #: slotted-row path (:mod:`repro.engine.rows`).  ``False``
        #: forces the row-at-a-time path everywhere -- the benchmark's
        #: before/after switch.
        self._slotted = slotted
        self._tables: dict[str, _Table] = _empty_tables(schema)
        self._plans = {name: t.plan for name, t in self._tables.items()}
        #: Undo log of the innermost open transaction (None outside one).
        self._undo_log: list[tuple[str, _Table, Any, Any]] | None = None
        if wal is not None and wal_path is not None:
            raise ValueError("pass either wal or wal_path, not both")
        if wal_path is not None:
            wal = WriteAheadLog.open(wal_path)
        #: The write-ahead log, or ``None`` for a purely in-memory engine.
        self.wal = wal
        if wal is not None:
            wal.stats = self.stats
        #: The :class:`~repro.engine.recovery.RecoveryReport` of the
        #: recovery that built this engine (``None`` for a fresh one).
        self.recovery_report = None
        #: Whether an online merge (or an installed image that carried
        #: a schema) has moved this engine off the schema it was
        #: constructed with; :meth:`snapshot_image` then embeds the
        #: current schema.
        self._schema_evolved = False

    # -- access ----------------------------------------------------------

    def table(self, scheme_name: str) -> _Table:
        """The stored table for one relation-scheme."""
        try:
            return self._tables[scheme_name]
        except KeyError:
            raise KeyError(f"no relation named {scheme_name!r}") from None

    def plan(self, scheme_name: str) -> SchemeAccessPlan:
        """The compiled access plan for one relation-scheme."""
        self.table(scheme_name)  # raises uniformly on unknown names
        return self._plans[scheme_name]

    # -- observability ---------------------------------------------------

    def set_tracer(self, tracer: Tracer | None) -> None:
        """Attach (or with ``None`` detach) a trace sink."""
        self.tracer = tracer
        self._timed = tracer is not None

    def explain(self, op: str, scheme_name: str) -> dict:
        """The ordered checks ``op`` ("insert"/"update"/"delete") runs on
        ``scheme_name``, with constraint ids, paper-rule labels and
        access paths -- as a structured dict."""
        from repro.obs.explain import explain_mutation

        return explain_mutation(self, op, scheme_name)

    def explain_text(self, op: str, scheme_name: str) -> str:
        """Human-readable form of :meth:`explain`."""
        from repro.obs.explain import explain_mutation, render_mutation

        return render_mutation(explain_mutation(self, op, scheme_name))

    def _observe_ok(
        self, op: str, scheme: str | None, start: float, rows: int = 1
    ) -> None:
        """Trace one accepted mutation with its elapsed time."""
        self.tracer.emit(
            TraceEvent(
                event="mutation",
                op=op,
                scheme=scheme,
                outcome="ok",
                rows=rows,
                elapsed_us=round((perf_counter() - start) * 1e6, 3),
            )
        )

    def _observe_reject(
        self,
        op: str,
        scheme: str | None,
        exc: ConstraintViolationError,
        start: float,
    ) -> None:
        """Trace one rejected mutation with its constraint provenance."""
        self.tracer.emit(
            TraceEvent(
                event="reject",
                op=op,
                scheme=scheme,
                constraint=exc.constraint,
                kind=exc.kind,
                rule=exc.rule,
                outcome="rejected",
                detail=exc.detail,
                elapsed_us=round((perf_counter() - start) * 1e6, 3),
            )
        )

    def _wal_append(
        self, record: dict, op: str, scheme: str | None, rows: int = 1
    ) -> None:
        """Durably log one accepted mutation (write-ahead: the caller
        has validated it and applies it only after this returns).  A
        storage fault propagates and leaves the mutation unapplied."""
        self.wal.append(record)
        if self.tracer is not None:
            self.tracer.emit(
                TraceEvent(
                    event="wal",
                    op=op,
                    scheme=scheme,
                    kind="wal-append",
                    rule=paper_rule("wal-append"),
                    outcome="logged",
                    rows=rows,
                )
            )

    def get(self, scheme_name: str, pk: tuple[Any, ...] | Any) -> Tuple | None:
        """Primary-key lookup; counts as one lookup.  A one-attribute
        key may be given bare or as a 1-tuple."""
        self.stats.lookups += 1
        table = self.table(scheme_name)
        row = table.rows.get(key_value(pk), ABSENT)
        return None if row is ABSENT else adopt_row(table.plan.row_of(row))

    def scan(self, scheme_name: str) -> Iterable[Tuple]:
        """Full scan; counts every tuple touched.

        Returns a lazy snapshot-safe iterator (no list copy): mutating
        the relation while the iterator is live raises ``RuntimeError``
        at the next step instead of yielding inconsistent rows.
        """
        table = self.table(scheme_name)
        self.stats.tuples_scanned += len(table.rows)
        return _snapshot_scan(table)

    def count(self, scheme_name: str) -> int:
        """Current row count of one relation."""
        return len(self.table(scheme_name))

    def state(self) -> DatabaseState:
        """An immutable snapshot of the current contents."""
        return DatabaseState(
            {
                name: Relation(
                    table.scheme.attributes,
                    map(adopt_row, map(table.plan.row_of, table.rows.values())),
                )
                for name, table in self._tables.items()
            }
        )

    # -- validation helpers -----------------------------------------------

    def _check_shape(self, table: _Table, row: Mapping[str, Any]) -> Tuple:
        expected = table.plan.attr_set
        given = row.keys() if isinstance(row, (dict, Tuple)) else set(row)
        if given != expected:
            missing = expected - given
            extra = set(given) - expected
            raise ConstraintViolationError(
                "structure",
                f"{table.scheme.name}: row attributes mismatch "
                f"(missing {sorted(missing)}, unexpected {sorted(extra)})",
            )
        return Tuple(row)

    def _check_null_constraints(self, plan: SchemeAccessPlan, value: Any) -> None:
        """Run the per-tuple null checks on the stored value ``value``."""
        for constraint, check in plan.null_checks:
            self.stats.constraint_checks += 1
            if not check(value):
                raise ConstraintViolationError(
                    str(constraint),
                    f"row {adopt_row(plan.row_of(value))!r}",
                    kind=classify_null_constraint(constraint),
                )

    def _check_keys(self, table: _Table, value: Any, replacing: Any) -> Any:
        """Key-uniqueness checks on the stored value ``value``, which
        replaces the row keyed ``replacing`` (``ABSENT`` for an insert:
        ``None`` is a key); returns the (validated) primary key so
        callers can store the row without re-projecting it."""
        plan = table.plan
        pk = plan.pk(value)
        if contains_null(pk):
            raise ConstraintViolationError(
                "primary-key",
                f"{table.scheme.name}: primary key contains nulls: "
                f"{key_tuple(pk)!r}",
            )
        self.stats.constraint_checks += 1
        if pk in table.rows and pk != replacing:
            raise ConstraintViolationError(
                "primary-key",
                f"{table.scheme.name}: duplicate primary key {key_tuple(pk)!r}",
            )
        for key_names, extract in plan.candidate_keys:
            key = extract(value)
            if contains_null(key):
                if self.null_semantics == "distinct":
                    continue  # binds only when total
                # 'identical' semantics (SYBASE/INGRES, Section 5.1):
                # nulls compare equal, so a partially-null key value
                # occupies an index slot like any other.
            self.stats.constraint_checks += 1
            owner = table.key_indexes[key_names].get(key, ABSENT)
            if owner is not ABSENT and owner != replacing:
                raise ConstraintViolationError(
                    "candidate-key",
                    f"{table.scheme.name}: duplicate candidate key "
                    f"{dict(zip(key_names, key_tuple(key)))!r} "
                    f"({self.null_semantics} null semantics)",
                )
        return pk

    def _check_references_out(self, plan: SchemeAccessPlan, row: Any) -> None:
        """Every outgoing reference of the stored value ``row`` holds."""
        for ref in plan.outgoing:
            value = ref.extract(row)
            if contains_null(value):
                continue
            self.stats.constraint_checks += 1
            if not self._referenced_exists_via(ref, value):
                raise ConstraintViolationError(
                    str(ref.ind),
                    f"no {ref.scheme} row with "
                    f"{dict(zip(ref.attrs, key_tuple(value)))!r}",
                    kind="inclusion-dependency",
                )

    def _referenced_exists_via(self, ref: CompiledReference, value: Any) -> bool:
        table = self._tables[ref.scheme]
        scanned = 0
        if ref.is_pk:
            self.stats.index_hits += 1
            path = "pk-index"
            found = value in table.rows
        elif (index := table.group_indexes.get(ref.attrs)) is not None:
            self.stats.index_hits += 1
            path = "group-index"
            found = bool(index.get(value))
        else:
            self.stats.index_misses += 1
            scanned = len(table.rows)
            self.stats.tuples_scanned += scanned
            path = "scan"
            extract = table.plan.getter(ref.attrs)
            found = any(extract(row) == value for row in table.rows.values())
        if self.tracer is not None:
            self.tracer.emit(
                TraceEvent(
                    event="ref-check",
                    op="exists",
                    scheme=ref.scheme,
                    constraint=str(ref.ind),
                    kind="inclusion-dependency",
                    rule=paper_rule("inclusion-dependency"),
                    outcome="found" if found else "absent",
                    access_path=path,
                    rows=scanned,
                )
            )
        return found

    def _referenced_exists(
        self, scheme_name: str, attrs: tuple[str, ...], value: Any
    ) -> bool:
        """Index-backed existence of ``value`` (in the plans' form) under
        ``scheme_name[attrs]``."""
        table = self.table(scheme_name)
        attrs = tuple(attrs)
        if attrs == table.plan.key_names:
            self.stats.index_hits += 1
            return value in table.rows
        index = table.group_indexes.get(attrs)
        if index is not None:
            self.stats.index_hits += 1
            return bool(index.get(value))
        self.stats.index_misses += 1
        self.stats.tuples_scanned += len(table.rows)
        extract = table.plan.getter(attrs)
        return any(extract(row) == value for row in table.rows.values())

    def _trace_restrict(
        self,
        ref: CompiledReference,
        path: str,
        scanned: int,
        blocker: str | None,
    ) -> None:
        """Emit the restrict-probe event for one incoming reference."""
        self.tracer.emit(
            TraceEvent(
                event="restrict-check",
                op="referencers",
                scheme=ref.scheme,
                constraint=str(ref.ind),
                kind="inclusion-dependency",
                rule=paper_rule("inclusion-dependency"),
                outcome="blocked" if blocker is not None else "clear",
                access_path=path,
                rows=scanned,
                detail=blocker,
            )
        )

    def _blocking_referencer(
        self,
        ref: CompiledReference,
        value: Any,
        exclude_pk: Any,
    ) -> str | None:
        """Description of a row of ``ref.scheme`` referencing ``value``
        (ignoring the row keyed ``exclude_pk``), or ``None``."""
        child = self._tables[ref.scheme]
        blocker: str | None = None
        scanned = 0
        if ref.is_pk:
            self.stats.index_hits += 1
            path = "pk-index"
            if value in child.rows:
                if exclude_pk is None:
                    blocker = f"{ref.ind} (from {ref.scheme})"
                elif value != exclude_pk:
                    blocker = (
                        f"{ref.ind} (row {key_tuple(value)!r} of {ref.scheme})"
                    )
        elif (index := child.group_indexes.get(ref.attrs)) is not None:
            self.stats.index_hits += 1
            path = "group-index"
            referencers = index.get(value)
            if referencers:
                if exclude_pk is None:
                    blocker = f"{ref.ind} (from {ref.scheme})"
                else:
                    for pk in referencers:
                        if pk != exclude_pk:
                            blocker = (
                                f"{ref.ind} (row {key_tuple(pk)!r} "
                                f"of {ref.scheme})"
                            )
                            break
        else:
            self.stats.index_misses += 1
            scanned = len(child.rows)
            self.stats.tuples_scanned += scanned
            path = "scan"
            extract = child.plan.getter(ref.attrs)
            for pk, row in child.rows.items():
                if exclude_pk is not None and pk == exclude_pk:
                    continue
                if extract(row) == value:
                    blocker = (
                        f"{ref.ind} (row {key_tuple(pk)!r} of {ref.scheme})"
                    )
                    break
        if self.tracer is not None:
            self._trace_restrict(ref, path, scanned, blocker)
        return blocker

    def _referencing_rows_exist(
        self,
        scheme_name: str,
        row: Any,
        ignore_self_pk: Any = None,
    ) -> str | None:
        """Description of a restricting reference into the stored value
        ``row``, if any."""
        for ref in self._plans[scheme_name].incoming:
            value = ref.extract(row)
            if contains_null(value):
                continue
            exclude = (
                ignore_self_pk
                if ignore_self_pk is not None and ref.scheme == scheme_name
                else None
            )
            blocker = self._blocking_referencer(ref, value, exclude)
            if blocker is not None:
                return blocker
        return None

    # -- mutations -----------------------------------------------------------

    def insert(self, scheme_name: str, row: Mapping[str, Any]) -> Tuple:
        """Insert one row; raises :class:`ConstraintViolationError` when
        any constraint would be violated."""
        timed = self._timed
        start = perf_counter() if timed else 0.0
        table = self.table(scheme_name)
        plan = table.plan
        try:
            t = self._check_shape(table, row)
            value = plan.values(t.mapping)
            self._check_null_constraints(plan, value)
            pk = self._check_keys(table, value, replacing=ABSENT)
            self._check_references_out(plan, value)
        except ConstraintViolationError as exc:
            if timed:
                self._observe_reject("insert", scheme_name, exc, start)
            raise
        if self.wal is not None:
            self._wal_append(
                insert_record(scheme_name, t.mapping), "insert", scheme_name
            )
        self._store(table, value, pk)
        self.stats.inserts += 1
        self.stats.count_scheme_mutation(scheme_name)
        if timed:
            self._observe_ok("insert", scheme_name, start)
        return t

    def delete(self, scheme_name: str, pk: tuple[Any, ...] | Any) -> None:
        """Delete by primary key, restricting when referenced."""
        pk = key_value(pk)
        timed = self._timed
        start = perf_counter() if timed else 0.0
        table = self.table(scheme_name)
        old = table.rows.get(pk, ABSENT)
        if old is ABSENT:
            raise KeyError(f"{scheme_name}: no row with key {key_tuple(pk)!r}")
        blocker = self._referencing_rows_exist(scheme_name, old)
        if blocker is not None:
            exc = ConstraintViolationError(
                "restrict-delete",
                f"{scheme_name} row {key_tuple(pk)!r} referenced via {blocker}",
            )
            if timed:
                self._observe_reject("delete", scheme_name, exc, start)
            raise exc
        if self.wal is not None:
            self._wal_append(delete_record(scheme_name, pk), "delete", scheme_name)
        self._unstore(table, pk, old)
        self.stats.deletes += 1
        self.stats.count_scheme_mutation(scheme_name)
        if timed:
            self._observe_ok("delete", scheme_name, start)

    def update(
        self, scheme_name: str, pk: tuple[Any, ...] | Any, updates: Mapping[str, Any]
    ) -> Tuple:
        """Update one row by primary key."""
        pk = key_value(pk)
        timed = self._timed
        start = perf_counter() if timed else 0.0
        table = self.table(scheme_name)
        plan = table.plan
        old = table.rows.get(pk, ABSENT)
        if old is ABSENT:
            raise KeyError(f"{scheme_name}: no row with key {key_tuple(pk)!r}")
        try:
            old_row = plan.row_of(old)
            t = adopt_row(old_row).with_values(dict(updates))
            new_row = t.mapping
            value = plan.values(new_row)
            self._check_null_constraints(plan, value)
            new_pk = self._check_keys(table, value, replacing=pk)
            self._check_references_out(plan, value)
            # Referenced attribute values must not change under incoming
            # references (restrict semantics on update).
            changed = {
                name for name in updates if old_row[name] != new_row[name]
            }
            if changed:
                for ref in self._plans[scheme_name].incoming:
                    if changed & ref.watch:
                        blocker = self._referencing_rows_exist(
                            scheme_name, old, ignore_self_pk=pk
                        )
                        if blocker is not None:
                            raise ConstraintViolationError(
                                "restrict-update",
                                f"{scheme_name} row {key_tuple(pk)!r} "
                                f"referenced via {blocker}",
                            )
                        break
        except ConstraintViolationError as exc:
            if timed:
                self._observe_reject("update", scheme_name, exc, start)
            raise
        if self.wal is not None:
            self._wal_append(
                update_record(scheme_name, pk, dict(updates)),
                "update",
                scheme_name,
            )
        self._unstore(table, pk, old)
        self._store(table, value, new_pk)
        self.stats.updates += 1
        self.stats.count_scheme_mutation(scheme_name)
        if timed:
            self._observe_ok("update", scheme_name, start)
        return t

    # -- bulk mutations --------------------------------------------------------

    def insert_many(
        self, scheme_name: str, rows: Iterable[Mapping[str, Any]]
    ) -> list[Tuple]:
        """Insert many rows of one scheme atomically: the batch is one
        insert run of :meth:`apply_batch`.

        Shape, null-constraint and key checks run immediately per row
        (so intra-batch duplicates are caught in order), while outgoing
        reference checks are *deferred* until every row is stored and
        then verified -- rows of a self-referencing scheme may therefore
        arrive in any order.  On any violation the whole batch rolls
        back and the same :class:`ConstraintViolationError` the per-row
        path would raise is re-raised.

        With a log attached, an accepted batch is one ``batch`` record
        (:func:`~repro.engine.wal.batch_record`), whichever path
        accepted it; a rejected one logs nothing.
        """
        return adopt_rows(self.insert_rows(scheme_name, rows))

    def insert_rows(
        self, scheme_name: str, rows: Iterable[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        """:meth:`insert_many`, returning the accepted row dicts
        themselves rather than views of them: on the columnar path the
        very dicts the caller passed.  The server's ``insert_many`` verb
        calls it, and only serializes the rows it gets; the batch's
        trace events are labelled ``insert_many`` with its scheme either
        way."""
        self.table(scheme_name)  # an unknown scheme fails, rows or not
        rows = rows if isinstance(rows, list) else list(rows)
        return self._apply(
            None, [("insert", scheme_name, rows)], "insert_many", scheme_name
        )

    def apply_batch(
        self, ops: Iterable[tuple]
    ) -> list[Tuple | None]:
        """Apply a sequence of mutations atomically with *deferred*
        reference checking.

        ``ops`` is an iterable of operation tuples::

            ("insert", scheme_name, row_mapping)
            ("update", scheme_name, pk, updates_mapping)
            ("delete", scheme_name, pk)

        Shape, null-constraint and key checks run immediately per
        operation (in batch order); inclusion-dependency checks in both
        directions are deferred and verified against the batch's *final*
        state, so operations may arrive in any order -- a child row may
        be inserted before its parent, a parent deleted before its
        children, a referenced value rewired in two steps.  On any
        violation the whole batch rolls back: outgoing-reference
        failures raise the same error the per-row path would, dangling
        references left by deletes/updates raise ``restrict-batch``.

        Returns one entry per operation: the accepted row as a
        :class:`Tuple` for inserts/updates, ``None`` for deletes.  With a log attached, an
        accepted batch is one ``batch`` record, as for
        :meth:`insert_many`.
        """
        ops = ops if isinstance(ops, list) else list(ops)
        return adopt_rows(self._apply(ops, None))

    def apply_runs(self, runs: list[tuple]) -> list[dict[str, Any] | None]:
        """:meth:`apply_batch` for a batch already grouped into runs
        (:func:`~repro.engine.wal.op_runs`), returning the accepted row
        dicts themselves (``None`` for a delete): an insert's dict as
        given, an update's merged dict.  No row views are built.

        It is the entry point of log replay, which reads a ``batch``
        record back as its runs (:func:`~repro.engine.wal.record_runs`)
        and hands them to the columnar validators without regrouping,
        and of the server, which only serializes the rows it gets."""
        return self._apply(None, runs)

    def _apply(
        self,
        ops: list[tuple] | None,
        runs: list[tuple] | None,
        op: str = "apply_batch",
        scheme: str | None = None,
    ) -> list[dict[str, Any] | None]:
        """One batch, given as op tuples or as runs; returns the accepted
        row dicts, one per op (``None`` for a delete).  The columnar
        path groups the ops once (the runs it validates are the runs its
        log record is written from); the row path takes the op tuples,
        expanded from the runs when only those are given.  ``op`` and
        ``scheme`` label the batch's trace events."""
        timed = self._timed
        start = perf_counter() if timed else 0.0
        if self._slotted and self._undo_log is None:
            log = None
            if self.wal is not None:
                log = lambda runs: self._wal_append(  # noqa: E731
                    batch_record(runs),
                    op,
                    scheme,
                    sum(len(items) for _k, _s, items in runs),
                )
            fast = bulk_apply(self, ops, runs, log)
            if fast is not None:
                if timed:
                    self._observe_ok(op, scheme, start, rows=len(fast))
                return fast
        if ops is None:
            ops = run_ops(runs)
        try:
            with _TransactionContext(self, bracket=False):
                results, applied = self._apply_batch(ops)
                self._log_applied(applied, op, scheme)
        except ConstraintViolationError as exc:
            if timed:
                self._observe_reject(op, scheme, exc, start)
            raise
        self._count_applied(applied)
        if timed:
            self._observe_ok(op, scheme, start, rows=len(results))
        return results

    def _apply_batch(
        self, ops: Iterable[tuple]
    ) -> tuple[list[dict[str, Any] | None], list[tuple]]:
        """The row-at-a-time batch, run under the caller's undo journal:
        apply the ops and verify the deferred checks.  Returns the
        stored rows and the ops normalized for logging."""
        results, pending_out, pending_in, applied = self._apply_ops(ops)
        self._verify_deferred(pending_out, pending_in)
        return results, applied

    def _log_applied(
        self,
        applied: list[tuple],
        op: str = "apply_batch",
        scheme: str | None = None,
    ) -> None:
        """Append the ``batch`` record of a row-path batch's normalized
        ops (nothing for an empty batch or a log-less engine)."""
        if self.wal is not None and applied:
            self._wal_append(
                batch_record(op_runs(applied)), op, scheme, len(applied)
            )

    def _count_applied(self, applied: list[tuple]) -> None:
        """Count a committed row-path batch's ops.  Only a batch that
        commits is counted: a rejected or aborted one is not."""
        stats = self.stats
        kinds = Counter(map(itemgetter(0), applied))
        stats.inserts += kinds["insert"]
        stats.updates += kinds["update"]
        stats.deletes += kinds["delete"]
        mutations = stats.scheme_mutations
        for name, n in Counter(map(itemgetter(1), applied)).items():
            mutations[name] = mutations.get(name, 0) + n
        stats.bulk_rows += len(applied)

    def _apply_ops(
        self, ops: Iterable[tuple]
    ) -> tuple[
        list[dict[str, Any] | None],
        list[tuple[str, Any]],
        list[tuple[CompiledReference, Any]],
        list[tuple],
    ]:
        """Apply a batch's operations with per-op immediate checks,
        accumulating the deferred reference checks.

        Returns ``(results, pending_out, pending_in, applied)``, where
        ``results`` holds each op's accepted row dict (``None`` for a
        delete), ``pending_out`` the ``(scheme, stored value)`` pairs
        whose outgoing references are checked at the end, and
        ``applied`` the ops normalized for logging (row dicts, engine
        keys, plain-dict updates).  The caller owns the enclosing
        transaction, the deferred verification, the log append and the
        counting (:meth:`_count_applied`).
        """
        results: list[dict[str, Any] | None] = []
        pending_out: list[tuple[str, Any]] = []
        pending_in: list[tuple[CompiledReference, Any]] = []
        applied: list[tuple] = []
        for op in ops:
            kind = op[0]
            if kind == "insert":
                _, scheme_name, row = op
                table = self.table(scheme_name)
                plan = table.plan
                t = self._check_shape(table, row)
                value = plan.values(t.mapping)
                self._check_null_constraints(plan, value)
                pk = self._check_keys(table, value, replacing=ABSENT)
                self._store(table, value, pk)
                pending_out.append((scheme_name, value))
                results.append(t.mapping)
                applied.append(("insert", scheme_name, t.mapping))
            elif kind == "delete":
                _, scheme_name, pk = op
                pk = key_value(pk)
                table = self.table(scheme_name)
                old = table.rows.get(pk, ABSENT)
                if old is ABSENT:
                    raise KeyError(
                        f"{scheme_name}: no row with key {key_tuple(pk)!r}"
                    )
                for ref in self._plans[scheme_name].incoming:
                    value = ref.extract(old)
                    if not contains_null(value):
                        pending_in.append((ref, value))
                self._unstore(table, pk, old)
                results.append(None)
                applied.append(("delete", scheme_name, pk))
            elif kind == "update":
                _, scheme_name, pk, updates = op
                pk = key_value(pk)
                table = self.table(scheme_name)
                plan = table.plan
                old = table.rows.get(pk, ABSENT)
                if old is ABSENT:
                    raise KeyError(
                        f"{scheme_name}: no row with key {key_tuple(pk)!r}"
                    )
                updates = dict(updates)
                old_row = plan.row_of(old)
                new_row = adopt_row(old_row).with_values(updates).mapping
                value = plan.values(new_row)
                self._check_null_constraints(plan, value)
                new_pk = self._check_keys(table, value, replacing=pk)
                changed = {
                    name for name in updates if old_row[name] != new_row[name]
                }
                for ref in plan.incoming:
                    if changed & ref.watch:
                        referenced = ref.extract(old)
                        if not contains_null(referenced):
                            pending_in.append((ref, referenced))
                self._unstore(table, pk, old)
                self._store(table, value, new_pk)
                pending_out.append((scheme_name, value))
                results.append(new_row)
                applied.append(("update", scheme_name, pk, updates))
            else:
                raise ValueError(f"unknown batch operation {kind!r}")
        return results, pending_out, pending_in, applied

    def _verify_deferred(
        self,
        pending_out: list[tuple[str, Any]],
        pending_in: list[tuple[CompiledReference, Any]],
        collect_remote: bool = False,
    ) -> list[dict[str, Any]]:
        """Verify a batch's deferred reference checks against its final
        state.

        In the default mode any unsatisfied check raises exactly as the
        unbatched path would.  With ``collect_remote`` (the sharded
        two-phase prepare), a check that cannot be satisfied *locally*
        is returned as a requirement dict instead of raising -- rows of
        other shards may satisfy it, and only the shard router can know
        (see ``docs/SERVER.md``).  Requirement kinds:

        * ``exists`` -- an inserted/updated row references ``value``
          under ``scheme[attrs]`` and no local row carries it;
        * ``restrict`` -- a delete/update removed a local provider of
          ``value`` under ``scheme[attrs]`` and no other local provider
          remains: the batch is admissible iff some remote provider
          exists or no ``child_scheme[child_attrs]`` row (on any shard)
          still references the value.
        """
        requirements: list[dict[str, Any]] = []
        # Deferred verification against the final batch state.
        for scheme_name, row in pending_out:
            table = self._tables[scheme_name]
            plan = table.plan
            if table.rows.get(plan.pk(row), ABSENT) is not row:
                continue  # superseded by a later operation
            if not collect_remote:
                self._check_references_out(plan, row)
                continue
            for ref in plan.outgoing:
                value = ref.extract(row)
                if contains_null(value):
                    continue
                self.stats.constraint_checks += 1
                if self._referenced_exists_via(ref, value):
                    continue
                requirements.append(
                    {
                        "kind": "exists",
                        "scheme": ref.scheme,
                        "attrs": list(ref.attrs),
                        "value": list(key_tuple(value)),
                        "constraint": str(ref.ind),
                    }
                )
        verified: set[tuple[int, Any]] = set()
        for ref, value in pending_in:
            dedup_key = (id(ref.ind), value)
            if dedup_key in verified:
                continue
            verified.add(dedup_key)
            if self._referenced_exists(
                ref.ind.rhs_scheme, ref.ind.rhs_attrs, value
            ):
                continue  # another row still carries the referenced value
            if collect_remote:
                # No local provider: a remote one may exist, and the
                # referencing children may live on any shard (this one
                # included -- the router's probe sees this prepare's
                # state, so in-batch deletes of children are honoured).
                requirements.append(
                    {
                        "kind": "restrict",
                        "scheme": ref.ind.rhs_scheme,
                        "attrs": list(ref.ind.rhs_attrs),
                        "child_scheme": ref.scheme,
                        "child_attrs": list(ref.attrs),
                        "value": list(key_tuple(value)),
                        "constraint": str(ref.ind),
                    }
                )
                continue
            blocker = self._blocking_referencer(ref, value, None)
            if blocker is not None:
                raise ConstraintViolationError(
                    "restrict-batch",
                    f"{ref.ind.rhs_scheme} value "
                    f"{dict(zip(ref.ind.rhs_attrs, key_tuple(value)))!r} "
                    f"still referenced via {blocker}",
                )
        return requirements

    def apply_batch_prepare(self, ops: Iterable[tuple]) -> "PreparedBatch":
        """Phase one of a sharded cross-shard batch: apply and validate
        ``ops`` inside an open transaction and report what this shard
        cannot verify alone.

        Local checks (shape, nulls, keys, locally-satisfiable reference
        checks) run exactly as :meth:`apply_batch`; any local violation
        raises and leaves the state untouched.  Checks that need other
        shards come back as requirement dicts on the returned
        :class:`PreparedBatch`, which holds the transaction (and the WAL
        bracket) open until :meth:`PreparedBatch.commit` or
        :meth:`PreparedBatch.abort`.  The caller must not run other
        mutations while a prepare is held -- the server's single-writer
        loop is what guarantees this.
        """
        ctx = self.transaction()
        ctx.__enter__()
        try:
            results, pending_out, pending_in, applied = self._apply_ops(ops)
            requirements = self._verify_deferred(
                pending_out, pending_in, collect_remote=True
            )
            self._log_applied(applied)
        except BaseException as exc:
            ctx.__exit__(type(exc), exc, exc.__traceback__)
            raise
        return PreparedBatch(self, ctx, results, requirements, applied)

    def load_state(self, state: DatabaseState, validate: bool = True) -> None:
        """Bulk-load an existing state (e.g. the image of a state mapping).

        Every relation of ``state`` replaces its table's contents through
        the bulk insert path's columnar install
        (:func:`~repro.engine.rows.install_rows`) -- no per-row
        constraint checks, no journaling; the stored values share the
        state's attribute values.  Two different rows on one primary
        key are refused before anything changes.  With ``validate`` the
        final contents are checked wholesale via the consistency
        checker, which is much cheaper than per-row checks with
        inter-row ordering concerns.
        """
        relations = {
            name: row_values(self.table(name), list(rel.mappings))
            for name, rel in state.items()
        }
        self._bulk_load(relations, validate, self._tables)

    def snapshot_image(self) -> dict[str, Any]:
        """The current contents as a snapshot image: ``{"state":
        {"relations": ...}}``, plus the ``schema`` once an online merge
        has moved this engine off the schema it was built with.  It is
        the body of a checkpoint's ``snapshot`` record and of a
        ``repl_snapshot`` frame; :meth:`load_image` installs it.

        Each relation is one value list per attribute
        (:meth:`~repro.engine.plans.SchemeAccessPlan.columns`, the shape
        log version 4 writes), in table order and with ``NULL`` as stored: the log's
        and the wire's JSON encoders write ``NULL`` as the marker, so
        no value is converted and no row is built.  The lists are
        fresh, so an image taken now still encodes this state after
        later mutations."""
        image: dict[str, Any] = {
            "state": {
                "relations": {
                    name: table.plan.columns(table.rows.values())
                    for name, table in self._tables.items()
                }
            }
        }
        if self._schema_evolved:
            from repro.io.relational_json import relational_schema_to_dict

            image["schema"] = relational_schema_to_dict(self.schema)
        return image

    def load_image(self, image: Mapping[str, Any]) -> None:
        """Install a snapshot image -- a :meth:`snapshot_image`, a
        ``snapshot``/``load_state`` log record or a ``repl_snapshot``
        frame -- in place of the current contents.

        An embedded ``schema`` is adopted first: the image's rows are
        decoded against it and installed into fresh tables on it, which
        then replace the old ones while the stats, the log, the tracer
        and every other attachment stay.  The rows go straight into the
        tables, as by ``load_state(..., validate=False)`` (the image
        was consistent when it was taken): a column image's values are
        zipped into stored values with no dict per row, and the row
        dicts of an image from log versions 1 to 3 are read once
        (:func:`~repro.engine.rows.image_values`).  Refused rows leave
        the engine untouched."""
        schema_dict = image.get("schema")
        schema, tables = self.schema, self._tables
        if schema_dict is not None:
            from repro.io.relational_json import relational_schema_from_dict

            schema = relational_schema_from_dict(schema_dict)
            tables = _empty_tables(schema)
        self._bulk_load(
            image_values(tables, image["state"]), False, tables, schema_dict
        )
        if schema_dict is not None:
            self._swap_schema(schema, tables)

    def _bulk_load(
        self, relations, validate: bool, tables, schema_dict=None
    ) -> None:
        """The shared core of :meth:`load_state` and :meth:`load_image`:
        install ``relations`` (stored values per scheme) into
        ``tables``.  The log record is a ``load_state`` of those rows in
        the column image's shape, carrying ``schema_dict`` (the schema
        of ``tables``) when given."""
        if self.in_transaction:
            raise ConstraintViolationError(
                "bulk-load", "cannot bulk-load inside a transaction"
            )
        timed = self._timed
        start = perf_counter() if timed else 0.0

        def log() -> None:
            # Logged once the rows have passed the install's checks and
            # before any table changes: a failed append leaves both the
            # log and the tables untouched, a validate failure leaves
            # both holding the loaded state -- they never disagree.
            record = {
                "op": "load_state",
                "state": {
                    "relations": {
                        name: tables[name].plan.columns(values)
                        for name, values in relations.items()
                    }
                },
            }
            if schema_dict is not None:
                record["schema"] = schema_dict
            self._wal_append(record, "load_state", None)

        try:
            total = install_rows(
                self, tables, relations,
                log if self.wal is not None else None,
            )
        except ConstraintViolationError as exc:
            if timed:
                self._observe_reject("load_state", None, exc, start)
            raise
        self.stats.bulk_rows += total
        if validate:
            violations = self.violations(self.tracer)
            if violations:
                exc = ConstraintViolationError(
                    "bulk-load", "; ".join(str(v) for v in violations[:5])
                )
                if timed:
                    self._observe_reject("load_state", None, exc, start)
                raise exc
        if timed:
            self._observe_ok("load_state", None, start, rows=total)

    def violations(self, tracer: Tracer | None = None) -> list:
        """Every violation of the schema's ``F ∪ I ∪ N`` by the stored
        rows, in :class:`~repro.constraints.checker.ConsistencyChecker`
        order.  The checker reads the tables directly -- no state is
        built, and no row is hashed unless a null constraint fails --
        and ``tracer`` gets its events.  The collector is held off while
        the pass allocates its columns, as on the bulk path."""
        from repro.constraints.checker import ConsistencyChecker

        checker = ConsistencyChecker(self.schema, tracer=tracer)
        with _gc_paused():
            return checker.violations(self._tables)

    # -- online schema evolution ---------------------------------------------

    def _swap_schema(
        self, schema: RelationalSchema, tables: dict[str, _Table]
    ) -> None:
        self._tables = tables
        self._plans = {name: t.plan for name, t in tables.items()}
        self.schema = schema
        self._schema_evolved = True

    def _merge(
        self,
        members: Sequence[str],
        key_relation: str | None,
        merged_name: str | None,
        verify: bool,
        log: Callable[[], None] | None = None,
    ):
        """``Merge`` (Definition 4.1), then ``Remove`` to a fixpoint,
        applied to what they change: the member tables.

        Eta reads the member tables through their primary-key indexes
        (:func:`_merged_values`).  With ``verify``, only the constraints
        of the new schema that name the merged scheme are checked --
        its key dependencies, its null constraints and the rewritten
        inclusion dependencies, whose other side is read from the live
        table's index.  Every other constraint held before the merge
        and reads tables it leaves alone.  The merged table is built off
        to the side; ``log`` runs once it stands, and only then is it
        swapped in: the member tables go, and every other table keeps
        its rows and indexes under a recompiled plan.
        """
        from repro.core.merge import merge
        from repro.core.remove import remove_all

        simplified = remove_all(
            merge(
                self.schema,
                members,
                merged_name=merged_name,
                key_relation=key_relation,
            )
        )
        schema, info = simplified.schema, simplified.info
        name = info.merged_name
        scheme = schema.scheme(name)
        plans = compile_schema(schema)
        groups = _indexed_groups(schema)
        table = _Table(scheme, plans[name])
        table.keep_group_indexes(groups.get(name, ()))
        # The collector is held off while the merged rows are built,
        # as on the bulk path: a full collection would walk the whole
        # database heap, the part the merge leaves alone.
        with _gc_paused():
            rows = _merged_values(self._tables, info, table.plan)
            if verify:
                self._verify_merged(schema, table.plan, rows)
            # Installed before the merge is logged: a row the install
            # refuses must not leave a logged merge that cannot replay.
            install_rows(self, {name: table}, {name: rows})
        if log is not None:
            log()
        tables = {}
        for s in schema.schemes:
            if s.name == name:
                tables[name] = table
                continue
            kept = tables[s.name] = self._tables[s.name]
            kept.plan = plans[s.name]
            kept.keep_group_indexes(groups.get(s.name, ()))
        self._swap_schema(schema, tables)
        return simplified

    def _verify_merged(
        self,
        schema: RelationalSchema,
        plan: SchemeAccessPlan,
        rows: list,
    ) -> None:
        """Check the constraints of ``schema`` that name the merged
        scheme (``plan``'s) against its not-yet-stored values ``rows``;
        raise the ``online-merge`` violation when any fails.  The member
        tables are still in place, but no constraint of ``schema`` names
        them."""
        from repro.constraints.checker import ConsistencyChecker

        name = plan.scheme.name
        pending = _Pending(plan, rows)
        relations = {**self._tables, name: pending}
        checker = ConsistencyChecker(schema, tracer=self.tracer)
        violations = list(checker.iter_violations(relations, name))
        if violations:
            raise ConstraintViolationError(
                "online-merge",
                "merged state fails re-verification: "
                + "; ".join(str(v) for v in violations[:5]),
            )

    def apply_merge_online(
        self,
        members: Sequence[str],
        key_relation: str | None = None,
        merged_name: str | None = None,
    ):
        """Merge a scheme family on the live engine, atomically.

        The paper's ``Merge`` (Definition 4.1) followed by ``Remove`` to
        a fixpoint, executed against the running database: build the
        merged table from the member tables through the composed eta
        mapping, check it against the constraints that name it
        (Definition 2.1), then write one ``merge`` record inside its own
        WAL ``begin``/``commit`` bracket and only after the commit
        marker is down swap the merged table in for the members.
        Crash recovery therefore lands on the fully-merged schema
        (marker durable) or the fully-unmerged one (marker absent) --
        never a torn hybrid.  See ``docs/ADVISOR.md``.

        Returns the :class:`~repro.core.remove.SimplifyResult` so the
        caller keeps the merged-scheme info and both state mappings.
        Raises :class:`~repro.core.merge.MergeError` when the family is
        not mergeable, :class:`ConstraintViolationError` when the
        merged table fails re-verification, and refuses inside a
        transaction.
        """
        if self.in_transaction:
            raise ConstraintViolationError(
                "online-merge", "cannot merge schema inside a transaction"
            )
        timed = self._timed
        start = perf_counter() if timed else 0.0

        def log() -> None:
            self.wal.begin()
            try:
                self.wal.append(
                    merge_record(members, key_relation, merged_name)
                )
                self.wal.commit()
            except Exception:
                try:
                    self.wal.abort()
                except Exception:
                    pass  # the log is already poisoned; surface the cause
                raise

        simplified = self._merge(
            members,
            key_relation,
            merged_name,
            verify=True,
            log=log if self.wal is not None else None,
        )
        if timed:
            self.tracer.emit(
                TraceEvent(
                    event="merge-applied-online",
                    op="apply_merge",
                    scheme=simplified.info.merged_name,
                    kind="merge-admission",
                    rule="Definition 4.1 (Merge) + Definition 4.3 (Remove)",
                    outcome="ok",
                    rows=sum(len(t) for t in self._tables.values()),
                    detail=(
                        f"members={','.join(members)} "
                        f"key_relation={simplified.info.key_relation}"
                    ),
                    elapsed_us=round((perf_counter() - start) * 1e6, 3),
                )
            )
        return simplified

    def redo_merge(
        self,
        members: Sequence[str],
        key_relation: str | None = None,
        merged_name: str | None = None,
    ):
        """Replay one logged ``merge`` record (recovery/replication).

        Recomputes the deterministic ``Merge`` + ``Remove`` pipeline
        from the current schema and swaps in place through the same
        member-scoped path as :meth:`apply_merge_online`, without
        re-logging and without re-verifying (recovery re-checks the
        final state wholesale).
        """
        return self._merge(members, key_relation, merged_name, verify=False)

    # -- durability ------------------------------------------------------------

    def checkpoint(self) -> int:
        """Compact the write-ahead log into a snapshot of the current
        state (atomic under file storage); returns the snapshot record's
        ``lsn``.  Raises :class:`~repro.engine.wal.WalError` without a
        log or inside a transaction."""
        if self.wal is None:
            raise WalError("database has no write-ahead log to checkpoint")
        if self.in_transaction:
            raise WalError("cannot checkpoint inside a transaction")
        timed = self._timed
        start = perf_counter() if timed else 0.0
        image = self.snapshot_image()
        lsn = self.wal.write_snapshot(image["state"], image.get("schema"))
        self.stats.checkpoints += 1
        if timed:
            self.tracer.emit(
                TraceEvent(
                    event="checkpoint",
                    op="checkpoint",
                    kind="wal-checkpoint",
                    rule=paper_rule("wal-checkpoint"),
                    outcome="ok",
                    rows=sum(len(t) for t in self._tables.values()),
                    elapsed_us=round((perf_counter() - start) * 1e6, 3),
                )
            )
        return lsn

    def sync_wal(self) -> int:
        """Group-commit barrier: flush every WAL record appended since
        the last sync in one storage flush/fsync; returns how many
        records the barrier covered (0 with no log or nothing pending).

        This is the durability point of the server's batched-write
        path: mutations are applied (and logged, unflushed) one by one,
        then a single ``sync_wal`` makes the whole batch durable before
        any of them is acknowledged.  A storage fault poisons the log
        and re-raises -- the batch must not be acked.
        """
        if self.wal is None:
            return 0
        batched = self.wal.sync()
        if batched and self.tracer is not None:
            self.tracer.emit(
                TraceEvent(
                    event="wal",
                    op="group-commit",
                    kind="wal-group-commit",
                    rule=paper_rule("wal-group-commit"),
                    outcome="synced",
                    rows=batched,
                )
            )
        return batched

    @classmethod
    def recover(
        cls,
        schema: RelationalSchema,
        wal_path: str | None = None,
        *,
        storage=None,
        null_semantics: str = "distinct",
        stats: EngineStats | None = None,
        tracer: Tracer | None = None,
        verify: bool = True,
    ) -> "Database":
        """Rebuild the committed state from a write-ahead log.

        Replays the snapshot (if any) plus the log tail, truncating a
        torn/corrupt tail and rolling back uncommitted transactions,
        then re-verifies the result against the schema's constraints
        (``verify=False`` skips the re-check).  The returned database
        carries the repaired, resumed log and a
        :class:`~repro.engine.recovery.RecoveryReport` in
        ``recovery_report``.
        """
        from repro.engine.recovery import recover_database

        return recover_database(
            schema,
            wal_path,
            storage=storage,
            null_semantics=null_semantics,
            stats=stats,
            tracer=tracer,
            verify=verify,
        ).database

    # -- transactions -----------------------------------------------------------

    def transaction(self) -> "_TransactionContext":
        """A context manager giving all-or-nothing mutation semantics::

            with db.transaction():
                db.insert(...)
                db.update(...)

        On any exception inside the block, every mutation performed in it
        is undone (the paper's DBMS triggers ``ROLLBACK TRANSACTION`` on
        violations; this is the same discipline).  Transactions nest: an
        inner failure unwinds to the inner boundary only.
        """
        return _TransactionContext(self)

    @property
    def in_transaction(self) -> bool:
        """Whether a transaction block is currently open."""
        return self._undo_log is not None

    def _journal(self, op: str, table: _Table, pk: Any, old: Any) -> None:
        if self._undo_log is not None:
            self._undo_log.append((op, table, pk, old))

    def _rollback_to(self, mark: int) -> None:
        assert self._undo_log is not None
        while len(self._undo_log) > mark:
            op, table, pk, old = self._undo_log.pop()
            if op == "store":
                current = table.rows.get(pk, ABSENT)
                if current is not ABSENT:
                    self._unstore_raw(table, pk, current)
            else:  # "unstore"
                assert old is not None
                self._store_raw(table, old, pk)

    # -- low-level storage ---------------------------------------------------

    def _store(self, table: _Table, values: Any, pk: Any) -> None:
        self._journal("store", table, pk, None)
        self._store_raw(table, values, pk)

    def _unstore(self, table: _Table, pk: Any, old: Any) -> None:
        self._journal("unstore", table, pk, old)
        self._unstore_raw(table, pk, old)

    def _store_raw(self, table: _Table, values: Any, pk: Any) -> None:
        """File the stored value ``values`` under ``pk`` and in every
        index of ``table``."""
        plan = table.plan
        table.rows[pk] = values
        table.version += 1
        if plan.candidate_keys:
            identical = self.null_semantics == "identical"
            for key_names, extract in plan.candidate_keys:
                value = extract(values)
                if identical or not contains_null(value):
                    table.key_indexes[key_names][value] = pk
        for attrs, refs in table.group_indexes.items():
            value = table.group_extractors[attrs](values)
            if not contains_null(value):
                bucket = refs.get(value)
                if bucket is None:
                    refs[value] = {pk: None}
                else:
                    bucket[pk] = None

    def _unstore_raw(self, table: _Table, pk: Any, values: Any) -> None:
        del table.rows[pk]
        table.version += 1
        for key_names, extract in table.plan.candidate_keys:
            value = extract(values)
            index = table.key_indexes[key_names]
            if index.get(value, ABSENT) == pk:
                del index[value]
        for attrs, refs in table.group_indexes.items():
            value = table.group_extractors[attrs](values)
            bucket = refs.get(value)
            if bucket is not None:
                bucket.pop(pk, None)
                if not bucket:
                    del refs[value]


class _TransactionContext:
    """Context manager implementing :meth:`Database.transaction`.

    With a write-ahead log attached, the outermost block brackets its
    records with ``begin``/``commit`` markers (``abort`` on failure);
    an inner block that fails logs a ``rollback`` marker cancelling its
    records only.  A commit marker that cannot be written durably rolls
    the whole transaction back in memory and re-raises, so memory never
    runs ahead of what the log can prove committed.

    ``bracket=False`` is the row-path bulk scope: undo journal only, no
    markers.  Its body logs the batch's one self-committing record as
    its last step, so a failed append unwinds it like any other error.
    """

    def __init__(self, db: Database, bracket: bool = True):
        self._db = db
        self._wal = db.wal if bracket else None
        self._mark: int | None = None
        self._wal_mark: int | None = None
        self._outermost = False

    def __enter__(self) -> "Database":
        db, wal = self._db, self._wal
        if db._undo_log is None:
            db._undo_log = []
            self._outermost = True
            if wal is not None:
                try:
                    wal.begin()
                except Exception:
                    db._undo_log = None
                    raise
        self._mark = len(db._undo_log)
        if wal is not None:
            self._wal_mark = wal.next_lsn
        return db

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self._mark is not None
        db, wal = self._db, self._wal
        if exc_type is not None:
            db._rollback_to(self._mark)
            if wal is not None:
                if self._outermost:
                    wal.abort()
                else:
                    wal.rollback(self._wal_mark)
            if self._outermost:
                db._undo_log = None
            return False
        if self._outermost:
            if wal is not None:
                try:
                    wal.commit()
                except Exception:
                    # The group is not durably committed; undo it so the
                    # in-memory state matches what recovery will rebuild.
                    db._rollback_to(self._mark)
                    db._undo_log = None
                    raise
            db._undo_log = None
        return False


class PreparedBatch:
    """A batch applied but not yet decided (phase one of the sharded
    two-phase apply; see :meth:`Database.apply_batch_prepare`).

    ``results`` mirrors :meth:`Database.apply_runs`'s return value (the
    stored row dicts, ``None`` for a delete: the server only serializes
    them); ``requirements`` lists the reference checks only other shards can
    answer.  Exactly one of :meth:`commit` / :meth:`abort` must be
    called; until then the underlying transaction (and its WAL bracket)
    stays open and the owning database must not run other mutations.
    The prepare itself is volatile: a crash while held aborts it on
    recovery, because the WAL bracket was never closed with a commit
    marker.
    """

    __slots__ = ("db", "results", "requirements", "_ctx", "_applied")

    def __init__(
        self,
        db: Database,
        ctx: _TransactionContext,
        results: list[dict[str, Any] | None],
        requirements: list[dict[str, Any]],
        applied: list[tuple],
    ):
        self.db = db
        self.results = results
        self.requirements = requirements
        self._ctx: _TransactionContext | None = ctx
        #: The batch's ops as logged, counted once it commits.
        self._applied = applied

    @property
    def decided(self) -> bool:
        """Whether the hold has already been committed or aborted."""
        return self._ctx is None

    def commit(self) -> list[dict[str, Any] | None]:
        """Make the batch permanent (the requirements were satisfied)."""
        ctx, self._ctx = self._take(), None
        ctx.__exit__(None, None, None)
        self.db._count_applied(self._applied)
        return self.results

    def abort(self) -> None:
        """Roll the batch back (a requirement failed, or the router
        aborted the distributed batch)."""
        ctx, self._ctx = self._take(), None
        exc = ValueError("prepared batch aborted")
        ctx.__exit__(ValueError, exc, None)

    def _take(self) -> _TransactionContext:
        if self._ctx is None:
            raise RuntimeError("prepared batch already decided")
        return self._ctx
