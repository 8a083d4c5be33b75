"""Compiled per-scheme access plans for the storage engine.

The engine's hot paths (insert/update/delete, key and reference checks)
repeatedly project rows onto fixed attribute groups: the primary key,
each candidate key, both sides of every inclusion dependency, and the
attribute groups of the per-tuple null constraints.  Re-deriving those
projections from attribute-name lists on every call costs a Python-level
generator per row per group; an access plan compiles each projection
*once per schema* into an :func:`operator.itemgetter` over the stored
value, and each null constraint into a closure over such getters.

A stored row is its scheme's tuple in the sense of Section 2: one value
per attribute, and nothing else -- the scheme already fixes the names.
One rule gives it, every key and every projected value their form: it
is ``itemgetter(*names)(row)`` -- the bare value for one attribute, a
tuple for two or more.  So a one-attribute scheme stores each row as
its key value itself, and a wider one as the value tuple in attribute
order (:attr:`SchemeAccessPlan.values`).  Plans read stored values by
position (:meth:`SchemeAccessPlan.getter`, :meth:`SchemeAccessPlan.column`)
and build a row dict only where a row leaves the engine
(:attr:`SchemeAccessPlan.row_of`).  Candidate-key and reverse-reference
indexes are keyed by values of the same rule, and every comparison
pairs values of one group, so both sides always have the same form.  A
key that comes in from outside is normalized once
(:func:`~repro.relational.tuples.key_value`); the log, the wire and
error texts write keys as value tuples
(:func:`~repro.relational.tuples.key_tuple`).

Plans are purely derived data: they hold no row state and can be shared
between any number of databases over the same schema.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

from repro.constraints.inclusion import InclusionDependency
from repro.constraints.nulls import (
    NullConstraint,
    NullExistenceConstraint,
    PartNullConstraint,
    TotalEqualityConstraint,
)
from repro.relational.schema import RelationScheme, RelationalSchema
from repro.relational.tuples import Tuple, null_probe

#: A compiled projection: a row (a stored value, or an attribute
#: mapping for :func:`attr_extractor`) -> its value on the group (bare
#: for one attribute, a tuple for more).
Extractor = Callable[[Any], Any]

#: A compiled per-tuple null check, over the stored value (so the bulk
#: path runs it on a batch's values before any is stored).
NullCheck = Callable[[Any], bool]


def attr_extractor(names: Sequence[str]) -> Extractor:
    """The extractor ``itemgetter(*names)`` over attribute mappings: the
    bare value for one attribute, the value tuple for more (``()`` for
    none)."""
    names = tuple(names)
    if not names:
        return lambda values: ()
    return itemgetter(*names)


def _same(value: Any) -> Any:
    """A one-attribute scheme's projection on its attribute: the stored
    value is that attribute's value."""
    return value


#: What a lookup of stored values answers for an absent key
#: (``rows.get(pk, ABSENT)``).  ``None`` cannot serve: a one-attribute
#: scheme's stored value is its key, and a ``None`` key is accepted.
ABSENT = object()


def compile_null_check(
    constraint: NullConstraint,
    getter: Callable[[Sequence[str]], Extractor],
    row_of: Callable[[Any], dict],
) -> NullCheck:
    """A fast per-tuple satisfaction test for one null constraint.

    The three concrete constraint classes are compiled into closures
    over the plan's positional getters (``getter(names)``) and the
    C-level null probes of :func:`~repro.relational.tuples.null_probe`;
    unknown subclasses fall back to ``constraint.holds_for`` on the
    row's :class:`Tuple` (``row_of`` builds its dict).  Checks take the
    stored value, so both the per-row and the columnar bulk path call
    them without building a row first.
    """
    if isinstance(constraint, NullExistenceConstraint):
        lhs = tuple(sorted(constraint.lhs))
        rhs = tuple(sorted(constraint.rhs))
        rhs_get, rhs_null = getter(rhs), null_probe(rhs)
        if not lhs:
            # Nulls-not-allowed: the right-hand side must be total.
            return lambda value: not rhs_null(rhs_get(value))
        lhs_get, lhs_null = getter(lhs), null_probe(lhs)

        def check_existence(value: Any) -> bool:
            return lhs_null(lhs_get(value)) or not rhs_null(rhs_get(value))

        return check_existence
    if isinstance(constraint, PartNullConstraint):
        groups = tuple(
            (getter(g), null_probe(g))
            for g in (tuple(sorted(g)) for g in constraint.groups)
        )

        def check_part_null(value: Any) -> bool:
            for get, has_null in groups:
                if not has_null(get(value)):
                    return True
            return False

        return check_part_null
    if isinstance(constraint, TotalEqualityConstraint):
        lhs, rhs = tuple(constraint.lhs), tuple(constraint.rhs)
        lhs_get, rhs_get = getter(lhs), getter(rhs)
        lhs_null, rhs_null = null_probe(lhs), null_probe(rhs)

        def check_total_equality(value: Any) -> bool:
            left, right = lhs_get(value), rhs_get(value)
            if lhs_null(left) or rhs_null(right):
                return True
            return left == right

        return check_total_equality

    def check_fallback(value: Any) -> bool:
        return constraint.holds_for(Tuple(row_of(value)))

    return check_fallback


class CompiledReference:
    """One inclusion dependency, compiled as seen from one endpoint.

    For an *outgoing* reference of scheme ``S`` (``S = lhs``):
    ``extract`` projects an ``S`` row onto the foreign-key attributes,
    ``scheme``/``attrs`` name the referenced side, ``is_pk`` says the
    referenced attributes are that scheme's primary key (so existence is
    answered by its primary-key index), and ``watch`` is the set of foreign-key
    attributes whose assignment needs a new existence probe.

    For an *incoming* reference of scheme ``S`` (``S = rhs``):
    ``extract`` projects an ``S`` row onto the referenced attributes,
    ``scheme``/``attrs`` name the referencing (child) side, ``is_pk``
    says the child references through its own primary key, and ``watch``
    is the set of ``S`` attributes whose change can strand child rows
    (used by restrict-on-update).
    """

    __slots__ = ("ind", "extract", "scheme", "attrs", "is_pk", "watch")

    def __init__(
        self,
        ind: InclusionDependency,
        extract: Extractor,
        scheme: str,
        attrs: tuple[str, ...],
        is_pk: bool,
        watch: frozenset[str],
    ):
        self.ind = ind
        self.extract = extract
        self.scheme = scheme
        self.attrs = attrs
        self.is_pk = is_pk
        self.watch = watch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledReference({self.ind})"


class SchemeAccessPlan:
    """Every compiled projection and check one scheme's mutations need.

    The projections run on stored values (see the module docstring):
    :attr:`values` turns a row mapping into its stored value,
    :meth:`getter` compiles a positional projection of stored values,
    and :attr:`row_of` builds the row dict of a stored value."""

    __slots__ = (
        "scheme",
        "names",
        "key_names",
        "attr_set",
        "values",
        "row_of",
        "pk",
        "candidate_keys",
        "key_attrs",
        "null_checks",
        "bulk_null_checks",
        "outgoing",
        "incoming",
        "_positions",
        "_getters",
    )

    def __init__(self, scheme: RelationScheme, schema: RelationalSchema):
        self.scheme = scheme
        names = self.names = scheme.attribute_names
        self.key_names: tuple[str, ...] = scheme.key_names
        self.attr_set: frozenset[str] = frozenset(names)
        self._positions = {name: i for i, name in enumerate(names)}
        self._getters: dict[tuple[str, ...], Extractor] = {}
        #: A row mapping's stored value: bare for a one-attribute
        #: scheme, the value tuple in attribute order otherwise.
        self.values: Extractor = attr_extractor(names)
        #: The row dict of a stored value (in attribute order), built
        #: only where a row leaves the engine.
        self.row_of: Callable[[Any], dict[str, Any]]
        if len(names) == 1:
            only = names[0]
            self.row_of = lambda value: {only: value}
        else:
            self.row_of = lambda value: dict(zip(names, value))
        #: Primary-key projection.
        self.pk: Extractor = self.getter(scheme.key_names)
        #: Non-primary candidate keys as ``(key_names, extractor)`` pairs.
        self.candidate_keys: tuple[tuple[tuple[str, ...], Extractor], ...] = tuple(
            (key_names, self.getter(key_names))
            for key_names in (
                tuple(a.name for a in key) for key in scheme.candidate_keys
            )
            if key_names != scheme.key_names
        )
        #: Every attribute of the primary key or a candidate key.
        self.key_attrs: frozenset[str] = frozenset(scheme.key_names).union(
            *(key_names for key_names, _extract in self.candidate_keys)
        )
        #: Null constraints as ``(constraint, compiled check)`` pairs, in
        #: schema declaration order (violation order matters).
        self.null_checks: tuple[tuple[NullConstraint, NullCheck], ...] = tuple(
            (c, compile_null_check(c, self.getter, self.row_of))
            for c in schema.null_constraints_of(scheme.name)
        )
        #: Null checks the bulk path must still run per row: a
        #: nulls-not-allowed constraint over key attributes only is
        #: implied by the primary key's own totality filter, so the
        #: columnar path (:mod:`repro.engine.rows`) skips it.
        key_set = frozenset(scheme.key_names)
        self.bulk_null_checks: tuple[tuple[NullConstraint, NullCheck], ...] = tuple(
            (c, check)
            for c, check in self.null_checks
            if not (
                isinstance(c, NullExistenceConstraint)
                and c.is_nulls_not_allowed()
                and c.rhs <= key_set
            )
        )
        self.outgoing: tuple[CompiledReference, ...] = tuple(
            CompiledReference(
                ind,
                self.getter(ind.lhs_attrs),
                ind.rhs_scheme,
                tuple(ind.rhs_attrs),
                tuple(ind.rhs_attrs)
                == schema.scheme(ind.rhs_scheme).key_names,
                frozenset(ind.lhs_attrs),
            )
            for ind in schema.inds
            if ind.lhs_scheme == scheme.name
        )
        self.incoming: tuple[CompiledReference, ...] = tuple(
            CompiledReference(
                ind,
                self.getter(ind.rhs_attrs),
                ind.lhs_scheme,
                tuple(ind.lhs_attrs),
                tuple(ind.lhs_attrs)
                == schema.scheme(ind.lhs_scheme).key_names,
                frozenset(ind.rhs_attrs),
            )
            for ind in schema.inds
            if ind.rhs_scheme == scheme.name
        )

    def getter(self, names: Sequence[str]) -> Extractor:
        """The projection of stored values onto ``names`` (bare for one
        attribute, a tuple for more, ``()`` for none), compiled once per
        group: an ``itemgetter`` of positions, or the value itself for
        a one-attribute scheme.  An unknown name raises ``KeyError``."""
        names = tuple(names)
        get = self._getters.get(names)
        if get is None:
            positions = tuple(map(self._positions.__getitem__, names))
            if not names:
                get = attr_extractor(())
            elif len(self.names) == 1:
                get = _same  # the scheme's one attribute
            else:
                get = itemgetter(*positions)
            self._getters[names] = get
        return get

    def columns(self, values: Iterable[Any]) -> dict[str, list]:
        """Stored values as one fresh value list per attribute -- a
        relation of a snapshot image (log version 4)."""
        names = self.names
        if len(names) == 1:
            return {names[0]: list(values)}
        columns = list(map(list, zip(*values))) or [[] for _ in names]
        return dict(zip(names, columns))

    def from_columns(self, columns: Sequence[list]) -> list:
        """The stored values of value lists of equal length, one per
        attribute in attribute order (inverse of :meth:`columns`)."""
        return columns[0] if len(columns) == 1 else list(zip(*columns))

    def column(self, values: Iterable[Any], names: Sequence[str]) -> list:
        """Each stored value's projection onto ``names``, in order -- the
        one column read over stored rows: the checker's, the bulk
        path's and the merge's."""
        get = self.getter(names)
        return list(values) if get is _same else list(map(get, values))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SchemeAccessPlan({self.scheme.name}, "
            f"{len(self.candidate_keys)} candidate keys, "
            f"{len(self.outgoing)} out / {len(self.incoming)} in refs)"
        )


def compile_schema(schema: RelationalSchema) -> dict[str, SchemeAccessPlan]:
    """Access plans for every scheme of ``schema``, keyed by name."""
    return {s.name: SchemeAccessPlan(s, schema) for s in schema.schemes}
