"""Compiled per-scheme access plans for the storage engine.

The engine's hot paths (insert/update/delete, key and reference checks)
repeatedly project rows onto fixed attribute groups: the primary key,
each candidate key, both sides of every inclusion dependency, and the
attribute groups of the per-tuple null constraints.  Re-deriving those
projections from attribute-name lists on every call costs a Python-level
generator per row per group; an access plan compiles each projection
*once per schema* into an :func:`operator.itemgetter` over the tuple's
underlying mapping, and each null constraint into a closure of plain
dict lookups.

One rule gives every key and projected value its form: it is
``itemgetter(*names)(row)`` -- the bare value for one attribute, a
tuple for two or more.  Stored rows, candidate-key and reverse-reference
indexes are keyed by such values, and every comparison pairs values of
one group, so both sides always have the same form.  A key that comes
in from outside is normalized once (:func:`~repro.relational.tuples.key_value`);
the log, the wire and error texts write keys as value tuples
(:func:`~repro.relational.tuples.key_tuple`).

Plans are purely derived data: they hold no row state and can be shared
between any number of databases over the same schema.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Mapping, Sequence

from repro.constraints.inclusion import InclusionDependency
from repro.constraints.nulls import (
    NullConstraint,
    NullExistenceConstraint,
    PartNullConstraint,
    TotalEqualityConstraint,
)
from repro.relational.schema import RelationScheme, RelationalSchema
from repro.relational.tuples import NULL, Tuple

#: A compiled projection: mapping of attribute values -> the value on the
#: group (bare for one attribute, a tuple for more).
Extractor = Callable[[Mapping[str, Any]], Any]

#: A compiled per-tuple null check, over the tuple's attribute mapping
#: (so the bulk path can run it on not-yet-materialized row dicts).
NullCheck = Callable[[Mapping[str, Any]], bool]


def attr_extractor(names: Sequence[str]) -> Extractor:
    """The extractor ``itemgetter(*names)``: the bare value for one
    attribute, the value tuple for more (``()`` for none)."""
    names = tuple(names)
    if not names:
        return lambda values: ()
    return itemgetter(*names)


def compile_null_check(constraint: NullConstraint) -> NullCheck:
    """A fast per-tuple satisfaction test for one null constraint.

    The three concrete constraint classes are compiled into closures
    over plain dict lookups (identity tests against the ``NULL``
    singleton); unknown subclasses fall back to ``constraint.holds_for``.
    Checks take the row's attribute *mapping* (a ``Tuple.mapping`` or a
    raw row dict), so both the per-row and the columnar bulk path can
    call them without materializing tuples first.
    """
    if isinstance(constraint, NullExistenceConstraint):
        lhs = tuple(sorted(constraint.lhs))
        rhs = tuple(sorted(constraint.rhs))

        def check_existence(values: Mapping[str, Any]) -> bool:
            for name in lhs:
                if values[name] is NULL:
                    return True
            for name in rhs:
                if values[name] is NULL:
                    return False
            return True

        return check_existence
    if isinstance(constraint, PartNullConstraint):
        groups = tuple(tuple(sorted(g)) for g in constraint.groups)

        def check_part_null(values: Mapping[str, Any]) -> bool:
            for group in groups:
                if all(values[name] is not NULL for name in group):
                    return True
            return False

        return check_part_null
    if isinstance(constraint, TotalEqualityConstraint):
        pairs = tuple(zip(constraint.lhs, constraint.rhs))

        def check_total_equality(values: Mapping[str, Any]) -> bool:
            for a, b in pairs:
                if values[a] is NULL or values[b] is NULL:
                    return True
            for a, b in pairs:
                if values[a] != values[b]:
                    return False
            return True

        return check_total_equality

    def check_fallback(values: Mapping[str, Any]) -> bool:
        return constraint.holds_for(Tuple(values))

    return check_fallback


class CompiledReference:
    """One inclusion dependency, compiled as seen from one endpoint.

    For an *outgoing* reference of scheme ``S`` (``S = lhs``):
    ``extract`` projects an ``S`` row onto the foreign-key attributes,
    ``scheme``/``attrs`` name the referenced side, ``is_pk`` says the
    referenced attributes are that scheme's primary key (so existence is
    answered by its row dict), and ``watch`` is the set of foreign-key
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
    """Every compiled projection and check one scheme's mutations need."""

    __slots__ = (
        "scheme",
        "key_names",
        "attr_set",
        "pk",
        "candidate_keys",
        "key_attrs",
        "null_checks",
        "bulk_null_checks",
        "outgoing",
        "incoming",
    )

    def __init__(self, scheme: RelationScheme, schema: RelationalSchema):
        self.scheme = scheme
        self.key_names: tuple[str, ...] = scheme.key_names
        self.attr_set: frozenset[str] = frozenset(scheme.attribute_names)
        #: Primary-key projection.
        self.pk: Extractor = attr_extractor(scheme.key_names)
        #: Non-primary candidate keys as ``(key_names, extractor)`` pairs.
        self.candidate_keys: tuple[tuple[tuple[str, ...], Extractor], ...] = tuple(
            (names, attr_extractor(names))
            for names in (
                tuple(a.name for a in key) for key in scheme.candidate_keys
            )
            if names != scheme.key_names
        )
        #: Every attribute of the primary key or a candidate key.
        self.key_attrs: frozenset[str] = frozenset(scheme.key_names).union(
            *(names for names, _extract in self.candidate_keys)
        )
        #: Null constraints as ``(constraint, compiled check)`` pairs, in
        #: schema declaration order (violation order matters).
        self.null_checks: tuple[tuple[NullConstraint, NullCheck], ...] = tuple(
            (c, compile_null_check(c))
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
                attr_extractor(ind.lhs_attrs),
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
                attr_extractor(ind.rhs_attrs),
                ind.lhs_scheme,
                tuple(ind.lhs_attrs),
                tuple(ind.lhs_attrs)
                == schema.scheme(ind.lhs_scheme).key_names,
                frozenset(ind.rhs_attrs),
            )
            for ind in schema.inds
            if ind.rhs_scheme == scheme.name
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SchemeAccessPlan({self.scheme.name}, "
            f"{len(self.candidate_keys)} candidate keys, "
            f"{len(self.outgoing)} out / {len(self.incoming)} in refs)"
        )


def compile_schema(schema: RelationalSchema) -> dict[str, SchemeAccessPlan]:
    """Access plans for every scheme of ``schema``, keyed by name."""
    return {s.name: SchemeAccessPlan(s, schema) for s in schema.schemes}
