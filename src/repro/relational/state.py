"""Database states: the relations associated with a relational schema."""

from __future__ import annotations

from itertools import filterfalse
from typing import AbstractSet, Any, Iterable, Iterator, Mapping, Sequence

from repro.relational.relation import Relation
from repro.relational.schema import RelationalSchema
from repro.relational.tuples import is_null, null_probe


class DatabaseState:
    """A database state ``r`` of a relational schema (paper, Section 2).

    Maps relation-scheme names to :class:`Relation` instances.  States are
    immutable; the engine (:mod:`repro.engine`) wraps them with mutation
    plus constraint enforcement.
    """

    __slots__ = ("_relations",)

    def __init__(self, relations: Mapping[str, Relation]):
        self._relations: dict[str, Relation] = dict(relations)

    @classmethod
    def empty_for(cls, schema: RelationalSchema) -> "DatabaseState":
        """The all-empty state of a schema."""
        return cls(
            {s.name: Relation.empty(s.attributes) for s in schema.schemes}
        )

    @classmethod
    def for_schema(
        cls,
        schema: RelationalSchema,
        rows: Mapping[str, Iterable[Mapping[str, Any]]],
    ) -> "DatabaseState":
        """Build a state from per-scheme row mappings; schemes absent from
        ``rows`` are empty."""
        relations: dict[str, Relation] = {}
        for scheme in schema.schemes:
            scheme_rows = rows.get(scheme.name, ())
            relations[scheme.name] = Relation.from_dicts(
                scheme.attributes, scheme_rows
            )
        unknown = set(rows) - {s.name for s in schema.schemes}
        if unknown:
            raise KeyError(f"rows supplied for unknown schemes: {sorted(unknown)}")
        return cls(relations)

    # -- mapping interface ---------------------------------------------------

    def __getitem__(self, scheme_name: str) -> Relation:
        return self._relations[scheme_name]

    def __contains__(self, scheme_name: str) -> bool:
        return scheme_name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def items(self):
        """(name, relation) pairs of the state."""
        return self._relations.items()

    def relations(self) -> dict[str, Relation]:
        """A shallow copy of the name -> relation mapping."""
        return dict(self._relations)

    # -- equality ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseState):
            return NotImplemented
        return self._relations == other._relations

    def __hash__(self) -> int:
        return hash(frozenset(self._relations.items()))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}:{len(rel)}" for name, rel in sorted(self._relations.items())
        )
        return f"DatabaseState({body})"

    # -- derivation ------------------------------------------------------------

    def with_relation(self, name: str, relation: Relation) -> "DatabaseState":
        """A new state with one relation replaced (or added)."""
        updated = dict(self._relations)
        updated[name] = relation
        return DatabaseState(updated)

    def without_relations(self, names: Iterable[str]) -> "DatabaseState":
        """A new state with some relations dropped."""
        dropped = set(names)
        return DatabaseState(
            {k: v for k, v in self._relations.items() if k not in dropped}
        )

    def restricted_to(self, names: Iterable[str]) -> "DatabaseState":
        """A new state holding only the named relations."""
        keep = set(names)
        return DatabaseState(
            {k: v for k, v in self._relations.items() if k in keep}
        )

    def total_size(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(rel) for rel in self._relations.values())

    def data_values(self) -> set[Any]:
        """All non-null atomic values appearing anywhere in the state.

        Definition 2.1 requires information-capacity mappings to *preserve
        data values*; this is the value set that preservation is checked
        against.
        """
        values: set[Any] = set()
        for rel in self._relations.values():
            for t in rel:
                values.update(v for v in t.as_dict().values() if not is_null(v))
        return values


class Columns:
    """Column reads over a state, cached for one checking pass.

    ``relations`` maps scheme names to relation-like collections -- a
    :class:`DatabaseState`, or the engine's stored tables -- whose
    ``column(names)`` reads their rows' values on ``names``.
    :meth:`values` is that column, read once per ``(scheme, attrs)``
    and shared by every constraint that asks again: a key column is read by its key dependency, by every
    inclusion dependency into it and by its nulls-not-allowed
    constraint.  Drop the object when the pass ends; it holds every
    column it has read.
    """

    __slots__ = ("relations", "_values", "_totals")

    def __init__(self, relations: Mapping[str, Any]):
        self.relations = relations
        self._values: dict[tuple[str, tuple[str, ...]], list] = {}
        self._totals: dict[tuple[str, tuple[str, ...]], set] = {}

    def values(self, scheme_name: str, names: Sequence[str]) -> list:
        """Each tuple's value on ``names`` (bare for one attribute, a
        tuple for more), in the relation's order."""
        key = (scheme_name, tuple(names))
        column = self._values.get(key)
        if column is None:
            column = self._values[key] = self.relations[scheme_name].column(
                key[1]
            )
        return column

    def total(self, scheme_name: str, names: Sequence[str]) -> AbstractSet:
        """The distinct values on ``names`` that contain no ``NULL`` --
        the value-level counterpart of ``total_project``.  A relation
        with a ``total_values(names)`` method (the engine's stored
        table) answers from an index when it has one, as that index's
        key view; otherwise the column is read."""
        key = (scheme_name, tuple(names))
        total = self._totals.get(key)
        if total is None:
            indexed = getattr(self.relations[scheme_name], "total_values", None)
            total = indexed(key[1]) if indexed is not None else None
            if total is None:
                total = set(
                    filterfalse(
                        null_probe(key[1]), self.values(scheme_name, key[1])
                    )
                )
            self._totals[key] = total
        return total
