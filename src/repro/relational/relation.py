"""Relations: finite sets of tuples over a fixed attribute sequence."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.relational.attributes import Attribute, by_name
from repro.relational.tuples import Tuple, backing


class Relation:
    """An immutable relation: a set of :class:`Tuple` over ``attributes``.

    The attribute sequence fixes the relation's *scheme width* and ordering
    (useful for display and for positional constructors); tuple membership
    is set-based, matching the paper's set-of-tuples semantics.
    """

    __slots__ = ("_attributes", "_tuples")

    def __init__(self, attributes: Sequence[Attribute], tuples: Iterable[Tuple] = ()):
        self._attributes: tuple[Attribute, ...] = tuple(attributes)
        expected = {a.name for a in self._attributes}
        if len(expected) != len(self._attributes):
            raise ValueError("relation attributes must have distinct names")
        frozen = frozenset(tuples)
        # Shape proof in C passes: every tuple has ``len(expected)``
        # attributes and together they name nothing outside
        # ``expected``, so each tuple's attribute set equals it.  Only a
        # failed proof walks the tuples, to name the first offender.
        rows = list(map(backing, frozen))
        if set(map(len, rows)) - {len(expected)} or not expected.issuperset(
            frozenset().union(*rows)
        ):
            for t in frozen:
                if set(t.keys()) != expected:
                    raise ValueError(
                        f"tuple attributes {sorted(t.keys())} do not match "
                        f"relation attributes {sorted(expected)}"
                    )
        self._tuples: frozenset[Tuple] = frozen

    @classmethod
    def from_rows(
        cls, attributes: Sequence[Attribute], rows: Iterable[Sequence[Any]]
    ) -> "Relation":
        """Build a relation from positional value rows."""
        attrs = tuple(attributes)
        return cls(attrs, (Tuple.over(attrs, row) for row in rows))

    @classmethod
    def from_dicts(
        cls, attributes: Sequence[Attribute], rows: Iterable[Mapping[str, Any]]
    ) -> "Relation":
        """Build a relation from attribute-name/value mapping rows."""
        return cls(tuple(attributes), (Tuple(row) for row in rows))

    # -- structure ---------------------------------------------------------

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """The relation's attribute sequence."""
        return self._attributes

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names, in declaration order."""
        return tuple(a.name for a in self._attributes)

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute of this relation by name."""
        return by_name(self._attributes)[name]

    @property
    def tuples(self) -> frozenset[Tuple]:
        """The underlying tuple set."""
        return self._tuples

    @property
    def mappings(self) -> Iterable[Mapping[str, Any]]:
        """Each tuple's backing mapping, in the tuple set's order: what
        column reads take (:func:`~repro.relational.tuples.values_on`)."""
        return map(backing, self._tuples)

    # -- set interface -----------------------------------------------------

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, t: Tuple) -> bool:
        return t in self._tuples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            set(self._attributes) == set(other._attributes)
            and self._tuples == other._tuples
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._attributes), self._tuples))

    def __repr__(self) -> str:
        names = ", ".join(self.attribute_names)
        return f"Relation([{names}], {len(self)} tuples)"

    # -- construction helpers ----------------------------------------------

    def with_tuples(self, tuples: Iterable[Tuple]) -> "Relation":
        """A new relation over the same attributes with tuples added."""
        return Relation(self._attributes, self._tuples | frozenset(tuples))

    def without_tuples(self, tuples: Iterable[Tuple]) -> "Relation":
        """A new relation over the same attributes with tuples removed."""
        return Relation(self._attributes, self._tuples - frozenset(tuples))

    @classmethod
    def empty(cls, attributes: Sequence[Attribute]) -> "Relation":
        """The empty relation over ``attributes``."""
        return cls(attributes, ())

    def values_of(self, name: str) -> set[Any]:
        """All values (including ``NULL``) of one attribute column."""
        return {t[name] for t in self._tuples}

    def sorted_rows(self) -> list[tuple[Any, ...]]:
        """Deterministically ordered positional rows, for display/tests."""
        rows = [tuple(t[a.name] for a in self._attributes) for t in self._tuples]
        return sorted(rows, key=lambda row: tuple(repr(v) for v in row))
