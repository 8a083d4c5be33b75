"""Null constraints (Section 3).

A null constraint is a *single-tuple* restriction on where and how nulls
may appear in a relation.  The paper uses five forms:

* **null-existence** ``Ri: Y |-> Z`` -- in every tuple, ``t[Y]`` total
  implies ``t[Z]`` total (read "non-null Y requires non-null Z");
* **nulls-not-allowed** ``Ri: 0 |-> Z`` -- the special case with an empty
  left side: ``t[Z]`` must always be total;
* **null-synchronization set** ``Ri: NS(Y)`` -- the set of null-existence
  constraints ``{A |-> Y : A in Y}``: ``t[Y]`` is either total or entirely
  null;
* **part-null** ``Ri: PN(Y1, ..., Ym)`` -- at least one ``t[Yj]`` is total;
* **total-equality** ``Ri: Y =! Z`` -- whenever ``t[Y]`` and ``t[Z]`` are
  both total they are equal (component-wise, ordered correspondence).

All five implement the same ``NullConstraint`` interface, and all are
checkable per-tuple -- which is what lets the storage engine enforce them
incrementally on insert/update.  Over a whole state they are checked in
columnar passes instead: one C-level pass per attribute group flags the
rows holding a ``NULL`` there, and the flags are combined row-wise.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_, ne, not_, or_
from typing import Iterable, Mapping

from repro.relational.state import Columns, DatabaseState
from repro.relational.tuples import Tuple, null_probe


class NullConstraint:
    """Common interface of the paper's null constraints.

    Subclasses provide ``scheme_name``, per-tuple ``holds_for``, its
    columnar whole-state form ``holds_in`` (which ``is_satisfied_by``
    runs), and the attribute bookkeeping used by ``Merge``/``Remove``
    rewriting.
    """

    scheme_name: str

    def holds_for(self, t: Tuple) -> bool:  # pragma: no cover - interface
        """Single-tuple satisfaction test (see class docstring)."""
        raise NotImplementedError

    def is_satisfied_by(self, state: DatabaseState) -> bool:
        """Satisfaction over a database state: every tuple of the
        constrained relation passes :meth:`holds_for`."""
        return self.holds_in(Columns(state))

    def holds_in(self, columns: Columns) -> bool:  # pragma: no cover
        """:meth:`is_satisfied_by` over the relations in ``columns``,
        as columnar passes through the pass's cache."""
        raise NotImplementedError

    def attributes_mentioned(self) -> frozenset[str]:  # pragma: no cover
        """All attribute names this constraint involves."""
        raise NotImplementedError

    def rename_scheme(self, old: str, new: str) -> "NullConstraint":
        """This constraint re-targeted when its scheme was renamed."""
        raise NotImplementedError  # pragma: no cover - interface


@dataclass(frozen=True)
class NullExistenceConstraint(NullConstraint):
    """``scheme: lhs |-> rhs`` -- total ``lhs`` requires total ``rhs``.

    An empty ``lhs`` yields a nulls-not-allowed constraint (``t[{}]`` is
    vacuously total); use :func:`nulls_not_allowed` to construct those.
    """

    scheme_name: str
    lhs: frozenset[str]
    rhs: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lhs", frozenset(self.lhs))
        object.__setattr__(self, "rhs", frozenset(self.rhs))
        if not self.rhs:
            raise ValueError("null-existence right-hand side must be non-empty")

    def is_nulls_not_allowed(self) -> bool:
        """True for the ``0 |-> Z`` form."""
        return not self.lhs

    def holds_for(self, t: Tuple) -> bool:
        """Single-tuple satisfaction test (see class docstring)."""
        if t.is_total_on(self.lhs):
            return t.is_total_on(self.rhs)
        return True

    def holds_in(self, columns: Columns) -> bool:
        """No tuple is total on ``lhs`` but not on ``rhs``."""
        name = self.scheme_name
        rhs, lhs = sorted(self.rhs), sorted(self.lhs)
        rhs_partial = list(map(null_probe(rhs), columns.values(name, rhs)))
        if not any(rhs_partial):
            return True
        lhs_total = map(not_, map(null_probe(lhs), columns.values(name, lhs)))
        return not any(map(and_, lhs_total, rhs_partial))

    def attributes_mentioned(self) -> frozenset[str]:
        """All attribute names this constraint involves."""
        return self.lhs | self.rhs

    def without_attributes(
        self, removed: Iterable[str]
    ) -> "NullExistenceConstraint | None":
        """Drop attributes (``Remove`` step 4(a)); returns ``None`` when the
        right-hand side empties out (the constraint becomes trivial)."""
        gone = set(removed)
        lhs = self.lhs - gone
        rhs = self.rhs - gone
        if not rhs:
            return None
        return NullExistenceConstraint(self.scheme_name, lhs, rhs)

    def rename_scheme(self, old: str, new: str) -> "NullExistenceConstraint":
        """This constraint re-targeted when its scheme was renamed."""
        if self.scheme_name != old:
            return self
        return NullExistenceConstraint(new, self.lhs, self.rhs)

    def __str__(self) -> str:
        left = ",".join(sorted(self.lhs)) or "0"
        right = ",".join(sorted(self.rhs))
        return f"{self.scheme_name}: {left} |-> {right}"


def nulls_not_allowed(
    scheme_name: str, attrs: Iterable[str]
) -> NullExistenceConstraint:
    """The nulls-not-allowed constraint ``scheme: 0 |-> attrs``."""
    return NullExistenceConstraint(scheme_name, frozenset(), frozenset(attrs))


def null_synchronization_set(
    scheme_name: str, attrs: Iterable[str]
) -> tuple[NullExistenceConstraint, ...]:
    """The null-synchronization set ``NS(Y) = {A |-> Y : A in Y}``.

    Satisfied iff ``t[Y]`` is either total or entirely null.  Returned as
    the underlying null-existence constraints (the paper defines ``NS`` as
    a *set* of constraints), in sorted attribute order for determinism.
    """
    attr_set = frozenset(attrs)
    return tuple(
        NullExistenceConstraint(scheme_name, frozenset({a}), attr_set)
        for a in sorted(attr_set)
    )


def is_synchronized(t: Tuple, attrs: Iterable[str]) -> bool:
    """Convenience: does ``t[Y]`` satisfy the all-or-nothing condition of
    ``NS(Y)``?"""
    names = list(attrs)
    return t.is_total_on(names) or t.is_all_null_on(names)


@dataclass(frozen=True)
class PartNullConstraint(NullConstraint):
    """``scheme: PN(Y1, ..., Ym)`` -- at least one group total per tuple."""

    scheme_name: str
    groups: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "groups", tuple(frozenset(g) for g in self.groups)
        )
        if not self.groups:
            raise ValueError("part-null constraint needs at least one group")
        if any(not g for g in self.groups):
            raise ValueError("part-null groups must be non-empty")

    def holds_for(self, t: Tuple) -> bool:
        """Single-tuple satisfaction test (see class docstring)."""
        return any(t.is_total_on(g) for g in self.groups)

    def holds_in(self, columns: Columns) -> bool:
        """No tuple holds a ``NULL`` in every group."""
        partial = [
            map(null_probe(g), columns.values(self.scheme_name, sorted(g)))
            for g in self.groups
        ]
        return not any(map(all, zip(*partial)))

    def attributes_mentioned(self) -> frozenset[str]:
        """All attribute names this constraint involves."""
        out: frozenset[str] = frozenset()
        for g in self.groups:
            out |= g
        return out

    def without_attributes(
        self, removed: Iterable[str]
    ) -> "PartNullConstraint | None":
        """Drop attributes from every group (``Remove`` step 4(a)); a group
        that empties out is dropped, and the constraint dissolves when no
        group survives."""
        gone = set(removed)
        groups = tuple(g - gone for g in self.groups)
        groups = tuple(g for g in groups if g)
        if not groups:
            return None
        return PartNullConstraint(self.scheme_name, groups)

    def rename_scheme(self, old: str, new: str) -> "PartNullConstraint":
        """This constraint re-targeted when its scheme was renamed."""
        if self.scheme_name != old:
            return self
        return PartNullConstraint(new, self.groups)

    def __str__(self) -> str:
        parts = "; ".join(
            "{" + ",".join(sorted(g)) + "}" for g in self.groups
        )
        return f"{self.scheme_name}: PN({parts})"


@dataclass(frozen=True)
class TotalEqualityConstraint(NullConstraint):
    """``scheme: lhs =! rhs`` -- total sides must agree component-wise.

    The sides are ordered tuples; position ``i`` of ``lhs`` is equated with
    position ``i`` of ``rhs`` (the correspondence along which ``Merge``
    equates the merged key ``Km`` with each family key ``Ki``).
    """

    scheme_name: str
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lhs", tuple(self.lhs))
        object.__setattr__(self, "rhs", tuple(self.rhs))
        if len(self.lhs) != len(self.rhs):
            raise ValueError("total-equality sides must have equal arity")
        if not self.lhs:
            raise ValueError("total-equality sides must be non-empty")

    def holds_for(self, t: Tuple) -> bool:
        """Single-tuple satisfaction test (see class docstring)."""
        if t.is_total_on(self.lhs) and t.is_total_on(self.rhs):
            return all(t[a] == t[b] for a, b in zip(self.lhs, self.rhs))
        return True

    def holds_in(self, columns: Columns) -> bool:
        """No tuple is total on both sides with the sides unequal."""
        lhs = columns.values(self.scheme_name, self.lhs)
        rhs = columns.values(self.scheme_name, self.rhs)
        either_null = map(
            or_,
            map(null_probe(self.lhs), lhs),
            map(null_probe(self.rhs), rhs),
        )
        both_total = map(not_, either_null)
        return not any(map(and_, map(ne, lhs, rhs), both_total))

    def attributes_mentioned(self) -> frozenset[str]:
        """All attribute names this constraint involves."""
        return frozenset(self.lhs) | frozenset(self.rhs)

    def correspondence(self) -> Mapping[str, str]:
        """The ``lhs -> rhs`` attribute-name correspondence."""
        return dict(zip(self.lhs, self.rhs))

    def rename_scheme(self, old: str, new: str) -> "TotalEqualityConstraint":
        """This constraint re-targeted when its scheme was renamed."""
        if self.scheme_name != old:
            return self
        return TotalEqualityConstraint(new, self.lhs, self.rhs)

    def __str__(self) -> str:
        left = ",".join(self.lhs)
        right = ",".join(self.rhs)
        return f"{self.scheme_name}: {left} =! {right}"
