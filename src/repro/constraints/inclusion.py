"""Inclusion dependencies and referential integrity (Section 2).

An inclusion dependency ``Ri[Y] <= Rj[Z]`` is satisfied when the *total*
projection of ``ri`` on ``Y`` is contained in the total projection of
``rj`` on ``Z`` -- the paper defines satisfaction via total projections,
which gives inclusion dependencies the usual SQL semantics of ignoring
rows with null foreign keys.

A *key-based* inclusion dependency (``Z`` is the primary key of ``Rj``) is
a referential integrity constraint; whether an IND stays key-based under
merging is the subject of Proposition 5.1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.relational.schema import RelationalSchema
from repro.relational.state import Columns, DatabaseState


@dataclass(frozen=True)
class InclusionDependency:
    """``lhs_scheme[lhs_attrs] <= rhs_scheme[rhs_attrs]``.

    Attribute sequences are ordered: position ``i`` on the left corresponds
    to position ``i`` on the right (the compatibility correspondence of
    Section 2).
    """

    lhs_scheme: str
    lhs_attrs: tuple[str, ...]
    rhs_scheme: str
    rhs_attrs: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lhs_attrs", tuple(self.lhs_attrs))
        object.__setattr__(self, "rhs_attrs", tuple(self.rhs_attrs))
        if len(self.lhs_attrs) != len(self.rhs_attrs):
            raise ValueError(
                "inclusion dependency sides must have equal arity: "
                f"{self}"
            )
        if not self.lhs_attrs:
            raise ValueError("inclusion dependency sides must be non-empty")

    def is_key_based(self, schema: RelationalSchema) -> bool:
        """True iff the right-hand side is the primary key of its scheme
        (the definition of a referential integrity constraint [4])."""
        rhs = schema.scheme(self.rhs_scheme)
        return tuple(self.rhs_attrs) == rhs.key_names

    def is_internal(self) -> bool:
        """True iff both sides refer to the same relation-scheme (merging
        can produce such intra-relation dependencies)."""
        return self.lhs_scheme == self.rhs_scheme

    def is_satisfied_by(self, state: DatabaseState) -> bool:
        """Total-projection containment, with positional correspondence:
        the distinct total left values must all be total right values."""
        return self.holds_in(Columns(state))

    def holds_in(self, columns: Columns) -> bool:
        """:meth:`is_satisfied_by` over the relations in ``columns``."""
        return columns.total(self.lhs_scheme, self.lhs_attrs) <= columns.total(
            self.rhs_scheme, self.rhs_attrs
        )

    def rename_scheme(self, old: str, new: str) -> "InclusionDependency":
        """This dependency with occurrences of scheme ``old`` renamed."""
        return InclusionDependency(
            new if self.lhs_scheme == old else self.lhs_scheme,
            self.lhs_attrs,
            new if self.rhs_scheme == old else self.rhs_scheme,
            self.rhs_attrs,
        )

    def with_rhs_attrs(self, attrs: tuple[str, ...]) -> "InclusionDependency":
        """This dependency with the right-hand attribute list replaced
        (``Merge`` step 4(b) and ``Remove`` step 3 rewrite right sides)."""
        return InclusionDependency(
            self.lhs_scheme, self.lhs_attrs, self.rhs_scheme, tuple(attrs)
        )

    def with_lhs_attrs(self, attrs: tuple[str, ...]) -> "InclusionDependency":
        """This dependency with the left-hand attribute list replaced."""
        return InclusionDependency(
            self.lhs_scheme, tuple(attrs), self.rhs_scheme, self.rhs_attrs
        )

    def __str__(self) -> str:
        left = ",".join(self.lhs_attrs)
        right = ",".join(self.rhs_attrs)
        return f"{self.lhs_scheme}[{left}] <= {self.rhs_scheme}[{right}]"
