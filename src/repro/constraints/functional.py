"""Functional dependencies, keys, closures, and Boyce-Codd Normal Form.

A functional dependency over ``Ri`` is a statement ``Ri: Y -> Z``
(Section 2).  A *key dependency* is the special case ``Ri: Ki -> Xi`` where
``Ki`` is a minimal determining set.  ``Ri`` is in BCNF iff every declared
functional dependency has a superkey left-hand side.

The closure machinery here is shared by three clients: the BCNF tests of
Proposition 4.1, the synthesis-normalization baseline of Section 1
(Bernstein's algorithm needs minimal covers), and the null-existence
constraint inference of Section 3 (whose axioms "have the form of the
inference axioms for functional dependencies").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import not_
from typing import Iterable, Sequence

from repro.relational.relation import Relation
from repro.relational.schema import RelationScheme
from repro.relational.state import Columns
from repro.relational.tuples import null_probe


@dataclass(frozen=True)
class FunctionalDependency:
    """A functional dependency ``scheme: lhs -> rhs`` over attribute names."""

    scheme_name: str
    lhs: frozenset[str]
    rhs: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lhs", frozenset(self.lhs))
        object.__setattr__(self, "rhs", frozenset(self.rhs))

    def is_trivial(self) -> bool:
        """True iff ``rhs`` is contained in ``lhs`` (reflexivity axiom)."""
        return self.rhs <= self.lhs

    def is_satisfied_by(self, relation: Relation) -> bool:
        """FD satisfaction: tuples agreeing on a *total* ``lhs`` must agree
        on ``rhs``.

        Restricting the antecedent to total left-hand sides is what makes
        nullable candidate keys meaningful (Section 5.1): two merged tuples
        whose old key ``Ki`` is null do not clash.  For attributes covered
        by nulls-not-allowed constraints -- the paper's standing assumption
        for inputs of ``Merge`` -- this coincides with classical FD
        satisfaction.
        """
        return self.holds_in(Columns({self.scheme_name: relation}))

    def holds_in(self, columns: Columns) -> bool:
        """:meth:`is_satisfied_by` over the scheme's relation in
        ``columns``, reading its columns through the pass's cache."""
        names = sorted(self.lhs)
        lhs = columns.values(self.scheme_name, names)
        total = list(map(not_, map(null_probe(names), lhs)))
        lefts = list(itertools.compress(lhs, total))
        distinct = len(set(lefts))
        if distinct == len(lefts):
            return True  # no two tuples share a total left value
        # Among rows with a total left-hand side, each left value has
        # exactly one right value iff the distinct (left, right) pairs
        # are as many as the distinct left values.
        rhs = columns.values(self.scheme_name, sorted(self.rhs))
        return len(set(itertools.compress(zip(lhs, rhs), total))) == distinct

    def __str__(self) -> str:
        left = ",".join(sorted(self.lhs)) or "0"
        right = ",".join(sorted(self.rhs))
        return f"{self.scheme_name}: {left} -> {right}"


class KeyDependency(FunctionalDependency):
    """A key dependency ``Ri: Ki -> Xi``.

    Structurally an FD; the distinct type records design intent (the
    schema class of the paper carries *key* dependencies in ``F``) and is
    what ``Merge`` step 2 produces for the merged scheme.
    """

    @classmethod
    def of_scheme(cls, scheme: RelationScheme) -> "KeyDependency":
        """The key dependency declared by a scheme's primary key."""
        return cls(
            scheme.name,
            frozenset(scheme.key_names),
            frozenset(scheme.attribute_names),
        )


def attribute_closure(
    attrs: Iterable[str], fds: Iterable[FunctionalDependency]
) -> frozenset[str]:
    """The closure of ``attrs`` under ``fds`` (all within one scheme)."""
    closure = set(attrs)
    pending = list(fds)
    changed = True
    while changed:
        changed = False
        remaining = []
        for fd in pending:
            if fd.lhs <= closure:
                if not fd.rhs <= closure:
                    closure |= fd.rhs
                    changed = True
            else:
                remaining.append(fd)
        pending = remaining
    return frozenset(closure)


def implies_fd(
    fds: Iterable[FunctionalDependency], candidate: FunctionalDependency
) -> bool:
    """True iff ``fds`` logically imply ``candidate`` (via closure)."""
    relevant = [fd for fd in fds if fd.scheme_name == candidate.scheme_name]
    return candidate.rhs <= attribute_closure(candidate.lhs, relevant)


def is_superkey(
    attrs: Iterable[str],
    all_attributes: Iterable[str],
    fds: Iterable[FunctionalDependency],
) -> bool:
    """True iff ``attrs`` functionally determine every attribute."""
    return set(all_attributes) <= attribute_closure(attrs, fds)


def candidate_keys(
    all_attributes: Sequence[str], fds: Sequence[FunctionalDependency]
) -> frozenset[frozenset[str]]:
    """All minimal keys of an attribute set under ``fds``.

    Exponential in the worst case, which is fine for schema-design-sized
    inputs (the paper's schemes have a handful of attributes).  The search
    prunes attributes that appear in no FD right-hand side: they belong to
    every key.
    """
    universe = frozenset(all_attributes)
    fds = [fd for fd in fds if not fd.is_trivial()]
    in_rhs = frozenset().union(*(fd.rhs for fd in fds)) if fds else frozenset()
    mandatory = universe - in_rhs
    optional = sorted(universe - mandatory)

    if is_superkey(mandatory, universe, fds):
        return frozenset({frozenset(mandatory)})

    keys: set[frozenset[str]] = set()
    for size in range(1, len(optional) + 1):
        for combo in itertools.combinations(optional, size):
            key = mandatory | set(combo)
            if any(known <= key for known in keys):
                continue
            if is_superkey(key, universe, fds):
                keys.add(frozenset(key))
        if keys and all(
            any(known <= mandatory | set(combo) for known in keys)
            for combo in itertools.combinations(optional, size)
        ):
            # Every candidate superset at this size is already covered by a
            # known minimal key; larger combinations cannot be minimal.
            break
    return frozenset(keys)


def is_bcnf(
    scheme: RelationScheme, fds: Sequence[FunctionalDependency]
) -> bool:
    """BCNF test: every non-trivial declared FD over the scheme must have a
    superkey left-hand side (Section 2)."""
    local = [fd for fd in fds if fd.scheme_name == scheme.name]
    universe = scheme.attribute_names
    for fd in local:
        if fd.is_trivial():
            continue
        if not is_superkey(fd.lhs, universe, local):
            return False
    return True


def minimal_cover(
    fds: Sequence[FunctionalDependency],
) -> tuple[FunctionalDependency, ...]:
    """A minimal (canonical) cover of ``fds``: singleton right-hand sides,
    no extraneous left-hand-side attributes, no redundant dependencies.

    Used by the synthesis-normalization baseline (Section 1 cites [1]).
    All dependencies must belong to the same scheme namespace.
    """
    # 1. Split right-hand sides.
    split: list[FunctionalDependency] = []
    for fd in fds:
        for attr in sorted(fd.rhs - fd.lhs):
            split.append(
                FunctionalDependency(fd.scheme_name, fd.lhs, frozenset({attr}))
            )

    # 2. Remove extraneous LHS attributes.
    reduced: list[FunctionalDependency] = []
    for fd in split:
        lhs = set(fd.lhs)
        for attr in sorted(fd.lhs):
            if len(lhs) <= 1:
                break
            trimmed = lhs - {attr}
            if fd.rhs <= attribute_closure(trimmed, split):
                lhs = trimmed
        reduced.append(
            FunctionalDependency(fd.scheme_name, frozenset(lhs), fd.rhs)
        )

    # 3. Remove redundant dependencies.
    result = list(dict.fromkeys(reduced))
    changed = True
    while changed:
        changed = False
        for fd in list(result):
            rest = [g for g in result if g is not fd]
            if fd.rhs <= attribute_closure(fd.lhs, rest):
                result = rest
                changed = True
                break
    return tuple(result)


def equivalent_fd_sets(
    first: Sequence[FunctionalDependency],
    second: Sequence[FunctionalDependency],
) -> bool:
    """True iff the two FD sets imply each other."""
    return all(implies_fd(second, fd) for fd in first) and all(
        implies_fd(first, fd) for fd in second
    )
