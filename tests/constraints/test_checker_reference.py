"""Differential testing: the columnar constraint checks against the
per-tuple definitions they replaced.

The production checks run set passes over the rows' value tuples; the
references below are the literal per-tuple forms -- the FD ``seen``
loop, the IND over ``total_project``, and ``all(map(holds_for, ...))``
for the null constraints.  Hypothesis drives both over relations with
nulls anywhere, composite left-hand sides, hash-equal mixed values
(``1``, ``1.0``, ``True``), an internal IND of the kind ``Merge``
creates, and all five null-constraint forms, and asserts the same
verdicts, the same violation lists and the same trace events.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.constraints.checker import ConsistencyChecker, Violation
from repro.constraints.functional import FunctionalDependency
from repro.constraints.inclusion import InclusionDependency
from repro.constraints.nulls import (
    NullConstraint,
    NullExistenceConstraint,
    PartNullConstraint,
    TotalEqualityConstraint,
    null_synchronization_set,
    nulls_not_allowed,
)
from repro.obs.rules import classify_null_constraint, paper_rule
from repro.obs.trace import RingBufferTracer
from repro.relational.algebra import total_project
from repro.relational.attributes import Attribute, Domain
from repro.relational.relation import Relation
from repro.relational.schema import RelationScheme, RelationalSchema
from repro.relational.state import DatabaseState
from repro.relational.tuples import NULL, Tuple

D = Domain("d")
R_ATTRS = tuple(Attribute(n, D) for n in ("A", "B", "C", "D"))
S_ATTRS = tuple(Attribute(n, D) for n in ("E", "F"))
R = RelationScheme(
    "R", R_ATTRS, (R_ATTRS[0],), candidate_keys=((R_ATTRS[1], R_ATTRS[2]),)
)
S = RelationScheme("S", S_ATTRS, (S_ATTRS[0],))

FDS = (
    FunctionalDependency("R", frozenset({"B", "C"}), frozenset({"D"})),
    FunctionalDependency("R", frozenset({"D"}), frozenset({"B", "C"})),
    FunctionalDependency("R", frozenset(), frozenset({"A"})),
    FunctionalDependency("S", frozenset({"F"}), frozenset({"E"})),
)
INDS = (
    InclusionDependency("R", ("B",), "S", ("E",)),
    InclusionDependency("R", ("C", "D"), "S", ("E", "F")),
    InclusionDependency("R", ("D",), "R", ("A",)),  # internal, as Merge makes
    InclusionDependency("S", ("F", "E"), "R", ("B", "C")),
)
NULL_CONSTRAINTS: tuple[NullConstraint, ...] = (
    nulls_not_allowed("R", ["A"]),
    nulls_not_allowed("S", ["E", "F"]),
    NullExistenceConstraint("R", frozenset({"B"}), frozenset({"C", "D"})),
    *null_synchronization_set("R", ["C", "D"]),
    PartNullConstraint("R", (frozenset({"B"}), frozenset({"C", "D"}))),
    PartNullConstraint("S", (frozenset({"F"}),)),
    TotalEqualityConstraint("R", ("B",), ("D",)),
    TotalEqualityConstraint("R", ("A", "C"), ("D", "B")),
)
SCHEMA = RelationalSchema(
    schemes=(R, S), fds=FDS, inds=INDS, null_constraints=NULL_CONSTRAINTS
)

# 1, 1.0 and True are equal and hash alike; NULL equals only itself.
values = st.sampled_from([0, 1, 1.0, True, 2, "x", NULL])
r_relations = st.lists(
    st.tuples(values, values, values, values), max_size=8
).map(lambda rows: Relation.from_rows(R_ATTRS, rows))
s_relations = st.lists(st.tuples(values, values), max_size=6).map(
    lambda rows: Relation.from_rows(S_ATTRS, rows)
)


@st.composite
def states(draw) -> DatabaseState:
    relations = {"R": draw(r_relations)}
    if draw(st.booleans()) or draw(st.booleans()):
        relations["S"] = draw(s_relations)  # S is sometimes missing
    return DatabaseState(relations)


def reference_fd(fd: FunctionalDependency, relation: Relation) -> bool:
    """Tuples agreeing on a total left-hand side agree on the right."""
    lhs = sorted(fd.lhs)
    rhs = sorted(fd.rhs)
    seen: dict[tuple, tuple] = {}
    for t in relation:
        if not t.is_total_on(lhs):
            continue
        left = tuple(t[a] for a in lhs)
        right = tuple(t[a] for a in rhs)
        prior = seen.get(left)
        if prior is None:
            seen[left] = right
        elif prior != right:
            return False
    return True


def reference_ind(ind: InclusionDependency, state: DatabaseState) -> bool:
    """Total-projection containment, with positional correspondence."""
    rhs_rows = {
        tuple(t[a] for a in ind.rhs_attrs)
        for t in total_project(state[ind.rhs_scheme], ind.rhs_attrs)
    }
    for t in total_project(state[ind.lhs_scheme], ind.lhs_attrs):
        if tuple(t[a] for a in ind.lhs_attrs) not in rhs_rows:
            return False
    return True


def reference_null(nc: NullConstraint, state: DatabaseState) -> bool:
    """Every tuple of the constrained relation passes ``holds_for``."""
    return all(map(nc.holds_for, state[nc.scheme_name]))


class ReferenceChecker(ConsistencyChecker):
    """The per-tuple checker: same order, details and trace events."""

    def iter_violations(self, state):
        yield from self._structural_violations(state)
        for fd in list(self.schema.fds) + self._implicit_keys:
            if fd.scheme_name not in state:
                continue
            ok = reference_fd(fd, state[fd.scheme_name])
            self._trace_check(
                "key-dependency", fd.scheme_name, str(fd), ok,
                rows=len(state[fd.scheme_name]),
            )
            if not ok:
                yield self._emit(
                    Violation(
                        "key-dependency",
                        fd.scheme_name,
                        str(fd),
                        "two tuples agree on a total left-hand side but "
                        "differ on the right-hand side",
                        rule=paper_rule("key-dependency"),
                    )
                )
        for ind in self.schema.inds:
            if ind.lhs_scheme not in state or ind.rhs_scheme not in state:
                continue
            ok = reference_ind(ind, state)
            self._trace_check(
                "inclusion-dependency", ind.lhs_scheme, str(ind), ok,
                rows=len(state[ind.lhs_scheme]),
            )
            if not ok:
                yield self._emit(
                    Violation(
                        "inclusion-dependency",
                        ind.lhs_scheme,
                        str(ind),
                        "total projection of the left side is not contained "
                        "in the total projection of the right side",
                        rule=paper_rule("inclusion-dependency"),
                    )
                )
        for nc in self.schema.null_constraints:
            if nc.scheme_name not in state:
                continue
            kind = classify_null_constraint(nc)
            ok = True
            for t in state[nc.scheme_name]:
                if not nc.holds_for(t):
                    ok = False
                    self._trace_check(
                        kind, nc.scheme_name, str(nc), False,
                        rows=len(state[nc.scheme_name]),
                    )
                    yield self._emit(
                        Violation(
                            "null-constraint",
                            nc.scheme_name,
                            str(nc),
                            f"violated by tuple {t!r}",
                            rule=paper_rule(kind),
                        )
                    )
                    break
            if ok:
                self._trace_check(
                    kind, nc.scheme_name, str(nc), True,
                    rows=len(state[nc.scheme_name]),
                )


def _key(v: Violation) -> tuple:
    return (v.kind, v.scheme_name, v.constraint, v.detail, v.rule)


def test_every_null_constraint_form_is_covered():
    kinds = {classify_null_constraint(nc) for nc in NULL_CONSTRAINTS}
    assert len(kinds) == 5, kinds


@given(r_relations, s_relations)
def test_fd_matches_reference(r, s):
    for fd in FDS:
        rel = r if fd.scheme_name == "R" else s
        assert fd.is_satisfied_by(rel) == reference_fd(fd, rel), fd


@given(states())
def test_ind_matches_reference(state):
    for ind in INDS:
        if ind.lhs_scheme in state and ind.rhs_scheme in state:
            assert ind.is_satisfied_by(state) == reference_ind(ind, state), ind


@given(states())
def test_null_constraints_match_reference(state):
    for nc in NULL_CONSTRAINTS:
        if nc.scheme_name in state:
            assert nc.is_satisfied_by(state) == reference_null(nc, state), nc


@given(states())
def test_checker_matches_reference_checker(state):
    columnar, reference = RingBufferTracer(), RingBufferTracer()
    got = ConsistencyChecker(SCHEMA, tracer=columnar).violations(state)
    want = ReferenceChecker(SCHEMA, tracer=reference).violations(state)
    assert list(map(_key, got)) == list(map(_key, want))
    assert columnar.events == reference.events


def test_mixed_values_collapse_under_set_semantics():
    """``1``, ``1.0`` and ``True`` are one value: no FD or IND clash."""
    r = Relation.from_rows(
        R_ATTRS, [(1, 1, 1, 1), (2, 1.0, True, 1.0)]
    )
    s = Relation.from_rows(S_ATTRS, [(True, 1.0)])
    state = DatabaseState({"R": r, "S": s})
    assert FDS[0].is_satisfied_by(r)
    assert INDS[0].is_satisfied_by(state)
    assert INDS[1].is_satisfied_by(state)


def test_wrong_shaped_tuple_keeps_the_relation_error():
    attrs = (Attribute("A", D), Attribute("B", D))
    with pytest.raises(ValueError) as short:
        Relation(attrs, [Tuple({"A": 1, "B": 2}), Tuple({"A": 3})])
    assert str(short.value) == (
        "tuple attributes ['A'] do not match relation attributes ['A', 'B']"
    )
    # Same width, one foreign name: only the key union can tell.
    with pytest.raises(ValueError) as foreign:
        Relation(attrs, [Tuple({"A": 1, "C": 2})])
    assert str(foreign.value) == (
        "tuple attributes ['A', 'C'] do not match relation attributes "
        "['A', 'B']"
    )
