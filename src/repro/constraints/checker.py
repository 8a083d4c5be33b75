"""Database-state consistency checking.

A state ``r`` of a schema ``RS = (R, F u I u N)`` is *consistent* iff it
satisfies every dependency and constraint of the schema (Section 2).  The
checker evaluates all of them and reports structured violations; schema
transformations (``Merge``/``Remove``), the information-capacity verifier,
and the storage engine all share this one notion of consistency.

Pass a :class:`~repro.obs.trace.Tracer` to watch the checker work: it
emits one ``check`` event per constraint evaluated and one ``violation``
event per constraint found violated, each carrying the constraint id and
its paper-rule label (see :mod:`repro.obs.rules`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.constraints.functional import FunctionalDependency, KeyDependency
# The module, not its names: ``repro.obs.rules`` imports the null
# constraints, so whichever of the two packages loads first finds the
# other half-initialized -- its names are read at call time.
from repro.obs import rules
from repro.obs.trace import TraceEvent, Tracer
from repro.relational.schema import RelationalSchema
from repro.relational.state import Columns, DatabaseState

#: What the checker reads: a state, or any mapping of scheme names to
#: relation-like collections (``attribute_names``, ``len``,
#: ``column(names)`` -- the rows' values on ``names``, for column reads
#: -- and ``tuples``, the :class:`~repro.relational.tuples.Tuple` set a
#: failure names).
StateLike = DatabaseState | Mapping


@dataclass(frozen=True)
class Violation:
    """One constraint violation: which constraint, where, and why.

    ``rule`` carries the paper-rule label of the violated constraint
    (empty only for violation kinds the rule table does not know).
    """

    kind: str
    scheme_name: str
    constraint: str
    detail: str
    rule: str = field(default="", compare=False)

    def __str__(self) -> str:
        return f"[{self.kind}] {self.constraint}: {self.detail}"


def key_violation(fd: FunctionalDependency) -> Violation:
    """The violation of ``fd``: two tuples agree on a total left-hand
    side but not on the right-hand side (the engine also raises it for
    two rows of one image on one primary key)."""
    return Violation(
        "key-dependency",
        fd.scheme_name,
        str(fd),
        "two tuples agree on a total left-hand side but "
        "differ on the right-hand side",
        rule=rules.paper_rule("key-dependency"),
    )


class ConsistencyChecker:
    """Evaluates database states against one relational schema."""

    def __init__(self, schema: RelationalSchema, tracer: Tracer | None = None):
        self.schema = schema
        self.tracer = tracer
        # Key dependencies implied by the schemes' candidate keys are always
        # in force, even when not listed in F explicitly.
        self._implicit_keys: list[KeyDependency] = []
        declared = {
            (fd.scheme_name, fd.lhs, fd.rhs) for fd in schema.fds
        }
        for scheme in schema.schemes:
            for key in sorted(scheme.candidate_keys, key=lambda k: [a.name for a in k]):
                dep = KeyDependency(
                    scheme.name,
                    frozenset(a.name for a in key),
                    frozenset(scheme.attribute_names),
                )
                if (dep.scheme_name, dep.lhs, dep.rhs) not in declared:
                    self._implicit_keys.append(dep)

    def _trace_check(
        self,
        kind: str,
        scheme_name: str,
        constraint: str,
        ok: bool,
        rows: int | None = None,
    ) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                TraceEvent(
                    event="check",
                    op="check",
                    scheme=scheme_name,
                    constraint=constraint,
                    kind=kind,
                    rule=rules.paper_rule(kind),
                    outcome="ok" if ok else "violation",
                    rows=rows,
                )
            )

    def _emit(self, violation: Violation) -> Violation:
        if self.tracer is not None:
            self.tracer.emit(
                TraceEvent(
                    event="violation",
                    op="check",
                    scheme=violation.scheme_name,
                    constraint=violation.constraint,
                    kind=violation.kind,
                    rule=violation.rule,
                    outcome="rejected",
                    detail=violation.detail,
                )
            )
        return violation

    def explain(self) -> dict:
        """The checks :meth:`iter_violations` will run, in evaluation
        order, each with its constraint id, kind and paper-rule label."""
        checks: list[dict] = []

        def add(check: str, scheme: str, constraint: str, kind: str) -> None:
            checks.append(
                {
                    "step": len(checks) + 1,
                    "check": check,
                    "scheme": scheme,
                    "constraint": constraint,
                    "kind": kind,
                    "rule": rules.paper_rule(kind),
                }
            )

        for scheme in self.schema.schemes:
            add("structure", scheme.name, scheme.name, "structure")
        for fd in list(self.schema.fds) + self._implicit_keys:
            add("key-dependency", fd.scheme_name, str(fd), "key-dependency")
        for ind in self.schema.inds:
            add(
                "inclusion-dependency",
                ind.lhs_scheme,
                str(ind),
                "inclusion-dependency",
            )
        for nc in self.schema.null_constraints:
            add(
                "null-constraint",
                nc.scheme_name,
                str(nc),
                rules.classify_null_constraint(nc),
            )
        return {"schemes": len(self.schema.schemes), "checks": checks}

    def explain_text(self) -> str:
        """Human-readable form of :meth:`explain`."""
        explanation = self.explain()
        lines = [
            f"EXPLAIN check ({explanation['schemes']} schemes, "
            f"{len(explanation['checks'])} checks)"
        ]
        for check in explanation["checks"]:
            lines.append(
                f"  {check['step']}. {check['check']} on {check['scheme']}: "
                f"{check['constraint']}  [{check['kind']}]"
            )
            if check["rule"]:
                lines.append(f"       rule: {check['rule']}")
        return "\n".join(lines)

    def iter_violations(
        self, state: StateLike, scheme: str | None = None
    ) -> Iterator[Violation]:
        """Yield every violation of the schema's constraints by ``state``.

        ``state`` is a :class:`DatabaseState` or any mapping of scheme
        names to relation-like collections (:data:`StateLike`) -- the
        engine passes its stored tables, so its re-check builds no
        :class:`Relation` and no tuple per row.
        Every column is read once per pass (:class:`Columns`).  With
        ``scheme``, only the constraints that name it are evaluated (in
        the same order): its structure, key dependencies and null
        constraints, and every inclusion dependency with it on either
        side -- the online merge's check of the merged scheme.
        """

        def named(*names: str) -> bool:
            return scheme is None or scheme in names

        columns = Columns(state)
        yield from self._structural_violations(state, scheme)
        for fd in list(self.schema.fds) + self._implicit_keys:
            if fd.scheme_name not in state or not named(fd.scheme_name):
                continue
            ok = fd.holds_in(columns)
            self._trace_check(
                "key-dependency",
                fd.scheme_name,
                str(fd),
                ok,
                rows=len(state[fd.scheme_name]),
            )
            if not ok:
                yield self._emit(key_violation(fd))
        for ind in self.schema.inds:
            if ind.lhs_scheme not in state or ind.rhs_scheme not in state:
                continue
            if not named(ind.lhs_scheme, ind.rhs_scheme):
                continue
            ok = ind.holds_in(columns)
            self._trace_check(
                "inclusion-dependency",
                ind.lhs_scheme,
                str(ind),
                ok,
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
                        rule=rules.paper_rule("inclusion-dependency"),
                    )
                )
        for nc in self.schema.null_constraints:
            if nc.scheme_name not in state or not named(nc.scheme_name):
                continue
            kind = rules.classify_null_constraint(nc)
            rel = state[nc.scheme_name]
            ok = nc.holds_in(columns)
            self._trace_check(
                kind, nc.scheme_name, str(nc), ok, rows=len(rel)
            )
            if not ok:
                # Name the violating tuple: only a failed check walks
                # the relation tuple by tuple, in its set order.
                t = next(t for t in rel.tuples if not nc.holds_for(t))
                yield self._emit(
                    Violation(
                        "null-constraint",
                        nc.scheme_name,
                        str(nc),
                        f"violated by tuple {t!r}",
                        rule=rules.paper_rule(kind),
                    )
                )

    def _structural_violations(
        self, state: StateLike, only: str | None = None
    ) -> Iterator[Violation]:
        rule = rules.paper_rule("structure")
        for scheme in self.schema.schemes:
            if only is not None and scheme.name != only:
                continue
            if scheme.name not in state:
                yield self._emit(
                    Violation(
                        "structure",
                        scheme.name,
                        scheme.name,
                        "state has no relation for this scheme",
                        rule=rule,
                    )
                )
                continue
            rel = state[scheme.name]
            if set(rel.attribute_names) != set(scheme.attribute_names):
                yield self._emit(
                    Violation(
                        "structure",
                        scheme.name,
                        scheme.name,
                        f"relation attributes {sorted(rel.attribute_names)} do "
                        f"not match scheme attributes "
                        f"{sorted(scheme.attribute_names)}",
                        rule=rule,
                    )
                )

    def violations(self, state: StateLike) -> list[Violation]:
        """All violations, as a list."""
        return list(self.iter_violations(state))

    def is_consistent(self, state: StateLike) -> bool:
        """True iff ``state`` satisfies every constraint of the schema."""
        return next(self.iter_violations(state), None) is None


def is_consistent(state: DatabaseState, schema: RelationalSchema) -> bool:
    """Module-level convenience wrapper over :class:`ConsistencyChecker`."""
    return ConsistencyChecker(schema).is_consistent(state)
