"""Query navigation with operation counting.

The primitives mirror what a 1992 application would do against the
schemas the paper compares: primary-key lookups, foreign-key
navigations (joins), and object reconstruction from merged relations by
total projection.  Every navigation increments the shared
:class:`~repro.engine.stats.EngineStats`, which is what the
join-reduction benchmarks report.

Navigations are index-backed where the storage engine keeps an index:
a navigation landing on the target's primary key costs one ``lookup``
(counted -- a navigation is never cheaper than a point query), one
landing on a reverse-reference index costs an ``index_hit``, and only
the residual cases scan (``tuples_scanned``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.engine.database import Database
from repro.engine.plans import attr_extractor
from repro.engine.rows import adopt_row
from repro.relational.tuples import Tuple, contains_null

if TYPE_CHECKING:  # the merge machinery loads on the first merge
    from repro.core.merge import MergedSchemeInfo


class QueryEngine:
    """Point queries and join navigation over a :class:`Database`."""

    def __init__(self, db: Database):
        self.db = db
        self.stats = db.stats
        self._ind_cache: tuple[Any, dict, dict] | None = None

    def _ind_maps(self) -> tuple[dict, dict]:
        """Per-IND lookup maps for the workload profile, rebuilt when the
        database's schema object changes (an online merge swaps it).

        The forward map keys a ``join_to`` call shape
        ``(via, target_scheme, target_attrs)`` to the matching IND's
        string form; the reverse map keys a ``find_referencing`` shape
        ``(source_scheme, via, target_attrs)``.
        """
        schema = self.db.schema
        cache = self._ind_cache
        if cache is not None and cache[0] is schema:
            return cache[1], cache[2]
        forward: dict[tuple, str] = {}
        reverse: dict[tuple, str] = {}
        for ind in schema.inds:
            label = str(ind)
            forward.setdefault(
                (ind.lhs_attrs, ind.rhs_scheme, ind.rhs_attrs), label
            )
            # The same IND navigated backwards (referenced key -> the
            # referencing rows) -- the Figure 3 profile-query shape.
            forward.setdefault(
                (ind.rhs_attrs, ind.lhs_scheme, ind.lhs_attrs), label
            )
            reverse.setdefault(
                (ind.lhs_scheme, ind.lhs_attrs, ind.rhs_attrs), label
            )
        self._ind_cache = (schema, forward, reverse)
        return forward, reverse

    # -- primitives ---------------------------------------------------------

    def get(self, scheme_name: str, pk: tuple[Any, ...] | Any) -> Tuple | None:
        """Primary-key lookup (1 lookup)."""
        return self.db.get(scheme_name, pk)

    def join_to(
        self,
        source: Tuple,
        via: Sequence[str],
        target_scheme: str,
        target_attrs: Sequence[str] | None = None,
    ) -> Tuple | None:
        """Navigate from one tuple to the referenced row (1 join).

        ``via`` names the foreign-key attributes of ``source``;
        ``target_attrs`` defaults to the target's primary key.  Returns
        ``None`` when the foreign key is null (no referenced object).
        The primary-key probe inside the navigation counts as one
        lookup, exactly as the equivalent :meth:`Database.get` would.
        """
        via_t = tuple(via)
        value = attr_extractor(via_t)(source)
        self.stats.joins_performed += 1
        if contains_null(value):
            return None
        table = self.db.table(target_scheme)
        targets = (
            tuple(target_attrs)
            if target_attrs is not None
            else table.scheme.key_names
        )
        ind = self._ind_maps()[0].get((via_t, target_scheme, targets))
        if ind is not None:
            self.stats.count_ind_join(ind)
        if targets == table.scheme.key_names:
            self.stats.lookups += 1
            row = table.rows.get(value)
            return None if row is None else adopt_row(row)
        index = table.group_indexes.get(targets)
        if index is not None:
            self.stats.index_hits += 1
            referencers = index.get(value)
            if referencers:
                return adopt_row(table.rows[next(iter(referencers))])
            return None
        self.stats.index_misses += 1
        self.stats.tuples_scanned += len(table.rows)
        extract = attr_extractor(targets)
        for row in table.rows.values():
            if extract(row) == value:
                return adopt_row(row)
        return None

    def find_referencing(
        self,
        target: Tuple,
        source_scheme: str,
        via: Sequence[str],
        target_attrs: Sequence[str],
    ) -> list[Tuple]:
        """All rows of ``source_scheme`` referencing ``target`` (1 join).

        Answered from the source's reverse-reference index in O(k) when
        the ``via`` group is indexed (it is for every inclusion-
        dependency side); only unindexed or null-valued probes scan.
        Results come back in row insertion order, as a scan would
        produce them.

        Every probe (pk or reverse-index) counts one ``lookup`` besides
        the join, mirroring ``join_to``'s pk probe -- a navigation is
        never cheaper than a point query in either direction.
        """
        self.stats.joins_performed += 1
        targets_t = tuple(target_attrs)
        value = attr_extractor(targets_t)(target)
        table = self.db.table(source_scheme)
        via_t = tuple(via)
        ind = self._ind_maps()[1].get((source_scheme, via_t, targets_t))
        if ind is not None:
            self.stats.count_ind_join(ind)
        if not contains_null(value):
            if via_t == table.scheme.key_names:
                self.stats.lookups += 1
                row = table.rows.get(value)
                return [adopt_row(row)] if row is not None else []
            index = table.group_indexes.get(via_t)
            if index is not None:
                self.stats.index_hits += 1
                self.stats.lookups += 1
                referencers = index.get(value)
                if not referencers:
                    return []
                rows = table.rows
                return [adopt_row(rows[pk]) for pk in referencers]
            self.stats.index_misses += 1
        self.stats.tuples_scanned += len(table.rows)
        extract = attr_extractor(via_t)
        return [
            adopt_row(row)
            for row in table.rows.values()
            if extract(row) == value
        ]

    # -- merged-relation reconstruction ---------------------------------------

    def object_view(
        self, info: MergedSchemeInfo, member: str, merged_row: Tuple
    ) -> Tuple | None:
        """The ``member`` object held in one merged tuple, or ``None`` when
        absent (its required attributes are null) -- the per-tuple form of
        the total projection ``eta'`` uses (0 joins)."""
        required = info.required_remaining(member)
        if not merged_row.is_total_on(required):
            return None
        return merged_row.subtuple(info.family_attrs[member])

    def profile(
        self,
        scheme_name: str,
        pk: tuple[Any, ...] | Any,
        navigations: Sequence[tuple[Sequence[str], str, Sequence[str] | None]],
    ) -> dict[str, Tuple | None]:
        """A point query assembling one object with its related rows.

        ``navigations`` is a list of ``(via_attrs, target_scheme,
        target_attrs)``; the result maps the target scheme name to the
        joined row.  On a merged schema the same information comes from
        the single ``get`` with an empty navigation list -- the benchmarks
        compare exactly these two call shapes.
        """
        root = self.get(scheme_name, pk)
        result: dict[str, Tuple | None] = {scheme_name: root}
        if root is None:
            return result
        for via, target, target_attrs in navigations:
            result[target] = self.join_to(root, via, target, target_attrs)
        return result


def row_counts(db: Database) -> Mapping[str, int]:
    """Row count per relation (for reports)."""
    return {name: db.count(name) for name in db.schema.scheme_names}
