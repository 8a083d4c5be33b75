"""Object-level views over merged relations.

After a migration, applications still think in the original object-sets
(COURSE, OFFER, TEACH...).  :class:`MergedViewResolver` keeps that API
working against the merged database: member-level lookups, scans and
existence tests are answered from the single wide relation using the
provenance metadata (:class:`~repro.core.merge.MergedSchemeInfo`), so a
"virtual TEACH table" costs a primary-key probe, not a join.

Key translation: a member's primary-key value corresponds positionally
to the merged key ``Km`` (the total-equality correspondence of
Definition 4.1), so ``member_get("OFFER", ("crs-1",))`` probes
``Rm[Km = ("crs-1",)]`` and projects the OFFER attributes -- returning
``None`` when the member's required attributes are null there (the
object is absent).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.engine.database import Database
from repro.relational.tuples import Tuple

if TYPE_CHECKING:  # the merge machinery loads on the first merge
    from repro.core.merge import MergedSchemeInfo


class MergedViewResolver:
    """Answers member-level queries against one merged relation."""

    def __init__(self, db: Database, info: MergedSchemeInfo):
        if not db.schema.has_scheme(info.merged_name):
            raise KeyError(
                f"database schema has no merged scheme {info.merged_name!r}"
            )
        self.db = db
        self.info = info

    def members(self) -> tuple[str, ...]:
        """The original object-set names this view can resolve."""
        return self.info.family

    def _project_member(self, member: str, row: Tuple) -> Tuple | None:
        required = self.info.required_remaining(member)
        if not row.is_total_on(required):
            return None
        present = [
            a
            for a in self.info.family_attrs[member]
            if a in row
        ]
        return row.subtuple(present)

    def member_get(
        self, member: str, key: tuple[Any, ...] | Any
    ) -> Tuple | None:
        """The ``member`` row keyed by its original primary-key value, or
        ``None`` when that object does not exist (one lookup, no join)."""
        if member not in self.info.family:
            raise KeyError(f"{member!r} is not part of {self.info.merged_name}")
        row = self.db.get(self.info.merged_name, key)
        if row is None:
            return None
        return self._project_member(member, row)

    def member_scan(self, member: str) -> Iterator[Tuple]:
        """All present ``member`` rows (one scan of the merged relation)."""
        if member not in self.info.family:
            raise KeyError(f"{member!r} is not part of {self.info.merged_name}")
        for row in self.db.scan(self.info.merged_name):
            projected = self._project_member(member, row)
            if projected is not None:
                yield projected

    def member_count(self, member: str) -> int:
        """Number of present ``member`` objects."""
        return sum(1 for _ in self.member_scan(member))

    def object_profile(
        self, key: tuple[Any, ...] | Any
    ) -> dict[str, Tuple | None]:
        """Every member's row for one key value -- the whole-object read
        that costs three joins on the unmerged schema and one lookup
        here."""
        row = self.db.get(self.info.merged_name, key)
        if row is None:
            return {member: None for member in self.info.family}
        return {
            member: self._project_member(member, row)
            for member in self.info.family
        }
