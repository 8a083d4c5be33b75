"""Operation counters and latency histograms for the access benchmarks."""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

from repro.obs.histogram import LatencyHistogram
from repro.obs.metrics import format_labels


@dataclass
class EngineStats:
    """Counts (and latency distributions) of the work a database/query-
    engine pair performed.

    ``joins_performed`` counts relation-to-relation navigations (the
    quantity merging is supposed to reduce); ``lookups`` counts primary-
    key accesses (including the primary-key probe inside a navigation);
    ``tuples_scanned`` counts tuples touched by scans and fallback
    constraint checks.  ``index_hits`` / ``index_misses`` count reference
    and navigation checks answered by (resp. falling through) the
    engine's key and reverse-reference indexes, and ``bulk_rows`` counts
    rows that moved through a bulk path (``load_state``, ``insert_many``,
    ``apply_batch``).

    The ``wal_*`` counters track the durability subsystem
    (:mod:`repro.engine.wal`): records and bytes appended to the log,
    records replayed and transactions' records rolled back during
    :meth:`~repro.engine.database.Database.recover`, bytes truncated
    off a torn log tail, and ``checkpoints`` taken.
    ``wal_group_commits`` / ``wal_batched_records`` count group-commit
    sync barriers and the records they made durable (see
    :meth:`repro.engine.wal.WriteAheadLog.sync`); their ratio is the
    achieved batching factor.

    ``latencies`` maps an operation name to a
    :class:`~repro.obs.histogram.LatencyHistogram`; it stays empty
    unless something calls :meth:`observe` (the benchmark harness does
    around every measured op).

    ``ind_joins`` and ``scheme_mutations`` are the merge advisor's
    workload profile (see ``docs/ADVISOR.md``): navigations along one
    inclusion dependency -- both directions, ``join_to`` pk-probes and
    ``find_referencing`` reverse probes alike -- keyed by the IND's
    string form, and mutations (insert/update/delete) keyed by scheme
    name.  Their ratio per candidate family is what
    :class:`~repro.core.planner.MergePlanner`'s workload-aware mode
    scores.

    ``reset`` and ``snapshot`` are driven by ``dataclasses.fields`` so a
    newly added counter can never be silently missed by either; fields
    with factory defaults (like ``latencies``) reset through their
    factory.
    """

    inserts: int = 0
    deletes: int = 0
    updates: int = 0
    lookups: int = 0
    joins_performed: int = 0
    tuples_scanned: int = 0
    constraint_checks: int = 0
    index_hits: int = 0
    index_misses: int = 0
    bulk_rows: int = 0
    wal_records: int = 0
    wal_bytes: int = 0
    wal_replayed_records: int = 0
    wal_rolled_back_records: int = 0
    wal_truncated_bytes: int = 0
    wal_group_commits: int = 0
    wal_batched_records: int = 0
    checkpoints: int = 0
    ind_joins: dict[str, int] = field(default_factory=dict)
    scheme_mutations: dict[str, int] = field(default_factory=dict)
    latencies: dict[str, LatencyHistogram] = field(default_factory=dict)

    def observe(self, op: str, seconds: float) -> None:
        """Record one operation latency into the ``op`` histogram."""
        hist = self.latencies.get(op)
        if hist is None:
            hist = self.latencies[op] = LatencyHistogram()
        hist.record(seconds)

    def count_ind_join(self, ind: str) -> None:
        """Record one navigation along the inclusion dependency ``ind``."""
        self.ind_joins[ind] = self.ind_joins.get(ind, 0) + 1

    def count_scheme_mutation(self, scheme: str) -> None:
        """Record one mutation (insert/update/delete) of ``scheme``."""
        self.scheme_mutations[scheme] = (
            self.scheme_mutations.get(scheme, 0) + 1
        )

    def reset(self) -> None:
        """Zero every counter (every dataclass field, by construction).

        A field with a factory default is re-created through
        ``default_factory`` -- using ``f.default`` there would assign the
        ``MISSING`` sentinel.
        """
        for f in fields(self):
            if f.default_factory is not MISSING:
                setattr(self, f.name, f.default_factory())
            else:
                setattr(self, f.name, f.default)

    def snapshot(self) -> dict[str, object]:
        """A plain-dict copy of every field, for reporting; histograms
        appear as their JSON-ready summaries.

        Safe against concurrent :meth:`observe` calls from cooperative
        tasks (the server's handlers observe into the same stats object
        a ``stats`` verb is snapshotting): the ``latencies`` dict is
        copied via ``list(...)`` before iteration, so a histogram added
        -- or the dict swapped by a reentrant :meth:`reset` -- mid-walk
        cannot raise ``RuntimeError: dict changed size``.
        """
        out: dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "latencies":
                value = {op: hist.to_dict() for op, hist in list(value.items())}
            elif isinstance(value, dict):
                value = dict(value)
            out[f.name] = value
        return out

    def to_json(self) -> dict[str, object]:
        """Alias of :meth:`snapshot` (the JSON-ready export)."""
        return self.snapshot()

    def to_prometheus(self, prefix: str = "repro_engine") -> str:
        """The counters and latency histograms in Prometheus text
        exposition format (counters plus cumulative ``le`` buckets)."""
        lines: list[str] = []
        labeled = {"ind_joins": "ind", "scheme_mutations": "scheme"}
        for f in fields(self):
            if f.name == "latencies":
                continue
            if f.name in labeled:
                label = labeled[f.name]
                series = getattr(self, f.name)
                if not series:
                    continue
                lines.append(f"# TYPE {prefix}_{f.name} counter")
                for key in sorted(series):
                    lines.append(
                        f"{prefix}_{f.name}{format_labels({label: key})} "
                        f"{series[key]}"
                    )
                continue
            lines.append(f"# TYPE {prefix}_{f.name} counter")
            lines.append(f"{prefix}_{f.name} {getattr(self, f.name)}")
        if self.latencies:
            metric = f"{prefix}_op_latency_seconds"
            lines.append(f"# TYPE {metric} histogram")
            for op in sorted(self.latencies):
                hist = self.latencies[op]
                lines.append(
                    hist.to_prometheus(metric, labels={"op": op}).rstrip("\n")
                )
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.snapshot().items() if v)
        return f"EngineStats({parts})"
