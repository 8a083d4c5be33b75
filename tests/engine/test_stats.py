"""The engine's operation counters."""

import dataclasses

import pytest

from repro.engine.database import Database
from repro.engine.query import QueryEngine
from repro.engine.stats import EngineStats
from repro.workloads.university import university_state


def test_reset_zeroes_every_field():
    """``reset()`` must cover every declared counter -- enumerated via
    ``dataclasses.fields`` so a newly added counter cannot be missed --
    and must rebuild factory-default fields through their factory
    (``f.default`` is the ``MISSING`` sentinel for those)."""
    stats = EngineStats()
    for f in dataclasses.fields(EngineStats):
        setattr(stats, f.name, 42)
    stats.reset()
    fresh = EngineStats()
    for f in dataclasses.fields(EngineStats):
        assert getattr(stats, f.name) == getattr(fresh, f.name), f.name
    assert stats.latencies == {}  # factory default, not MISSING


def test_snapshot_covers_every_field():
    stats = EngineStats(lookups=3, index_hits=2, bulk_rows=7)
    snap = stats.snapshot()
    assert set(snap) == {f.name for f in dataclasses.fields(EngineStats)}
    assert snap["lookups"] == 3
    assert snap["index_hits"] == 2
    assert snap["bulk_rows"] == 7


def test_index_counters_move(university_schema):
    db = Database(university_schema)
    db.load_state(university_state(n_courses=10, seed=3))
    db.stats.reset()
    dept = next(iter(db.scan("DEPARTMENT")))
    db.stats.reset()
    q = QueryEngine(db)
    q.find_referencing(dept, "OFFER", ["O.D.NAME"], ["D.NAME"])
    assert db.stats.index_hits == 1
    assert db.stats.index_misses == 0
    assert db.stats.tuples_scanned == 0


def test_bulk_rows_counts_batched_work(university_schema):
    db = Database(university_schema)
    db.stats.reset()
    db.insert_many("COURSE", [{"C.NR": f"c{i}"} for i in range(5)])
    assert db.stats.bulk_rows == 5
    assert db.stats.inserts == 5


def test_observe_builds_per_op_histograms():
    stats = EngineStats()
    for us in (5, 10, 20, 40):
        stats.observe("insert", us * 1e-6)
    stats.observe("delete", 1e-3)
    assert set(stats.latencies) == {"insert", "delete"}
    summary = stats.snapshot()["latencies"]
    assert summary["insert"]["count"] == 4
    assert summary["delete"]["count"] == 1
    # Quantiles are log2-bucket upper bounds, capped at the exact max.
    assert summary["insert"]["p99_us"] == 40.0
    assert summary["insert"]["p50_us"] <= 16.0


def test_prometheus_export_shape():
    stats = EngineStats(inserts=3)
    stats.observe("insert", 2e-6)
    stats.observe("insert", 3e-6)
    text = stats.to_prometheus()
    assert "repro_engine_inserts 3" in text
    assert '# TYPE repro_engine_op_latency_seconds histogram' in text
    assert 'repro_engine_op_latency_seconds_bucket{op="insert",le="+Inf"} 2' in text
    assert 'repro_engine_op_latency_seconds_count{op="insert"} 2' in text
    # Cumulative buckets end at the total count.
    assert text.endswith("\n")


def test_prometheus_escapes_labeled_counter_keys():
    stats = EngineStats()
    stats.scheme_mutations['we"ird\\name'] = 2
    text = stats.to_prometheus()
    assert (
        'repro_engine_scheme_mutations{scheme="we\\"ird\\\\name"} 2'
        in text
    )


def test_reset_clears_histograms():
    stats = EngineStats()
    stats.observe("insert", 1e-6)
    stats.reset()
    assert stats.latencies == {}


def test_wal_counters_move_and_reset(university_schema):
    from repro.engine.recovery import recover_database
    from repro.engine.wal import MemoryStorage, WriteAheadLog

    db = Database(university_schema, wal=WriteAheadLog(MemoryStorage()))
    db.insert("COURSE", {"C.NR": "c1"})
    db.insert("COURSE", {"C.NR": "c2"})
    assert db.stats.wal_records == 2
    assert db.stats.wal_bytes > 0
    db.checkpoint()
    assert db.stats.checkpoints == 1

    result = recover_database(
        university_schema,
        storage=MemoryStorage(db.wal.storage.read() + b"torn tail"),
    )
    rstats = result.database.stats
    assert rstats.wal_replayed_records == 1  # the snapshot image
    assert rstats.wal_truncated_bytes == len(b"torn tail")
    rstats.reset()
    assert rstats.wal_replayed_records == 0
    assert rstats.wal_truncated_bytes == 0
    assert rstats.snapshot()["wal_records"] == 0


def test_histogram_merge_refuses_self_merge():
    from repro.obs.histogram import LatencyHistogram

    hist = LatencyHistogram()
    hist.record(1e-6)
    with pytest.raises(ValueError, match="itself"):
        hist.merge(hist)
    assert hist.count == 1  # refused before any mutation


def test_histogram_merge_refuses_mismatched_buckets():
    from repro.obs.histogram import LatencyHistogram

    a, b = LatencyHistogram(), LatencyHistogram()
    b.counts = b.counts[:-1]
    with pytest.raises(ValueError, match="bucket layouts differ"):
        a.merge(b)


def test_snapshot_consistent_under_interleaved_observe():
    """A ``stats`` verb snapshotting while handlers observe into the
    same object: a histogram appearing (or the dict being swapped by a
    reentrant ``reset``) mid-walk must not blow up the iteration."""
    stats = EngineStats()
    for i in range(8):
        stats.observe(f"op{i}", 1e-6)

    class Trojan(dict):
        def items(self):
            # Simulate an observe of a brand-new op (and a reset) landing
            # between the snapshot's list() copy and its iteration.
            items = list(super().items())
            stats.observe("latecomer", 1e-6)
            stats.reset()
            return iter(items)

    stats.latencies = Trojan(stats.latencies)
    snap = stats.snapshot()
    assert set(snap["latencies"]) >= {f"op{i}" for i in range(8)}


def test_group_commit_counters_reset_and_export(university_schema):
    from repro.engine.wal import MemoryStorage, WriteAheadLog

    db = Database(university_schema, wal=WriteAheadLog(MemoryStorage()))
    db.insert("COURSE", {"C.NR": "c1"})
    db.sync_wal()
    assert db.stats.snapshot()["wal_group_commits"] == 1
    assert "repro_engine_wal_group_commits 1" in db.stats.to_prometheus()
    assert "repro_engine_wal_batched_records 1" in db.stats.to_prometheus()
    db.stats.reset()
    assert db.stats.wal_group_commits == 0
    assert db.stats.wal_batched_records == 0
