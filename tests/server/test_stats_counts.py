"""Each served quantity is counted once, in the metrics registry.

Prepare outcomes, shipped/applied replication records and rejected
connections live only in :class:`repro.server.service.ServerMetrics`;
the ``stats`` verb and the drain summary read them from there.  These
tests pin that the ``stats`` JSON (and the drain summary) still report
each count, as an ``int``, and that it equals the registry counter.
"""

from __future__ import annotations

import socket
import time

from repro.client import Client
from repro.engine.database import Database
from repro.engine.wal import MemoryStorage, WriteAheadLog
from repro.server import ServerConfig, ServerThread
from repro.server.protocol import decode_frame
from repro.server.server import drain_summary
from repro.workloads.university import university_relational


def _database() -> Database:
    return Database(
        university_relational(), wal=WriteAheadLog(MemoryStorage())
    )


def _counter(stats: dict, name: str, **labels: str) -> float:
    """One sample of the registry snapshot carried by ``stats``."""
    family = next(f for f in stats["server"]["metrics"] if f["name"] == name)
    return sum(
        s["value"] for s in family["samples"] if s["labels"] == labels
    )


def _prepare(c: Client, xid: str, key: str) -> None:
    c.call(
        "batch_prepare", xid=xid, ops=[["insert", "COURSE", {"C.NR": key}]]
    )


def test_prepare_outcomes_read_through_stats():
    config = ServerConfig(prepare_timeout=0.2)
    with ServerThread(_database(), config) as st, Client(
        port=st.port, timeout=30
    ) as c:
        # Distinct counts per outcome, so a swapped label shows.
        for i in range(3):
            _prepare(c, f"x-commit{i}", f"c{i}")
            c.call("batch_commit", xid=f"x-commit{i}")
        for i in range(2):
            _prepare(c, f"x-abort{i}", f"a{i}")
            c.call("batch_abort", xid=f"x-abort{i}")
        _prepare(c, "x-expire", "e0")
        deadline = time.monotonic() + 30
        while c.stats()["server"]["prepares"]["held"]:
            assert time.monotonic() < deadline
            time.sleep(0.05)
        stats = c.stats()
        assert c.get("COURSE", "c2") is not None
        assert c.get("COURSE", "a1") is None
        assert c.get("COURSE", "e0") is None
    want = {"committed": 3, "aborted": 2, "expired": 1}
    assert stats["server"]["prepares"] == {
        "held": False,
        "prepared": 6,
        **want,
    }
    for outcome, count in want.items():
        assert isinstance(stats["server"]["prepares"][outcome], int)
        assert (
            _counter(stats, "repro_server_prepares_total", outcome=outcome)
            == count
        )


def test_replication_records_read_through_stats():
    with ServerThread(_database()) as primary:
        with ServerThread(
            _database(),
            ServerConfig(replicate_from=f"127.0.0.1:{primary.port}"),
        ) as replica, Client(port=primary.port, timeout=30) as pc:
            deadline = time.monotonic() + 30
            while pc.repl_status()["replicas"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            for i in range(5):
                pc.insert("COURSE", {"C.NR": f"c{i}"})
            lsn = primary.db.wal.durable_lsn
            with Client(port=replica.port, timeout=30) as rc:
                while rc.repl_status()["applied_lsn"] < lsn:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                replica_stats = rc.stats()
            primary_stats = pc.stats()
    shipped = primary_stats["server"]["replication"]["shipped"]
    applied = replica_stats["server"]["replication"]["applied"]
    assert isinstance(shipped, int) and isinstance(applied, int)
    assert shipped >= 5 and applied >= 5
    assert shipped == _counter(
        primary_stats, "repro_server_repl_shipped_records_total"
    )
    assert applied == _counter(
        replica_stats, "repro_server_repl_applied_records_total"
    )


def test_rejected_connection_read_through_stats_and_drain_summary():
    st = ServerThread(_database(), ServerConfig(max_connections=1))
    with st, Client(port=st.port, timeout=30) as held:
        with socket.create_connection(("127.0.0.1", st.port), 30) as sock:
            frame = decode_frame(sock.makefile("rb").readline())
        assert frame["error"]["type"] == "overloaded"
        stats = held.stats()
    assert (
        _counter(stats, "repro_server_rejected_connections_total") == 1
    )
    summary = drain_summary(st.server)
    assert summary["rejected_connections"] == 1
    assert isinstance(summary["rejected_connections"], int)
    assert summary["sessions"] == 1


def test_drain_summary_reports_the_closed_file_wal_size(tmp_path):
    """The drain closes the log before the summary reads the WAL-size
    gauge; a file WAL still has its final length on disk."""
    path = tmp_path / "served.wal"
    st = ServerThread(Database(university_relational(), wal_path=str(path)))
    with st, Client(port=st.port, timeout=30) as c:
        c.insert("COURSE", {"C.NR": "c1"})
        c.insert("COURSE", {"C.NR": "c2"})
    summary = drain_summary(st.server)
    size = _counter(summary, "repro_server_wal_size_bytes")
    assert size == path.stat().st_size > 0
