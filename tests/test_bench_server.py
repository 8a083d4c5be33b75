"""The served smoke load (benchmarks/bench_server.py --connect).

CI's server, fleet and replication smoke jobs use this script as their
load driver; here it drives an in-process server over a file WAL.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.engine.database import Database
from repro.engine.wal import FileStorage, WriteAheadLog
from repro.server import ServerThread
from repro.workloads.university import university_relational

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "bench_server", REPO_ROOT / "benchmarks" / "bench_server.py"
)
bench_server = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_server)


def test_bench_external_drives_a_served_database(tmp_path):
    wal = WriteAheadLog(
        FileStorage(str(tmp_path / "db.wal"), fsync=False, buffered=True)
    )
    db = Database(university_relational(), wal=wal)
    with ServerThread(db) as st:
        summary = bench_server.bench_external("127.0.0.1", st.port)
    inserts = bench_server.CLIENTS * bench_server.OPS_PER_CLIENT
    assert summary["clients"] * summary["ops_per_client"] == inserts
    assert db.count("COURSE") == inserts
    assert summary["group_commits"] >= 1
    assert summary["batched_records"] >= inserts
    assert summary["metrics_bytes"] > 0
    assert "workers" not in summary  # a plain server, not a fleet
