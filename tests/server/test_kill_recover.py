"""SIGKILL a live server mid-load; recover; compare against the oracle.

The crash-consistency contract over the network: a client ack means the
mutation's WAL record reached the group-commit barrier (flushed to the
OS) before the response was written, so even a SIGKILL -- no drain, no
checkpoint, no atexit -- loses nothing that was acknowledged.  The
kill point is sequenced by a protocol ack count, not a sleep: the
readiness line gates startup and the 150th acknowledged insert gates
the kill, so the test is deterministic about *what* must survive even
though the exact surviving suffix varies.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading

import pytest

from repro.client import Client
from repro.engine.database import Database
from repro.engine.recovery import recover_database
from repro.engine.wal import FileStorage, WriteAheadLog
from repro.io import relational_schema_to_dict
from repro.workloads.university import university_relational

from tests.engine._wal_oracle import oracle_replay

N_CLIENTS = 4
KILL_AFTER_ACKS = 150


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "university.json"
    path.write_text(
        json.dumps(relational_schema_to_dict(university_relational()))
    )
    return str(path)


def _serve(schema_file: str, wal_path: str) -> subprocess.Popen:
    """``repro serve`` on an ephemeral port, stdout piped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), str(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )) if p
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", schema_file,
            "--wal", wal_path, "--port", "0",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )


def test_sigkill_mid_load_loses_no_acked_mutation(schema_file, tmp_path):
    wal_path = str(tmp_path / "server.wal")
    proc = _serve(schema_file, wal_path)
    try:
        ready = proc.stdout.readline()  # blocks until the server is up
        match = re.search(r"listening on [\d.]+:(\d+)", ready)
        assert match, f"no readiness line: {ready!r}"
        port = int(match.group(1))

        acked: list[list[str]] = [[] for _ in range(N_CLIENTS)]
        total = threading.Semaphore(0)

        def load(i: int) -> None:
            try:
                with Client(port=port, timeout=60) as c:
                    j = 0
                    while True:
                        key = f"k{i}-{j}"
                        c.insert("COURSE", {"C.NR": key})
                        acked[i].append(key)
                        total.release()
                        j += 1
            except (ConnectionError, OSError):
                pass  # the kill severed this connection mid-request

        workers = [
            threading.Thread(target=load, args=(i,))
            for i in range(N_CLIENTS)
        ]
        for w in workers:
            w.start()
        for _ in range(KILL_AFTER_ACKS):
            assert total.acquire(timeout=60)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
        for w in workers:
            w.join(timeout=60)
            assert not w.is_alive()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=60)

    schema = university_relational()
    with open(wal_path, "rb") as f:
        surviving = f.read()

    # Recovery and the independent oracle agree on the surviving log.
    result = recover_database(schema, wal_path)
    assert result.report.verified
    assert result.database.state() == oracle_replay(surviving, schema).state()

    # Nothing acknowledged was lost: an ack means the record passed the
    # group-commit barrier before the response went out.
    all_acked = [key for per_client in acked for key in per_client]
    assert len(all_acked) >= KILL_AFTER_ACKS
    for key in all_acked:
        assert result.database.get("COURSE", (key,)) is not None, key
    result.database.wal.close()


def test_serve_startup_line_splits_replay_and_verify(schema_file, tmp_path):
    """Restarting on a log with history prints one ``recovered`` line
    with the tuple count and where the recovery time went."""
    wal_path = str(tmp_path / "server.wal")
    db = Database(
        university_relational(), wal=WriteAheadLog(FileStorage(wal_path))
    )
    db.insert_many("COURSE", [{"C.NR": f"c{i}"} for i in range(3)])
    db.wal.close()
    proc = _serve(schema_file, wal_path)
    try:
        recovered = proc.stdout.readline()
        ready = proc.stdout.readline()
        assert re.search(r"listening on [\d.]+:\d+", ready), ready
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=60)
    assert proc.returncode == 0
    assert re.fullmatch(
        rf"recovered 3 tuple\(s\) from {re.escape(wal_path)} "
        r"\(replay \d+\.\d\ds, verify \d+\.\d\ds\)\n",
        recovered,
    ), recovered
