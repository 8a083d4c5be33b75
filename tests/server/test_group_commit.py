"""Who a forming group commit waits for.

After its first mutation, the writer may wait up to ``max_delay`` for
stragglers, but only for sessions that are writing: a session the
previous group committed a mutation for, still connected and not yet in
this group, or a mutation submitted but not yet queued.  An idle,
read-only or replication-polling connection never delays a commit.

``max_delay`` is 0.5 s here, so a wait shows as a half-second ack and
no wait as one well under it.
"""

from __future__ import annotations

import asyncio
import socket
import time
import urllib.request

from repro.client import Client
from repro.engine.database import Database
from repro.engine.wal import MemoryStorage, WriteAheadLog
from repro.server import DatabaseService, ServerConfig, ServerThread
from repro.server.protocol import encode_frame
from repro.server.service import Session
from repro.workloads.university import university_relational

MAX_DELAY = 0.5
#: An ack this fast did not wait out ``MAX_DELAY``.
PROMPT = 0.25


def _database() -> Database:
    return Database(
        university_relational(), wal=WriteAheadLog(MemoryStorage())
    )


def _insert(key: str) -> dict:
    return {"verb": "insert", "scheme": "COURSE", "row": {"C.NR": key}}


def _wait_for_connections(c: Client, n: int) -> None:
    """Block until the server's accept loop counts ``n`` connections."""
    deadline = time.monotonic() + 30
    while c.stats()["server"]["connections"] != n:
        assert time.monotonic() < deadline
        time.sleep(0.01)


def _timed_insert(c: Client, key: str) -> float:
    started = time.perf_counter()
    c.insert("COURSE", {"C.NR": key})
    return time.perf_counter() - started


def test_idle_reading_and_polling_sessions_do_not_delay_a_write():
    config = ServerConfig(max_delay=MAX_DELAY)
    with ServerThread(_database(), config) as st, socket.create_connection(
        (st.host, st.port), timeout=30
    ), socket.create_connection(
        (st.host, st.port), timeout=30
    ) as poller, Client(port=st.port, timeout=30) as reader, Client(
        port=st.port, timeout=30
    ) as writer:
        durable = reader.call("repl_status")["durable_lsn"]
        # Parked: nothing lies past the durable lsn until a commit.
        poller.sendall(
            encode_frame(
                {"id": 1, "verb": "repl_poll", "after": durable, "wait": 30}
            )
        )
        _wait_for_connections(reader, 4)
        assert reader.get("COURSE", "c0") is None
        elapsed = [_timed_insert(writer, f"c{i}") for i in range(3)]
        assert reader.get("COURSE", "c2") is not None
    assert max(elapsed) < PROMPT, elapsed


def test_previous_group_writers_still_share_one_barrier():
    async def scenario():
        db = _database()
        service = DatabaseService(db, max_delay=MAX_DELAY)
        await service.start()
        a, b = Session(id=1), Session(id=2)
        # A third, idle connection, counted as the accept loop would.
        service.connections = 3
        # Both sessions write in one group.
        both = await asyncio.gather(
            service.handle(a, _insert("a1")), service.handle(b, _insert("b1"))
        )
        groups = db.stats.wal_group_commits
        # Next round, b arrives 20 ms after a: the group waits for it.
        started = time.perf_counter()
        first = asyncio.ensure_future(service.handle(a, _insert("a2")))
        await asyncio.sleep(0.02)
        second = await service.handle(b, _insert("b2"))
        first = await first
        elapsed = time.perf_counter() - started
        added = db.stats.wal_group_commits - groups
        await service.stop()
        return both + [first, second], added, elapsed

    responses, added, elapsed = asyncio.run(scenario())
    assert all(r["ok"] for r in responses), responses
    assert added == 1
    assert elapsed < PROMPT, elapsed


def test_disconnected_previous_writer_does_not_delay_the_next_group():
    config = ServerConfig(max_delay=MAX_DELAY)
    with ServerThread(_database(), config) as st, socket.create_connection(
        (st.host, st.port), timeout=30
    ), Client(port=st.port, timeout=30) as b:
        with Client(port=st.port, timeout=30) as a:
            a.insert("COURSE", {"C.NR": "a1"})
        _wait_for_connections(b, 2)
        elapsed = _timed_insert(b, "b1")
    assert elapsed < PROMPT, elapsed


def test_group_wait_is_recorded_for_every_group_untraced():
    n = 5
    config = ServerConfig(metrics_port=0)
    with ServerThread(_database(), config) as st, Client(
        port=st.port, timeout=30
    ) as c:
        for i in range(n):
            c.insert("COURSE", {"C.NR": f"g{i}"})
        stats = c.stats()
        url = f"http://{st.host}:{st.metrics_port}/metrics"
        with urllib.request.urlopen(url, timeout=30) as resp:
            exposition = resp.read().decode("utf-8")
    assert stats["wal_group_commits"] == n
    assert (
        f'repro_server_phase_seconds_count{{phase="group-wait"}} {n}\n'
        in exposition
    )
    family = next(
        f
        for f in stats["server"]["metrics"]
        if f["name"] == "repro_server_phase_seconds"
    )
    [sample] = family["samples"]
    assert sample["labels"] == {"phase": "group-wait"}
    assert sample["value"]["count"] == n
